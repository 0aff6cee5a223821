"""The shrinking remainder chain of a set, computed on automaton states.

Stage 0 keeps every reachable state.  A state survives into stage
beta+1 iff, moving only through stage-beta states, it still has both
an accepting continuation and a rejecting one.  The chain strictly
shrinks until it reaches its fixpoint; the set is guessable exactly
when the fixpoint is empty.

Every stage is closed under predecessors, so it drops whole strongly
connected components, and a component's rank follows from the ranks
of the components it reaches.  The ranks are therefore computed in one
pass over the SCC condensation; only the cycle-parity test below a
component's top priority looks inside it.  The literal stage-by-stage
iteration survives only as the reference the tests compare against,
outside the package.  The trace keeps only each state's rank and two
opinion costs, memory linear in the automaton.  Stage beta is the
states of rank above beta; the rank never rises along an edge, so a
stage is nonempty iff it holds the start state.

A set has one trace: `remainder_chain` memoises it on the `ParitySet`
instance it was asked about, so the rank, `synthesize`, `classify`,
the CLI and the oracle cross-check all read the same object.  A trace
is read-only; equality, hashing and the repr of the set do not see
the memo, and an equal set built separately gets its own trace.

The word-level meaning is recovered through a correspondence this
module commits to and the oracle module cross-checks: a finite word
belongs to the stage-beta set iff every state along its run (start
state included) survives stage beta, so the rank of a word is the rank
of the state its run ends in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .cycles import has_cycle, strongly_connected_components
from .ordinal import INFINITY, OrdinalCNF, Rank, from_int
from .space import ParitySet, Word


@dataclass(frozen=True)
class RemainderTrace:
    """The chain Q_0 > Q_1 > ... > Q_N (fixpoint), kept as per-state ranks.

    `alpha_s` is the stabilization index: the least stage equal to its
    successor.  `state_rank` maps each reachable state to the least
    stage it does not survive, or INFINITY for fixpoint states; every
    finite rank is a successor.  No stage is stored; `stage` and
    `stages` read them off the ranks.

    `accept_rank` and `reject_rank` are the two opinion costs of a
    state q: `accept_rank[q]` is c(q, 0), the fewest mind changes a
    guesser needs from q while it holds opinion 0, and `reject_rank[q]`
    is c(q, 1), the same for opinion 1.  With b_o the largest c(., o)
    of the components below, an accepting component costs
    (1 + b_1, b_1), a rejecting one (b_0, 1 + b_0), a transient one
    (b_0, b_1), and a mixed one is INFINITY on both.  A state's rank is
    one more than its smaller cost, and `synthesize` reads the canonical
    guesser off the pair and memoises it on the trace.  Read on the
    chain, each cost is the highest rank of a state on an accepting
    (even maximum) or rejecting (odd maximum) cycle reachable from q,
    or 0 when there is none: inside stage i the state still reaches
    such a cycle iff the cost exceeds i.  The two costs differ by at
    most one (an accepting or rejecting pair does, and a transient one
    takes maxima of pairs that do) and are INFINITY together, so
    `rm_alpha_empty` and `gap_stages` read the start's pair alone.
    """

    subject: ParitySet
    alpha_s: OrdinalCNF
    state_rank: Mapping[int, Rank]
    accept_rank: Mapping[int, Rank]
    reject_rank: Mapping[int, Rank]

    @property
    def rank(self) -> Optional[OrdinalCNF]:
        """The mind-change rank: the start state's rank, the largest of
        all, or None when the set is not guessable."""
        rank = self.state_rank[self.subject.start]
        return None if rank is INFINITY else rank

    @property
    def guessable(self) -> bool:
        return self.rank is not None

    @property
    def fixpoint(self) -> frozenset[int]:
        return self.stage(self.alpha_s)

    def stage(self, alpha: "OrdinalCNF | int") -> frozenset[int]:
        """The states of rank above alpha; from `alpha_s` on, the fixpoint."""
        alpha = _ordinal(alpha)
        return frozenset(q for q, r in self.state_rank.items() if r > alpha)

    def stages(self) -> Iterator[frozenset[int]]:
        """Stages 0 to `alpha_s`, one at a time: stage i is stage i - 1
        without the states of rank i, so a reader that keeps no stage
        holds one, however deep the chain."""
        by_rank: dict[Rank, list[int]] = {}
        for q, r in self.state_rank.items():
            by_rank.setdefault(r, []).append(q)
        stage = frozenset(self.state_rank)
        yield stage
        for i in range(1, self.alpha_s.to_int() + 1):
            stage = stage.difference(by_rank[from_int(i)])
            yield stage

    @property
    def chain(self) -> tuple[frozenset[int], ...]:
        """Every stage of `stages` at once, about n * rank / 2 entries:
        only the tests and the benchmark's checks, which take its
        length, read it."""
        return tuple(self.stages())

    def gap_stages(self) -> list[int]:
        """Stages alpha where the word-level set is nonempty but carries
        no infinite sequence.  The theory leaves open whether this can
        happen; it does, so instances are surfaced rather than assumed
        away.  A cycle keeps one rank all round, so they run from the
        start's larger cost, the top rank of a reachable cycle, up to
        its rank, one more than its smaller cost: that is the cost
        itself when the two are equal, and no stage otherwise."""
        if self.rank is None:
            return []
        start = self.subject.start
        cost = self.accept_rank[start]
        return [cost.to_int()] if cost == self.reject_rank[start] else []


def remainder_chain(s: ParitySet) -> RemainderTrace:
    """Every rank and opinion cost in one pass over the SCC condensation.

    Unreachable states are pruned first; emptiness of the fixpoint is
    a statement about words, and words only see reachable states.
    Tarjan emits components sinks first, so a component's successors
    outside it have their costs written, and those inside read 0, under
    every maximum: the fold keeps no member set.  A mixed component
    never falls; an accepting one falls one stage after the best
    rejecting component below it, a rejecting one one stage after the
    best accepting one, and a transient one one stage after the worse
    of the two.

    The trace is memoised on the instance `s`: every later call with
    the same object returns the same trace, which callers must treat
    as read-only.
    """
    trace = s.__dict__.get("_remainder_trace")
    if trace is not None:
        return trace
    reach = s.reachable_states()
    succ = s.delta
    prio = s.priority
    acc: list[float] = [0] * s.n_states
    rej: list[float] = [0] * s.n_states
    for comp in strongly_connected_components(reach, succ):
        if len(comp) == 1:
            # one state: its one possible cycle is a self-loop, whose top
            # is the state's own priority, with nothing below it
            q = comp[0]
            peak, mixed, cyclic = prio[q], False, q in succ[q]
        else:
            # a strongly connected component has a cycle through every
            # node, so one through its top priority; the other parity
            # can only come from a cycle below the top
            cyclic = True
            peak = max(map(prio.__getitem__, comp))
            below = {q for q in comp if prio[q] < peak}
            mixed = bool(below) and has_cycle(below, succ, [[(prio, 1 - peak % 2)]])
        a = r = 0
        for q in comp:
            for nq in succ[q]:
                if acc[nq] > a:
                    a = acc[nq]
                if rej[nq] > r:
                    r = rej[nq]
        if mixed:
            a = r = math.inf
        elif cyclic:
            if peak % 2 == 0:
                a = 1 + r
            else:
                r = 1 + a
        for q in comp:
            acc[q], rej[q] = a, r

    rank = {q: 1 + min(acc[q], rej[q]) for q in reach}
    top = max((rk for rk in rank.values() if rk != math.inf), default=0)

    # one ordinal per cost: a finite cost is at most `top`, since an
    # accepting or rejecting component's larger cost is its rank and a
    # transient one's costs come from the components below
    ordinal: dict[float, Rank] = {v: from_int(v) for v in range(top + 1)}
    ordinal[math.inf] = INFINITY
    states = sorted(reach)
    trace = RemainderTrace(
        subject=s,
        alpha_s=ordinal[top],
        state_rank={q: ordinal[rank[q]] for q in states},
        accept_rank={q: ordinal[acc[q]] for q in states},
        reject_rank={q: ordinal[rej[q]] for q in states},
    )
    # not a dataclass field, so equality, hash and repr never see it
    object.__setattr__(s, "_remainder_trace", trace)
    return trace


def word_rank(trace: RemainderTrace, word: Word) -> Rank:
    """Least stage at which the word falls out of the chain: the rank of
    the state its run ends in, as ranks never rise along the run."""
    return trace.state_rank[trace.subject.state_after(word)]


def _ordinal(alpha: "OrdinalCNF | int") -> OrdinalCNF:
    """A stage index as an ordinal; `from_int` refuses a negative int."""
    return alpha if isinstance(alpha, OrdinalCNF) else from_int(alpha)


def in_s_alpha(trace: RemainderTrace, word: Word, alpha: "OrdinalCNF | int") -> bool:
    """Membership of a word in the stage-alpha set: rank strictly above
    alpha, i.e. every run state survives stage alpha."""
    return word_rank(trace, word) > _ordinal(alpha)


def s_alpha_empty(trace: RemainderTrace, alpha: "OrdinalCNF | int") -> bool:
    """The stage-alpha word set is empty iff the empty word already fell
    out (the stage sets are closed under prefixes)."""
    return not in_s_alpha(trace, (), alpha)


def rm_alpha_empty(trace: RemainderTrace, alpha: "OrdinalCNF | int") -> bool:
    """True iff no infinite run from the start stays inside stage alpha
    forever, i.e. the stage carries no point.

    A run ends on a cycle of one rank, and ranks never rise along it,
    so the stage carries a point iff a cost of the start exceeds alpha.
    This is not the same as the stage word set being empty: the word
    set can be nonempty while every branch of it dies out (see
    RemainderTrace.gap_stages).  When it holds, the next word stage is
    empty.
    """
    alpha = _ordinal(alpha)
    start = trace.subject.start
    return trace.accept_rank[start] <= alpha and trace.reject_rank[start] <= alpha


def is_guessable(s: ParitySet) -> bool:
    """True iff the remainder chain is eventually annihilated."""
    return remainder_chain(s).guessable
