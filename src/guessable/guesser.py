"""Finite-state guessers: machines that read a word and commit to a
membership opinion after every symbol.

A guesser guesses a set when, along every sequence, its opinion
converges to the sequence's membership bit.  The canonical guesser is
synthesized from the remainder chain; its mind-change budget is the
per-state rank minus one, which yields a ranked guesser whose bound
function never increases and drops strictly at every change of
opinion.  Verification is exact on ultimately periodic words, and a
product search either certifies a guesser against a set or returns an
ultimately periodic counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cycles import cycle_components, explore, shortest_word_path
from .ordinal import OrdinalCNF, order_key
from .space import (
    Machine,
    ParitySet,
    UPWord,
    Word,
    _check_alphabets,
    membership_up,
    product,
)
from .remainder import remainder_chain


class NotGuessableError(ValueError):
    """Raised when synthesis is asked for a set with nonempty fixpoint."""


@dataclass(frozen=True)
class MooreGuesser(Machine):
    """Deterministic machine with an output bit per state.

    The opinion on a word is the output of the state it reaches; the
    opinion at the empty word is the start state's output.
    """

    output: tuple[int, ...]

    def _check_label_count(self, n: int) -> None:
        if len(self.output) != n:
            raise ValueError("output map must cover every state")

    def _check_label_values(self) -> None:
        if self.output.count(0) + self.output.count(1) != len(self.output):
            raise ValueError("outputs must be bits")


@dataclass(frozen=True)
class RankedGuesser:
    """A guesser with an ordinal mind-change bound factored through its
    states: the bound never increases along reachable transitions and
    drops strictly whenever the output flips.  All bound values stay
    below the codomain bound."""

    guesser: MooreGuesser
    bound: tuple[OrdinalCNF, ...]
    codomain: OrdinalCNF

    def __post_init__(self) -> None:
        if len(self.bound) != self.guesser.n_states:
            raise ValueError("bound map must cover every state")

    def root_bound(self) -> OrdinalCNF:
        return self.bound[self.guesser.start]

    def with_codomain(self, codomain: OrdinalCNF) -> "RankedGuesser":
        return RankedGuesser(self.guesser, self.bound, codomain)


def evaluate(g: MooreGuesser, word: Word) -> int:
    return g.output[g.state_after(word)]


def limit_on_up(g: MooreGuesser, w: UPWord) -> Optional[int]:
    """Eventual opinion along an ultimately periodic word: the constant
    output on the guesser's period cycle, or None when the outputs on
    the cycle disagree (the opinion diverges)."""
    outputs = {g.output[q] for q in g.period_window(w)}
    return outputs.pop() if len(outputs) == 1 else None


def verify_on_up(g: MooreGuesser, s: ParitySet, w: UPWord) -> bool:
    """True iff the opinion converges on w and lands on the right side."""
    _check_alphabets(s, g)
    limit = limit_on_up(g, w)
    return limit is not None and limit == membership_up(s, w)


def mind_changes(g: MooreGuesser, word: Word) -> int:
    states = g.run_states(word)
    return sum(
        1
        for i in range(len(states) - 1)
        if g.output[states[i]] != g.output[states[i + 1]]
    )


def check_bound(rg: RankedGuesser) -> bool:
    """Finite check of the two bound conditions over every reachable
    transition, plus the codomain cap.

    One pass over the reachable states compares each bound's order key;
    an ``INFINITY`` bound is below no codomain, so it fails the cap.
    """
    g = rg.guesser
    keys = {q: order_key(rg.bound[q]) for q in g.reachable_states()}
    if None in keys.values():
        return False
    cap = order_key(rg.codomain)
    output, delta = g.output, g.delta
    for q, key in keys.items():
        if cap is not None and not key < cap:
            return False
        out = output[q]
        for nxt in delta[q]:
            nxt_key = keys[nxt]
            # never rises, and falls strictly where the output flips
            if nxt_key > key or (nxt_key == key and output[nxt] != out):
                return False
    return True


def mind_change_rank(s: ParitySet) -> Optional[OrdinalCNF]:
    """Least stage at which the word chain empties; None when the set is
    not guessable.  This equals the least alpha such that the set is
    guessable with fewer than alpha mind changes."""
    return remainder_chain(s).rank


def synthesize(s: ParitySet) -> RankedGuesser:
    """Build the canonical guesser from the two opinion costs.

    A state q whose cost under opinion 1, c(q, 1) = `reject_rank[q]`,
    is below its cost under opinion 0, c(q, 0) = `accept_rank[q]`,
    outputs 1; the reverse outputs 0; equal costs inherit the previous
    output, realised by pairing states with the last output bit (the
    root inherits 0).  The bound of a state is its smaller cost, its
    rank minus one; the codomain is the stabilization index.

    It reads `remainder_chain(s)`, the one trace memoised on `s`, and is
    memoised on that trace in turn, so every later call for the same set
    returns the same object, which callers must treat as read-only.
    """
    trace = remainder_chain(s)
    ranked = trace.__dict__.get("_canonical_guesser")
    if ranked is not None:
        return ranked
    if not trace.guessable:
        raise NotGuessableError("fixpoint is nonempty; no guesser exists")
    accept, reject = trace.accept_rank, trace.reject_rank
    # every cost of a guessable set is finite, so each has an order key
    decision: dict[int, Optional[int]] = {}
    bound: dict[int, OrdinalCNF] = {}
    for q, c0 in accept.items():
        c1 = reject[q]
        k0, k1 = order_key(c0), order_key(c1)
        if k1 < k0:
            decision[q], bound[q] = 1, c1
        else:
            decision[q], bound[q] = (0 if k0 < k1 else None), c0

    def out_for(q: int, prev: int) -> int:
        d = decision[q]
        return prev if d is None else d

    def successors(key: tuple[int, int]) -> list[tuple[int, int]]:
        q, b = key
        return [(nq, out_for(nq, b)) for nq in s.delta[q]]

    order, rows = explore((s.start, out_for(s.start, 0)), successors)
    guesser = MooreGuesser(
        alphabet=s.alphabet,
        start=0,
        delta=tuple(rows),
        output=tuple(b for _, b in order),
    )
    ranked = RankedGuesser(
        guesser=guesser,
        bound=tuple(bound[q] for q, _ in order),
        codomain=trace.alpha_s,
    )
    # not a dataclass field, so equality and repr never see it
    object.__setattr__(trace, "_canonical_guesser", ranked)
    return ranked


def divergence_witness(g: MooreGuesser, s: ParitySet) -> Optional[UPWord]:
    """Search the product of guesser and set for an ultimately periodic
    counterexample: a reachable cycle on which the opinion oscillates,
    or stays constant on the wrong side of membership.

    One refinement search over the whole product asks for three kinds
    of cycle, which exclude each other: both opinions occur (the
    opinion oscillates); the opinion stays 0 under an even top
    priority (the point is a member); the opinion stays 1 under an odd
    top (the point is not a member).

    Returns None exactly when no reachable product cycle falsifies,
    which certifies the guesser on every ultimately periodic word.
    The search is deterministic; candidates are generated shortest
    first and the least (by spelled length, then symbols) is returned.
    """
    _check_alphabets(s, g)
    # product pairs numbered breadth-first with symbols in order, so a
    # node's number ranks its access word by length, then symbols, and
    # the first edge into a node in row order comes one step nearer the
    # start; the winner's access word alone is spelled, by the same BFS
    order, rows = product(g, s)
    depth = [0] + [-1] * (len(order) - 1)
    for i, row in enumerate(rows):
        for j in row:
            if depth[j] < 0:
                depth[j] = depth[i] + 1
    out = [g.output[p] for p, _ in order]
    flipped = [1 - b for b in out]
    prio = [s.priority[q] for _, q in order]
    kinds = [[(out, 1), (flipped, 1)], [(out, 0), (prio, 0)], [(flipped, 0), (prio, 1)]]

    # (depth + period length, depth, anchor, period): the order of
    # (|u| + |v|, |u|, u, v) over the witnesses u(v)
    candidates: list[tuple[int, int, int, Word]] = []
    nodes = set(range(len(order)))
    for comp in cycle_components(nodes, rows, kinds):
        comp_set = set(comp)
        other = {n for n in comp if out[n] != out[comp[0]]}
        if other:
            # the opinion oscillates: from the least node to the other
            # opinion and back
            anchor = comp[0]
            word1, mid = shortest_word_path(anchor, other, comp_set, rows)
            period = word1 + shortest_word_path(mid, {anchor}, comp_set, rows)[0]
        else:
            # a constant opinion on the wrong side: the shortest closed
            # walk through the least node of top priority
            p = max(map(prio.__getitem__, comp))
            anchor = min(n for n in comp if prio[n] == p)
            period = shortest_word_path(anchor, {anchor}, comp_set, rows)[0]
        candidates.append((depth[anchor] + len(period), depth[anchor], anchor, period))

    if not candidates:
        return None
    _, _, anchor, v = min(candidates)
    u = shortest_word_path(0, {anchor}, nodes, rows)[0] if anchor else ()
    witness = UPWord(u, v)
    if verify_on_up(g, s, witness):
        raise AssertionError("the witness does not diverge")
    return witness


def constant_guesser(alphabet: int, bit: int) -> MooreGuesser:
    return MooreGuesser(
        alphabet=alphabet, start=0, delta=((0,) * alphabet,), output=(bit,)
    )


def flip_outputs(g: MooreGuesser) -> MooreGuesser:
    """The complementary guesser 1-G."""
    return MooreGuesser(
        alphabet=g.alphabet,
        start=g.start,
        delta=g.delta,
        output=tuple(1 - b for b in g.output),
    )
