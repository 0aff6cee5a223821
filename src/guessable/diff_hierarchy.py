"""Difference hierarchy sets and their exchange with ranked guessers.

A level-theta set is built from an increasing chain of theta open
sets: a point belongs iff it enters some chain member and the least
index it enters has parity opposite to theta.  Chains convert to
ranked guessers (watch the least index whose member the current
cylinder is forced into) and ranked guessers convert back to chains
(sublevel sets of the bound function), giving a two-sided, machine
checked bridge between mind-change budgets and hierarchy levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .cycles import explore, strongly_connected_components
from .ordinal import OrdinalCNF, congruent, from_int, parity, pred, succ
from .space import Machine, OpenSet, ParitySet, UPWord, make_open, open_subset, product
from .guesser import (
    MooreGuesser,
    RankedGuesser,
    check_bound,
    flip_outputs,
    synthesize,
)
from .remainder import remainder_chain


class ChainNotIncreasingError(ValueError):
    """Raised when the member sets of a chain fail to increase."""


class BoundViolationError(ValueError):
    """Raised when a ranked guesser fails its bound conditions."""


class RootNotZeroError(ValueError):
    """Raised when chain extraction needs the complement flip first."""


class Side(enum.Enum):
    SELF = "SELF"
    COMPLEMENT = "COMPLEMENT"
    BOTH = "BOTH"
    NEITHER = "NEITHER"


class OpenChain:
    """An increasing sequence A_0 <= A_1 <= ... of open sets; the length
    is the (finite) hierarchy level theta >= 1.

    Every chain stands on one `skeleton` machine with an entry level per
    state in `levels`: the level of q is the least eta whose member holds
    q, or theta (`theta_int`) when no member does, and member eta is the
    target {q : level(q) <= eta} on the skeleton.  The level never increases
    along an edge, so every member is absorbing and the members nest.

    `OpenChain(sets)` takes the members themselves.  It first checks
    with `open_subset` that each member lies in the next, so a chain
    that fails to increase is refused on the pair products of neighbours,
    before the product of all its members is built; that reachable
    `product` is then the skeleton.  `guesser_to_chain` hands over the
    normalized guesser as the skeleton, with its bound as the levels, and
    builds the `OpenSet` members only when `sets` is read.  Either
    skeleton is numbered by `explore` breadth-first from state 0, so
    `explore` maps it onto itself: `d_theta` and `chain_to_guesser` read
    its rows as they are.
    """

    def __init__(self, sets: tuple[OpenSet, ...]) -> None:
        if not sets:
            raise ChainNotIncreasingError("a chain needs at least one member")
        k = sets[0].alphabet
        for member in sets:
            if member.alphabet != k:
                raise ChainNotIncreasingError("chain members must share an alphabet")
        for a, b in zip(sets, sets[1:]):
            if not open_subset(a, b):
                raise ChainNotIncreasingError("chain members must increase")
        theta = len(sets)
        order, rows = product(*(m.automaton for m in sets))
        bits = [[q in m.target for q, m in zip(p, sets)] for p in order]
        self._sets: Optional[tuple[OpenSet, ...]] = tuple(sets)
        self.skeleton = Machine(k, 0, tuple(rows))
        self.levels = tuple(b.index(True) if True in b else theta for b in bits)
        self.theta_int = theta

    @classmethod
    def _on_skeleton(
        cls, skeleton: Machine, levels: tuple[int, ...], theta: int
    ) -> "OpenChain":
        """A chain of `theta` members on a validated skeleton numbered
        by `explore`, whose levels never increase along an edge."""
        chain = cls.__new__(cls)
        chain._sets = None
        chain.skeleton = skeleton
        chain.levels = levels
        chain.theta_int = theta
        return chain

    @property
    def sets(self) -> tuple[OpenSet, ...]:
        if self._sets is None:
            skeleton = self.skeleton
            self._sets = tuple(
                make_open(
                    skeleton.alphabet,
                    skeleton.start,
                    skeleton.delta,
                    [q for q, level in enumerate(self.levels) if level <= eta],
                )
                for eta in range(self.theta_int)
            )
        return self._sets

    @property
    def alphabet(self) -> int:
        return self.skeleton.alphabet

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpenChain):
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self) -> int:
        return hash(self.sets)

    def __repr__(self) -> str:
        return f"OpenChain(sets={self.sets!r})"


def d_theta(chain: OpenChain) -> ParitySet:
    """The level-theta set of the chain, as a parity automaton.

    The skeleton as it stands, with priority 2 on the states whose
    level has parity opposite to theta and 1 elsewhere (theta itself,
    no member, has theta's parity).  The level can only decrease along
    a run, so the priority seen forever is that of the least member the
    run enters, which is the membership rule.
    """
    skeleton, levels, theta = chain.skeleton, chain.levels, chain.theta_int
    return ParitySet(
        alphabet=chain.alphabet,
        start=0,
        delta=skeleton.delta,
        priority=tuple(1 if level % 2 == theta % 2 else 2 for level in levels),
    )


def _forced_levels(skeleton: Machine, levels: tuple[int, ...]) -> list[int]:
    """Per skeleton state, the least eta such that every run from it
    enters member eta, or theta when some run enters none.

    Levels never increase along an edge, so they are constant on a
    strongly connected component and a run ends on the level of the
    cyclic component it stays in: the forced level is the largest level
    of a cyclic component reachable from the state.  Tarjan emits
    components sinks first, so one pass takes the maximum over each
    component's own level, when it cycles (one state cycles only
    through a self-loop), and its successors' values: those outside it
    are written, and those inside read 0, under every level.
    """
    succ = skeleton.delta
    forced = [0] * skeleton.n_states
    for comp in strongly_connected_components(set(range(len(succ))), succ):
        q = comp[0]
        value = levels[q] if len(comp) > 1 or q in succ[q] else 0
        for q in comp:
            for n in succ[q]:
                if forced[n] > value:
                    value = forced[n]
        for q in comp:
            forced[q] = value
    return forced


def chain_to_guesser(chain: OpenChain) -> RankedGuesser:
    """Watch the least member the current cylinder is forced into.

    While no member is forced, output 0 with bound theta; once the
    least forced index is eta, output by the parity comparison of eta
    against theta and bound eta.  Forcedness only grows along a run,
    so the bound never increases and drops exactly at output changes;
    the codomain is theta+1.  The machine is the skeleton as it stands,
    as in `d_theta`, with the forced levels of one sinks-first pass.
    """
    skeleton, levels, theta = chain.skeleton, chain.levels, chain.theta_int
    forced = _forced_levels(skeleton, levels)
    bound_of = [from_int(eta) for eta in range(theta + 1)]
    guesser = MooreGuesser(
        alphabet=chain.alphabet,
        start=0,
        delta=skeleton.delta,
        output=tuple(0 if eta % 2 == theta % 2 else 1 for eta in forced),
    )
    return RankedGuesser(
        guesser=guesser,
        bound=tuple(bound_of[eta] for eta in forced),
        codomain=from_int(theta + 1),
    )


def normalize_h(rg: RankedGuesser) -> RankedGuesser:
    """Rebuild the bound so that it is constant between mind changes and
    flips parity at every mind change, keeping the root bound, the
    outputs, and the bound conditions.

    The machine is refined with the current normalized value: at a
    mind change the new value is the old bound there, or its
    successor, whichever has parity opposite to the value held so far.
    """
    if not check_bound(rg):
        raise BoundViolationError("input fails its bound conditions")
    return _normalize_h(rg)


def _normalize_h(rg: RankedGuesser) -> RankedGuesser:
    """`normalize_h` on a guesser whose bound is already checked."""
    g = rg.guesser

    def successors(key: tuple[int, OrdinalCNF]) -> list[tuple[int, OrdinalCNF]]:
        p, held = key
        out = []
        for np in g.delta[p]:
            if g.output[np] == g.output[p]:
                value = held
            else:
                raw = rg.bound[np]
                value = raw if parity(raw) != parity(held) else succ(raw)
            out.append((np, value))
        return out

    order, rows = explore((g.start, rg.bound[g.start]), successors)
    guesser = MooreGuesser(
        alphabet=g.alphabet,
        start=0,
        delta=tuple(rows),
        output=tuple(g.output[p] for p, _ in order),
    )
    out = RankedGuesser(
        guesser=guesser,
        bound=tuple(value for _, value in order),
        codomain=rg.codomain,
    )
    if not check_bound(out):
        raise AssertionError("normalisation broke the bound conditions")
    return out


def bound_limit_on_up(rg: RankedGuesser, w: UPWord) -> OrdinalCNF:
    """Eventual bound value along an ultimately periodic word.  The
    bound never increases, so it is constant on the period cycle; a
    bound that changes there fails its conditions."""
    values = {rg.bound[q] for q in rg.guesser.period_window(w)}
    if len(values) != 1:
        raise BoundViolationError("bound oscillates on a cycle")
    return values.pop()


def make_anticongruent(rg: RankedGuesser) -> RankedGuesser:
    """Adjust the root bound (if needed) and normalize, so that the
    eventual bound parity relates to the eventual output the same way
    everywhere: opposite when the root output is congruent to the
    codomain, equal otherwise."""
    if not check_bound(rg):
        raise BoundViolationError("input fails its bound conditions")
    return _make_anticongruent(rg)


def _make_anticongruent(rg: RankedGuesser) -> RankedGuesser:
    """`make_anticongruent` on a guesser whose bound is already checked."""
    g = rg.guesser
    g0 = g.output[g.start]
    h0 = rg.bound[g.start]
    want_anti = congruent(g0, rg.codomain)
    aligned = (parity(h0) != g0 % 2) if want_anti else (parity(h0) == g0 % 2)
    if not aligned:
        # both misalignments put the root bound congruent to the
        # codomain, so bumping it by one stays below the codomain
        bumped = succ(h0)
        if not bumped < rg.codomain:
            raise AssertionError("root bump escaped the codomain")
        rg = _split_root(rg, g0, bumped)
    return _normalize_h(rg)


def _split_root(rg: RankedGuesser, output: int, bound: OrdinalCNF) -> RankedGuesser:
    """A copy of the start state with its own output and bound, made the
    new start; the old start stays for the runs that come back to it."""
    g = rg.guesser
    return RankedGuesser(
        guesser=MooreGuesser(
            alphabet=g.alphabet,
            start=g.n_states,
            delta=g.delta + (g.delta[g.start],),
            output=g.output + (output,),
        ),
        bound=rg.bound + (bound,),
        codomain=rg.codomain,
    )


def guesser_to_chain(rg: RankedGuesser) -> OpenChain:
    """Extract an increasing open chain whose level set is the set the
    guesser guesses, from the sublevel sets of the anticongruent bound.

    Requires a root output of 0 (flip to the complement otherwise) and
    a successor codomain alpha+1.  When alpha is 0 the codomain is
    widened to 2 so the chain has a member; the guesser still
    witnesses the wider budget.

    The skeleton is the anticongruent guesser itself, a validated
    machine that `explore` numbered from state 0, and the level of a
    state is its (finite) bound, so member eta's target is
    {q : bound(q) <= eta} and states bounded by alpha itself stay out
    of every member.  The members nest by construction, and each is
    absorbing because the level never increases along an edge: the
    normalized bound passed `check_bound`.  No `OpenSet` is built until
    `sets` is read.
    """
    if rg.guesser.output[rg.guesser.start] != 0:
        raise RootNotZeroError(
            "root output is 1: extract a chain for the complement instead"
        )
    if not check_bound(rg):
        raise BoundViolationError("input fails its bound conditions")
    if not rg.codomain.is_successor:
        raise ValueError("codomain must be a successor ordinal")
    alpha = pred(rg.codomain)
    if alpha.is_zero:
        alpha = from_int(1)
        rg = rg.with_codomain(from_int(2))
    adjusted = _make_anticongruent(rg)
    levels = tuple(b.to_int() for b in adjusted.bound)
    return OpenChain._on_skeleton(adjusted.guesser, levels, alpha.to_int())


@dataclass(frozen=True)
class Classification:
    """Where a set sits: its mind-change rank, which of the set or its
    complement carries a hierarchy witness, and the witnessing chain."""

    rank: Optional[OrdinalCNF]
    side: Side
    chain: Optional[OpenChain]


def classify(s: ParitySet) -> Classification:
    """Rank the set, read its hierarchy side off the two opinion costs of
    the start state, and extract one witnessing chain.

    With theta = max(rank - 1, 1), the set is a level-theta set (SELF)
    iff a guesser that starts on opinion 0 needs at most theta mind
    changes, `accept_rank[start] <= theta`; its complement is (the
    COMPLEMENT side) iff `reject_rank[start] <= theta`; BOTH when both
    hold.  Since the rank is one more than the smaller cost, at least
    one side always holds.

    The chain comes from the canonical guesser with its codomain widened
    to theta+1: as it is when its root outputs 0, flipped to the
    complement when only the complement is witnessed, and otherwise
    with a root that outputs 0 under the bound c(start, 0) =
    `accept_rank[start]`, the fewest mind changes a guesser needs from
    the start on opinion 0 and at most theta on this side.
    """
    trace = remainder_chain(s)
    rank = trace.rank
    if rank is None:
        return Classification(rank=None, side=Side.NEITHER, chain=None)
    theta = from_int(max(rank.to_int() - 1, 1))
    on_self = trace.accept_rank[s.start] <= theta
    on_complement = trace.reject_rank[s.start] <= theta
    if on_self and on_complement:
        side = Side.BOTH
    else:
        side = Side.SELF if on_self else Side.COMPLEMENT
    wide = synthesize(s).with_codomain(succ(theta))
    g = wide.guesser
    if g.output[g.start] == 0:
        rooted = wide
    elif side is Side.COMPLEMENT:
        rooted = RankedGuesser(flip_outputs(g), wide.bound, wide.codomain)
    else:
        rooted = _split_root(wide, 0, trace.accept_rank[s.start])
    return Classification(rank=rank, side=side, chain=guesser_to_chain(rooted))
