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

from .cycles import backward_closure, cycle_nodes, explore
from .ordinal import OrdinalCNF, congruent, from_int, parity, pred, succ
from .space import OpenSet, ParitySet, UPWord, make_open, open_subset
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


@dataclass(frozen=True)
class OpenChain:
    """An increasing sequence A_0 <= A_1 <= ... of open sets; the length
    is the (finite) hierarchy level theta >= 1."""

    sets: tuple[OpenSet, ...]

    def __post_init__(self) -> None:
        if not self.sets:
            raise ChainNotIncreasingError("a chain needs at least one member")
        k = self.sets[0].alphabet
        for member in self.sets:
            if member.alphabet != k:
                raise ChainNotIncreasingError("chain members must share an alphabet")
        for a, b in zip(self.sets, self.sets[1:]):
            if not open_subset(a, b):
                raise ChainNotIncreasingError("chain members must increase")

    @property
    def theta(self) -> OrdinalCNF:
        return from_int(len(self.sets))

    @property
    def theta_int(self) -> int:
        return len(self.sets)

    @property
    def alphabet(self) -> int:
        return self.sets[0].alphabet


def d_theta(chain: OpenChain) -> ParitySet:
    """The level-theta set of the chain, as a parity automaton.

    The product tracks one state per member; since members are
    absorbing-reachability sets, the least entered index can only
    decrease along a run, so state priorities (even exactly when the
    current least index has parity opposite to theta) evaluate the
    membership rule exactly.
    """
    theta = chain.theta_int
    targets = [m.target for m in chain.sets]

    def prio(profile: tuple[int, ...]) -> int:
        for eta, q in enumerate(profile):
            if q in targets[eta]:
                return 2 if parity(from_int(eta)) != theta % 2 else 1
        return 1

    order, rows = _profiles(chain)
    return ParitySet(
        alphabet=chain.alphabet,
        start=0,
        delta=tuple(rows),
        priority=tuple(prio(profile) for profile in order),
    )


def _profiles(chain: OpenChain) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The reachable product of the chain members, one state per member,
    numbered by `explore`."""
    deltas = [m.automaton.delta for m in chain.sets]
    k = chain.alphabet

    def successors(profile: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(d[q][a] for d, q in zip(deltas, profile)) for a in range(k)]

    return explore(tuple(m.automaton.start for m in chain.sets), successors)


def _forced_states(member: OpenSet) -> set[int]:
    """States from which every infinite run enters the member's target:
    no cycle is reachable in the non-target subgraph."""
    aut = member.automaton
    non_target = {q for q in range(aut.n_states) if q not in member.target}
    succ = aut.successors()
    live = cycle_nodes(non_target, succ)
    doomed = backward_closure(live, non_target, succ)
    return set(range(aut.n_states)) - doomed


def chain_to_guesser(chain: OpenChain) -> RankedGuesser:
    """Watch the least member the current cylinder is forced into.

    While no member is forced, output 0 with bound theta; once the
    least forced index is eta, output by the parity comparison of eta
    against theta and bound eta.  Forcedness only grows along a run,
    so the bound never increases and drops exactly at output changes;
    the codomain is theta+1.
    """
    theta = chain.theta_int
    forced = [_forced_states(m) for m in chain.sets]

    def eta_of(profile: tuple[int, ...]) -> Optional[int]:
        for eta in range(theta):
            if profile[eta] in forced[eta]:
                return eta
        return None

    order, rows = _profiles(chain)
    outputs = []
    bounds = []
    for profile in order:
        eta = eta_of(profile)
        if eta is None:
            outputs.append(0)
            bounds.append(from_int(theta))
        else:
            outputs.append(0 if eta % 2 == theta % 2 else 1)
            bounds.append(from_int(eta))
    guesser = MooreGuesser(
        alphabet=chain.alphabet, start=0, delta=tuple(rows), output=tuple(outputs)
    )
    return RankedGuesser(
        guesser=guesser, bound=tuple(bounds), codomain=from_int(theta + 1)
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
    bound never increases, so it is constant on the period cycle."""
    values = {rg.bound[q] for q in rg.guesser.period_window(w)}
    if len(values) != 1:
        raise AssertionError("bound oscillates on a cycle")
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
        if not check_bound(rg):
            raise BoundViolationError("root adjustment broke the bound")
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

    The bound is checked once.  Every reachable state is bucketed by
    its (finite) bound, and member eta's target is the union of the
    buckets 0..eta; states bounded by alpha itself stay out of every
    member.  The members share one skeleton with nested targets, so
    `OpenChain` validates each adjacent pair by target inclusion.
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
    g = adjusted.guesser
    reach = sorted(g.reachable_states())
    renumber = {q: i for i, q in enumerate(reach)}
    alpha_n = alpha.to_int()
    delta = tuple(
        tuple(renumber[g.delta[q][a]] for a in range(g.alphabet)) for q in reach
    )
    buckets: list[list[int]] = [[] for _ in range(alpha_n)]
    for i, q in enumerate(reach):
        level = adjusted.bound[q].to_int()
        if level < alpha_n:
            buckets[level].append(i)
    members = []
    target: list[int] = []
    for bucket in buckets:
        target.extend(bucket)
        members.append(make_open(g.alphabet, renumber[g.start], delta, target))
    return OpenChain(tuple(members))


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
    with a root that outputs 0 under the least bound its successors
    allow.
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
    wide = synthesize(s, trace).with_codomain(succ(theta))
    g = wide.guesser
    if g.output[g.start] == 0:
        rooted = wide
    elif side is Side.COMPLEMENT:
        rooted = RankedGuesser(flip_outputs(g), wide.bound, wide.codomain)
    else:
        root_bound = max(
            [wide.bound[g.start]]
            + [
                wide.bound[n] if g.output[n] == 0 else succ(wide.bound[n])
                for n in g.delta[g.start]
            ]
        )
        rooted = _split_root(wide, 0, root_bound)
    return Classification(rank=rank, side=side, chain=guesser_to_chain(rooted))
