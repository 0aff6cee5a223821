"""Guessing through an oracle family: the guesser reads membership
bits of the input point in a fixed countable family of sets instead of
reading symbols.

Only families whose bit streams are decidable are supported: an
`ExplicitFamily`, a finite prefix of sets followed by a repeating cycle
of sets, and the `CylinderFamily` of all one-symbol cylinders.  At an
ultimately periodic point each family gives its whole bit stream as
one ultimately periodic bit word, `stream(w)`, so limits are exact.
Both readers, `verify_based` and `limsup_liminf_check`, go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cycles import explore
from .space import (
    AlphabetMismatchError,
    ParitySet,
    UPWord,
    _check_alphabets,
    _check_word,
    membership_up,
)
from .guesser import MooreGuesser, limit_on_up


class OracleFamily:
    """A countable family of sets over `alphabet`, finitely presented:
    `stream(w)` is the family's membership stream at w, whose bit i is
    the membership bit of w in member i, as an ultimately periodic bit
    word; it refuses a w with a symbol outside the alphabet.
    `verify_based` and `limsup_liminf_check` read nothing else."""


@dataclass(frozen=True)
class ExplicitFamily(OracleFamily):
    """Member i is prefix[i] for i < len(prefix) and then cycles through
    `cycle`, so the stream repeats with the member cycle once past the
    member prefix.  The alphabet is the members' own."""

    prefix: tuple[ParitySet, ...]
    cycle: tuple[ParitySet, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("explicit family needs a nonempty cycle")
        if len({m.alphabet for m in self.prefix + self.cycle}) > 1:
            raise AlphabetMismatchError("family members must share the family alphabet")

    @property
    def alphabet(self) -> int:
        return self.cycle[0].alphabet

    def stream(self, w: UPWord) -> UPWord:
        _check_word(w, self.alphabet)
        n = len(self.prefix)
        bits = tuple(membership_up(m, w) for m in self.prefix + self.cycle)
        return UPWord(bits[:n], bits[n:])


@dataclass(frozen=True)
class CylinderFamily(OracleFamily):
    """Member i*k+j is the set of points whose symbol at position i
    equals j, so the stream writes each symbol a of the point as one
    block of k bits with its 1 at position a."""

    alphabet: int

    def __post_init__(self) -> None:
        if self.alphabet < 2:
            raise ValueError("alphabet size must be >= 2")

    def stream(self, w: UPWord) -> UPWord:
        _check_word(w, self.alphabet)
        k = self.alphabet
        u, v = (
            tuple(int(a == j) for a in part for j in range(k))
            for part in (w.prefix, w.period)
        )
        return UPWord(u, v)


def explicit_family(
    prefix: tuple[ParitySet, ...], cycle: tuple[ParitySet, ...]
) -> ExplicitFamily:
    return ExplicitFamily(prefix, cycle)


def cylinders_family(alphabet: int) -> CylinderFamily:
    return CylinderFamily(alphabet)


def last_bit_guesser() -> MooreGuesser:
    """Two-state guesser whose opinion is the last bit read; 0 before
    any bit arrives (a recorded convention for the empty tuple)."""
    return MooreGuesser(
        alphabet=2, start=0, delta=((0, 1), (0, 1)), output=(0, 1)
    )


def _check_based_alphabets(g: MooreGuesser, family: OracleFamily, s: ParitySet) -> None:
    """The guesser reads bits, and the family shares the set's alphabet."""
    if g.alphabet != 2:
        raise AlphabetMismatchError("bit guessers read bits")
    _check_alphabets(family, s)


def verify_based(
    guesser: MooreGuesser, family: OracleFamily, s: ParitySet, w: UPWord
) -> bool:
    """Exact check that the guesser, fed the family's bit stream at w,
    converges to the membership bit of w in s."""
    _check_based_alphabets(guesser, family, s)
    limit = limit_on_up(guesser, family.stream(w))
    return limit is not None and limit == membership_up(s, w)


def limsup_liminf_check(
    family: OracleFamily, s: ParitySet, w: UPWord
) -> bool:
    """True iff at this point the membership bit equals both the liminf
    and the limsup of the family's membership bits, the least and the
    greatest bit of the stream's period."""
    _check_alphabets(family, s)
    tail = family.stream(w).period
    chi = membership_up(s, w)
    return min(tail) == chi and max(tail) == chi


def cylinder_simulation(guesser: MooreGuesser, alphabet: int) -> MooreGuesser:
    """Lift a symbol-reading guesser to a bit guesser over the cylinder
    family: decode each block of k bits back into the symbol it
    indicates (the position of the 1), then step the inner machine.

    Streams that are not valid encodings of a point decode the default
    symbol 0; they never arise from real points.  The block length k
    must be the guesser's alphabet.
    """
    k = guesser.alphabet
    if alphabet != k:
        raise AlphabetMismatchError(f"alphabet mismatch: {alphabet} vs {k}")

    def successors(key: tuple[int, int, Optional[int]]):
        p, pos, decoded = key
        out = []
        for bit in (0, 1):
            dec = decoded
            if bit == 1 and dec is None:
                dec = pos
            if pos + 1 == k:
                symbol = dec if dec is not None else 0
                out.append((guesser.delta[p][symbol], 0, None))
            else:
                out.append((p, pos + 1, dec))
        return out

    order, rows = explore((guesser.start, 0, None), successors)
    return MooreGuesser(
        alphabet=2,
        start=0,
        delta=tuple(rows),
        output=tuple(guesser.output[p] for p, _, _ in order),
    )
