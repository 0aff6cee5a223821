"""Guessing through an oracle family: the guesser reads membership
bits of the input point in a fixed countable family of sets instead of
reading symbols.

Only families whose bit streams are decidable are supported: an
`ExplicitFamily`, a finite prefix of sets followed by a repeating cycle
of sets, and the `CylinderFamily` of all one-symbol cylinders.  On an
ultimately periodic point every supported family produces an
eventually periodic bit stream, so limits are exact.
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


class NotEventuallyPeriodicError(ValueError):
    """Raised when a stream-limit question needs an explicit family."""


class OracleFamily:
    """A countable family of sets over `alphabet`, finitely presented:
    `bit(w, i)` is the membership bit of w in member i, and
    `periodicity(w)` a correct, not necessarily minimal, (preperiod,
    period) of the bit stream at w."""


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

    def bit(self, w: UPWord, i: int) -> int:
        n = len(self.prefix)
        member = self.prefix[i] if i < n else self.cycle[(i - n) % len(self.cycle)]
        return membership_up(member, w)

    def periodicity(self, w: UPWord) -> tuple[int, int]:
        return len(self.prefix), len(self.cycle)


@dataclass(frozen=True)
class CylinderFamily(OracleFamily):
    """Member i*k+j is the set of points whose symbol at position i
    equals j; bits are read off the point directly, and the stream
    repeats with one block of k bits per period symbol once past the
    word prefix."""

    alphabet: int

    def __post_init__(self) -> None:
        if self.alphabet < 2:
            raise ValueError("alphabet size must be >= 2")

    def bit(self, w: UPWord, i: int) -> int:
        return int(w.symbol(i // self.alphabet) == i % self.alphabet)

    def periodicity(self, w: UPWord) -> tuple[int, int]:
        return self.alphabet * len(w.prefix), self.alphabet * len(w.period)


def explicit_family(
    prefix: tuple[ParitySet, ...], cycle: tuple[ParitySet, ...]
) -> ExplicitFamily:
    return ExplicitFamily(prefix, cycle)


def cylinders_family(alphabet: int) -> CylinderFamily:
    return CylinderFamily(alphabet)


def family_stream(family: OracleFamily, w: UPWord, n: int) -> list[int]:
    """The first n bits of the family's membership stream at w."""
    _check_word(w, family.alphabet)
    return [family.bit(w, i) for i in range(n)]


def stream_periodicity(family: OracleFamily, w: UPWord) -> tuple[int, int]:
    """(preperiod, period) of the full infinite stream at w."""
    _check_word(w, family.alphabet)
    return family.periodicity(w)


def stream_up_word(family: OracleFamily, w: UPWord) -> UPWord:
    """The stream itself, as an ultimately periodic bit word."""
    pre, per = stream_periodicity(family, w)
    bits = family_stream(family, w, pre + per)
    return UPWord(tuple(bits[:pre]), tuple(bits[pre:]))


def last_bit_guesser() -> MooreGuesser:
    """Two-state guesser whose opinion is the last bit read; 0 before
    any bit arrives (a recorded convention for the empty tuple)."""
    return MooreGuesser(
        alphabet=2, start=0, delta=((0, 1), (0, 1)), output=(0, 1)
    )


def verify_based(
    guesser: MooreGuesser, family: OracleFamily, s: ParitySet, w: UPWord
) -> bool:
    """Exact check that the guesser, fed the family's bit stream at w,
    converges to the membership bit of w in s."""
    if guesser.alphabet != 2:
        raise AlphabetMismatchError("bit guessers read bits")
    _check_alphabets(family, s)
    stream = stream_up_word(family, w)
    limit = limit_on_up(guesser, stream)
    return limit is not None and limit == membership_up(s, w)


def limsup_liminf_check(
    family: OracleFamily, s: ParitySet, w: UPWord
) -> bool:
    """True iff at this point the membership bit equals both the liminf
    and the limsup of the family's membership bits."""
    if not isinstance(family, ExplicitFamily):
        raise NotEventuallyPeriodicError(
            "limit comparison needs an explicit (eventually periodic) family"
        )
    _check_alphabets(family, s)
    tail = stream_up_word(family, w).period
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
