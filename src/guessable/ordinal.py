"""Ordinal arithmetic in Cantor normal form.

An ordinal below epsilon_0 is a finite sum ``w^e1*c1 + ... + w^en*cn``
where the exponents ``e1 > e2 > ... > en`` are themselves ordinals and
the coefficients are positive integers.  The empty sum is 0.  Finite
ordinals are the sums with a single ``w^0`` term.

Ranks produced by finite-state sets are always finite, but the whole
interface is ordinal typed so the transfinite statements it mirrors
read the same way at any scale.  The one extra value is ``INFINITY``,
a sentinel that compares greater than every ordinal and stands for
"never leaves the chain".

Each value carries an order key and its hash, built once at
construction, so comparing and equality are tuple operations and
hashing reads a stored number, with no Python-level walk over the
terms.  It also stores its finite part and, when it is finite, its
integer, so the finiteness, successor and parity tests, ``to_int``,
``succ``, ``pred`` and the text of a finite value read a stored
number.  Finite values are interned:
``from_int(n)`` returns one object per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TypeAlias


# parenthesised exponents a literal may nest (w^(w^(w + 1)) nests 2);
# ranks of finite-state sets are finite, so this only stops the parser
# from reaching Python's recursion limit
NESTING_LIMIT = 100


@dataclass(frozen=True, eq=False)
class OrdinalCNF:
    """Cantor normal form: tuple of (exponent, coefficient) pairs.

    Exponents strictly decrease, coefficients are >= 1.  ``()`` is 0.
    The order key ``_key`` (not a field) is ``terms`` with each exponent
    replaced by its own key; tuple order on it is the CNF order (larger
    exponent first, then larger coefficient, and a proper prefix is
    smaller), and equality reads it too.  Three more private attributes
    are set with the key: ``_hash`` is the key's hash, ``_finite`` is
    the n in lambda + n, and ``_int`` is the value as an int when it is
    finite and None otherwise.
    """

    terms: tuple[tuple["OrdinalCNF", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coef in self.terms:
            if not isinstance(exp, OrdinalCNF):
                raise TypeError("exponent must be an OrdinalCNF")
            if not isinstance(coef, int) or coef < 1:
                raise ValueError("coefficients must be positive integers")
            if prev is not None and exp._key >= prev._key:
                raise ValueError("exponents must strictly decrease")
            prev = exp
        key = tuple((exp._key, coef) for exp, coef in self.terms)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        # only the last term can have exponent 0, and a finite value has
        # no other term
        terms = self.terms
        n = terms[-1][1] if terms and terms[-1][0].is_zero else 0
        finite = not terms or (len(terms) == 1 and n > 0)
        object.__setattr__(self, "_finite", n)
        object.__setattr__(self, "_int", n if finite else None)

    # -- ordering ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OrdinalCNF):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: object) -> bool:
        if isinstance(other, OrdinalCNF):
            return self._key < other._key
        if other is INFINITY:
            return True
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, OrdinalCNF):
            return self._key <= other._key
        if other is INFINITY:
            return True
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, OrdinalCNF):
            return self._key > other._key
        if other is INFINITY:
            return False
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, OrdinalCNF):
            return self._key >= other._key
        if other is INFINITY:
            return False
        return NotImplemented

    def __add__(self, other: "OrdinalCNF | int") -> "OrdinalCNF":
        if isinstance(other, int):
            other = from_int(other)
        return add(self, other)

    # -- structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return self._int is not None

    @property
    def finite_part(self) -> int:
        """The n in a = lambda + n with lambda limit or 0."""
        return self._finite

    @property
    def is_successor(self) -> bool:
        return self._finite >= 1

    def to_int(self) -> int:
        if self._int is None:
            raise ValueError(f"{self} is not a finite ordinal")
        return self._int

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"OrdinalCNF({to_text(self)!r})"


class _Infinity:
    """Sentinel above every ordinal; used for ranks that never fall."""

    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    # against an ordinal these return NotImplemented, so Python asks the
    # ordinal's reflected method, which ranks INFINITY above it
    def __lt__(self, other: object) -> bool:
        return False if other is self else NotImplemented

    def __le__(self, other: object) -> bool:
        return True if other is self else NotImplemented

    __gt__ = __lt__
    __ge__ = __le__

    def __str__(self) -> str:
        return "INFTY"

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

# a string, not a `Union`: typing caches every `Union` it builds, and
# that cache would keep this module's classes alive after a re-import
Rank: TypeAlias = "OrdinalCNF | _Infinity"

ZERO = OrdinalCNF()


@lru_cache(maxsize=None, typed=True)
def from_int(n: int) -> OrdinalCNF:
    """The finite ordinal n, one shared object per value.  The cache keeps
    every value asked for, ranks of sets and bounds read from files, so
    it grows with the inputs, not with the work done on them."""
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return OrdinalCNF(((ZERO, n),))


ONE = from_int(1)
OMEGA = OrdinalCNF(((ONE, 1),))


def omega_power(exp: "OrdinalCNF | int", coef: int = 1) -> OrdinalCNF:
    if isinstance(exp, int):
        exp = from_int(exp)
    if coef < 1:
        raise ValueError("coefficient must be >= 1")
    return OrdinalCNF(((exp, coef),))


def order_key(a: Rank) -> "tuple | None":
    """The precomputed order key of an ordinal: plain nested tuples whose
    order is the ordinal order, so a loop comparing many values pays one
    tuple comparison each and no operator dispatch.  ``INFINITY`` is
    above every key and has none: the result is None."""
    return None if a is INFINITY else a._key


def compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """Total order on CNF: -1, 0 or 1. Lexicographic on term lists."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


def add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    """Ordinal addition (non-commutative): low terms of a are absorbed."""
    if b.is_zero:
        return a
    lead_exp, lead_coef = b.terms[0]
    kept = [t for t in a.terms if t[0] > lead_exp]
    if len(kept) < len(a.terms) and a.terms[len(kept)][0] == lead_exp:
        merged = (lead_exp, a.terms[len(kept)][1] + lead_coef)
        return OrdinalCNF(tuple(kept) + (merged,) + b.terms[1:])
    return OrdinalCNF(tuple(kept) + b.terms)


def succ(a: OrdinalCNF) -> OrdinalCNF:
    if a._int is not None:
        return from_int(a._int + 1)
    return add(a, ONE)


def pred(a: OrdinalCNF) -> OrdinalCNF:
    """Predecessor of a successor ordinal."""
    if not a.is_successor:
        raise ValueError(f"{a} is not a successor ordinal")
    if a._int is not None:
        return from_int(a._int - 1)
    head = a.terms[:-1]
    exp, coef = a.terms[-1]
    if coef > 1:
        return OrdinalCNF(head + ((exp, coef - 1),))
    return OrdinalCNF(head)


def parity(a: OrdinalCNF) -> int:
    """0 for even, 1 for odd: the parity of n in a = lambda + n."""
    return a._finite % 2


def congruent(a: "OrdinalCNF | int", b: "OrdinalCNF | int") -> bool:
    """True iff a and b have the same parity."""
    pa = parity(a) if isinstance(a, OrdinalCNF) else a % 2
    pb = parity(b) if isinstance(b, OrdinalCNF) else b % 2
    return pa == pb


# -- text form ------------------------------------------------------
#
# Grammar: terms joined by "+"; a term is a decimal integer, or
# "w", "w*c", "w^e", "w^e*c" with e a decimal integer, "w", or a
# parenthesised ordinal expression, nested at most NESTING_LIMIT deep.


def to_text(a: OrdinalCNF) -> str:
    if a._int is not None:
        return str(a._int)
    parts = []
    for exp, coef in a.terms:
        if exp.is_zero:
            parts.append(str(coef))
            continue
        if exp == ONE:
            base = "w"
        elif exp.is_finite or exp == OMEGA:
            base = f"w^{to_text(exp)}"
        else:
            base = f"w^({to_text(exp)})"
        parts.append(base if coef == 1 else f"{base}*{coef}")
    return " + ".join(parts)


def from_text(text: str) -> OrdinalCNF:
    if text.isdecimal():
        return from_int(int(text))
    tokens = _tokenize(text)
    value, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing input in ordinal literal: {text!r}")
    return value


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+^*()w":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in ordinal literal")
    if not tokens:
        raise ValueError("empty ordinal literal")
    return tokens


def _parse_expr(
    tokens: list[str], pos: int, depth: int = 0
) -> tuple[OrdinalCNF, int]:
    if depth > NESTING_LIMIT:
        raise ValueError(f"ordinal literal nests over {NESTING_LIMIT} exponents")
    total, pos = _parse_term(tokens, pos, depth)
    while pos < len(tokens) and tokens[pos] == "+":
        term, pos = _parse_term(tokens, pos + 1, depth)
        total = add(total, term)
    return total, pos


def _parse_term(tokens: list[str], pos: int, depth: int) -> tuple[OrdinalCNF, int]:
    if pos >= len(tokens):
        raise ValueError("unexpected end of ordinal literal")
    tok = tokens[pos]
    if tok.isdigit():
        return from_int(int(tok)), pos + 1
    if tok != "w":
        raise ValueError(f"unexpected token {tok!r} in ordinal literal")
    pos += 1
    exp = ONE
    if pos < len(tokens) and tokens[pos] == "^":
        pos += 1
        if pos >= len(tokens):
            raise ValueError("missing exponent in ordinal literal")
        if tokens[pos] == "(":
            exp, pos = _parse_expr(tokens, pos + 1, depth + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("unbalanced parenthesis in ordinal literal")
            pos += 1
        elif tokens[pos].isdigit():
            exp = from_int(int(tokens[pos]))
            pos += 1
        elif tokens[pos] == "w":
            exp = OMEGA
            pos += 1
        else:
            raise ValueError(f"bad exponent token {tokens[pos]!r}")
    coef = 1
    if pos < len(tokens) and tokens[pos] == "*":
        pos += 1
        if pos >= len(tokens) or not tokens[pos].isdigit():
            raise ValueError("missing coefficient in ordinal literal")
        coef = int(tokens[pos])
        pos += 1
    if exp.is_zero:
        return from_int(coef), pos
    return omega_power(exp, coef), pos

