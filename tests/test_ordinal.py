import dataclasses
import functools
import operator
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from guessable.ordinal import (
    INFINITY,
    OMEGA,
    ONE,
    ZERO,
    OrdinalCNF,
    add,
    congruent,
    from_int,
    from_text,
    omega_power,
    parity,
    pred,
    succ,
    to_text,
    _parse_expr,
    _tokenize,
)


def rand_ordinal(rng, depth=2):
    if depth == 0 or rng.random() < 0.5:
        return from_int(rng.randint(0, 6))
    n_terms = rng.randint(1, 3)
    value = ZERO
    for _ in range(n_terms):
        exp = rand_ordinal(rng, depth - 1)
        term = omega_power(exp, rng.randint(1, 4))
        value = add(value, term) if term <= value else add(term, value)
    return value


SAMPLE = None


def sample():
    global SAMPLE
    if SAMPLE is None:
        rng = random.Random(1)
        SAMPLE = [rand_ordinal(rng) for _ in range(60)] + [
            ZERO,
            ONE,
            OMEGA,
            add(OMEGA, from_int(3)),
            omega_power(2, 2),
        ]
    return SAMPLE


def test_succ_examples():
    assert succ(ZERO) == ONE
    assert succ(OMEGA) == add(OMEGA, ONE)
    assert succ(add(OMEGA, from_int(2))) == add(OMEGA, from_int(3))


def test_add_examples():
    assert add(ONE, OMEGA) == OMEGA
    assert add(OMEGA, ONE) == from_text("w + 1")
    assert add(add(OMEGA, ONE), from_int(2)) == from_text("w + 3")


def test_parity_examples():
    assert parity(ZERO) == 0
    assert parity(OMEGA) == 0
    assert parity(add(OMEGA, from_int(3))) == 1


def test_congruent_examples():
    assert congruent(from_int(2), from_int(4))
    assert not congruent(OMEGA, ONE)
    assert congruent(add(OMEGA, ONE), from_int(3))


def test_trichotomy():
    values = sample()
    for a in values:
        for b in values:
            assert [a < b, a == b, a > b].count(True) == 1
            assert (a < b, a == b, a > b) == (b > a, b == a, b < a)


def test_succ_strictly_above_with_nothing_between():
    for a in sample():
        s = succ(a)
        assert s > a
        # no finite bump below: a < b < a+1 is impossible for b in sample
        for b in sample():
            assert not (a < b < s)


def test_add_associative():
    rng = random.Random(2)
    values = sample()
    for _ in range(200):
        a, b, c = rng.choice(values), rng.choice(values), rng.choice(values)
        assert add(add(a, b), c) == add(a, add(b, c))


def test_parity_alternates_under_succ():
    for a in sample():
        assert parity(succ(a)) != parity(a)


def test_congruent_is_two_class_equivalence():
    values = sample()
    evens = [a for a in values if parity(a) == 0]
    odds = [a for a in values if parity(a) == 1]
    assert evens and odds
    for a in evens:
        for b in evens:
            assert congruent(a, b)
    for a in odds:
        for b in odds:
            assert congruent(a, b)
    for a in evens:
        for b in odds:
            assert not congruent(a, b)


def test_pred_inverts_succ():
    for a in sample():
        assert pred(succ(a)) == a
    with pytest.raises(ValueError):
        pred(OMEGA)
    with pytest.raises(ValueError):
        pred(ZERO)


def test_text_round_trip():
    for a in sample():
        assert from_text(to_text(a)) == a


def test_text_grammar():
    assert to_text(ZERO) == "0"
    assert to_text(from_int(5)) == "5"
    assert to_text(OMEGA) == "w"
    assert to_text(add(OMEGA, from_int(3))) == "w + 3"
    assert to_text(OrdinalCNF(((ONE, 2),))) == "w*2"
    assert to_text(omega_power(2)) == "w^2"
    assert from_text("w^(w + 1)*2 + w*3 + 4") == add(
        add(omega_power(add(OMEGA, ONE), 2), OrdinalCNF(((ONE, 3),))), from_int(4)
    )
    with pytest.raises(ValueError):
        from_text("w^")
    with pytest.raises(ValueError):
        from_text("3 + q")


def test_infinity_ordering():
    for a in sample():
        assert a < INFINITY
        assert INFINITY > a
        assert not (INFINITY < a)
        assert INFINITY >= a


# ranks in increasing order, INFINITY last
PROTOCOL_GRID = [
    from_text(t) for t in ("0", "1", "2", "w", "w + 1", "w^2", "w^(w + 1)*2 + 3")
] + [INFINITY]
ORDER_OPERATORS = (operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.parametrize("a", PROTOCOL_GRID, ids=str)
def test_the_comparison_protocol(a):
    """The six operators agree with `literal_compare`, with INFINITY
    above every ordinal and equal only to itself, in both orders; an
    operand that is not a rank is unordered against one, on either
    side."""
    for b in PROTOCOL_GRID:
        if a is INFINITY or b is INFINITY:
            sign = (a is INFINITY) - (b is INFINITY)
        else:
            sign = literal_compare(a, b)
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
            sign < 0, sign <= 0, sign > 0, sign >= 0, sign == 0, sign != 0
        )
    for other in (3, "w", None):
        for op in ORDER_OPERATORS:
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
        assert a != other and other != a
        assert not (a == other or other == a)


def test_invalid_cnf_rejected():
    with pytest.raises(ValueError):
        OrdinalCNF(((ZERO, 0),))
    with pytest.raises(ValueError):
        OrdinalCNF(((ZERO, 1), (ONE, 1)))  # exponents must decrease


def test_from_text_interns_and_infinity_repr():
    assert from_text("w^0*3") is from_int(3)
    assert repr(INFINITY) == "INFINITY"


# -- order keys against the term-by-term definition -------------------

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def literal_compare(a, b):
    """The CNF order walked term by term: the reference for the keys."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = literal_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def _cnf(terms):
    """Sum of w^e*c terms in any order: sorted and merged by exponent
    under `literal_compare`, then built as one CNF."""
    ordered = sorted(
        terms,
        key=functools.cmp_to_key(lambda s, t: literal_compare(t[0], s[0])),
    )
    merged = []
    for exp, coef in ordered:
        if merged and literal_compare(merged[-1][0], exp) == 0:
            merged[-1] = (merged[-1][0], merged[-1][1] + coef)
        else:
            merged.append((exp, coef))
    return OrdinalCNF(tuple(merged))


NAMED = [from_text(t) for t in ("w^w", "w^(w + 1)*2 + 3", "w^(w^w)", "w^w*3 + w^2")]
ORDINALS = st.recursive(
    st.one_of(st.integers(0, 6).map(from_int), st.sampled_from(NAMED)),
    lambda inner: st.lists(
        st.tuples(inner, st.integers(1, 4)), min_size=1, max_size=3
    ).map(_cnf),
    max_leaves=12,
)


@PROPERTY
@given(ORDINALS, ORDINALS)
def test_order_keys_agree_with_literal_compare(a, b):
    sign = literal_compare(a, b)
    assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    assert (a == b, a != b) == (sign == 0, sign != 0)
    if sign == 0:
        assert hash(a) == hash(b)


@PROPERTY
@given(ORDINALS)
def test_equal_ordinals_built_apart_hash_equal(a):
    for again in (OrdinalCNF(a.terms), from_text(to_text(a)), add(a, ZERO)):
        assert literal_compare(again, a) == 0
        assert again == a and hash(again) == hash(a)
    # the stored hash is the key's, so sets of ordinals iterate as before
    assert hash(a) == hash(a._key)
    assert a < INFINITY and not (a >= INFINITY) and a != INFINITY
    assert succ(a) > a and literal_compare(succ(a), a) == 1


@PROPERTY
@given(st.integers(0, 10**20))
def test_finite_ordinals_are_interned(n):
    assert from_int(n) is from_int(n)
    assert from_text(str(n)) is from_int(n)
    assert from_int(n).to_int() == n


@PROPERTY
@given(
    st.text(alphabet="0123456789", min_size=1, max_size=25)
    | st.text(alphabet="0٣７", min_size=1, max_size=4)
)
def test_decimal_literals_match_the_tokenizer(text):
    value, pos = _parse_expr(_tokenize(text), 0)
    assert pos == 1
    assert from_text(text) == value


def test_keys_leave_the_dataclass_surface_alone():
    assert [f.name for f in dataclasses.fields(OrdinalCNF)] == ["terms"]
    assert repr(from_text("w^(w + 1)*2 + 3")) == "OrdinalCNF('w^(w + 1)*2 + 3')"
    assert ZERO is from_int(0) and ONE is from_int(1)
    with pytest.raises(ValueError):
        from_text("\u00b2")


REIMPORT = """
import gc, importlib, sys, weakref
importlib.import_module("guessable.cli")  # which imports every module
old = weakref.ref(sys.modules["guessable.ordinal"].OrdinalCNF)
for name in [n for n in sys.modules if n.split(".")[0] == "guessable"]:
    del sys.modules[name]
importlib.import_module("guessable.cli")
gc.collect()
print(old() is None)
"""


def test_a_reimport_lets_the_old_classes_go():
    """A benchmark re-imports the package once per set-up; nothing the
    module builds at import, such as a typing alias over its classes,
    may keep the old generation alive."""
    ordinal_py = sys.modules[OrdinalCNF.__module__].__file__
    package = os.path.dirname(os.path.abspath(ordinal_py))
    out = subprocess.run(
        [sys.executable, "-c", REIMPORT],
        env={**os.environ, "PYTHONPATH": os.path.dirname(package)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "True"
