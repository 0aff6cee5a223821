"""The one-pass remainder trace and the pair-product open-subset check,
each against the slow definition it replaces."""

import random

from hypothesis import given, settings, strategies as st

import guessable.diff_hierarchy
import guessable.guesser
from guessable.diff_hierarchy import classify
from guessable.guesser import (
    check_bound,
    divergence_witness,
    mind_change_rank,
    synthesize,
)
from guessable.oracle import literal_remainder_chain
from guessable.ordinal import from_int
from guessable.randgen import random_parity_set
from guessable.remainder import remainder_chain
from guessable.space import (
    ParitySet,
    is_empty,
    make_open,
    open_subset,
    open_union,
    product_boolean,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def parity_sets(draw, max_states=10, max_priority=7):
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    delta = draw(st.lists(st.tuples(*[state] * k), min_size=n, max_size=n))
    priority = draw(
        st.lists(st.integers(0, max_priority), min_size=n, max_size=n)
    )
    return ParitySet(
        alphabet=k, start=draw(state), delta=tuple(delta), priority=tuple(priority)
    )


@st.composite
def open_sets(draw, alphabet, max_states=4):
    n = draw(st.integers(1, max_states))
    target = {q for q in range(n) if draw(st.booleans())}
    rows = []
    for q in range(n):
        pool = sorted(target) if q in target else list(range(n))
        rows.append(tuple(draw(st.sampled_from(pool)) for _ in range(alphabet)))
    return make_open(alphabet, draw(st.integers(0, n - 1)), tuple(rows), target)


@st.composite
def open_pairs(draw):
    """Two open sets over one alphabet; either side may be a union,
    so that subset pairs come up often."""
    k = draw(st.sampled_from([2, 3]))
    a, b = draw(open_sets(k)), draw(open_sets(k))
    if draw(st.booleans()):
        b = open_union(a, b)
    if draw(st.booleans()):
        a = open_union(a, draw(open_sets(k, max_states=3)))
    return a, b


def counter_set(m):
    """C_m: state (c, b) is 2c+b, with c the number of symbol changes
    capped at m and b the last symbol; even c rejects, odd c accepts.
    Rank m+1, chain length m+2."""
    delta = []
    for c in range(m + 1):
        for b in (0, 1):
            delta.append(
                tuple(2 * c + b if a == b else 2 * min(c + 1, m) + a for a in (0, 1))
            )
    priority = tuple(2 if c % 2 else 1 for c in range(m + 1) for _ in (0, 1))
    return ParitySet(alphabet=2, start=0, delta=tuple(delta), priority=priority)


@PROPERTY
@given(parity_sets())
def test_trace_equals_literal_iteration(s):
    fast, literal = remainder_chain(s), literal_remainder_chain(s)
    assert fast.chain == literal.chain
    assert fast.alpha_s == literal.alpha_s
    assert fast.state_rank == literal.state_rank
    assert fast == literal


def test_trace_equals_literal_iteration_on_seeded_corpus():
    rng = random.Random(2)
    for _ in range(1500):
        s = random_parity_set(
            rng, alphabet=rng.choice([2, 3]), max_states=10, max_priority=7
        )
        assert remainder_chain(s) == literal_remainder_chain(s)


@PROPERTY
@given(parity_sets(max_states=8, max_priority=4))
def test_synthesized_guesser_is_certified(s):
    trace = remainder_chain(s)
    if not trace.guessable:
        return
    ranked = synthesize(s)
    assert ranked == synthesize(s, trace)
    assert check_bound(ranked)
    assert ranked.codomain == trace.alpha_s
    assert divergence_witness(ranked.guesser, s) is None


@PROPERTY
@given(open_pairs())
def test_open_subset_agrees_with_iar_difference(pair):
    a, b = pair
    iar = is_empty(product_boolean(a.to_parity(), b.to_parity(), "diff"))
    assert open_subset(a, b) == iar


def test_counter_family_known_answer():
    s = counter_set(400)
    assert s.n_states == 802
    trace = remainder_chain(s)
    assert mind_change_rank(s) == from_int(401)
    assert len(trace.chain) == 402
    assert trace.alpha_s == from_int(401)


def test_one_trace_per_verdict(monkeypatch):
    built = []

    def counting(s):
        built.append(s)
        return remainder_chain(s)

    monkeypatch.setattr(guessable.guesser, "remainder_chain", counting)
    monkeypatch.setattr(guessable.diff_hierarchy, "remainder_chain", counting)
    s = counter_set(6)
    for verdict in (mind_change_rank, synthesize, classify):
        built.clear()
        verdict(s)
        assert len(built) == 1, verdict.__name__
