"""The one-pass remainder trace, the pair-product open-subset check,
the chain check and open union on the product, the bucketed chain
extraction and pair-product equivalence and emptiness, each against
the slow definition it replaces."""

import contextlib
import io
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import guessable.diff_hierarchy
import guessable.guesser
import guessable.space
from guessable.cli import main
from guessable.cycles import forward_closure
from guessable.diff_hierarchy import (
    ChainNotIncreasingError,
    OpenChain,
    Side,
    classify,
    guesser_to_chain,
    make_anticongruent,
)
from guessable.fixtures import (
    FIXTURES,
    F_CYL1,
    OPEN_EMPTY,
    OPEN_FACTOR_11,
    OPEN_FULL,
    OPEN_ONE,
)
from guessable.formats import render_automaton
from guessable.guesser import (
    RankedGuesser,
    check_bound,
    divergence_witness,
    flip_outputs,
    mind_change_rank,
    synthesize,
)
from guessable.ordinal import from_int, pred
from guessable.randgen import duplicate_state, random_parity_set, random_scc_dag
from guessable.remainder import remainder_chain
from guessable.space import (
    ParitySet,
    complement,
    equivalent,
    is_empty,
    make_open,
    open_subset,
    open_union,
)
from literal import literal_remainder_chain, parity_cycle_nodes, product_boolean

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def parity_sets(draw, max_states=10, max_priority=7, alphabets=(2, 3)):
    k = draw(st.sampled_from(alphabets))
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
    assert ranked == synthesize(s)
    assert check_bound(ranked)
    assert ranked.codomain == trace.alpha_s
    assert divergence_witness(ranked.guesser, s) is None


@PROPERTY
@given(open_pairs())
def test_open_subset_agrees_with_iar_difference(pair):
    a, b = pair
    iar = is_empty(product_boolean(a.to_parity(), b.to_parity(), "diff"))
    assert open_subset(a, b) == iar


@st.composite
def member_tuples(draw):
    """One to four open sets over one alphabet.  Each after the first is
    a union with the one before, the one before with another target on
    its own table, nested or not, or drawn afresh."""
    k = draw(st.sampled_from([2, 3]))
    members = [draw(open_sets(k))]
    for _ in range(draw(st.integers(0, 3))):
        prev = members[-1]
        how = draw(st.sampled_from(["union", "skeleton", "fresh"]))
        if how == "union":
            members.append(open_union(prev, draw(open_sets(k, max_states=3))))
        elif how == "skeleton":
            aut = prev.automaton
            seeds = draw(st.sets(st.integers(0, aut.n_states - 1)))
            if draw(st.booleans()):
                seeds |= prev.target
            states = set(range(aut.n_states))
            target = forward_closure(seeds, states, aut.delta)
            members.append(make_open(k, aut.start, aut.delta, target))
        else:
            members.append(draw(open_sets(k)))
    return tuple(members)


@PROPERTY
@given(member_tuples())
def test_chain_is_refused_exactly_when_a_pair_is_not_a_subset(members):
    if all(open_subset(a, b) for a, b in zip(members, members[1:])):
        OpenChain(members)
    else:
        with pytest.raises(ChainNotIncreasingError, match="must increase"):
            OpenChain(members)


@PROPERTY
@given(open_pairs())
def test_open_union_agrees_with_iar_union(pair):
    a, b = pair
    union = open_union(a, b)
    assert union.automaton.n_states <= a.automaton.n_states * b.automaton.n_states
    iar = product_boolean(a.to_parity(), b.to_parity(), "or")
    assert equivalent(union.to_parity(), iar)


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
        trace = remainder_chain(s)
        built.append((s, trace))
        return trace

    monkeypatch.setattr(guessable.guesser, "remainder_chain", counting)
    monkeypatch.setattr(guessable.diff_hierarchy, "remainder_chain", counting)
    s = counter_set(6)
    for verdict in (mind_change_rank, synthesize, classify):
        asked = len(built)
        verdict(s)
        assert len(built) > asked, verdict.__name__
    # `classify` asks twice, itself and through `synthesize`; every call
    # after the first reads the memo
    assert all(arg is s and trace is built[0][1] for arg, trace in built)


def root_zero_guessers(s):
    """The synthesized guesser of s with root output 0 (flipped when the
    root says 1), once with its own codomain and once widened as
    `classify` widens it; nothing when s is not guessable."""
    trace = remainder_chain(s)
    if not trace.guessable:
        return []
    canonical = synthesize(s)
    g = canonical.guesser
    if g.output[g.start]:
        canonical = RankedGuesser(flip_outputs(g), canonical.bound, canonical.codomain)
    wide = from_int(max(trace.rank.to_int() - 1, 1) + 1)
    return [
        canonical.with_codomain(codomain)
        for codomain in (canonical.codomain, wide)
        if codomain.is_successor
    ]


def literal_sublevel_targets(rg):
    """{q reachable : bound[q] <= eta} of the anticongruent bound, for
    eta below alpha, renumbered in reachable order."""
    alpha = pred(rg.codomain)
    if alpha.is_zero:
        alpha, rg = from_int(1), rg.with_codomain(from_int(2))
    adjusted = make_anticongruent(rg)
    reach = sorted(adjusted.guesser.reachable_states())
    renumber = {q: i for i, q in enumerate(reach)}
    return [
        frozenset(renumber[q] for q in reach if adjusted.bound[q] <= from_int(eta))
        for eta in range(alpha.to_int())
    ]


def assert_chain_is_sublevel_sets(s):
    for rg in root_zero_guessers(s):
        chain = guesser_to_chain(rg)
        assert [m.target for m in chain.sets] == literal_sublevel_targets(rg)


@PROPERTY
@given(parity_sets(max_states=8, max_priority=5))
def test_chain_members_are_literal_sublevel_sets(s):
    assert_chain_is_sublevel_sets(s)


def test_chain_members_are_literal_sublevel_sets_on_seeded_corpus():
    rng = random.Random(4)
    for _ in range(300):
        s = random_parity_set(
            rng, alphabet=rng.choice([2, 3]), max_states=8, max_priority=5
        )
        assert_chain_is_sublevel_sets(s)
    for m in range(7):
        assert_chain_is_sublevel_sets(counter_set(m))
        assert_chain_is_sublevel_sets(complement(counter_set(m)))


@st.composite
def skeleton_pairs(draw):
    """Two open sets on one transition table with arbitrary absorbing
    targets, nested or not; the second start may differ."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    delta = tuple(draw(st.lists(st.tuples(*[state] * k), min_size=n, max_size=n)))
    seeds_a, seeds_b = draw(st.sets(state)), draw(st.sets(state))
    target_a = forward_closure(seeds_a, set(range(n)), delta)
    if draw(st.booleans()):
        seeds_b |= target_a
    target_b = forward_closure(seeds_b, set(range(n)), delta)
    start = draw(state)
    start_b = start if draw(st.booleans()) else draw(state)
    # an equal table that is not the same object
    a = make_open(k, start, delta, target_a)
    b = make_open(k, start_b, tuple(list(delta)), target_b)
    return a, b


# nested targets on one table, but from different starts: not a subset
LOOPS = ((0, 0), (1, 1))


@PROPERTY
@given(skeleton_pairs())
@example((make_open(2, 0, LOOPS, {0}), make_open(2, 1, LOOPS, {0})))
def test_open_subset_on_one_skeleton_agrees_with_iar_difference(pair):
    for a, b in (pair, pair[::-1]):
        iar = is_empty(product_boolean(a.to_parity(), b.to_parity(), "diff"))
        assert open_subset(a, b) == iar


def test_bound_checks_per_classify(monkeypatch):
    calls = []

    def counting(rg):
        calls.append(rg)
        return check_bound(rg)

    monkeypatch.setattr(guessable.diff_hierarchy, "check_bound", counting)
    counts = set()
    for m in (8, 40):
        for s in (counter_set(m), complement(counter_set(m))):
            calls.clear()
            classify(s)
            counts.add(len(calls))
    assert len(counts) == 1
    # the seeded corpus includes sets whose root `make_anticongruent` splits
    rng = random.Random(3)
    for i in range(3000):
        k = rng.choice([2, 3])
        if i % 2:
            s = random_scc_dag(rng, k)
        else:
            s = random_parity_set(rng, alphabet=k, max_states=8, max_priority=4)
        calls.clear()
        classify(s)
        counts.add(len(calls))
    assert max(counts) <= 2


def test_classify_builds_one_chain_and_no_level_set(monkeypatch):
    chains = []

    def counting_chain(rg):
        chains.append(rg)
        return guesser_to_chain(rg)

    def refuse(chain):
        raise AssertionError("classify built a level set")

    monkeypatch.setattr(guessable.diff_hierarchy, "guesser_to_chain", counting_chain)
    monkeypatch.setattr(guessable.diff_hierarchy, "d_theta", refuse)
    outcome = classify(F_CYL1)
    assert (outcome.rank, outcome.side) == (from_int(2), Side.BOTH)
    assert len(chains) == 1


@PROPERTY
@given(parity_sets())
def test_complement_swaps_the_opinion_costs(s):
    trace, flipped = remainder_chain(s), remainder_chain(complement(s))
    assert flipped.state_rank == trace.state_rank
    assert flipped.accept_rank == trace.reject_rank
    assert flipped.reject_rank == trace.accept_rank


SWAPPED = {
    Side.SELF: Side.COMPLEMENT,
    Side.COMPLEMENT: Side.SELF,
    Side.BOTH: Side.BOTH,
    Side.NEITHER: Side.NEITHER,
}


@PROPERTY
@given(parity_sets(max_states=8, max_priority=5))
def test_complement_swaps_the_classified_side(s):
    outcome, flipped = classify(s), classify(complement(s))
    assert flipped.rank == outcome.rank
    assert flipped.side is SWAPPED[outcome.side]


@PROPERTY
@given(parity_sets(), st.integers(0, 99))
def test_rank_is_invariant_under_duplicate_state(s, seed):
    twin = duplicate_state(s, random.Random(seed))
    assert mind_change_rank(twin) == mind_change_rank(s)


def literal_is_empty(s):
    """Emptiness by one SCC scan per even priority: no reachable cycle
    has an even maximum."""
    reach = s.reachable_states()
    return not parity_cycle_nodes(reach, s.delta, s.priority.__getitem__, 0)


def iar_equivalent(s, t):
    """Equivalence by emptiness of both index-appearance-record
    difference products."""
    return literal_is_empty(product_boolean(s, t, "diff")) and literal_is_empty(
        product_boolean(t, s, "diff")
    )


def assert_agrees_with_iar(s, t):
    assert equivalent(s, t) == equivalent(t, s) == iar_equivalent(s, t)
    for x in (s, t, product_boolean(s, t, "diff")):
        assert is_empty(x) == literal_is_empty(x)


def dense_set(rng, n):
    """n states on a symbol-0 cycle through all of them, random symbol-1
    edges and the distinct priorities 0..n-1."""
    order = rng.sample(range(n), n)
    delta = [None] * n
    for i, q in enumerate(order):
        delta[q] = (order[(i + 1) % n], rng.randrange(n))
    return ParitySet(
        alphabet=2,
        start=order[0],
        delta=tuple(delta),
        priority=tuple(rng.sample(range(n), n)),
    )


@st.composite
def parity_pairs(draw):
    """Two sets over one alphabet: unrelated, a twin with a duplicated
    state (equal), or the complement (different)."""
    s = draw(parity_sets(max_states=6, max_priority=5))
    relation = draw(st.sampled_from(["other", "twin", "complement"]))
    if relation == "twin":
        return s, duplicate_state(s, random.Random(draw(st.integers(0, 99))))
    if relation == "complement":
        return s, complement(s)
    return s, draw(parity_sets(max_states=6, max_priority=5, alphabets=[s.alphabet]))


@PROPERTY
@given(parity_pairs())
def test_equivalence_and_emptiness_agree_with_iar(pair):
    assert_agrees_with_iar(*pair)


def test_equivalence_and_emptiness_agree_with_iar_on_seeded_corpus():
    rng = random.Random(6)
    verdicts = []
    for _ in range(300):
        k = rng.choice([2, 3])
        s = random_parity_set(rng, alphabet=k, max_states=6, max_priority=5)
        t = random_parity_set(rng, alphabet=k, max_states=6, max_priority=5)
        twin = duplicate_state(s, rng)
        assert equivalent(s, twin) and equivalent(twin, s)
        assert not equivalent(s, complement(s))
        assert_agrees_with_iar(s, twin)
        assert_agrees_with_iar(s, complement(s))
        assert_agrees_with_iar(s, t)
        verdicts.append(equivalent(s, t))
    for _ in range(60):
        s, t = dense_set(rng, rng.randint(1, 8)), dense_set(rng, rng.randint(1, 8))
        assert_agrees_with_iar(s, t)
        assert_agrees_with_iar(s, duplicate_state(s, rng))
        verdicts.append(equivalent(s, t))
    # the unrelated pairs are not all decided one way
    assert True in verdicts and False in verdicts


def test_no_decision_builds_the_iar_product(monkeypatch, tmp_path):
    """Every product the decisions build is a plain pair product: two
    operands and at most |A|·|B| rows, where the index-appearance-record
    product would also carry an ordering of the priorities."""
    pair_product = guessable.space.product
    sizes = []

    def counting(*machines):
        order, rows = pair_product(*machines)
        bound = math.prod(m.n_states for m in machines)
        sizes.append((len(machines), len(rows), bound))
        return order, rows

    monkeypatch.setattr(guessable.space, "product", counting)
    opens = (OPEN_EMPTY, OPEN_FULL, OPEN_ONE, OPEN_FACTOR_11)
    for a in opens:
        for b in opens:
            open_subset(a, b)
    for name, s in FIXTURES.items():
        is_empty(s)
        equivalent(s, s)
        equivalent(s, complement(s))
        classify(s)
        path = tmp_path / f"{name}.aut"
        path.write_text(render_automaton(s))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["diff", "extract", str(path)]) in (0, 1)
    assert sizes
    assert all(operands == 2 for operands, _, _ in sizes)
    assert all(built <= bound for _, built, bound in sizes)


def test_equivalence_builds_one_plain_pair_product(monkeypatch):
    pair_product = guessable.space.product
    sizes = []

    def counting(s, t):
        order, rows = pair_product(s, t)
        sizes.append((len(rows), s.n_states * t.n_states))
        return order, rows

    monkeypatch.setattr(guessable.space, "product", counting)
    rng = random.Random(14)
    for _ in range(10):
        s, t = dense_set(rng, 14), dense_set(rng, 14)
        assert equivalent(s, duplicate_state(s, rng))
        assert not equivalent(s, complement(s))
        equivalent(s, t)
    assert len(sizes) == 30
    assert all(built <= bound for built, bound in sizes)
