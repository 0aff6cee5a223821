"""One remainder trace per set.

`remainder_chain` memoises its trace on the `ParitySet` instance and
splits each cyclic condensation component only below its top
priority.  The trace is checked against the literal stage iteration on
sets whose components cycle through several priorities, the memo is
checked to be invisible from outside and bound to one instance, and
the verdicts that read the trace are checked to share one condensation
pass and one canonical guesser.  The divergence witness of a canonical
guesser makes one condensation pass of its product, the nodes a
witness searches grow linearly with the counter's bound, and the
refinement searches no set below a top that holds no node of the
wanted parity.
"""

import dataclasses
import random

from hypothesis import given, strategies as st

import guessable.cycles
import guessable.guesser
import guessable.remainder
from guessable.based_guessing import last_bit_guesser
from guessable.diff_hierarchy import classify
from guessable.guesser import (
    constant_guesser,
    divergence_witness,
    mind_change_rank,
    synthesize,
)
from guessable.oracle import cross_validate, draw_tables
from guessable.randgen import random_scc_dag
from guessable.remainder import remainder_chain
from guessable.space import ParitySet, complement
from literal import literal_remainder_chain
from test_fast_paths import PROPERTY, counter_set


def counted(monkeypatch, name, module=guessable.remainder):
    """Record the arguments of every call the module makes to its
    imported helper `name`."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def assert_matches_literal(s):
    for t in (s, complement(s)):
        assert remainder_chain(t) == literal_remainder_chain(t)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_trace_equals_literal_on_scc_dags(seed, alphabet):
    assert_matches_literal(random_scc_dag(random.Random(seed), alphabet=alphabet))


def test_trace_equals_literal_on_seeded_scc_dags(monkeypatch):
    below_top = counted(monkeypatch, "has_cycle")
    rng = random.Random(0)
    ranks = []
    for _ in range(500):
        s = random_scc_dag(rng, alphabet=rng.choice([2, 3]))
        assert_matches_literal(s)
        ranks.append(remainder_chain(s).rank.to_int())
    # deep ranks and components with several priorities both occur, so
    # the search below the top runs where it matters; its components
    # are pure, and mixed ones come from the random sets checked in
    # test_fast_paths
    assert sum(r >= 3 for r in ranks) >= 100
    assert len(below_top) >= 100


def test_only_nodes_below_the_top_are_searched_again(monkeypatch):
    below_top = counted(monkeypatch, "has_cycle")
    # 3 -> ring 0 -> 1 -> 2 -> 0 on symbol 0; 0, 1, 2 loop on symbol 1
    s = ParitySet(
        alphabet=2,
        start=3,
        delta=((1, 0), (2, 1), (0, 2), (0, 0)),
        priority=(3, 2, 1, 4),
    )
    trace = remainder_chain(s)
    assert [args[0] for args in below_top] == [{1, 2}]
    assert not trace.guessable
    assert trace == literal_remainder_chain(s)


def test_single_priority_components_are_not_searched_again(monkeypatch):
    below_top = counted(monkeypatch, "has_cycle")
    assert remainder_chain(counter_set(6)).rank.to_int() == 7
    assert below_top == []


def test_memo_is_invisible_and_per_instance():
    s, fresh = counter_set(5), counter_set(5)
    seen = (s == fresh, hash(s) == hash(fresh), repr(s) == repr(fresh))
    assert seen == (True, True, True)
    trace = remainder_chain(s)
    assert remainder_chain(s) is trace
    assert trace.subject is s
    assert (s == fresh, hash(s) == hash(fresh), repr(s) == repr(fresh)) == seen
    other = remainder_chain(fresh)
    assert other is not trace and other == trace and other.subject is fresh
    for derived in (complement(s), dataclasses.replace(s)):
        own = remainder_chain(derived)
        assert own is not trace
        assert own.subject is derived
        assert own == literal_remainder_chain(derived)


def test_one_condensation_pass_per_set(monkeypatch):
    passes = counted(monkeypatch, "strongly_connected_components")
    s = counter_set(6)
    rank = mind_change_rank(s)
    ranked = synthesize(s)
    classification = classify(s)
    trace = remainder_chain(s)
    assert len(passes) == 1
    assert rank == trace.rank == classification.rank == ranked.codomain


def test_witness_of_a_counter_guesser_makes_one_pass(monkeypatch):
    sets = [t for m in (3, 6, 12) for t in (counter_set(m), complement(counter_set(m)))]
    guessers = [synthesize(t).guesser for t in sets]
    passes = counted(monkeypatch, "strongly_connected_components", guessable.cycles)
    for t, g in zip(sets, guessers):
        passes.clear()
        assert divergence_witness(g, t) is None
        assert len(passes) == 1


def test_witness_searches_linearly_many_nodes(monkeypatch):
    # summed over the SCC passes of one witness, the nodes searched at
    # most a little over double when the counter's bound m doubles
    guessers = {
        "canonical": lambda t: synthesize(t).guesser,
        "constant-0": lambda t: constant_guesser(2, 0),
        "last-bit": lambda t: last_bit_guesser(),
    }
    passes = counted(monkeypatch, "strongly_connected_components", guessable.cycles)
    for name, guesser in guessers.items():
        for flip in (False, True):
            searched = []
            for m in (100, 200):
                t = complement(counter_set(m)) if flip else counter_set(m)
                g = guesser(t)
                passes.clear()
                divergence_witness(g, t)
                searched.append(sum(len(nodes) for nodes, _ in passes))
            assert searched[1] <= 2.5 * searched[0], (name, flip, searched)


def test_no_search_below_a_top_without_the_wanted_parity(monkeypatch):
    passes = counted(monkeypatch, "strongly_connected_components", guessable.cycles)
    ring = ((1,), (0,))  # 0 -> 1 -> 0
    # an odd top with an odd node below it: no even cycle, nothing to refine
    assert not guessable.cycles.has_cycle({0, 1}, ring, [[((3, 1), 0)]])
    assert len(passes) == 1
    passes.clear()
    # an even top with an odd node below it: the ring, and nothing more
    found = list(guessable.cycles.cycle_components({0, 1}, ring, [[((2, 1), 0)]]))
    assert found == [[0, 1]]
    assert len(passes) == 1


def test_cross_validate_builds_one_trace_per_table(monkeypatch):
    passes = counted(monkeypatch, "strongly_connected_components")
    report = cross_validate(draw_tables(2, 3, 40, seed=4))
    assert report.ok
    assert report.tables_checked == 40
    assert len(passes) == 40


def test_one_canonical_guesser_per_trace(monkeypatch):
    products = counted(monkeypatch, "explore", guessable.guesser)
    s = counter_set(6)
    trace = remainder_chain(s)
    seen = repr(trace)
    ranked = synthesize(s)
    classify(s)
    assert len(products) == 1
    assert synthesize(s) is ranked
    assert repr(trace) == seen
    assert remainder_chain(s) == literal_remainder_chain(s)
    assert synthesize(counter_set(6)) == ranked
