"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time.  All tolerances are exact; the scales
(table counts, corpus sizes, word budgets) are pinned here.
"""

import random
import time

import pytest

from guessable.based_guessing import (
    cylinder_simulation,
    cylinders_family,
    explicit_family,
    last_bit_guesser,
    limsup_liminf_check,
    verify_based,
)
from guessable.diff_hierarchy import (
    chain_to_guesser,
    d_theta,
    guesser_to_chain,
    make_anticongruent,
    normalize_h,
)
from guessable.fixtures import F_CYL1, F_EMPTY, F_FULL, F_NO11, F_ONE, FIXTURES
from guessable.guesser import (
    RankedGuesser,
    check_bound,
    divergence_witness,
    flip_outputs,
    limit_on_up,
    mind_change_rank,
    synthesize,
    verify_on_up,
)
from guessable.oracle import cross_validate, exhaustive_tables, sample_tables
from guessable.ordinal import congruent, from_int, parity, succ
from guessable.randgen import (
    duplicate_state,
    random_moore_guesser,
    random_nested_chain,
    random_parity_set,
)
from guessable.remainder import is_guessable, remainder_chain
from guessable.space import canonical_up_words, complement, equivalent


def report(number: int, name: str, started: float, cap: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {cap:.0f}s)")
    assert elapsed < cap


@pytest.fixture(scope="module")
def corpus():
    """Fixtures plus 60 seeded random automata, split by guessability."""
    rng = random.Random(101)
    sets = list(FIXTURES.values())
    sets += [random_parity_set(rng, max_states=6, max_priority=3) for _ in range(60)]
    return {
        "guessable": [s for s in sets if is_guessable(s)],
        "not_guessable": [s for s in sets if not is_guessable(s)],
    }


def test_criterion_1_oracle_equivalence(capsys):
    started = time.monotonic()
    # through the CLI surface, as shipped
    from guessable.cli import main

    assert main(["oracle", "check", "--k", "2", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "tables_checked=256" in out and "FAIL" not in out
    assert (
        main(["oracle", "check", "--k", "3", "--d", "2", "--samples", "200"]) == 0
    )
    out = capsys.readouterr().out
    assert "tables_checked=200" in out and "FAIL" not in out
    # and once more against the library, pinning the report fields
    report_bin = cross_validate(exhaustive_tables(2, 3), word_length=4)
    assert report_bin.ok and report_bin.tables_checked == 256
    report_ter = cross_validate(sample_tables(3, 2, 200, seed=0), word_length=4)
    assert report_ter.ok and report_ter.tables_checked == 200
    with capsys.disabled():
        print()
        report(1, "oracle-equivalence", started, 30)


def test_criterion_2_fixture_rank_table():
    started = time.monotonic()
    expected = {
        "F_EMPTY": 1,
        "F_FULL": 1,
        "F_CYL1": 2,
        "F_ONE": 2,
        "F_NO11": 3,
        "F_INF1": None,
    }
    for name, want in expected.items():
        rank = mind_change_rank(FIXTURES[name])
        got = rank.to_int() if rank is not None else None
        assert got == want, (name, got, want)
        co_rank = mind_change_rank(complement(FIXTURES[name]))
        co_got = co_rank.to_int() if co_rank is not None else None
        assert co_got == want, (name, co_got, want)
    report(2, "fixture-rank-table", started, 1)


def test_criterion_3_guessability_consistency():
    started = time.monotonic()
    rng = random.Random(42)
    for _ in range(500):
        s = random_parity_set(rng, alphabet=2, max_states=6, max_priority=3)
        verdict = is_guessable(s)
        assert is_guessable(complement(s)) == verdict
        twin = duplicate_state(s, rng)
        assert is_guessable(twin) == verdict
    report(3, "guessability-consistency", started, 60)


def test_criterion_4_rank_budget_duality(corpus):
    started = time.monotonic()
    # forward: the canonical pair attains the rank, and the rank is tight
    for s in corpus["guessable"]:
        rank = mind_change_rank(s)
        ranked = synthesize(s)
        assert ranked.codomain == rank
        assert check_bound(ranked)
        assert divergence_witness(ranked.guesser, s) is None
        trace = remainder_chain(s)
        assert trace.stage(rank.to_int() - 1), "stage below the rank is empty"
    # converse: any certified bounded pair caps the rank
    rng = random.Random(77)
    pool = corpus["guessable"]
    perturbed = 0
    while perturbed < 50:
        s = rng.choice(pool)
        ranked = synthesize(s)
        style = rng.randrange(3)
        if style == 0:
            ranked = ranked.with_codomain(succ(ranked.codomain))
        elif style == 1:
            ranked = RankedGuesser(
                ranked.guesser,
                tuple(succ(b) for b in ranked.bound),
                succ(ranked.codomain),
            )
        else:
            g = ranked.guesser
            q = rng.randrange(g.n_states)
            copy = g.n_states
            delta = [list(row) for row in g.delta]
            delta.append(list(g.delta[q]))
            for p in range(g.n_states):
                for a in range(g.alphabet):
                    if delta[p][a] == q and rng.random() < 0.5:
                        delta[p][a] = copy
            from guessable.guesser import MooreGuesser

            ranked = RankedGuesser(
                MooreGuesser(
                    alphabet=g.alphabet,
                    start=g.start,
                    delta=tuple(tuple(r) for r in delta),
                    output=g.output + (g.output[q],),
                ),
                ranked.bound + (ranked.bound[q],),
                ranked.codomain,
            )
        if not check_bound(ranked):
            continue
        if divergence_witness(ranked.guesser, s) is not None:
            continue
        perturbed += 1
        assert not mind_change_rank(s) > ranked.codomain
    report(4, "rank-budget-duality", started, 60)


def test_criterion_5_hierarchy_round_trips():
    started = time.monotonic()
    rng = random.Random(55)
    for _ in range(200):
        chain = random_nested_chain(rng, max_theta=3, max_states=4)
        assert all(m.automaton.n_states <= 4 for m in chain.sets)
        level = d_theta(chain)
        ranked = chain_to_guesser(chain)
        assert ranked.codomain == from_int(chain.theta_int + 1)
        assert check_bound(ranked)
        assert divergence_witness(ranked.guesser, level) is None
        if ranked.guesser.output[ranked.guesser.start] == 0:
            back = guesser_to_chain(ranked)
            assert equivalent(d_theta(back), level)
        else:
            flipped = RankedGuesser(
                flip_outputs(ranked.guesser), ranked.bound, ranked.codomain
            )
            back = guesser_to_chain(flipped)
            assert equivalent(d_theta(back), complement(level))
    report(5, "hierarchy-round-trips", started, 120)


def test_criterion_6_divergence_witnesses(corpus):
    started = time.monotonic()
    rng = random.Random(66)
    assert corpus["not_guessable"], "corpus must contain non-guessable sets"
    for s in corpus["not_guessable"]:
        for _ in range(20):
            g = random_moore_guesser(rng, max_states=4)
            witness = divergence_witness(g, s)
            assert witness is not None
            assert not verify_on_up(g, s, witness)
    report(6, "divergence-witnesses", started, 60)


def test_criterion_7_bound_normalization():
    started = time.monotonic()
    words = canonical_up_words(2, 100)
    pairs = [synthesize(s) for s in (F_EMPTY, F_FULL, F_CYL1, F_ONE, F_NO11)]
    for ranked in pairs:
        norm = normalize_h(ranked)
        assert norm.root_bound() == ranked.root_bound()
        assert check_bound(norm)
        g = norm.guesser
        for q in g.reachable_states():
            for a in range(g.alphabet):
                nq = g.delta[q][a]
                changed = g.output[nq] != g.output[q]
                par_changed = parity(norm.bound[nq]) != parity(norm.bound[q])
                assert changed == par_changed
        anti = make_anticongruent(ranked)
        assert check_bound(anti)
        g0 = anti.guesser.output[anti.guesser.start]
        want_anti = congruent(g0, anti.codomain)
        from guessable.diff_hierarchy import bound_limit_on_up

        for w in words:
            lim = limit_on_up(anti.guesser, w)
            if lim is None:
                continue
            h = bound_limit_on_up(anti, w)
            if want_anti:
                assert parity(h) != lim % 2
            else:
                assert parity(h) == lim % 2
    report(7, "bound-normalization", started, 30)


def test_criterion_8_based_guessing():
    started = time.monotonic()
    words = canonical_up_words(2, 200)
    families = [
        explicit_family((), (F_ONE,)),
        explicit_family((), (F_NO11,)),
        explicit_family((F_EMPTY,), (F_ONE,)),
        explicit_family((), (F_ONE, F_FULL)),
        explicit_family((), (F_CYL1,)),
        explicit_family((F_FULL,), (F_NO11, F_NO11)),
    ]
    sets = [F_ONE, F_NO11, F_FULL, F_EMPTY, F_CYL1]
    bit_reader = last_bit_guesser()
    implications = 0
    for family in families:
        for s in sets:
            for w in words:
                if limsup_liminf_check(family, s, w):
                    assert verify_based(bit_reader, family, s, w)
                    implications += 1
    assert implications > 0
    sim_words = canonical_up_words(2, 100)
    cylinders = cylinders_family(2)
    for s in (F_ONE, F_NO11):
        inner = synthesize(s).guesser
        lifted = cylinder_simulation(inner, 2)
        for w in sim_words:
            assert verify_based(lifted, cylinders, s, w)
            assert verify_based(lifted, cylinders, s, w) == verify_on_up(inner, s, w)
    report(8, "based-guessing", started, 30)
