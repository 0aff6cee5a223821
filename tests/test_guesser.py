import random

import pytest

from guessable.based_guessing import last_bit_guesser
from guessable.fixtures import F_CYL1, F_EMPTY, F_FULL, F_INF1, F_NO11, F_ONE
from guessable.guesser import (
    MooreGuesser,
    NotGuessableError,
    RankedGuesser,
    check_bound,
    constant_guesser,
    divergence_witness,
    evaluate,
    limit_on_up,
    mind_change_rank,
    mind_changes,
    synthesize,
    verify_on_up,
)
from guessable.oracle import exhaustive_tables
from guessable.ordinal import ZERO, from_int
from guessable.randgen import random_moore_guesser, random_parity_set, random_scc_dag
from guessable.remainder import remainder_chain
from guessable.space import UPWord, compile_clopen, complement, words_up_to
from literal import literal_divergence_witness


def up(text):
    return UPWord.from_literal(text)


FLIPPER = MooreGuesser(
    alphabet=2, start=0, delta=((1, 1), (0, 0)), output=(0, 1)
)


class TestEvaluate:
    def test_constant(self):
        g = constant_guesser(2, 0)
        for word in words_up_to(2, 4):
            assert evaluate(g, word) == 0

    def test_canonical_f_one(self):
        g = synthesize(F_ONE).guesser
        assert evaluate(g, (0, 0)) == 0
        assert evaluate(g, (0, 1, 0)) == 1
        assert evaluate(g, ()) == 0


class TestLimit:
    def test_constant(self):
        assert limit_on_up(constant_guesser(2, 1), up("(0)")) == 1

    def test_canonical_f_one_settles_low(self):
        g = synthesize(F_ONE).guesser
        assert limit_on_up(g, up("(0)")) == 0
        assert limit_on_up(g, up("01(0)")) == 1

    def test_flipper_diverges(self):
        assert limit_on_up(FLIPPER, up("(01)")) is None


class TestVerify:
    def test_canonical_pairs(self):
        g = synthesize(F_ONE).guesser
        assert verify_on_up(g, F_ONE, up("(0)"))
        assert not verify_on_up(constant_guesser(2, 0), F_FULL, up("(0)"))
        g11 = synthesize(F_NO11).guesser
        assert verify_on_up(g11, F_NO11, up("10(0)"))


class TestMindChanges:
    def test_constant_never_changes(self):
        for word in words_up_to(2, 5):
            assert mind_changes(constant_guesser(2, 1), word) == 0

    def test_single_flip(self):
        g = synthesize(F_ONE).guesser
        assert mind_changes(g, (0, 0, 1, 0)) == 1

    def test_two_flips_on_11(self):
        g = synthesize(F_NO11).guesser
        assert mind_changes(g, (0, 1, 1, 0)) == 2

    def test_bounded_by_distinct_bound_values(self, small_corpus):
        for s in small_corpus["guessable"]:
            rg = synthesize(s)
            distinct = len(set(rg.bound))
            for word in words_up_to(2, 8):
                assert mind_changes(rg.guesser, word) <= distinct


class TestCheckBound:
    def test_canonical_f_one(self):
        rg = synthesize(F_ONE)
        assert rg.codomain == from_int(2)
        assert check_bound(rg)
        assert not check_bound(rg.with_codomain(from_int(1)))

    def test_constant_trivial(self):
        rg = RankedGuesser(constant_guesser(2, 0), (ZERO,), from_int(1))
        assert check_bound(rg)

    def test_rejects_bound_increase(self):
        g = synthesize(F_ONE).guesser
        bad = RankedGuesser(g, (ZERO, from_int(1)), from_int(2))
        assert not check_bound(bad)

    def test_rejects_flat_bound_at_flip(self):
        g = synthesize(F_ONE).guesser
        bad = RankedGuesser(g, (from_int(1), from_int(1)), from_int(2))
        assert not check_bound(bad)

    def test_a_bound_map_must_cover_every_state(self):
        g = synthesize(F_ONE).guesser
        with pytest.raises(ValueError, match="^bound map must cover every state$"):
            RankedGuesser(g, (ZERO,), from_int(2))


class TestSynthesize:
    def test_empty_set(self):
        rg = synthesize(F_EMPTY)
        assert rg.guesser.output == (0,)
        assert rg.bound == (ZERO,)
        assert rg.codomain == from_int(1)

    def test_f_one_shape(self):
        rg = synthesize(F_ONE)
        assert rg.guesser.n_states == 2
        assert sorted(rg.guesser.output) == [0, 1]
        assert sorted(b.to_int() for b in rg.bound) == [0, 1]

    def test_f_no11_shape(self):
        rg = synthesize(F_NO11)
        assert rg.guesser.n_states == 4
        assert sorted(b.to_int() for b in rg.bound) == [0, 1, 1, 2]
        # output path 0 -> 1 -> 0 along 0,1,1
        g = rg.guesser
        assert [evaluate(g, (0,)[:i]) for i in range(2)] == [0, 0]
        assert evaluate(g, (1,)) == 1
        assert evaluate(g, (1, 1)) == 0

    def test_not_guessable_raises(self):
        with pytest.raises(NotGuessableError):
            synthesize(F_INF1)

    def test_postconditions_on_corpus(self, small_corpus):
        for s in small_corpus["guessable"]:
            rg = synthesize(s)
            assert check_bound(rg)
            assert rg.codomain == remainder_chain(s).alpha_s
            assert divergence_witness(rg.guesser, s) is None

    def test_verifies_on_many_words(self, up_words_200):
        for s in (F_ONE, F_NO11, F_CYL1, F_EMPTY, F_FULL):
            g = synthesize(s).guesser
            for w in up_words_200:
                assert verify_on_up(g, s, w)

    def test_soundness_on_1000_words(self):
        from guessable.space import canonical_up_words

        words = canonical_up_words(2, 1000)
        for s in (F_ONE, F_NO11):
            g = synthesize(s).guesser
            assert divergence_witness(g, s) is None
            for w in words:
                assert verify_on_up(g, s, w)


class TestMindChangeRank:
    def test_fixture_table(self):
        table = {
            "F_EMPTY": 1,
            "F_FULL": 1,
            "F_CYL1": 2,
            "F_ONE": 2,
            "F_NO11": 3,
            "F_INF1": None,
        }
        from guessable.fixtures import FIXTURES

        for name, want in table.items():
            got = mind_change_rank(FIXTURES[name])
            assert (got.to_int() if got is not None else None) == want, name

    def test_complement_invariance(self):
        from guessable.fixtures import FIXTURES

        for s in FIXTURES.values():
            a = mind_change_rank(s)
            b = mind_change_rank(complement(s))
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b

    def test_clopen_rank_bounded_by_depth(self):
        for d in (1, 2, 3):
            for t in exhaustive_tables(2, d):
                rank = mind_change_rank(compile_clopen(t))
                assert rank is not None and rank.to_int() <= d + 1

    def test_minimality(self, small_corpus):
        # the stage just below the rank is still inhabited
        for s in small_corpus["guessable"]:
            trace = remainder_chain(s)
            rank = mind_change_rank(s)
            assert trace.stage(rank.to_int() - 1)


class TestDivergenceWitness:
    def test_constant_vs_full(self):
        w = divergence_witness(constant_guesser(2, 0), F_FULL)
        assert w is not None
        assert not verify_on_up(constant_guesser(2, 0), F_FULL, w)

    def test_canonical_certified(self):
        assert divergence_witness(synthesize(F_ONE).guesser, F_ONE) is None

    def test_one_state_guessers_fail_inf1(self):
        for bit in (0, 1):
            w = divergence_witness(constant_guesser(2, bit), F_INF1)
            assert w is not None
            assert not verify_on_up(constant_guesser(2, bit), F_INF1, w)

    def test_every_guesser_fails_on_not_guessable(self, small_corpus):
        rng = random.Random(13)
        for s in small_corpus["not_guessable"][:6]:
            for _ in range(8):
                g = random_moore_guesser(rng)
                w = divergence_witness(g, s)
                assert w is not None
                assert not verify_on_up(g, s, w)

    @pytest.mark.parametrize(
        "g, s, text",
        [
            (last_bit_guesser(), F_INF1, "(10)"),  # the opinion oscillates
            (constant_guesser(2, 0), F_INF1, "(1)"),  # 0 under an even top
            (constant_guesser(2, 1), F_INF1, "(0)"),  # 1 under an odd top
            (last_bit_guesser(), F_CYL1, "(01)"),
        ],
    )
    def test_one_exact_witness_per_kind(self, g, s, text):
        assert str(divergence_witness(g, s)) == text

    def test_witness_equals_literal_on_larger_pairs(self):
        # guessers of up to 8 states against sets of up to 12 states and
        # priorities up to 7, then against guessable SCC-DAG sets
        rng = random.Random(41)
        pairs = []
        for k in (2, 3):
            for _ in range(1000):
                g = random_moore_guesser(rng, alphabet=k, max_states=8)
                s = random_parity_set(rng, alphabet=k, max_states=12, max_priority=7)
                pairs.append((g, s))
        for i in range(1000):
            s = random_scc_dag(rng, alphabet=2 + i % 2)
            g = random_moore_guesser(rng, alphabet=s.alphabet, max_states=8)
            pairs.append((g, s))
        for g, s in pairs:
            assert divergence_witness(g, s) == literal_divergence_witness(g, s)

    def test_witness_deterministic(self):
        a = divergence_witness(FLIPPER, F_FULL)
        b = divergence_witness(FLIPPER, F_FULL)
        assert a == b

    def test_none_certifies_all_up_words(self, small_corpus, up_words_100):
        rng = random.Random(17)
        checked = 0
        for s in small_corpus["all"][:12]:
            for _ in range(4):
                g = random_moore_guesser(rng)
                if divergence_witness(g, s) is None:
                    checked += 1
                    for w in up_words_100:
                        assert verify_on_up(g, s, w)
        # random guessers rarely succeed; the canonical ones always do
        for s in small_corpus["guessable"][:8]:
            g = synthesize(s).guesser
            assert divergence_witness(g, s) is None
            for w in up_words_100[:40]:
                assert verify_on_up(g, s, w)
