import random
import tracemalloc

import pytest

from guessable.fixtures import F_CYL1, F_EMPTY, F_FULL, F_INF1, F_NO11, F_ONE
from guessable.ordinal import INFINITY, OrdinalCNF, from_int, pred
from guessable.randgen import random_parity_set, random_scc_dag
from guessable.remainder import (
    in_s_alpha,
    is_guessable,
    remainder_chain,
    rm_alpha_empty,
    s_alpha_empty,
    word_rank,
)
from guessable.space import complement, words_up_to
from test_fast_paths import counter_set


class TestChains:
    def test_f_one_chain(self):
        trace = remainder_chain(F_ONE)
        assert trace.chain == (frozenset({0, 1}), frozenset({0}), frozenset())
        assert trace.alpha_s == from_int(2)
        assert trace.state_rank[1] == from_int(1)
        assert trace.state_rank[0] == from_int(2)

    def test_f_empty_chain(self):
        trace = remainder_chain(F_EMPTY)
        assert trace.chain == (frozenset({0}), frozenset())
        assert trace.alpha_s == from_int(1)

    def test_f_inf1_fixpoint_everything(self):
        trace = remainder_chain(F_INF1)
        assert trace.fixpoint == frozenset({0, 1})
        assert not trace.guessable
        assert trace.alpha_s == from_int(0)

    def test_f_no11_chain(self):
        trace = remainder_chain(F_NO11)
        assert [len(q) for q in trace.chain] == [4, 3, 1, 0]
        assert trace.alpha_s == from_int(3)

    def test_chain_monotone_and_short(self, small_corpus):
        for s in small_corpus["all"]:
            trace = remainder_chain(s)
            for earlier, later in zip(trace.chain, trace.chain[1:]):
                assert later < earlier  # strictly decreasing until fixpoint
            assert len(trace.chain) - 1 <= s.n_states

    def test_complement_symmetry(self, small_corpus):
        for s in small_corpus["all"]:
            assert remainder_chain(s).chain == remainder_chain(complement(s)).chain


class TestWordRank:
    def test_examples(self):
        trace = remainder_chain(F_ONE)
        assert word_rank(trace, ()) == from_int(2)
        assert word_rank(trace, (0, 1)) == from_int(1)
        tri = remainder_chain(F_INF1)
        for word in words_up_to(2, 4):
            assert word_rank(tri, word) is INFINITY

    def test_every_finite_rank_is_a_successor(self, small_corpus):
        for s in small_corpus["all"]:
            trace = remainder_chain(s)
            for word in words_up_to(2, 5):
                r = word_rank(trace, word)
                if r is not INFINITY:
                    assert isinstance(r, OrdinalCNF) and r.is_successor

    def test_rank_equals_last_state_rank(self, small_corpus):
        # ranks never rise along a run, so the least state rank on it,
        # the stage at which the word falls out, is the final state's
        for s in small_corpus["all"]:
            trace = remainder_chain(s)
            for word in words_up_to(2, 5):
                least = min(trace.state_rank[q] for q in s.run_states(word))
                assert trace.state_rank[s.state_after(word)] == least
                assert word_rank(trace, word) == least

    def test_prefix_monotonicity(self, small_corpus):
        # extending a word can only lower its rank, and fixpoint
        # membership is inherited by prefixes
        for s in small_corpus["all"]:
            trace = remainder_chain(s)
            for word in words_up_to(2, 6):
                r_full = word_rank(trace, word)
                for i in range(len(word) + 1):
                    r_pre = word_rank(trace, word[:i])
                    assert not r_full > r_pre
                    if r_full is INFINITY:
                        assert r_pre is INFINITY

    def test_eventually_constant_along_up_words(self, small_corpus, up_words_100):
        # once the per-prefix rank settles at beta, every prefix stays
        # inside the stage beta-1 set
        for s in small_corpus["guessable"]:
            trace = remainder_chain(s)
            for w in up_words_100[:30]:
                ranks = [word_rank(trace, w.head(n)) for n in range(12)]
                beta = ranks[-1]
                assert beta is not INFINITY
                for n in range(12):
                    assert in_s_alpha(trace, w.head(n), pred(beta))


class TestStageMembership:
    def test_in_s_alpha_examples(self):
        trace = remainder_chain(F_ONE)
        assert in_s_alpha(trace, (), from_int(1))
        assert not in_s_alpha(trace, (), from_int(2))
        for word in words_up_to(2, 3):
            assert in_s_alpha(trace, word, from_int(0))

    def test_rm_alpha_empty_examples(self):
        trace = remainder_chain(F_ONE)
        # stage 1 still carries the all-zero point
        assert not rm_alpha_empty(trace, from_int(1))
        assert rm_alpha_empty(trace, from_int(2))
        assert rm_alpha_empty(remainder_chain(F_EMPTY), from_int(1))
        tri = remainder_chain(F_INF1)
        assert not rm_alpha_empty(tri, tri.alpha_s)

    def test_point_empty_forces_next_stage_empty(self, small_corpus):
        for s in small_corpus["all"]:
            trace = remainder_chain(s)
            for alpha in range(len(trace.chain)):
                if rm_alpha_empty(trace, from_int(alpha)):
                    assert s_alpha_empty(trace, from_int(alpha + 1))

    def test_transfinite_stage_queries(self):
        # the interface stays ordinal typed: indices at or beyond the
        # stabilization clamp to the fixpoint
        from guessable.ordinal import OMEGA

        trace = remainder_chain(F_ONE)
        assert trace.stage(OMEGA) == trace.fixpoint
        assert not in_s_alpha(trace, (), OMEGA)
        tri = remainder_chain(F_INF1)
        assert in_s_alpha(tri, (0, 1), OMEGA)
        assert not rm_alpha_empty(tri, OMEGA)

    def test_negative_stage_is_refused(self):
        trace = remainder_chain(F_ONE)
        with pytest.raises(ValueError):
            trace.stage(-1)
        assert trace.stage(0) == frozenset({0, 1})

    def test_gap_at_cyl1(self):
        # nonempty stage-1 word set whose branches all die out: the open
        # question's answer is yes, surfaced rather than assumed away
        trace = remainder_chain(F_CYL1)
        assert trace.gap_stages() == [1]
        assert not s_alpha_empty(trace, from_int(1))
        assert rm_alpha_empty(trace, from_int(1))

    def test_gaps_match_the_per_stage_definition(self):
        def literal_gaps(trace):
            stages = map(from_int, range(trace.alpha_s.to_int() + 1))
            return [
                alpha.to_int()
                for alpha in stages
                if not s_alpha_empty(trace, alpha) and rm_alpha_empty(trace, alpha)
            ]

        rng = random.Random(0)
        sets = [random_parity_set(rng) for _ in range(3000)]
        sets += [random_scc_dag(rng, alphabet=k) for k in (2, 3) for _ in range(500)]
        with_gaps = 0
        for s in sets:
            for t in (s, complement(s)):
                trace = remainder_chain(t)
                gaps = trace.gap_stages()
                assert gaps == literal_gaps(trace)
                with_gaps += bool(gaps)
        assert with_gaps >= 1

    def test_trace_memory_is_linear(self):
        # C_3200 has 6,402 states and rank 3,201; its stages would hold
        # about 5.1 million state entries if the trace stored them
        s = counter_set(3200)
        tracemalloc.start()
        try:
            trace = remainder_chain(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert trace.rank == from_int(3201)
        assert trace.gap_stages() == []


class TestGuessability:
    def test_fixture_verdicts(self):
        assert is_guessable(F_ONE)
        assert is_guessable(F_EMPTY)
        assert is_guessable(F_FULL)
        assert is_guessable(F_CYL1)
        assert is_guessable(F_NO11)
        assert not is_guessable(F_INF1)

    def test_complement_invariant(self, small_corpus):
        for s in small_corpus["all"]:
            assert is_guessable(s) == is_guessable(complement(s))

    def test_unreachable_states_ignored(self):
        # an unreachable two-sided state must not change the verdict
        from guessable.space import ParitySet

        s = ParitySet(
            alphabet=2,
            start=0,
            delta=((0, 0), (1, 2), (2, 1)),
            priority=(1, 2, 1),
        )
        assert is_guessable(s)
