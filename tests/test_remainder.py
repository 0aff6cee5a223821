import random
import tracemalloc

import pytest
from hypothesis import given

from guessable.cycles import forward_closure
from guessable.diff_hierarchy import _split_root, classify, guesser_to_chain
from guessable.fixtures import F_CYL1, F_EMPTY, F_FULL, F_INF1, F_NO11, F_ONE
from guessable.guesser import synthesize
from guessable.ordinal import INFINITY, OMEGA, OrdinalCNF, from_int, pred, succ
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
from literal import cycle_nodes
from test_fast_paths import PROPERTY, counter_set, parity_sets


@pytest.fixture(scope="module")
def seeded_traces():
    """3,000 random parity sets and 1,000 random SCC DAGs, each with its
    complement, as traces."""
    rng = random.Random(0)
    sets = [random_parity_set(rng) for _ in range(3000)]
    sets += [random_scc_dag(rng, alphabet=k) for k in (2, 3) for _ in range(500)]
    return [remainder_chain(t) for s in sets for t in (s, complement(s))]


def literal_rm_alpha_empty(trace, alpha):
    """Stage alpha carries no point iff no cycle inside it is reachable
    from the start within it: the closure and cycle search themselves."""
    allowed = set(trace.stage(alpha))
    if trace.subject.start not in allowed:
        return True
    succ_rows = trace.subject.delta
    reach = forward_closure([trace.subject.start], allowed, succ_rows)
    return not (cycle_nodes(reach, succ_rows) & reach)


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

    def test_stages_are_the_chain_and_the_stage_reads(self):
        rng = random.Random(25)
        counters = [counter_set(m) for m in range(12)]
        sets = counters + [complement(s) for s in counters]
        sets += [random_parity_set(rng) for _ in range(300)]
        verdicts = set()
        for s in sets:
            trace = remainder_chain(s)
            stages = list(trace.stages())
            assert stages == list(trace.chain)
            assert stages == [trace.stage(i) for i in range(trace.alpha_s.to_int() + 1)]
            assert stages[-1] == trace.fixpoint
            verdicts.add(trace.guessable)
        assert verdicts == {True, False}


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
        for query in (s_alpha_empty, rm_alpha_empty):
            with pytest.raises(ValueError):
                query(trace, -1)
        with pytest.raises(ValueError):
            in_s_alpha(trace, (0,), -1)
        assert trace.stage(0) == frozenset({0, 1})

    def test_gap_at_cyl1(self):
        # nonempty stage-1 word set whose branches all die out: the open
        # question's answer is yes, surfaced rather than assumed away
        trace = remainder_chain(F_CYL1)
        assert trace.gap_stages() == [1]
        assert not s_alpha_empty(trace, from_int(1))
        assert rm_alpha_empty(trace, from_int(1))

    def test_gaps_match_the_per_stage_definition(self, seeded_traces):
        def literal_gaps(trace):
            stages = map(from_int, range(trace.alpha_s.to_int() + 1))
            return [
                alpha.to_int()
                for alpha in stages
                if not s_alpha_empty(trace, alpha)
                and literal_rm_alpha_empty(trace, alpha)
            ]

        with_gaps = 0
        for trace in seeded_traces:
            gaps = trace.gap_stages()
            assert gaps == literal_gaps(trace)
            with_gaps += bool(gaps)
        assert with_gaps >= 1

    def test_point_emptiness_matches_the_cycle_search(self, seeded_traces):
        hopeless = 0
        for trace in seeded_traces:
            hopeless += not trace.guessable
            stages = [*map(from_int, range(trace.alpha_s.to_int() + 2)), OMEGA]
            for alpha in stages:
                assert rm_alpha_empty(trace, alpha) == literal_rm_alpha_empty(
                    trace, alpha
                )
        assert hopeless >= 1

    def test_the_root_bound_is_the_least_its_successors_allow(self, seeded_traces):
        # where the canonical root outputs 1 on the SELF or BOTH side,
        # classify splits the root under c(start, 0); the least bound
        # the root's successors allow is the same number
        split = 0
        for trace in seeded_traces:
            s = trace.subject
            if not trace.guessable:
                continue
            theta = from_int(max(trace.rank.to_int() - 1, 1))
            wide = synthesize(s).with_codomain(succ(theta))
            g = wide.guesser
            if g.output[g.start] == 0 or not trace.accept_rank[s.start] <= theta:
                continue
            least = max(
                [wide.bound[g.start]]
                + [
                    wide.bound[n] if g.output[n] == 0 else succ(wide.bound[n])
                    for n in g.delta[g.start]
                ]
            )
            assert least == trace.accept_rank[s.start]
            assert classify(s).chain == guesser_to_chain(_split_root(wide, 0, least))
            split += 1
        assert split >= 1

    def test_int_and_ordinal_stages_agree(self):
        for s in (F_ONE, F_CYL1, F_INF1, F_NO11):
            trace = remainder_chain(s)
            for i in range(trace.alpha_s.to_int() + 2):
                alpha = from_int(i)
                assert trace.stage(i) == trace.stage(alpha)
                assert s_alpha_empty(trace, i) == s_alpha_empty(trace, alpha)
                assert rm_alpha_empty(trace, i) == rm_alpha_empty(trace, alpha)
                for word in words_up_to(2, 3):
                    assert in_s_alpha(trace, word, i) == in_s_alpha(trace, word, alpha)

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

    def test_stages_hold_one_stage_at_a_time(self):
        # the whole chain of C_3200 holds about 5.1 million state entries
        trace = remainder_chain(counter_set(3200))
        tracemalloc.start()
        try:
            count = sum(1 for _ in trace.stages())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert count == 3202


@PROPERTY
@given(parity_sets())
def test_the_two_costs_differ_by_at_most_one(s):
    trace = remainder_chain(s)
    for q, c0 in trace.accept_rank.items():
        c1 = trace.reject_rank[q]
        assert (c0 is INFINITY) == (c1 is INFINITY)
        if c0 is not INFINITY:
            assert abs(c0.to_int() - c1.to_int()) <= 1


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
