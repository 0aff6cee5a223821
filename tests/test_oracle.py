import dataclasses
import itertools
import tracemalloc

import pytest

from guessable import oracle
from guessable.guesser import evaluate, mind_change_rank
from guessable.oracle import (
    BudgetExceededError,
    cross_validate,
    exhaustive_tables,
    sample_tables,
)
from guessable.ordinal import INFINITY, from_int
from guessable.remainder import word_rank
from guessable.space import ClopenTable, compile_clopen, cylinder, words_up_to
from literal import (
    guesser_value,
    literal_guesser_value,
    literal_truncated_remainder,
)


def binary_tables():
    """Every binary table of depth <= 3."""
    return itertools.chain.from_iterable(exhaustive_tables(2, d) for d in range(4))


def kernel(table):
    """The stage rank and the canonical guess `oracle._levels` gives each
    word of length <= d, as two dicts keyed in `words_up_to` order."""
    levels = oracle._levels(table)
    words = list(words_up_to(table.alphabet, table.depth))
    ranks = itertools.chain.from_iterable(r for r, _ in levels)
    guesses = itertools.chain.from_iterable(g for _, g in levels)
    return dict(zip(words, ranks)), dict(zip(words, guesses))


def reference_tables():
    """The binary tables, every ternary table of depth 1 and 200 seeded
    ternary tables of depth 2."""
    return itertools.chain(
        binary_tables(), exhaustive_tables(3, 1), sample_tables(3, 2, 200, seed=0)
    )


class TestTruncatedRemainder:
    def test_cylinder_one(self):
        ranks, _ = kernel(cylinder((1,)))
        assert ranks[()] == 2
        assert ranks[(0,)] == 1
        assert ranks[(1,)] == 1
        assert literal_truncated_remainder(cylinder((1,))).least_empty_stage == 2

    def test_full_table(self):
        ranks, _ = kernel(ClopenTable(2, 1, (1, 1)))
        assert all(rank == 1 for rank in ranks.values())
        tree = literal_truncated_remainder(ClopenTable(2, 1, (1, 1)))
        assert tree.least_empty_stage == 1

    def test_depth_two_split(self):
        # membership iff the first two symbols are 01 or 10
        ranks, _ = kernel(ClopenTable(2, 2, (0, 1, 1, 0)))
        assert ranks[()] == 2
        assert ranks[(0,)] == 2
        assert ranks[(1,)] == 2
        assert all(ranks[w] == 1 for w in [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_long_words_rank_one(self):
        tree = literal_truncated_remainder(cylinder((1,)))
        assert tree.rank_of((1, 0, 1)) == 1

    def test_stages_are_the_rank_sets(self):
        for table in binary_tables():
            tree = literal_truncated_remainder(table)
            words = set(words_up_to(2, table.depth))
            assert tree.stages[0] == words
            for before, after in zip(tree.stages, tree.stages[1:]):
                assert after <= before
            for i, stage in enumerate(tree.stages):
                assert stage == {w for w in words if tree.ranks[w] > i}
            empty = [i for i, stage in enumerate(tree.stages) if not stage]
            assert empty[0] == tree.least_empty_stage


class TestTruncatedGuesser:
    def test_cylinder_one(self):
        _, table = kernel(cylinder((1,)))
        assert table[()] == 0
        assert table[(1,)] == 1
        assert table[(0,)] == 0

    def test_full_constantly_one(self):
        _, table = kernel(ClopenTable(2, 1, (1, 1)))
        assert all(v == 1 for v in table.values())

    def test_empty_constantly_zero(self):
        _, table = kernel(ClopenTable(2, 1, (0, 0)))
        assert all(v == 0 for v in table.values())

    def test_inheritance_below_depth(self):
        # heterogeneous node inherits; homogeneous child decides
        _, table = kernel(ClopenTable(2, 2, (1, 1, 0, 1)))
        assert table[(0,)] == 1  # all extensions of 0 belong
        assert table[(1,)] == table[()]  # still split below 1: inherit

    def test_guesser_value_reads_the_table_of_guesses(self):
        for table in binary_tables():
            tree = literal_truncated_remainder(table)
            _, guesses = kernel(table)
            for word in words_up_to(2, table.depth + 3):
                if len(word) <= table.depth:
                    want = guesses[word]
                else:
                    want = table.lookup(word)
                assert guesser_value(table, tree, word) == want

    def test_stages_read_equal_stages_rebuilt(self):
        words = 0
        for table in reference_tables():
            tree = literal_truncated_remainder(table)
            _, guesses = kernel(table)
            for word in words_up_to(table.alphabet, table.depth + 2):
                want = literal_guesser_value(table, tree, word)
                assert guesser_value(table, tree, word) == want
                if len(word) <= table.depth:
                    assert guesses[word] == want
                words += 1
        assert words == 41_218


class TestEnumeration:
    def test_counts(self):
        assert len(list(exhaustive_tables(2, 1))) == 4
        assert len(list(exhaustive_tables(2, 2))) == 16
        assert len(list(exhaustive_tables(2, 3))) == 256

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(exhaustive_tables(3, 3))

    def test_sampling_deterministic(self):
        assert sample_tables(3, 2, 5, seed=9) == sample_tables(3, 2, 5, seed=9)
        assert sample_tables(3, 2, 5, seed=9) != sample_tables(3, 2, 5, seed=10)


class TestCrossValidation:
    def test_exhaustive_depth_two(self):
        report = cross_validate(exhaustive_tables(2, 2), word_length=3)
        assert report.ok
        assert report.tables_checked == 16

    def test_ternary_sample(self):
        report = cross_validate(sample_tables(3, 1, 20, seed=3), word_length=2)
        assert report.ok

    def test_fixture_rank_reproduction(self):
        # clopen fixtures recomputed here match the automaton rank
        cases = [
            (ClopenTable(2, 0, (0,)), 1),  # empty
            (ClopenTable(2, 0, (1,)), 1),  # full
            (cylinder((1,)), 2),
        ]
        for table, want in cases:
            ranks, _ = kernel(table)
            assert ranks[()] == want
            rank = mind_change_rank(compile_clopen(table))
            assert rank is not None and rank.to_int() == want


def per_word_mismatches(tables, word_length):
    """The mismatch lists of `cross_validate` by a loop that runs each
    word from the start and decides its guess afresh from its prefixes
    on the literal stages, sharing no code with `oracle._levels`; it
    reads `synthesize` and `remainder_chain` through the oracle module,
    so a patch there reaches both."""
    ranks, guesses = [], []
    for table in tables:
        automaton = compile_clopen(table)
        trace = oracle.remainder_chain(automaton)
        tree = literal_truncated_remainder(table)
        ranked = oracle.synthesize(automaton)
        for word in words_up_to(table.alphabet, word_length):
            got = word_rank(trace, word)
            if got is INFINITY or got.to_int() != tree.rank_of(word):
                ranks.append((table, word))
            if evaluate(ranked.guesser, word) != guesser_value(table, tree, word):
                guesses.append((table, word))
    return ranks, guesses


def flip_last_state(synthesize):
    def flipped(s):
        ranked = synthesize(s)
        output = list(ranked.guesser.output)
        output[-1] = 1 - output[-1]
        guesser = dataclasses.replace(ranked.guesser, output=tuple(output))
        return dataclasses.replace(ranked, guesser=guesser)

    return flipped


def off_by_one_on_odd_states(remainder_chain):
    def shifted(s):
        trace = remainder_chain(s)
        state_rank = {
            q: from_int(rank.to_int() + 1) if q % 2 else rank
            for q, rank in trace.state_rank.items()
        }
        return dataclasses.replace(trace, state_rank=state_rank)

    return shifted


def kernel_tables():
    """The reference tables and seeded tables of four and five symbols
    and depth at most 2."""
    return itertools.chain(
        reference_tables(),
        *(sample_tables(k, d, 20, seed=7) for k in (4, 5) for d in (0, 1, 2)),
    )


class TestOneSweepPerTable:
    TABLES = [*exhaustive_tables(2, 3), *sample_tables(3, 2, 60, seed=5)]

    @pytest.mark.parametrize("patch", [None, "synthesize", "remainder_chain"])
    def test_mismatches_equal_the_per_word_loop(self, monkeypatch, patch):
        if patch == "synthesize":
            monkeypatch.setattr(oracle, patch, flip_last_state(oracle.synthesize))
        elif patch == "remainder_chain":
            shifted = off_by_one_on_odd_states(oracle.remainder_chain)
            monkeypatch.setattr(oracle, patch, shifted)
        found = [0, 0]
        for depth in (3, 2):
            tables = [t for t in self.TABLES if t.depth == depth]
            for word_length in (0, 1, depth, depth + 2):
                report = cross_validate(tables, word_length)
                ranks, guesses = per_word_mismatches(tables, word_length)
                assert report.tables_checked == len(tables)
                assert not report.rank_infinite
                assert report.rank_mismatches == ranks
                assert report.guess_mismatches == guesses
                found[0] += len(ranks)
                found[1] += len(guesses)
        # each patch leaves mismatches of its own kind to find
        assert [n > 0 for n in found] == [
            patch == "remainder_chain",
            patch == "synthesize",
        ]

    def test_one_pass_equals_the_literal_stages(self):
        words = 0
        for table in kernel_tables():
            literal = literal_truncated_remainder(table)
            ranks, guesses = kernel(table)
            assert ranks == literal.ranks
            assert ranks[()] == literal.least_empty_stage
            # below depth d a word's guess is the class of its depth-d
            # prefix, the leaf's guess, as in the walk of `cross_validate`
            for word in words_up_to(table.alphabet, table.depth + 1):
                guess = guesses[word[: table.depth]]
                assert guess == literal_guesser_value(table, literal, word)
                words += 1
        assert words == 22_394

    def test_memory_stays_within_the_tree(self):
        # 32,767 words, all but the 7 of the depth-2 tree below it
        table = ClopenTable(2, 2, (0, 1, 1, 0))
        tracemalloc.start()
        try:
            report = cross_validate([table], word_length=14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 64 * 1024
