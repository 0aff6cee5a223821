import itertools

import pytest

from guessable.oracle import (
    BudgetExceededError,
    cross_validate,
    exhaustive_tables,
    guesser_value,
    sample_tables,
    truncated_guesser,
    truncated_remainder,
)
from guessable.space import ClopenTable, cylinder, words_up_to
from literal import literal_guesser_value


def binary_tables():
    """Every binary table of depth <= 3."""
    return itertools.chain.from_iterable(exhaustive_tables(2, d) for d in range(4))


def reference_tables():
    """The binary tables, every ternary table of depth 1 and 200 seeded
    ternary tables of depth 2."""
    return itertools.chain(
        binary_tables(), exhaustive_tables(3, 1), sample_tables(3, 2, 200, seed=0)
    )


class TestTruncatedRemainder:
    def test_cylinder_one(self):
        tree = truncated_remainder(cylinder((1,)))
        assert tree.ranks[()] == 2
        assert tree.ranks[(0,)] == 1
        assert tree.ranks[(1,)] == 1
        assert tree.least_empty_stage == 2

    def test_full_table(self):
        tree = truncated_remainder(ClopenTable(2, 1, (1, 1)))
        assert all(rank == 1 for rank in tree.ranks.values())
        assert tree.least_empty_stage == 1

    def test_depth_two_split(self):
        # membership iff the first two symbols are 01 or 10
        tree = truncated_remainder(ClopenTable(2, 2, (0, 1, 1, 0)))
        assert tree.ranks[()] == 2
        assert tree.ranks[(0,)] == 2
        assert tree.ranks[(1,)] == 2
        assert all(tree.ranks[w] == 1 for w in [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_long_words_rank_one(self):
        tree = truncated_remainder(cylinder((1,)))
        assert tree.rank_of((1, 0, 1)) == 1

    def test_stages_are_the_rank_sets(self):
        for table in binary_tables():
            tree = truncated_remainder(table)
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
        table = truncated_guesser(cylinder((1,)))
        assert table[()] == 0
        assert table[(1,)] == 1
        assert table[(0,)] == 0

    def test_full_constantly_one(self):
        table = truncated_guesser(ClopenTable(2, 1, (1, 1)))
        assert all(v == 1 for v in table.values())

    def test_empty_constantly_zero(self):
        table = truncated_guesser(ClopenTable(2, 1, (0, 0)))
        assert all(v == 0 for v in table.values())

    def test_inheritance_below_depth(self):
        # heterogeneous node inherits; homogeneous child decides
        t = ClopenTable(2, 2, (1, 1, 0, 1))
        table = truncated_guesser(t)
        assert table[(0,)] == 1  # all extensions of 0 belong
        assert table[(1,)] == table[()]  # still split below 1: inherit

    def test_guesser_value_reads_the_table_of_guesses(self):
        for table in binary_tables():
            tree = truncated_remainder(table)
            guesses = truncated_guesser(table)
            for word in words_up_to(2, table.depth + 3):
                if len(word) <= table.depth + 1:
                    want = guesses[word]
                else:
                    want = table.lookup(word)
                assert guesser_value(table, tree, word) == want

    def test_stages_read_equal_stages_rebuilt(self):
        words = 0
        for table in reference_tables():
            tree = truncated_remainder(table)
            guesses = truncated_guesser(table)
            for word in words_up_to(table.alphabet, table.depth + 2):
                want = literal_guesser_value(table, tree, word)
                assert guesser_value(table, tree, word) == want
                if len(word) <= table.depth + 1:
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
        from guessable.guesser import mind_change_rank
        from guessable.space import compile_clopen

        cases = [
            (ClopenTable(2, 0, (0,)), 1),  # empty
            (ClopenTable(2, 0, (1,)), 1),  # full
            (cylinder((1,)), 2),
        ]
        for table, want in cases:
            tree = truncated_remainder(table)
            assert tree.least_empty_stage == want
            rank = mind_change_rank(compile_clopen(table))
            assert rank is not None and rank.to_int() == want
