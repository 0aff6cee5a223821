import itertools
import random

import pytest

from guessable.fixtures import (
    F_CYL1,
    F_EMPTY,
    F_FULL,
    F_INF1,
    F_NO11,
    F_ONE,
    OPEN_FACTOR_11,
    OPEN_ONE,
)
from guessable.formats import render_automaton
from guessable.randgen import duplicate_state, random_parity_set
from guessable.space import (
    AlphabetMismatchError,
    ClopenTable,
    UPWord,
    canonical_up_words,
    compile_clopen,
    complement,
    cylinder,
    equivalent,
    is_empty,
    membership_up,
    open_subset,
    words_up_to,
)
from literal import (
    literal_canonical_up_words,
    literal_compile_clopen,
    literal_cylinder,
    product_boolean,
)


def up(text):
    return UPWord.from_literal(text)


class TestUPWord:
    def test_literal_round_trip(self):
        for text in ["(0)", "(10)", "001(10)", "1(01)"]:
            w = up(text)
            assert up(str(w)) == w

    def test_canonical_absorbs_rotation(self):
        assert up("1(01)") == up("(10)")
        assert up("0(00)") == up("(0)")
        assert up("(0101)") == up("(01)")
        assert up("01(10)") == up("0(11)") or True  # distinct points stay distinct
        assert up("01(10)") != up("0(11)")

    def test_same_point_same_membership(self, fixture_sets):
        rng = random.Random(3)
        for _ in range(80):
            u = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
            w = UPWord(u, v)
            # an unreduced spelling of the same point
            w2 = UPWord(u + v, v * rng.randint(1, 2))
            assert w == w2
            for s in fixture_sets.values():
                assert membership_up(s, w) == membership_up(s, w2)

    def test_head_and_symbol(self):
        w = up("01(10)")
        assert w.head(6) == (0, 1, 1, 0, 1, 0)
        assert [w.symbol(i) for i in range(6)] == [0, 1, 1, 0, 1, 0]

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            UPWord((0,), ())


class TestMembership:
    def test_fixture_points(self):
        cases = [
            (F_ONE, "(0)", 0),
            (F_ONE, "0001(0)", 1),
            (F_INF1, "(10)", 1),
            (F_INF1, "111(0)", 0),
            (F_NO11, "10(0)", 1),
            (F_NO11, "(01)", 1),
            (F_NO11, "011(0)", 0),
            (F_NO11, "(0)", 0),
            (F_CYL1, "1(0)", 1),
            (F_CYL1, "0(1)", 0),
            (F_FULL, "(0)", 1),
            (F_EMPTY, "(1)", 0),
        ]
        for s, text, want in cases:
            assert membership_up(s, up(text)) == want, text

    def test_complement_negates_pointwise(self, fixture_sets, up_words_100):
        for s in fixture_sets.values():
            c = complement(s)
            for w in up_words_100:
                assert membership_up(c, w) == 1 - membership_up(s, w)

    def test_complement_involution(self, fixture_sets):
        for s in fixture_sets.values():
            assert equivalent(complement(complement(s)), s)

    def test_complement_of_full_is_empty(self):
        assert is_empty(complement(F_FULL))
        assert membership_up(complement(F_CYL1), up("(0)")) == 1

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            membership_up(F_ONE, UPWord((), (2,)))


class TestClopen:
    def test_cylinder_examples(self):
        empty_prefix = cylinder(())
        assert empty_prefix.depth == 0 and empty_prefix.values == (1,)
        c1 = cylinder((1,))
        assert c1.depth == 1 and c1.values == (0, 1)
        c10 = cylinder((1, 0))
        assert c10.depth == 2
        assert c10.values == (0, 0, 1, 0)

    def test_cylinder_rejects_bad_symbol(self):
        with pytest.raises(ValueError):
            cylinder((2,), alphabet=2)

    def test_symbols_outside_the_alphabet_name_its_size(self):
        table = ClopenTable(3, 2, tuple([0] * 9))
        for bad in (-1, 3):
            message = f"^symbol {bad} outside alphabet 3$"
            with pytest.raises(AlphabetMismatchError, match=message):
                table.encode((0, bad, 0))
        # symbols past the table's depth are not read
        assert table.encode((2, 1, 7)) == 7
        message = "^symbol 3 outside alphabet 3$"
        with pytest.raises(AlphabetMismatchError, match=message):
            cylinder((1, 3), alphabet=3)

    def test_compile_full(self):
        assert equivalent(compile_clopen(cylinder(())), F_FULL)

    def test_compile_cyl1(self):
        assert equivalent(compile_clopen(cylinder((1,))), F_CYL1)

    def test_compile_depth2(self):
        aut = compile_clopen(cylinder((1, 0)))
        assert membership_up(aut, up("10(0)")) == 1
        assert membership_up(aut, up("11(0)")) == 0

    def test_state_budget(self):
        for k, d in [(2, 3), (3, 2), (5, 1)]:
            t = ClopenTable(k, d, tuple([1] * (k**d)))
            assert compile_clopen(t).n_states == (k**d - 1) // (k - 1) + 2
        assert compile_clopen(ClopenTable(4, 0, (0,))).n_states == 1

    def test_compile_renders_as_the_literal_prefix_tree(self):
        # every binary and ternary table of at most 16 cells, every table
        # of depth <= 1 over 4 or 5 symbols, then seeded tables too large
        # to list
        rng = random.Random(0)
        small = [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2)]
        small += [(4, 0), (4, 1), (5, 0), (5, 1)]
        tables = itertools.chain(
            (
                ClopenTable(k, d, values)
                for k, d in small
                for values in itertools.product((0, 1), repeat=k**d)
            ),
            (
                ClopenTable(k, d, tuple(rng.randrange(2) for _ in range(k**d)))
                for k, d in [(3, 3), (2, 6), (5, 3)]
                for _ in range(50)
            ),
        )
        for t in tables:
            want = render_automaton(literal_compile_clopen(t))
            assert render_automaton(compile_clopen(t)) == want, t

    def test_cylinder_matches_the_literal_table(self):
        for k in (2, 3):
            for s in words_up_to(k, 3):
                assert cylinder(s, k) == literal_cylinder(s, k)

    def test_agrees_with_lookup_exhaustive(self):
        # every table for k=2 d<=3 and k=3 d<=2, on canonical UP words
        for k, d in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            words = canonical_up_words(k, 30)
            for values in itertools.product((0, 1), repeat=k**d):
                t = ClopenTable(k, d, values)
                aut = compile_clopen(t)
                for w in words:
                    assert membership_up(aut, w) == t.lookup(w.head(d))


class TestProducts:
    def test_contradiction_is_empty(self):
        assert is_empty(product_boolean(F_CYL1, complement(F_CYL1), "and"))

    def test_full_is_identity_for_and(self):
        assert equivalent(product_boolean(F_ONE, F_FULL, "and"), F_ONE)

    def test_diff_detects_subset(self):
        factor11 = OPEN_FACTOR_11.to_parity()
        contains1 = OPEN_ONE.to_parity()
        assert is_empty(product_boolean(factor11, contains1, "diff"))
        assert not is_empty(product_boolean(contains1, factor11, "diff"))

    def test_pointwise_on_random_pairs(self):
        rng = random.Random(11)
        words = canonical_up_words(2, 50)
        ops = {
            "and": lambda x, y: x and y,
            "or": lambda x, y: x or y,
            "diff": lambda x, y: x and not y,
            "xor": lambda x, y: x != y,
        }
        for _ in range(25):
            a = random_parity_set(rng, max_states=4, max_priority=3)
            b = random_parity_set(rng, max_states=4, max_priority=3)
            for op, fn in ops.items():
                p = product_boolean(a, b, op)
                for w in words:
                    want = int(
                        fn(membership_up(a, w) == 1, membership_up(b, w) == 1)
                    )
                    assert membership_up(p, w) == want, (op, str(w))

    def test_alphabet_mismatch(self):
        t = random_parity_set(random.Random(0), alphabet=3)
        with pytest.raises(AlphabetMismatchError):
            product_boolean(F_ONE, t, "and")


class TestEquivalent:
    def test_reflexive_and_separating(self):
        assert equivalent(F_ONE, F_ONE)
        assert not equivalent(F_ONE, F_FULL)

    def test_compiled_cylinder_matches_fixture(self):
        assert equivalent(compile_clopen(cylinder((1,))), F_CYL1)

    def test_duplication_preserves_language(self, up_words_100):
        rng = random.Random(5)
        for _ in range(15):
            s = random_parity_set(rng, max_states=4)
            s2 = duplicate_state(s, rng)
            assert equivalent(s, s2)
            for w in up_words_100[:30]:
                assert membership_up(s, w) == membership_up(s2, w)

    def test_equivalent_sets_agree_on_1000_words(self):
        words = canonical_up_words(2, 1000)
        rng = random.Random(19)
        for _ in range(3):
            s = random_parity_set(rng, max_states=4)
            s2 = duplicate_state(s, rng)
            assert equivalent(s, s2)
            for w in words:
                assert membership_up(s, w) == membership_up(s2, w)

    def test_consistent_with_pointwise_sampling(self):
        rng = random.Random(123)
        words = canonical_up_words(2, 150)
        for _ in range(120):
            a = random_parity_set(rng, max_states=4, max_priority=3)
            b = random_parity_set(rng, max_states=4, max_priority=3)
            sample_differs = any(
                membership_up(a, w) != membership_up(b, w) for w in words
            )
            verdict = equivalent(a, b)
            if sample_differs:
                assert not verdict
            if verdict:
                assert not sample_differs

    def test_equivalence_relation_on_corpus(self):
        sets = [F_ONE, compile_clopen(cylinder((1,))), F_CYL1, F_FULL]
        for a in sets:
            assert equivalent(a, a)
        for a in sets:
            for b in sets:
                assert equivalent(a, b) == equivalent(b, a)
        # transitivity through the two spellings of F_CYL1
        assert equivalent(sets[1], F_CYL1)


class TestOpenSubset:
    def test_factor_11_inside_contains_1(self):
        assert open_subset(OPEN_FACTOR_11, OPEN_ONE)

    def test_reflexive(self):
        assert open_subset(OPEN_ONE, OPEN_ONE)

    def test_not_conversely(self):
        assert not open_subset(OPEN_ONE, OPEN_FACTOR_11)


def test_canonical_up_words_unique_and_deterministic():
    words = canonical_up_words(2, 150)
    assert len(set(words)) == 150
    assert words == canonical_up_words(2, 150)
    assert words[0] == up("(0)") and words[1] == up("(1)")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_canonical_up_words_equal_the_deduplicated_enumeration(k):
    assert canonical_up_words(k, 3000) == literal_canonical_up_words(k, 3000)


def test_words_up_to_counts():
    assert len(list(words_up_to(2, 3))) == 1 + 2 + 4 + 8
    assert len(list(words_up_to(3, 2))) == 1 + 3 + 9
