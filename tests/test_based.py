import pytest

from guessable.based_guessing import (
    CylinderFamily,
    ExplicitFamily,
    NotEventuallyPeriodicError,
    cylinder_simulation,
    cylinders_family,
    explicit_family,
    family_stream,
    last_bit_guesser,
    limsup_liminf_check,
    stream_periodicity,
    verify_based,
)
from guessable.fixtures import F_CYL1, F_EMPTY, F_FULL, F_NO11, F_ONE
from guessable.guesser import constant_guesser, evaluate, synthesize, verify_on_up
from guessable.space import (
    AlphabetMismatchError,
    UPWord,
    compile_clopen,
    complement,
    cylinder,
)


def up(text):
    return UPWord.from_literal(text)


class TestFamilyStream:
    def test_constant_family(self):
        fam = explicit_family((), (F_FULL,))
        assert family_stream(fam, up("(0)"), 4) == [1, 1, 1, 1]

    def test_cylinders_readoff(self):
        fam = cylinders_family(2)
        assert family_stream(fam, up("10(0)"), 4) == [0, 1, 1, 0]

    def test_alternating_family(self):
        fam = explicit_family((), (F_ONE, complement(F_ONE)))
        assert family_stream(fam, up("(0)"), 4) == [0, 1, 0, 1]

    def test_period_report_correct(self, up_words_100):
        families = [
            explicit_family((), (F_FULL,)),
            explicit_family((), (F_ONE, complement(F_ONE))),
            explicit_family((F_EMPTY,), (F_ONE,)),
            cylinders_family(2),
        ]
        for fam in families:
            for w in up_words_100[:40]:
                pre, per = stream_periodicity(fam, w)
                bits = family_stream(fam, w, pre + 3 * per)
                for i in range(pre, pre + 2 * per):
                    assert bits[i] == bits[i + per]


class TestFamilyTypes:
    def test_explicit_family_reads_its_alphabet_off_its_members(self):
        ternary = compile_clopen(cylinder((2,), 3))
        fam = explicit_family((), (ternary,))
        assert fam == ExplicitFamily((), (ternary,)) and fam.alphabet == 3
        assert family_stream(fam, up("2(0)"), 2) == [1, 1]
        with pytest.raises(
            AlphabetMismatchError, match="^family members must share the family alphabet$"
        ):
            explicit_family((F_ONE,), (ternary,))

    def test_explicit_family_needs_a_cycle(self):
        with pytest.raises(ValueError, match="^explicit family needs a nonempty cycle$"):
            explicit_family((F_ONE,), ())

    def test_cylinder_family(self):
        fam = cylinders_family(3)
        assert fam == CylinderFamily(3)
        assert [fam.bit(up("2(0)"), i) for i in range(6)] == [0, 0, 1, 1, 0, 0]
        assert fam.periodicity(up("21(0)")) == (6, 3)
        with pytest.raises(ValueError, match="^alphabet size must be >= 2$"):
            CylinderFamily(1)


class TestLastBit:
    def test_values(self):
        g = last_bit_guesser()
        assert evaluate(g, (0, 1, 1, 0)) == 0
        assert evaluate(g, (1,)) == 1
        assert evaluate(g, ()) == 0

    def test_two_states(self):
        assert last_bit_guesser().n_states == 2


class TestVerifyBased:
    def test_constant_family_tracks_membership(self, up_words_100):
        fam = explicit_family((), (F_ONE,))
        g = last_bit_guesser()
        for w in up_words_100:
            assert verify_based(g, fam, F_ONE, w)

    def test_wrong_set_fails(self):
        fam = explicit_family((), (F_FULL,))
        assert not verify_based(last_bit_guesser(), fam, F_EMPTY, up("(0)"))

    def test_oscillating_family_diverges(self):
        fam = explicit_family((), (F_ONE, complement(F_ONE)))
        assert not verify_based(last_bit_guesser(), fam, F_ONE, up("(0)"))


class TestLimsupLiminf:
    def test_constant_family_passes(self, up_words_100):
        fam = explicit_family((), (F_ONE,))
        for w in up_words_100[:50]:
            assert limsup_liminf_check(fam, F_ONE, w)

    def test_oscillation_fails(self):
        fam = explicit_family((), (F_ONE, F_FULL))
        assert not limsup_liminf_check(fam, F_ONE, up("(0)"))

    def test_prefix_is_ignored(self, up_words_100):
        fam = explicit_family((F_EMPTY,), (F_ONE,))
        for w in up_words_100[:50]:
            assert limsup_liminf_check(fam, F_ONE, w)

    def test_cylinders_rejected(self):
        with pytest.raises(NotEventuallyPeriodicError):
            limsup_liminf_check(cylinders_family(2), F_ONE, up("(0)"))


class TestLimitAgreementImpliesLastBit:
    def test_implication_on_words(self, up_words_200):
        families = [
            explicit_family((), (F_ONE,)),
            explicit_family((F_EMPTY,), (F_NO11,)),
            explicit_family((), (F_ONE, F_FULL)),
            explicit_family((), (F_CYL1,)),
        ]
        sets = [F_ONE, F_NO11, F_FULL, F_CYL1]
        lb = last_bit_guesser()
        hits = 0
        for fam in families:
            for s in sets:
                for w in up_words_200:
                    if limsup_liminf_check(fam, s, w):
                        assert verify_based(lb, fam, s, w)
                        hits += 1
        assert hits > 0


class TestCylinderSimulation:
    def test_reproduces_first_order_guessing(self, up_words_100):
        fam = cylinders_family(2)
        for s in (F_ONE, F_NO11):
            inner = synthesize(s).guesser
            sim = cylinder_simulation(inner, 2)
            for w in up_words_100:
                assert verify_based(sim, fam, s, w) == verify_on_up(inner, s, w)
                assert verify_based(sim, fam, s, w)

    @pytest.mark.parametrize("k", [2, 4])
    def test_refuses_a_block_length_other_than_the_guesser_alphabet(self, k):
        with pytest.raises(AlphabetMismatchError, match=f"^alphabet mismatch: {k} vs 3$"):
            cylinder_simulation(constant_guesser(3, 0), k)
