import pytest

from guessable.based_guessing import (
    CylinderFamily,
    ExplicitFamily,
    cylinder_simulation,
    cylinders_family,
    explicit_family,
    last_bit_guesser,
    limsup_liminf_check,
    verify_based,
)
from guessable.fixtures import F_CYL1, F_EMPTY, F_FULL, F_NO11, F_ONE
from guessable.guesser import constant_guesser, evaluate, synthesize, verify_on_up
from guessable.space import (
    AlphabetMismatchError,
    UPWord,
    canonical_up_words,
    compile_clopen,
    complement,
    cylinder,
)
from literal import literal_family_bits


def up(text):
    return UPWord.from_literal(text)


TERNARY = compile_clopen(cylinder((2,), 3))
TERNARY_10 = compile_clopen(cylinder((1, 0), 3))
FAMILIES = {
    2: [
        explicit_family((), (F_FULL,)),
        explicit_family((), (F_ONE, complement(F_ONE))),
        explicit_family((F_EMPTY,), (F_ONE,)),
        explicit_family((F_CYL1, F_FULL), (F_NO11, F_ONE, F_EMPTY)),
        cylinders_family(2),
    ],
    3: [
        explicit_family((), (TERNARY,)),
        explicit_family((complement(TERNARY),), (TERNARY_10, TERNARY)),
        cylinders_family(3),
    ],
}


def member_span(fam, w):
    """The stream's preperiod plus period as the members give it, before
    the stream word is made canonical."""
    if isinstance(fam, CylinderFamily):
        return fam.alphabet * (len(w.prefix) + len(w.period))
    return len(fam.prefix) + len(fam.cycle)


class TestFamilyStream:
    def test_constant_family(self):
        fam = explicit_family((), (F_FULL,))
        assert fam.stream(up("(0)")) == up("(1)")

    def test_cylinders_readoff(self):
        fam = cylinders_family(2)
        assert fam.stream(up("10(0)")) == up("0110(10)")

    def test_alternating_family(self):
        fam = explicit_family((), (F_ONE, complement(F_ONE)))
        assert fam.stream(up("(0)")) == up("(01)")

    def test_period_report_correct(self):
        for k, families in FAMILIES.items():
            words = canonical_up_words(k, 100)
            for fam in families:
                for w in words:
                    n = 3 * member_span(fam, w)
                    assert fam.stream(w).head(n) == literal_family_bits(fam, w, n)

    @pytest.mark.parametrize(
        "fam", [cylinders_family(2), explicit_family((), (F_ONE,))]
    )
    def test_refuses_a_word_outside_the_alphabet(self, fam):
        with pytest.raises(
            AlphabetMismatchError, match="^word uses symbol 2 outside alphabet 2$"
        ):
            fam.stream(up("2(0)"))


class TestFamilyTypes:
    def test_explicit_family_reads_its_alphabet_off_its_members(self):
        fam = explicit_family((), (TERNARY,))
        assert fam == ExplicitFamily((), (TERNARY,)) and fam.alphabet == 3
        assert fam.stream(up("2(0)")) == up("(1)")
        with pytest.raises(
            AlphabetMismatchError, match="^family members must share the family alphabet$"
        ):
            explicit_family((F_ONE,), (TERNARY,))

    def test_explicit_family_needs_a_cycle(self):
        with pytest.raises(ValueError, match="^explicit family needs a nonempty cycle$"):
            explicit_family((F_ONE,), ())

    def test_cylinder_family(self):
        fam = cylinders_family(3)
        assert fam == CylinderFamily(3)
        assert fam.stream(up("2(0)")).head(6) == (0, 0, 1, 1, 0, 0)
        assert fam.stream(up("21(0)")) == UPWord((0, 0, 1, 0, 1, 0), (1, 0, 0))
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

    def test_cylinders_never_settle(self, up_words_100):
        """Each one-hot block of the cylinder stream holds both bits."""
        fam = cylinders_family(2)
        assert fam.stream(up("0(1)")) == up("10(01)")
        for w in up_words_100[:50]:
            assert limsup_liminf_check(fam, F_ONE, w) is False


class TestLimitAgreementImpliesLastBit:
    def test_implication_on_words(self, up_words_200):
        """The limit check is the last-bit guesser's verdict: both say
        the stream's period is constant and equal to the membership bit,
        for an explicit family and for the cylinder family alike."""
        families = [
            explicit_family((), (F_ONE,)),
            explicit_family((F_EMPTY,), (F_NO11,)),
            explicit_family((), (F_ONE, F_FULL)),
            explicit_family((), (F_CYL1,)),
            cylinders_family(2),
        ]
        sets = [F_ONE, F_NO11, F_FULL, F_CYL1]
        lb = last_bit_guesser()
        hits = misses = 0
        for fam in families:
            for s in sets:
                for w in up_words_200:
                    agree = limsup_liminf_check(fam, s, w)
                    assert agree == verify_based(lb, fam, s, w)
                    hits += agree
                    misses += not agree
        assert hits > 0 and misses > 0


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
