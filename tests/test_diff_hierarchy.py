import random

import pytest

from guessable.diff_hierarchy import (
    BoundViolationError,
    ChainNotIncreasingError,
    OpenChain,
    RootNotZeroError,
    Side,
    bound_limit_on_up,
    chain_to_guesser,
    classify,
    d_theta,
    guesser_to_chain,
    make_anticongruent,
    normalize_h,
)
from guessable.fixtures import (
    F_CYL1,
    F_EMPTY,
    F_INF1,
    F_NO11,
    F_ONE,
    OPEN_EMPTY,
    OPEN_FACTOR_11,
    OPEN_ONE,
)
from guessable.guesser import (
    MooreGuesser,
    RankedGuesser,
    check_bound,
    constant_guesser,
    divergence_witness,
    evaluate,
    limit_on_up,
    mind_changes,
    synthesize,
)
from guessable.ordinal import OMEGA, ZERO, congruent, from_int, parity
from guessable.randgen import random_open_chain
from guessable.space import (
    ParitySet,
    complement,
    equivalent,
    is_empty,
    membership_up,
    words_up_to,
)


class TestDTheta:
    def test_level_one_is_the_open_set(self):
        assert equivalent(d_theta(OpenChain((OPEN_ONE,))), F_ONE)

    def test_level_two_gives_no11(self, up_words_100):
        level = d_theta(OpenChain((OPEN_FACTOR_11, OPEN_ONE)))
        assert equivalent(level, F_NO11)
        for w in up_words_100:
            assert membership_up(level, w) == membership_up(F_NO11, w)

    def test_repeated_member_collapses(self):
        assert is_empty(d_theta(OpenChain((OPEN_ONE, OPEN_ONE))))

    def test_decreasing_chain_rejected(self):
        with pytest.raises(ChainNotIncreasingError):
            OpenChain((OPEN_ONE, OPEN_FACTOR_11))

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainNotIncreasingError):
            OpenChain(())


class TestChainToGuesser:
    def test_level_one_matches_canonical(self):
        rg = chain_to_guesser(OpenChain((OPEN_ONE,)))
        assert rg.codomain == from_int(2)
        assert check_bound(rg)
        canonical = synthesize(F_ONE)
        for word in words_up_to(2, 6):
            assert evaluate(rg.guesser, word) == evaluate(canonical.guesser, word)

    def test_level_two_matches_canonical(self):
        chain = OpenChain((OPEN_FACTOR_11, OPEN_ONE))
        rg = chain_to_guesser(chain)
        assert rg.codomain == from_int(3)
        assert check_bound(rg)
        canonical = synthesize(F_NO11)
        for word in words_up_to(2, 6):
            assert evaluate(rg.guesser, word) == evaluate(canonical.guesser, word)
        assert divergence_witness(rg.guesser, d_theta(chain)) is None

    def test_empty_member(self):
        rg = chain_to_guesser(OpenChain((OPEN_EMPTY,)))
        assert rg.guesser.output[rg.guesser.start] == 0
        assert rg.root_bound() == from_int(1)

    def test_mind_change_budget(self):
        # at most theta changes on any word of length <= 8, exhaustively
        chains = [OpenChain((OPEN_FACTOR_11, OPEN_ONE))]
        rng = random.Random(41)
        from guessable.randgen import random_nested_chain

        chains += [random_nested_chain(rng) for _ in range(10)]
        for chain in chains:
            rg = chain_to_guesser(chain)
            for word in words_up_to(2, 8):
                assert mind_changes(rg.guesser, word) <= chain.theta_int

    def test_random_chains_certify(self):
        rng = random.Random(23)
        for _ in range(20):
            chain = random_open_chain(rng)
            level = d_theta(chain)
            rg = chain_to_guesser(chain)
            assert check_bound(rg)
            assert rg.codomain == from_int(chain.theta_int + 1)
            assert divergence_witness(rg.guesser, level) is None


# output 0 throughout, and the bound rises from 0 at the start to 1
RISING = RankedGuesser(
    MooreGuesser(alphabet=2, start=0, delta=((1, 1), (1, 1)), output=(0, 0)),
    (ZERO, from_int(1)),
    from_int(2),
)


class TestNormalizeH:
    def test_preserves_and_aligns(self):
        rg = synthesize(F_NO11)
        norm = normalize_h(rg)
        assert check_bound(norm)
        assert norm.root_bound() == rg.root_bound()
        g = norm.guesser
        for q in g.reachable_states():
            for a in range(2):
                nq = g.delta[q][a]
                flip_out = g.output[nq] != g.output[q]
                flip_par = parity(norm.bound[nq]) != parity(norm.bound[q])
                assert flip_out == flip_par
        for word in words_up_to(2, 6):
            assert evaluate(norm.guesser, word) == evaluate(rg.guesser, word)

    def test_idempotent(self):
        norm = normalize_h(synthesize(F_NO11))
        again = normalize_h(norm)
        for word in words_up_to(2, 6):
            b1 = norm.bound[norm.guesser.state_after(word)]
            b2 = again.bound[again.guesser.state_after(word)]
            assert b1 == b2

    def test_constant_unchanged(self):
        rg = RankedGuesser(constant_guesser(2, 0), (ZERO,), from_int(1))
        norm = normalize_h(rg)
        for word in words_up_to(2, 4):
            assert norm.bound[norm.guesser.state_after(word)] == ZERO

    def test_rejects_invalid_bound(self):
        g = synthesize(F_ONE).guesser
        bad = RankedGuesser(g, (ZERO, from_int(1)), from_int(2))
        with pytest.raises(BoundViolationError):
            normalize_h(bad)


class TestMakeAnticongruent:
    def _dichotomy_holds(self, rg, words):
        g0 = rg.guesser.output[rg.guesser.start]
        want_anti = congruent(g0, rg.codomain)
        for w in words:
            lim = limit_on_up(rg.guesser, w)
            if lim is None:
                continue
            h = bound_limit_on_up(rg, w)
            if want_anti:
                assert parity(h) != lim % 2, str(w)
            else:
                assert parity(h) == lim % 2, str(w)

    def test_f_one_widened(self, up_words_100):
        rg = make_anticongruent(synthesize(F_ONE).with_codomain(from_int(3)))
        assert check_bound(rg)
        self._dichotomy_holds(rg, up_words_100)

    def test_fixture_pairs(self, up_words_100):
        for s in (F_ONE, F_NO11, F_CYL1, F_EMPTY):
            rg = make_anticongruent(synthesize(s))
            assert check_bound(rg)
            self._dichotomy_holds(rg, up_words_100)

    def test_constant_case(self, up_words_100):
        rg = RankedGuesser(constant_guesser(2, 0), (ZERO,), from_int(1))
        out = make_anticongruent(rg)
        self._dichotomy_holds(out, up_words_100)

    def test_rejects_rising_bound(self):
        with pytest.raises(BoundViolationError):
            make_anticongruent(RISING)

    def test_idempotent(self):
        rg = make_anticongruent(synthesize(F_NO11))
        again = make_anticongruent(rg)
        for word in words_up_to(2, 6):
            b1 = rg.bound[rg.guesser.state_after(word)]
            b2 = again.bound[again.guesser.state_after(word)]
            assert b1 == b2


class TestGuesserToChain:
    def test_round_trip_f_one(self):
        chain = guesser_to_chain(synthesize(F_ONE).with_codomain(from_int(2)))
        assert chain.theta_int == 1
        assert equivalent(d_theta(chain), F_ONE)

    def test_round_trip_f_no11(self):
        chain = guesser_to_chain(synthesize(F_NO11))
        assert chain.theta_int == 2
        assert equivalent(d_theta(chain), F_NO11)

    def test_constant_zero(self):
        chain = guesser_to_chain(
            RankedGuesser(constant_guesser(2, 0), (ZERO,), from_int(1))
        )
        assert is_empty(d_theta(chain))

    def test_root_one_rejected(self):
        with pytest.raises(RootNotZeroError):
            guesser_to_chain(
                RankedGuesser(constant_guesser(2, 1), (ZERO,), from_int(1))
            )

    def test_rising_bound_rejected(self):
        with pytest.raises(BoundViolationError):
            guesser_to_chain(RISING)

    def test_limit_codomain_rejected(self):
        rg = RankedGuesser(constant_guesser(2, 0), (ZERO,), OMEGA)
        with pytest.raises(ValueError, match="^codomain must be a successor ordinal$"):
            guesser_to_chain(rg)

    def test_full_round_trip_random(self):
        # root output 1 means the chain witnesses the complement; the
        # recovery path flips the outputs and compares complements
        from guessable.guesser import flip_outputs

        rng = random.Random(31)
        for _ in range(15):
            chain = random_open_chain(rng)
            rg = chain_to_guesser(chain)
            level = d_theta(chain)
            if rg.guesser.output[rg.guesser.start] == 0:
                back = guesser_to_chain(rg)
                assert equivalent(d_theta(back), level)
            else:
                flipped = RankedGuesser(
                    flip_outputs(rg.guesser), rg.bound, rg.codomain
                )
                back = guesser_to_chain(flipped)
                assert equivalent(d_theta(back), complement(level))


class TestClassify:
    def test_f_one_self(self):
        outcome = classify(F_ONE)
        assert outcome.rank == from_int(2)
        assert outcome.side == Side.SELF
        assert outcome.chain.theta_int == 1
        assert equivalent(d_theta(outcome.chain), F_ONE)

    def test_complement_side(self):
        outcome = classify(complement(F_ONE))
        assert outcome.rank == from_int(2)
        assert outcome.side == Side.COMPLEMENT
        # the chain witnesses the complement of the input
        assert equivalent(d_theta(outcome.chain), F_ONE)

    def test_not_guessable(self):
        outcome = classify(F_INF1)
        assert outcome.rank is None
        assert outcome.side == Side.NEITHER
        assert outcome.chain is None

    def test_clopen_lands_both(self):
        outcome = classify(F_CYL1)
        assert outcome.rank == from_int(2)
        assert outcome.side == Side.BOTH
        assert equivalent(d_theta(outcome.chain), F_CYL1)

    def test_round_trip_on_corpus(self, small_corpus):
        for s in small_corpus["guessable"][:10]:
            outcome = classify(s)
            assert outcome.chain is not None
            target = s if outcome.side in (Side.SELF, Side.BOTH) else complement(s)
            assert equivalent(d_theta(outcome.chain), target)

    def test_clopen_set_is_on_both_sides(self):
        # [1] u [01] from start 1; its complement [00] is open too.  The
        # flipped canonical guesser says 1 with bound 1 after "0", so no
        # root bound below the codomain 2 repairs it into a complement
        # chain: the side has to come from the opinion costs.
        s = ParitySet(
            alphabet=2,
            start=1,
            delta=((0, 0), (6, 0), (2, 2), (4, 2), (4, 4), (6, 0), (3, 0), (0, 5)),
            priority=(0, 2, 5, 0, 3, 5, 0, 3),
        )
        outcome, flipped = classify(s), classify(complement(s))
        assert outcome.rank == flipped.rank == from_int(2)
        assert outcome.side is flipped.side is Side.BOTH
        assert outcome.chain.theta_int == flipped.chain.theta_int == 1
        assert equivalent(d_theta(outcome.chain), s)
        assert equivalent(d_theta(flipped.chain), complement(s))
