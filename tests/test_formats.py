import pytest
from hypothesis import given, settings, strategies as st

from guessable.based_guessing import CylinderFamily, ExplicitFamily
from guessable.fixtures import F_NO11, F_ONE, FIXTURES, OPEN_FACTOR_11, OPEN_ONE
from guessable.formats import (
    FormatError,
    guesser_to_dot,
    parse_automaton,
    parse_chain,
    parse_family,
    parse_guesser,
    render_automaton,
    render_chain,
    render_guesser,
    to_dot,
)
from guessable.guesser import MooreGuesser, RankedGuesser, synthesize
from guessable.ordinal import add, from_int, omega_power
from guessable.space import ParitySet, equivalent, membership_up

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

ORDINALS = st.recursive(
    st.integers(0, 30).map(from_int),
    lambda inner: st.builds(
        lambda exp, coef, rest: add(omega_power(exp, coef), rest),
        inner,
        st.integers(1, 4),
        inner,
    ),
    max_leaves=4,
)


@st.composite
def machines(draw, labels):
    """(alphabet, start, delta, one label per state), alphabets up to 12."""
    k = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    delta = draw(st.lists(st.tuples(*[state] * k), min_size=n, max_size=n))
    label = tuple(draw(st.lists(labels, min_size=n, max_size=n)))
    return k, draw(state), tuple(delta), label


@st.composite
def guessers(draw):
    """A guesser, with a ranked form (bounds and codomain) or without."""
    k, start, delta, output = draw(machines(st.integers(0, 1)))
    g = MooreGuesser(alphabet=k, start=start, delta=delta, output=output)
    if not draw(st.booleans()):
        return g, None
    bound = tuple(draw(st.lists(ORDINALS, min_size=g.n_states, max_size=g.n_states)))
    return g, RankedGuesser(guesser=g, bound=bound, codomain=draw(ORDINALS))


@PROPERTY
@given(machines(st.integers(0, 40)))
def test_automaton_render_parse_round_trip(machine):
    k, start, delta, priority = machine
    s = ParitySet(alphabet=k, start=start, delta=delta, priority=priority)
    parsed, notes = parse_automaton(render_automaton(s))
    assert parsed == s
    assert not notes


@PROPERTY
@given(guessers())
def test_guesser_render_parse_round_trip(pair):
    g, rg = pair
    parsed, ranked, notes = parse_guesser(render_guesser(g, rg))
    assert parsed == g
    assert ranked == rg
    assert not notes


class TestAutomatonFormat:
    def test_round_trip(self):
        for s in FIXTURES.values():
            parsed, notes = parse_automaton(render_automaton(s))
            assert parsed == s
            assert not notes

    def test_comments_and_blanks(self):
        text = (
            "# a one-state accepting loop\n"
            "alphabet 2\n\nstates 1\nstart 0\n"
            "priority 0 2  # even\n"
            "trans 0 0 0\ntrans 0 1 0\n"
        )
        parsed, _ = parse_automaton(text)
        assert parsed.priority == (2,)

    def test_completion_adds_reported_sink(self):
        text = (
            "alphabet 2\nstates 1\nstart 0\npriority 0 2\ntrans 0 0 0\n"
        )
        parsed, notes = parse_automaton(text)
        assert parsed.n_states == 2
        assert parsed.priority[1] == 1  # rejecting sink
        assert any("completed" in m for m in notes)
        # missing symbol 1 now leads to the sink and is rejected
        from guessable.space import UPWord

        assert membership_up(parsed, UPWord((), (1,))) == 0
        assert membership_up(parsed, UPWord((), (0,))) == 1

    def test_min_even_conversion(self):
        # min-even with priorities 1,2: accept iff min inf-visited even
        base = (
            "alphabet 2\nstates 2\nstart 0\n"
            "priority 0 1\npriority 1 2\n"
            "trans 0 0 0\ntrans 0 1 1\ntrans 1 0 0\ntrans 1 1 1\n"
        )
        min_parsed, notes = parse_automaton("acceptance min-even\n" + base)
        assert any("min-even" in m for m in notes)
        from guessable.space import UPWord

        # run visiting both states forever has min priority 1: rejected
        assert membership_up(min_parsed, UPWord((), (0, 1))) == 0
        # staying in state 1 has min 2: accepted
        assert membership_up(min_parsed, UPWord((), (1,))) == 1

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_automaton("states 1\nstart 0\npriority 0 1\n")
        with pytest.raises(FormatError):
            parse_automaton("alphabet 2\nstates 1\nstart 0\n")  # no priority
        with pytest.raises(FormatError):
            parse_automaton(
                "alphabet 2\nstates 1\nstart 0\npriority 0 1\n"
                "trans 0 0 0\ntrans 0 0 0\n"
            )
        with pytest.raises(FormatError):
            parse_automaton("alphabet 2\nstates 1\nstart 0\nwibble 3\n")


class TestGuesserFormat:
    def test_round_trip_plain(self):
        g = synthesize(F_ONE).guesser
        parsed, ranked, _ = parse_guesser(render_guesser(g))
        assert parsed == g
        assert ranked is None

    def test_round_trip_ranked(self):
        rg = synthesize(F_NO11)
        parsed, ranked, _ = parse_guesser(render_guesser(rg.guesser, rg))
        assert parsed == rg.guesser
        assert ranked is not None
        assert ranked.bound == rg.bound
        assert ranked.codomain == rg.codomain

    def test_bounds_need_codomain(self):
        g = synthesize(F_ONE).guesser
        text = render_guesser(g) + "bound 0 1\n"
        with pytest.raises(FormatError):
            parse_guesser(text)


class TestChainAndFamilyFiles:
    def test_chain_round_trip(self, tmp_path):
        for i, member in enumerate((OPEN_FACTOR_11, OPEN_ONE)):
            (tmp_path / f"m{i}.aut").write_text(
                render_automaton(member.to_parity())
            )
        (tmp_path / "c.chain").write_text(render_chain(["m0.aut", "m1.aut"]))
        chain, _ = parse_chain((tmp_path / "c.chain").read_text(), str(tmp_path))
        assert chain.theta_int == 2
        from guessable.diff_hierarchy import d_theta

        assert equivalent(d_theta(chain), F_NO11)

    def test_chain_rejects_non_open(self, tmp_path):
        (tmp_path / "bad.aut").write_text(render_automaton(F_NO11))
        (tmp_path / "c.chain").write_text("theta 1\nset 0 bad.aut\n")
        with pytest.raises(FormatError):
            parse_chain((tmp_path / "c.chain").read_text(), str(tmp_path))

    def test_chain_index_gap_rejected(self, tmp_path):
        (tmp_path / "m.aut").write_text(render_automaton(OPEN_ONE.to_parity()))
        (tmp_path / "c.chain").write_text("theta 2\nset 0 m.aut\n")
        with pytest.raises(FormatError):
            parse_chain((tmp_path / "c.chain").read_text(), str(tmp_path))

    def test_family_explicit(self, tmp_path):
        (tmp_path / "one.aut").write_text(render_automaton(F_ONE))
        text = "family explicit\nprefix one.aut\ncycle one.aut\n"
        family, _ = parse_family(text, str(tmp_path))
        assert isinstance(family, ExplicitFamily)
        assert len(family.prefix) == 1 and len(family.cycle) == 1

    def test_family_cylinders(self, tmp_path):
        family, _ = parse_family("family cylinders 2\n", str(tmp_path))
        assert isinstance(family, CylinderFamily) and family.alphabet == 2

    def test_family_needs_cycle(self, tmp_path):
        (tmp_path / "one.aut").write_text(render_automaton(F_ONE))
        with pytest.raises(FormatError):
            parse_family("family explicit\nprefix one.aut\n", str(tmp_path))


class TestDot:
    def test_automaton_dot(self):
        dot = to_dot(F_ONE)
        assert "digraph" in dot
        assert "p=2" in dot and "p=1" in dot
        assert 'label="0"' in dot or 'label="0,1"' in dot

    def test_guesser_dot(self):
        dot = guesser_to_dot(synthesize(F_ONE).guesser)
        assert "out=1" in dot and "out=0" in dot
