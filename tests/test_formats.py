import gc
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from guessable.based_guessing import CylinderFamily, ExplicitFamily
from guessable.fixtures import F_NO11, F_ONE, FIXTURES, OPEN_FACTOR_11, OPEN_ONE
from guessable.formats import (
    FormatError,
    _lines,
    _parse_machine,
    parse_automaton,
    parse_chain,
    parse_family,
    parse_guesser,
    parse_machine,
    render_automaton,
    render_chain,
    render_guesser,
    to_dot,
)
from guessable.guesser import MooreGuesser, RankedGuesser, synthesize
from guessable.ordinal import add, from_int, omega_power
from guessable.space import ParitySet, equivalent, membership_up
from literal import literal_parse_guesser, literal_parse_machine
from test_input_contract import machine_file

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


# spellings `int` reads besides the plain one, then two it refuses
SPELLINGS = [
    lambda v: f"00{v}",
    lambda v: f"+{v}",
    lambda v: "-0" if v == 0 else f"-{v}",
    lambda v: "_".join(str(v)),
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda v: f"{v}_",
    lambda v: "1" * 5000,
]
SEPARATORS = [" ", " ", "  ", "\t", " \t "]


@st.composite
def _respelled(draw, line: str, rate: int) -> str:
    """`line` with about one number word in `rate` spelled another way
    and its words joined by some whitespace."""
    words = [
        draw(st.sampled_from(SPELLINGS))(int(w))
        if w.isdecimal() and draw(st.integers(0, rate)) == 0 else w
        for w in line.split()
    ]
    return draw(st.sampled_from(SEPARATORS)).join(words)


@st.composite
def mangled_machine_file(draw):
    """A machine file of either kind with the edits a hand-written one
    may carry: number spellings, lines out of order, dropped, doubled
    or of the other kind, trailing words, comments, odd separators and
    line ends, and a zero or negative alphabet or state count.  Returns
    the kind of file the edits started from and its text."""
    kind, label = draw(st.sampled_from([("automaton", "priority"), ("guesser", "output")]))
    lines = draw(machine_file(label)).splitlines()
    rate = draw(st.sampled_from([None, 4, 16]))
    if rate:
        lines = [draw(_respelled(line, rate)) for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.integers(0, 6))
        if edit == 0:
            # `trans` lines before `states`, for one
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
        elif edit == 1:
            del lines[i]
        elif edit == 2:
            lines.insert(i, lines[i])
        elif edit == 3:
            lines[i] += f" {draw(st.sampled_from(['0', '1', 'x']))}"
        elif edit == 4:
            lines.insert(i, draw(st.sampled_from([
                "priority 0 1", "output 0 1", "bound 0 1", "codomain 2",
                "acceptance min-even", "# a comment", "trans 0 0 0",
            ])))
        elif edit == 5:
            lines[i] = draw(st.sampled_from([
                "alphabet 0", "alphabet -2", "states 0", "states -3",
            ]))
        else:
            lines[i] += "  # the rest is a comment 1 2"
    end = draw(st.sampled_from(["\n", "\r\n", "\f"]))
    return kind, end.join(lines) + end


def _outcome(parse, *args):
    """What `parse` returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _read_machine(parse, text: str, kind: str):
    notes: list[str] = []
    return _outcome(lambda: (*parse(text, notes, kind), notes))


def _library_machine(text: str, notes: list[str], kind: str):
    """The library's machine reader on the rows `_lines` splits."""
    return _parse_machine(_lines(text), notes, kind)


@PROPERTY
@given(mangled_machine_file())
def test_machine_reader_matches_the_literal_reader(file):
    kind, text = file
    assert _read_machine(_library_machine, text, kind) == _read_machine(
        literal_parse_machine, text, kind
    )
    if kind == "guesser":
        assert _outcome(parse_guesser, text) == _outcome(literal_parse_guesser, text)


def test_number_memo_lives_for_one_call():
    """2,000 files whose number words all differ leave nothing behind,
    as a memo kept across calls would."""
    # three zero digits of the decimal scripts in front of each word
    zeros = [chr(c) for c in range(0x10000) if unicodedata.decimal(chr(c), None) == 0]
    pads = [a + b + c for a in zeros[:13] for b in zeros[:13] for c in zeros[:13]]
    assert len(pads) >= 2000

    def text(pad: str) -> str:
        lines = [f"alphabet {pad}2", f"states {pad}2"]
        lines += [f"priority {pad}{q} {pad}{q + 1}" for q in range(2)]
        lines += [
            f"trans {pad}{q} {pad}{a} {pad}{1 - q}" for q in range(2) for a in range(2)
        ]
        return "\n".join(lines) + "\n"

    parse_automaton(text(pads[0]))
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for pad in pads[1:2000]:
            parse_automaton(text(pad))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before <= 64 * 1024


def test_parse_machine_reads_output_lines_only():
    """A file is a guesser when some row, comments stripped, starts with
    `output`; the error a file gets shows the kind it was read as."""
    automaton = render_automaton(F_ONE)
    assert parse_machine(automaton) == parse_automaton(automaton)
    assert parse_machine(automaton + "# output 0 1\n") == parse_automaton(automaton)
    # a guesser would refuse the `priority` lines first
    with pytest.raises(FormatError, match="^unknown directive 'bogus'$"):
        parse_machine(automaton + "bogus output\n")
    guesser = render_guesser(synthesize(F_ONE).guesser)
    assert parse_machine(guesser) == parse_guesser(guesser)[::2]
    # an automaton would refuse the `output` line as unknown
    with pytest.raises(FormatError, match="^bad line 'output': list index"):
        parse_machine("alphabet 2\r\n\toutput\f")


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
        dot = to_dot(synthesize(F_ONE).guesser)
        assert "out=1" in dot and "out=0" in dot
