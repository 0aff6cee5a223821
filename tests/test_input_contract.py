"""The input contract of the parsers and the command line: unusable
input exits 2 with an `error:` line, never a traceback, and nothing is
allocated at a size an input declares before the input is validated."""

import contextlib
import io
import itertools
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import guessable.cli
from guessable.cli import main
from guessable.diff_hierarchy import ChainNotIncreasingError, OpenChain
from guessable.fixtures import FIXTURES, OPEN_FACTOR_11, OPEN_ONE
from guessable.formats import (
    FormatError,
    parse_automaton,
    parse_chain,
    parse_family,
    parse_guesser,
    render_automaton,
    render_chain,
    render_guesser,
)
from guessable.guesser import constant_guesser, divergence_witness, synthesize
from guessable.ordinal import (
    NESTING_LIMIT,
    ZERO,
    OrdinalCNF,
    from_text,
    omega_power,
    to_text,
)
from guessable.oracle import (
    SAMPLE_CELL_BUDGET,
    BudgetExceededError,
    CrossValidationReport,
    draw_tables,
    sample_tables,
)
from guessable.space import (
    ClopenTable,
    OpenSet,
    ParitySet,
    UPWord,
    canonical_up_words,
    make_open,
)
from test_fast_paths import counter_set

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def open_files(tmp_path):
    for name, member in (("f11.aut", OPEN_FACTOR_11), ("one.aut", OPEN_ONE)):
        (tmp_path / name).write_text(render_automaton(member.to_parity()))
    return tmp_path


@pytest.mark.parametrize(
    "text",
    ["theta x\nset 0 one.aut\n", "theta 1\nset x one.aut\n", "theta\n", "set\n"],
)
def test_bad_chain_lines_exit_2(open_files, text):
    chain = open_files / "bad.chain"
    chain.write_text(text)
    code, _, err = run(["diff", "build", str(chain)])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["family cylinders\n", "family cylinders 1\n", "family cylinders x\n", "family\n"],
)
def test_bad_family_lines_exit_2(open_files, text):
    family = open_files / "bad.fam"
    family.write_text(text)
    guesser = open_files / "g.guess"
    guesser.write_text(render_guesser(synthesize(FIXTURES["F_ONE"]).guesser))
    aut = open_files / "one.aut"
    code, _, err = run(["based", "verify", str(family), str(guesser), str(aut)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    [
        "family cylinders 2\ncycle one.aut\n",
        "family cylinders 2\nprefix one.aut\n",
        "cycle one.aut\nfamily cylinders 2\n",
    ],
)
def test_member_lines_under_a_cylinder_family_exit_2(open_files, text):
    """A member line is refused, not dropped, whichever line comes first."""
    message = "cylinder family takes no member lines"
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_family(text, str(open_files))
    family = open_files / "cyl.fam"
    family.write_text(text)
    guesser = open_files / "g.guess"
    guesser.write_text(render_guesser(synthesize(FIXTURES["F_ONE"]).guesser))
    aut = open_files / "one.aut"
    code, out, err = run(["based", "verify", str(family), str(guesser), str(aut)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_chain_member_notes_carry_their_path(open_files):
    (open_files / "partial.aut").write_text(
        "alphabet 2\nstates 2\npriority 0 1\npriority 1 2\n"
        "trans 0 1 1\ntrans 1 0 1\ntrans 1 1 1\n"
    )
    chain = open_files / "c.chain"
    chain.write_text("theta 1\nset 0 partial.aut\n")
    code, _, err = run(["diff", "build", str(chain)])
    assert code == 0
    path = os.path.join(str(open_files), "partial.aut")
    assert f"note: {path}: completed 1 missing transitions" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--d", "5"],
        ["--k", "1"],
        ["--k", "-2"],
        ["--d", "-1"],
        ["--k", "0", "--d", "-2"],
        ["--k", "100", "--d", "3000"],
        ["--samples", "-3"],
        ["--words", "-2"],
        ["--samples", "1", "--k", "2", "--d", "13"],
        ["--samples", "1", "--k", "40", "--d", "40"],
    ],
)
def test_oracle_check_domain_errors_exit_2(argv):
    code, _, err = run(["oracle", "check", *argv])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "{guesser}", "{set}", "--budget", "-3"],
        ["based", "verify", "{family}", "{guesser}", "{set}", "--budget", "-3"],
        ["based", "verify", "{family}", "{guesser}", "{set}", "--budget", "0"],
    ],
)
def test_vacuous_word_budgets_exit_2(open_files, command):
    paths = {
        "set": open_files / "one.aut",
        "guesser": open_files / "g.guess",
        "family": open_files / "cyl.fam",
    }
    paths["guesser"].write_text(render_guesser(synthesize(FIXTURES["F_ONE"]).guesser))
    paths["family"].write_text("family cylinders 2\n")
    code, out, err = run([arg.format(**paths) for arg in command])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("want_outputs", [False, True])
def test_declared_state_count_is_checked_before_allocation(want_outputs):
    label = "output 0 1" if want_outputs else "priority 0 1"
    text = f"alphabet 2\nstates 200000\n{label}\n"
    parse = parse_guesser if want_outputs else parse_automaton
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="missing .* for state 1"):
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("want_outputs", [False, True])
def test_declared_alphabet_is_checked_before_allocation(want_outputs):
    label = "output 0 1" if want_outputs else "priority 0 1"
    text = f"alphabet {10**9}\nstates 1\n{label}\n"
    parse = parse_guesser if want_outputs else parse_automaton
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="table budget"):
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_declared_theta_is_checked_before_allocation(open_files):
    chain = open_files / "long.chain"
    chain.write_text("theta 2000000\nset 0 one.aut\n")
    tracemalloc.start()
    try:
        code, out, err = run(["diff", "build", str(chain)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: chain must define sets 0..theta-1\n"
    assert peak < 1_000_000


def _position_member(j):
    """The open set of points with symbol 1 at position j, on j + 3
    states: one per position up to j, then accept and reject."""
    delta = [(i + 1, i + 1) for i in range(j)]
    delta += [(j + 2, j + 1), (j + 1, j + 1), (j + 2, j + 2)]
    return make_open(2, 0, tuple(delta), [j + 1])


def test_a_chain_that_fails_to_increase_is_refused_before_its_product():
    """No member of this chain lies in the next; the product of all
    fourteen members has tens of thousands of states."""
    members = tuple(_position_member(j) for j in range(14))
    tracemalloc.start()
    try:
        with pytest.raises(ChainNotIncreasingError, match="^chain members must increase$"):
            OpenChain(members)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# the address-space cap of `ulimit -v 150000`, in KiB
CAP_KIB = 150_000
PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _prime_member(j):
    """Points with a 1 at or before position j: a 1 enters a target
    cycle of p_j states, and after position j the run enters a dead
    cycle of p_j states, so the product of the members has a state for
    every combination of cycle positions."""
    p, target, dead = PRIMES[j], j + 1, j + 1 + PRIMES[j]
    delta = [(i + 1 if i < j else dead, target) for i in range(j + 1)]
    delta += [((target + (i + 1) % p),) * 2 for i in range(p)]
    delta += [((dead + (i + 1) % p),) * 2 for i in range(p)]
    return make_open(2, 0, tuple(delta), range(target, dead))


def _write_chain(directory, members):
    names = [f"m{j}.aut" for j in range(len(members))]
    for name, member in zip(names, members):
        (directory / name).write_text(render_automaton(member.to_parity()))
    (directory / "in.chain").write_text(render_chain(names))


def _write_c3200(directory):
    (directory / "c3200.aut").write_text(render_automaton(counter_set(3200)))


# (writes the input, argv, exit code, stdout line count, lines stdout
# holds, stderr): a chain refused before the product of its 20 members
# is built; C_3200 (6,402 states, rank 3,201) ranked and traced in
# memory linear in the automaton, the trace one stage at a time (24 MB
# of stdout); and a valid chain whose product does not fit
CAPPED_RUNS = {
    "chain-not-increasing": (
        lambda d: _write_chain(d, [_position_member(j) for j in range(20)]),
        ["diff", "build", "in.chain"], 2, 0, [],
        "error: chain members must increase\n",
    ),
    "rank": (_write_c3200, ["rank", "c3200.aut"], 0, 3, ["rank=3201"], ""),
    "gaps": (
        _write_c3200, ["remainder", "--gaps", "c3200.aut"], 0, 3,
        ["gap_stages = {}"], "",
    ),
    "trace": (
        _write_c3200, ["remainder", "--trace", "c3200.aut"], 0, 3204,
        ["Q[3201] = {}", "alpha(S) = 3201"], "",
    ),
    "out-of-memory": (
        lambda d: _write_chain(d, [_prime_member(j) for j in range(7)]),
        ["diff", "build", "in.chain"], 2, 0, [], "error: out of memory\n",
    ),
}


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CAP_KIB * 1024,) * 2)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps memory on Linux")
@pytest.mark.parametrize("case", sorted(CAPPED_RUNS))
def test_console_runs_under_a_memory_cap(tmp_path, case):
    """`python -m guessable` under the cap keeps its contract: no
    traceback, and an answer or exit 2 with its message."""
    write, argv, code, count, lines, err = CAPPED_RUNS[case]
    write(tmp_path)
    # pytest's `pythonpath` setting does not reach a child process
    source = os.path.dirname(os.path.dirname(guessable.__file__))
    env = dict(os.environ, PYTHONPATH=source)
    done = subprocess.run(
        [sys.executable, "-m", "guessable", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        preexec_fn=_cap_address_space,
    )
    out = done.stdout.splitlines()
    assert (done.returncode, len(out), done.stderr) == (code, count, err)
    assert set(lines) <= set(out)


def test_sampled_table_size_is_checked_before_allocation():
    with pytest.raises(BudgetExceededError, match="sampling budget"):
        sample_tables(40, 40, 1)
    assert len(sample_tables(2, 12, 1)[0].values) == SAMPLE_CELL_BUDGET


def test_sampled_tables_are_drawn_as_they_are_read():
    with pytest.raises(BudgetExceededError, match="sampling budget"):
        draw_tables(40, 40, 1)
    tracemalloc.start()
    try:
        first = list(itertools.islice(draw_tables(2, 4, 10**9, seed=5), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert first == sample_tables(2, 4, 10, seed=5)


def test_oracle_check_streams_its_samples(monkeypatch):
    seen = []

    def first_three(tables, word_length):
        seen.extend(itertools.islice(tables, 3))
        return CrossValidationReport(tables_checked=len(seen))

    monkeypatch.setattr(guessable.cli, "cross_validate", first_three)
    argv = ["oracle", "check", "--samples", str(10**9), "--k", "2", "--d", "4"]
    tracemalloc.start()
    try:
        code, out, _ = run(argv + ["--seed", "5"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (code, out.splitlines()[0]) == (0, "tables_checked=3")
    assert seen == sample_tables(2, 4, 3, seed=5)


@pytest.mark.parametrize(
    "command, check",
    [
        (["verify", "{guesser}", "{set}"], "verify_on_up"),
        (["based", "verify", "{family}", "{guesser}", "{set}"], "verify_based"),
    ],
    ids=["verify", "based-verify"],
)
def test_budget_words_are_streamed(open_files, monkeypatch, command, check):
    """Each word is drawn when it is checked: a check that fails on the
    1,000th word ends a budget of 200,000 there, and no list of the
    words is built."""
    checked = []

    def fails_on_the_1000th(*args):
        checked.append(args[-1])
        return len(checked) < 1000

    monkeypatch.setattr(guessable.cli, check, fails_on_the_1000th)
    paths = {
        "set": open_files / "one.aut",
        "guesser": open_files / "g.guess",
        "family": open_files / "cyl.fam",
    }
    paths["guesser"].write_text(render_guesser(synthesize(FIXTURES["F_ONE"]).guesser))
    paths["family"].write_text("family cylinders 2\n")
    argv = [arg.format(**paths) for arg in command] + ["--budget", "200000"]
    tracemalloc.start()
    try:
        code, out, _ = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert checked == canonical_up_words(2, 1000)
    assert (code, out.splitlines()[-1]) == (1, f"witness={checked[-1]}")


def test_divergence_witness_memory_is_linear_in_the_product():
    """The witness search ranks product nodes by discovery and keeps no
    access word per node, so a long cycle costs bytes per node, not a
    word as long as the cycle."""
    n = 20_000
    cycle = tuple(((q + 1) % n,) * 2 for q in range(n))
    s = ParitySet(2, 0, cycle, (1,) * (n - 1) + (2,))
    tracemalloc.start()
    try:
        witness = divergence_witness(constant_guesser(2, 0), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert str(witness) == "(0)"


# values that a constructor refuses, each with its message; no file
# reader hands them over, so only a caller of the library meets them
REFUSED_VALUES = {
    "negative-symbol": (
        lambda: UPWord((-1,), (0,)), ValueError, "symbols must be non-negative"
    ),
    "literal-without-period": (
        lambda: UPWord.from_literal("01"), ValueError, "bad UP word literal '01'"
    ),
    "table-alphabet": (
        lambda: ClopenTable(1, 0, (0,)), ValueError, "alphabet size must be >= 2"
    ),
    "table-depth": (lambda: ClopenTable(2, -1, (0,)), ValueError, "depth must be >= 0"),
    "table-size": (
        lambda: ClopenTable(2, 1, (0,)), ValueError,
        "table must have one entry per depth-d word",
    ),
    "table-entry": (
        lambda: ClopenTable(2, 1, (0, 2)), ValueError, "table entries must be 0 or 1"
    ),
    "table-short-word": (
        lambda: ClopenTable(2, 2, (0,) * 4).encode((0,)), ValueError,
        "word shorter than table depth",
    ),
    "target-out-of-range": (
        lambda: OpenSet(OPEN_ONE.automaton, frozenset({9})), ValueError,
        "target state out of range",
    ),
    "priorities-not-derived": (
        lambda: OpenSet(OPEN_ONE.automaton, frozenset()), ValueError,
        "priorities must be derived from the target",
    ),
    "exponent-not-ordinal": (
        lambda: OrdinalCNF(((3, 1),)), TypeError, "exponent must be an OrdinalCNF"
    ),
    "omega-power-coefficient": (
        lambda: omega_power(1, 0), ValueError, "coefficient must be >= 1"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_VALUES))
def test_refused_values_keep_their_messages(case):
    build, error, message = REFUSED_VALUES[case]
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_digit_literals_are_unchanged():
    assert str(UPWord((0, 1), (1, 0))) == "01(10)"
    assert str(UPWord((), (9,))) == "(9)"
    assert str(UPWord((10,), (1,))) == "10.(1.)"
    assert UPWord.from_literal("10.(1.)") == UPWord((10,), (1,))
    assert UPWord.from_literal("10(1)") == UPWord((1, 0), (1,))
    for bad in ("10.(1)", "(1.2)", "1.((2.)", "(.)", "()"):
        with pytest.raises(ValueError):
            UPWord.from_literal(bad)


@PROPERTY
@given(
    st.integers(2, 16).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k - 1), max_size=5),
            st.lists(st.integers(0, k - 1), min_size=1, max_size=5),
        )
    )
)
def test_up_literal_round_trip(parts):
    w = UPWord(tuple(parts[0]), tuple(parts[1]))
    assert UPWord.from_literal(str(w)) == w


# -- ordinal literals and per-state lines --------------------------------


def _nested(depth, core="1"):
    return "w^(" * depth + core + ")" * depth


def _ranked_guesser_text(bound="0", codomain="1"):
    return (
        "alphabet 2\nstates 1\nstart 0\noutput 0 0\n"
        f"bound 0 {bound}\ncodomain {codomain}\ntrans 0 0 0\ntrans 0 1 0\n"
    )


TERNARY_FAILING_GUESSER = (
    "alphabet 3\nstates 1\nstart 0\noutput 0 0\nbound 0 5\ncodomain 3\n"
    "trans 0 0 0\ntrans 0 1 0\ntrans 0 2 0\n"
)
TERNARY_SET = "alphabet 3\nstates 1\nstart 0\npriority 0 1\n" + "".join(
    f"trans 0 {a} 0\n" for a in range(3)
)


@pytest.mark.parametrize(
    "command, guesser_text, set_name, message",
    [
        pytest.param(command, None, "missing.aut", "missing.aut", id=command)
        for command in ("verify", "witness", "based")
    ] + [
        pytest.param(
            command, None, "three.aut", "alphabet mismatch: 2 vs 3",
            id=f"{command}-alphabet",
        )
        for command in ("verify", "witness")
    ] + [
        pytest.param(
            "based", None, "three.aut", "alphabet mismatch: 3 vs 2",
            id="based-family-alphabet",
        ),
        pytest.param(
            "based", TERNARY_FAILING_GUESSER, "one.aut", "bit guessers read bits",
            id="based-guesser-alphabet",
        ),
    ],
)
def test_unusable_input_beside_failing_bounds_exits_2(
    open_files, command, guesser_text, set_name, message
):
    """Every input is read, and the alphabets checked, before the bounds
    are: a missing set or an alphabet mismatch still exits 2 when the
    guesser's bounds fail `check_bound`."""
    guesser = open_files / "bound5.guess"
    guesser.write_text(guesser_text or _ranked_guesser_text(bound="5", codomain="3"))
    (open_files / "three.aut").write_text(TERNARY_SET)
    family = open_files / "cyl2.fam"
    family.write_text("family cylinders 2\n")
    head = ["based", "verify", str(family)] if command == "based" else [command]
    code, out, err = run([*head, str(guesser), str(open_files / set_name)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("depth", [900, 3000])
@pytest.mark.parametrize("where", ["bound", "codomain"])
def test_deeply_nested_ordinal_literals_exit_2(open_files, where, depth):
    guesser = open_files / "deep.guess"
    guesser.write_text(_ranked_guesser_text(**{where: _nested(depth)}))
    code, out, err = run(["verify", str(guesser), str(open_files / "one.aut")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_ordinal_literal_at_the_nesting_limit():
    text = _nested(NESTING_LIMIT, "w + 1")
    value = from_text(text)
    assert to_text(value) == text
    again = from_text(text)
    assert again is not value
    assert again == value
    assert hash(again) == hash(value)
    assert value > from_text(_nested(NESTING_LIMIT - 1, "w + 1"))
    _, ranked, _ = parse_guesser(_ranked_guesser_text(codomain=text))
    assert ranked.codomain == value
    assert render_guesser(ranked.guesser, ranked) == _ranked_guesser_text(
        codomain=text
    )
    with pytest.raises(ValueError):
        from_text(_nested(NESTING_LIMIT + 1, "w + 1"))


# a file of each kind that its command refuses, and the message: an
# unknown value, a missing header, and each fault of an ordinal literal
REFUSED_FILES = [
    ("aut", "alphabet 2\nstates 1\nacceptance min-odd\npriority 0 0\n",
     "unknown acceptance convention 'min-odd'"),
    ("chain", "theta 1\nmember 0 one.aut\n",
     "unknown directive 'member' in chain file"),
    ("chain", "set 0 one.aut\n", "missing theta header"),
    ("fam", "prefix one.aut\n", "missing or unknown family directive"),
    ("fam", "family sideways\n", "missing or unknown family directive"),
] + [
    ("guess", _ranked_guesser_text(codomain=literal),
     f"bad line {f'codomain {literal}'.strip()!r}: {message}")
    for literal, message in [
        ("", "empty ordinal literal"),
        ("3 4", "trailing input"),
        ("3 +", "unexpected end"),
        ("+ 3", "unexpected token"),
        ("w^(2", "unbalanced parenthesis"),
        ("w^+", "bad exponent token"),
        ("w*", "missing coefficient"),
    ]
]


@pytest.mark.parametrize("kind, text, message", REFUSED_FILES)
def test_refused_files_exit_2_with_their_message(open_files, kind, text, message):
    path = open_files / f"refused.{kind}"
    path.write_text(text)
    guesser = open_files / "g.guess"
    guesser.write_text(render_guesser(constant_guesser(2, 0)))
    aut = open_files / "one.aut"
    argv = {
        "aut": ["rank", path],
        "chain": ["diff", "build", path],
        "fam": ["based", "verify", path, guesser, aut],
        "guess": ["verify", path, aut],
    }[kind]
    code, out, err = run([str(arg) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


DUPLICATE_LINES = {
    "priority": "alphabet 2\nstates 1\npriority 0 0\npriority 0 1\n",
    "output": "alphabet 2\nstates 1\noutput 0 0\noutput 0 1\n",
    "bound": _ranked_guesser_text() + "bound 0 0\n",
}


# a valid one-state file of each kind, to which one line is added
ONE_STATE = {
    "priority": "alphabet 2\nstates 1\npriority 0 0\n",
    "output": "alphabet 2\nstates 1\noutput 0 0\n",
    "bound": _ranked_guesser_text(),
}


def assert_refused(open_files, kind, text, message):
    """The parser raises `message`, and the command that reads the file
    (`rank` for an automaton, `verify` for a guesser) exits 2 with it."""
    parse = parse_automaton if kind == "priority" else parse_guesser
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse(text)
    path = open_files / "refused.txt"
    path.write_text(text)
    argv = ["rank", str(path)] if kind == "priority" else [
        "verify", str(path), str(open_files / "one.aut")
    ]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind", sorted(DUPLICATE_LINES))
def test_duplicate_per_state_lines_exit_2(open_files, kind):
    message = f"duplicate {kind} for state 0"
    assert_refused(open_files, kind, DUPLICATE_LINES[kind], message)


@pytest.mark.parametrize(
    "text, state",
    [
        ("alphabet 2\nstates 2\noutput 0 0\noutput 1 0\nbound 0 1\ncodomain 2\n", 1),
        ("alphabet 2\nstates 1\noutput 0 0\ncodomain 2\n", 0),
    ],
)
def test_a_ranked_guesser_without_a_bound_exits_2(open_files, text, state):
    """A missing bound line is refused, not read as bound 0."""
    assert_refused(open_files, "bound", text, f"missing bound for state {state}")


def test_the_completion_sink_of_a_ranked_guesser_has_bound_0():
    text = _ranked_guesser_text().replace("trans 0 1 0\n", "")
    guesser, ranked, _ = parse_guesser(text)
    assert guesser.n_states == 2 and ranked.bound == (ZERO, ZERO)


@pytest.mark.parametrize(
    "line", ["priority 5 1", "priority -1 3", "output 3 0", "bound 9 w"]
)
def test_per_state_lines_out_of_range_exit_2(open_files, line):
    kind, state = line.split()[:2]
    message = f"{kind} for state {state} out of range"
    assert_refused(open_files, kind, ONE_STATE[kind] + line + "\n", message)


@pytest.mark.parametrize(
    "kind, line",
    [
        ("priority", "output 0 1"),
        ("priority", "bound 0 1"),
        ("priority", "codomain 2"),
        ("output", "priority 0 1"),
        ("output", "acceptance min-even"),
        ("bound", "priority 0 1"),
    ],
)
def test_lines_of_the_other_file_kind_exit_2(open_files, kind, line):
    message = f"unknown directive {line.split()[0]!r}"
    assert_refused(open_files, kind, ONE_STATE[kind] + line + "\n", message)


# a valid one-state file of each kind with every fixed-arity directive
# of the kind, one of whose lines gets a word too many
FULL_ONE_STATE = {
    "priority": "alphabet 2\nstates 1\nstart 0\nacceptance max-even\n"
    "priority 0 0\ntrans 0 0 0\ntrans 0 1 0\n",
    "output": "alphabet 2\nstates 1\nstart 0\noutput 0 0\ntrans 0 0 0\n"
    "trans 0 1 0\n",
}


def _trailing_message(line):
    key, *args = line.split()
    arity = len(args) - 1
    plural = "s" if arity > 1 else ""
    return f"bad line {line!r}: {key} takes {arity} argument{plural}, not {len(args)}"


@pytest.mark.parametrize(
    "kind, index",
    [(kind, i) for kind, text in sorted(FULL_ONE_STATE.items())
     for i in range(len(text.splitlines()))],
)
def test_trailing_arguments_exit_2(open_files, kind, index):
    lines = FULL_ONE_STATE[kind].splitlines()
    lines[index] += " 5"
    message = _trailing_message(lines[index])
    assert_refused(open_files, kind, "\n".join(lines) + "\n", message)


def test_trailing_arguments_in_a_chain_exit_2(open_files):
    text = "theta 1 1\nset 0 one.aut\n"
    message = _trailing_message("theta 1 1")
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_chain(text, str(open_files))
    chain = open_files / "bad.chain"
    chain.write_text(text)
    code, out, err = run(["diff", "build", str(chain)])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    # a member automaton is read by the same reader
    member = open_files / "one.aut"
    member.write_text(member.read_text() + "trans 0 0 0 5\n")
    chain.write_text("theta 1\nset 0 one.aut\n")
    code, out, err = run(["diff", "build", str(chain)])
    assert (code, out) == (2, "")
    assert err == f"error: {_trailing_message('trans 0 0 0 5')}\n"


@pytest.mark.parametrize(
    "line, reason",
    [
        ("family cylinders 2 9 junk", "cylinders takes 1 argument, not 3"),
        ("family cylinders 2 9", "cylinders takes 1 argument, not 2"),
        ("family explicit junk", "explicit takes 0 arguments, not 1"),
    ],
)
def test_trailing_arguments_in_a_family_exit_2(open_files, line, reason):
    text = f"{line}\ncycle one.aut\n"
    message = f"bad line {line!r}: {reason}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_family(text, str(open_files))
    family = open_files / "bad.fam"
    family.write_text(text)
    guesser = open_files / "g.guess"
    guesser.write_text(render_guesser(synthesize(FIXTURES["F_ONE"]).guesser))
    aut = open_files / "one.aut"
    code, out, err = run(["based", "verify", str(family), str(guesser), str(aut)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("second", ["one.aut", "f11.aut", "missing.aut"])
def test_a_set_index_given_twice_exits_2(open_files, second):
    # refused before the second member file is opened, so a missing
    # one is never reported
    text = f"theta 1\nset 0 one.aut\nset 0 {second}\n"
    with pytest.raises(FormatError, match="^duplicate set 0$"):
        parse_chain(text, str(open_files))
    chain = open_files / "twice.chain"
    chain.write_text(text)
    code, out, err = run(["diff", "build", str(chain)])
    assert (code, out, err) == (2, "", "error: duplicate set 0\n")


# a second line of a single-valued directive, added to a valid file of
# the kind in `assert_refused`; each would be read at face value if the
# first line were dropped (a start state that exists, a wider alphabet
# completed with a sink, the max-even convention, a larger codomain)
SECOND_LINES = [
    ("priority", "alphabet 3"),
    ("priority", "states 2"),
    ("priority", "start 1"),
    ("priority", "acceptance max-even"),
    ("output", "alphabet 3"),
    ("output", "states 1"),
    ("output", "start 0"),
    ("bound", "codomain 5"),
]

TWO_STATE_MIN_EVEN = (
    "alphabet 2\nstates 2\nstart 0\nacceptance min-even\npriority 0 0\n"
    "priority 1 1\ntrans 0 0 1\ntrans 0 1 1\ntrans 1 0 1\ntrans 1 1 1\n"
)


@pytest.mark.parametrize("kind, line", SECOND_LINES)
def test_a_single_valued_directive_given_twice_exits_2(open_files, kind, line):
    first = {
        "priority": TWO_STATE_MIN_EVEN,
        "output": FULL_ONE_STATE["output"],
        "bound": _ranked_guesser_text(),
    }[kind]
    message = f"duplicate {line.split()[0]}"
    assert_refused(open_files, kind, first + line + "\n", message)


def test_a_duplicate_is_refused_where_it_is_read():
    """Errors keep their line order: a bad line before the second one
    is reported, and one after it is not reached."""
    with pytest.raises(FormatError, match="^bad line 'states x'"):
        parse_automaton("alphabet 2\nstates x\nalphabet 2\n")
    with pytest.raises(FormatError, match="^duplicate alphabet$"):
        parse_automaton("alphabet 2\nalphabet 2\nstates x\n")


@pytest.mark.parametrize("text", ["theta 2\ntheta 1\n", "theta 1\ntheta 1\n"])
def test_a_theta_given_twice_exits_2(open_files, text):
    text += "set 0 one.aut\n"
    with pytest.raises(FormatError, match="^duplicate theta$"):
        parse_chain(text, str(open_files))
    chain = open_files / "twice.chain"
    chain.write_text(text)
    code, out, err = run(["diff", "build", str(chain)])
    assert (code, out, err) == (2, "", "error: duplicate theta\n")


@pytest.mark.parametrize(
    "lines", [("family cylinders 2", "family explicit"),
              ("family explicit", "family cylinders 2")],
)
def test_a_family_given_twice_exits_2(open_files, lines):
    text = "\n".join(lines) + "\ncycle one.aut\n"
    with pytest.raises(FormatError, match="^duplicate family$"):
        parse_family(text, str(open_files))
    family = open_files / "twice.fam"
    family.write_text(text)
    guesser = open_files / "g.guess"
    guesser.write_text(render_guesser(synthesize(FIXTURES["F_ONE"]).guesser))
    aut = open_files / "one.aut"
    code, out, err = run(["based", "verify", str(family), str(guesser), str(aut)])
    assert (code, out, err) == (2, "", "error: duplicate family\n")


def test_missing_and_malformed_arguments_keep_their_messages():
    """Arguments are read before their count is checked."""
    head = "alphabet 2\nstates 1\npriority 0 0\n"
    for line, reason in (
        ("trans 0 0", "list index out of range"),
        ("trans 0 x 0 5", "invalid literal for int() with base 10: 'x'"),
        ("states", "list index out of range"),
    ):
        with pytest.raises(FormatError) as caught:
            parse_automaton(head + line + "\n")
        assert str(caught.value) == f"bad line {line!r}: {reason}"
    # `bound` and `codomain` read the rest of the line as one literal
    _, ranked, _ = parse_guesser(_ranked_guesser_text("w + 1", "w^2*3 + 2"))
    assert ranked.bound == (from_text("w + 1"),)
    assert ranked.codomain == from_text("w^2*3 + 2")


def test_export_dot_refuses_an_automaton_with_an_output_line(open_files):
    """The `output` line makes the file a guesser, which has no
    `priority` lines."""
    path = open_files / "mixed.aut"
    path.write_text(ONE_STATE["priority"] + "output 0 1\n")
    code, out, err = run(["export-dot", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: unknown directive 'priority'\n"


def test_export_dot_notes_carry_the_path(open_files):
    path = open_files / "partial.aut"
    path.write_text(
        "alphabet 2\nstates 2\npriority 0 1\npriority 1 2\n"
        "trans 0 1 1\ntrans 1 0 1\n"
    )
    code, out, err = run(["export-dot", str(path)])
    assert code == 0 and out.startswith("digraph")
    assert err == (
        f"note: {path}: completed 2 missing transitions with a rejecting sink\n"
    )


NOT_UTF8 = b"alphabet 2\nstates 1\n\xff"

# each file a command reads: the command, then its files with that one
# named `bad`; `bad.chain` and `bad.fam` name `bad` as a member
NOT_UTF8_RUNS = {
    "rank": (["rank"], ["bad"]),
    "remainder": (["remainder"], ["bad"]),
    "synthesize": (["synthesize"], ["bad"]),
    "classify": (["classify"], ["bad"]),
    "diff-extract": (["diff", "extract"], ["bad"]),
    "verify-guesser": (["verify"], ["bad", "one.aut"]),
    "verify-set": (["verify"], ["g.guess", "bad"]),
    "witness-guesser": (["witness"], ["bad", "one.aut"]),
    "witness-set": (["witness"], ["g.guess", "bad"]),
    "diff-build-chain": (["diff", "build"], ["bad"]),
    "diff-build-member": (["diff", "build"], ["bad.chain"]),
    "based-verify-family": (["based", "verify"], ["bad", "g.guess", "one.aut"]),
    "based-verify-member": (["based", "verify"], ["bad.fam", "g.guess", "one.aut"]),
    "based-verify-guesser": (["based", "verify"], ["one.fam", "bad", "one.aut"]),
    "based-verify-set": (["based", "verify"], ["one.fam", "g.guess", "bad"]),
    "export-dot": (["export-dot"], ["bad"]),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8_RUNS))
def test_a_file_that_is_not_utf8_exits_2(open_files, case):
    bad = open_files / "bad"
    bad.write_bytes(NOT_UTF8)
    (open_files / "bad.chain").write_text("theta 1\nset 0 bad\n")
    (open_files / "bad.fam").write_text("family explicit\ncycle bad\n")
    (open_files / "one.fam").write_text("family explicit\ncycle one.aut\n")
    guesser = synthesize(OPEN_ONE.to_parity()).guesser
    (open_files / "g.guess").write_text(render_guesser(guesser))
    command, files = NOT_UTF8_RUNS[case]
    code, out, err = run(command + [str(open_files / name) for name in files])
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 at byte {len(NOT_UTF8) - 1}\n"


# each command that writes a file, its input in {d} and the output at {bad}
UNWRITABLE_RUNS = {
    "diff-build-output": ["diff", "build", "{d}/c.chain", "-o", "{bad}"],
    "diff-build-guesser-output": [
        "diff", "build", "{d}/c.chain", "--emit", "guesser", "--guesser-output", "{bad}",
    ],
    "classify-out-dir": ["classify", "{d}/one.aut", "--out-dir", "{bad}"],
    "diff-extract-out-dir": ["diff", "extract", "{d}/one.aut", "--out-dir", "{bad}"],
    "synthesize-output": ["synthesize", "{d}/one.aut", "-o", "{bad}"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_RUNS))
def test_an_output_that_cannot_be_written_exits_2_before_printing(open_files, case):
    """Every file is written before any line is printed: an output path
    under a regular file leaves stdout empty."""
    (open_files / "c.chain").write_text("theta 1\nset 0 one.aut\n")
    bad = open_files / "one.aut" / "out"
    code, out, err = run([a.format(d=open_files, bad=bad) for a in UNWRITABLE_RUNS[case]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(bad) in err


# -- command line fuzz ---------------------------------------------------

INT = st.integers(-2, 40)
WORD = st.one_of(INT.map(str), st.sampled_from(["w", "+", "min-even", "max-even"]))
MACHINE_KEYS = [
    "alphabet", "states", "start", "acceptance", "priority",
    "output", "bound", "codomain", "trans", "bogus",
]
MEMBERS = ["set.aut", "f11.aut", "one.aut", "missing.aut"]


def _mostly(good):
    """Usually a value from `good`, sometimes any integer in [-2, 40]."""
    return st.one_of(good, good, good, INT)


def _line(key, args):
    return " ".join([key, *args])


def _extra_lines(keys):
    """Usually none, sometimes a few arbitrary directive lines."""
    line = st.builds(_line, st.sampled_from(keys), st.lists(WORD, max_size=3))
    return st.one_of(st.just([]), st.just([]), st.lists(line, max_size=3))


@st.composite
def machine_file(draw, label):
    """A skeleton with one label line per state and some transitions,
    in range in about half the files, plus the odd arbitrary directive."""
    mostly = _mostly if draw(st.booleans()) else (lambda good: good)
    k = draw(mostly(st.sampled_from([2, 2, 3])))
    n = draw(mostly(st.integers(1, 4)))
    lines = [f"alphabet {k}", f"states {n}", f"start {draw(mostly(st.just(0)))}"]
    # an automaton line: a guesser file with it is refused as a whole
    if label == "priority" and draw(st.integers(0, 3)) == 0:
        lines.append("acceptance min-even")
    values = st.integers(0, 1) if label == "output" else st.integers(0, 4)
    for q in range(min(n, 40)):
        lines.append(f"{label} {q} {draw(mostly(values))}")
    for q in range(min(n, 4)):
        for a in range(min(k, 4)):
            if draw(st.integers(0, 3)):
                lines.append(f"trans {q} {a} {draw(mostly(st.integers(0, n - 1)))}")
    if label == "output" and draw(st.booleans()):
        lines += [f"bound {q} {draw(mostly(st.integers(0, 3)))}" for q in range(n)]
        lines.append(f"codomain {draw(mostly(st.integers(1, 4)))}")
    lines += draw(_extra_lines(MACHINE_KEYS))
    return "\n".join(lines) + "\n"


@st.composite
def chain_file(draw):
    sets = draw(st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=3))
    lines = [f"theta {draw(_mostly(st.just(len(sets))))}"]
    lines += [f"set {i} {name}" for i, name in enumerate(sets)]
    lines += draw(_extra_lines(["theta", "set", "bogus"]))
    return "\n".join(lines) + "\n"


@st.composite
def family_file(draw):
    kind = draw(st.sampled_from(["explicit", "explicit", "cylinders", ""]))
    lines = [f"family {kind}"]
    if kind == "cylinders":
        lines[0] += f" {draw(_mostly(st.just(2)))}"
    for _ in range(draw(st.integers(1, 3))):
        role = draw(st.sampled_from(["cycle", "prefix", "cycle"]))
        lines.append(f"{role} {draw(st.sampled_from(MEMBERS))}")
    lines += draw(_extra_lines(["family", "prefix", "cycle", "bogus"]))
    return "\n".join(lines) + "\n"


COMMANDS = [
    ["rank", "{set}", "--trace"],
    ["remainder", "{set}", "--trace", "--gaps"],
    ["synthesize", "{set}"],
    ["verify", "{guesser}", "{set}", "--budget", "3"],
    ["witness", "{guesser}", "{set}"],
    ["diff", "build", "{chain}", "--emit", "both"],
    ["diff", "extract", "{set}"],
    ["classify", "{set}"],
    ["based", "verify", "{family}", "{guesser}", "{set}", "--budget", "3"],
    ["export-dot", "{set}"],
    ["export-dot", "{guesser}"],
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    machine_file("priority"),
    machine_file("output"),
    chain_file(),
    family_file(),
    st.integers(-2, 2),
    st.sampled_from([-2, -1, 0, 1, 2, 5]),
)
def test_cli_never_raises(set_text, guesser_text, chain_text, family_text, k, d):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, name, text in (
            ("set", "set.aut", set_text),
            ("guesser", "g.guess", guesser_text),
            ("chain", "c.chain", chain_text),
            ("family", "f.fam", family_text),
        ):
            paths[key] = os.path.join(tmp, name)
            with open(paths[key], "w", encoding="utf-8") as handle:
                handle.write(text)
        for name, member in (("f11.aut", OPEN_FACTOR_11), ("one.aut", OPEN_ONE)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(render_automaton(member.to_parity()))
        oracle = ["oracle", "check", "--k", str(k), "--d", str(d), "--words", "2"]
        for command in COMMANDS + [oracle]:
            argv = [arg.format(**paths) for arg in command]
            code, _, err = run(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.startswith("error:") or "\nerror:" in err, argv
