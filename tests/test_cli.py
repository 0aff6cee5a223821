import hashlib
from pathlib import Path

import pytest

from guessable import cli, formats, oracle
from guessable.based_guessing import cylinder_simulation, last_bit_guesser
from guessable.cli import build_parser, main
from guessable.fixtures import F_INF1, FIXTURES, OPEN_FACTOR_11, OPEN_ONE
from guessable.formats import (
    parse_automaton,
    parse_guesser,
    render_automaton,
    render_chain,
    render_guesser,
)
from guessable.guesser import (
    RankedGuesser,
    constant_guesser,
    flip_outputs,
    synthesize,
    verify_on_up,
)
from guessable.remainder import remainder_chain
from guessable.space import UPWord, compile_clopen, cylinder, equivalent
from test_fast_paths import counter_set


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, automaton in FIXTURES.items():
        p = tmp_path / f"{name}.aut"
        p.write_text(render_automaton(automaton))
        paths[name] = str(p)
    g = synthesize(FIXTURES["F_ONE"])
    p = tmp_path / "gs_one.guess"
    p.write_text(render_guesser(g.guesser, g))
    paths["GS_ONE"] = str(p)
    p = tmp_path / "const0.guess"
    p.write_text(render_guesser(constant_guesser(2, 0)))
    paths["CONST0"] = str(p)
    # bound 5 is not below the codomain 3, so `check_bound` fails
    p = tmp_path / "bound5.guess"
    p.write_text(render_guesser(constant_guesser(2, 0)) + "bound 0 5\ncodomain 3\n")
    paths["BOUND5"] = str(p)
    p = tmp_path / "no11.guess"
    p.write_text(render_guesser(synthesize(FIXTURES["F_NO11"]).guesser))
    paths["GS_NO11"] = str(p)
    p = tmp_path / "lastbit.guess"
    p.write_text(render_guesser(last_bit_guesser()))
    paths["LASTBIT"] = str(p)
    for i, member in enumerate((OPEN_FACTOR_11, OPEN_ONE)):
        p = tmp_path / f"open{i}.aut"
        p.write_text(render_automaton(member.to_parity()))
    p = tmp_path / "no11.chain"
    p.write_text(render_chain(["open0.aut", "open1.aut"]))
    paths["CHAIN"] = str(p)
    # the ternary set of points starting with 2, and the cylinder
    # families with the bit guessers that simulate canonical guessers
    sets = dict(FIXTURES, T_CYL2=compile_clopen(cylinder((2,), 3)))
    p = tmp_path / "t_cyl2.aut"
    p.write_text(render_automaton(sets["T_CYL2"]))
    paths["T_CYL2"] = str(p)
    for k in (2, 3):
        p = tmp_path / f"cyl{k}.fam"
        p.write_text(f"family cylinders {k}\n")
        paths[f"CYL{k}"] = str(p)
    for k, name in ((2, "F_NO11"), (2, "F_CYL1"), (3, "T_CYL2")):
        p = tmp_path / f"sim_{name}.guess"
        lifted = cylinder_simulation(synthesize(sets[name]).guesser, k)
        p.write_text(render_guesser(lifted))
        paths[f"SIM_{name}"] = str(p)
    paths["DIR"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_guessable(self, files, capsys):
        code, out, _ = run(capsys, ["rank", files["F_ONE"]])
        assert code == 0
        assert "guessable=true" in out
        assert "rank=2" in out

    def test_not_guessable(self, files, capsys):
        code, out, _ = run(capsys, ["rank", files["F_INF1"]])
        assert code == 0
        assert "guessable=false" in out
        assert "rank=NOT_GUESSABLE" in out

    def test_rank_one(self, files, capsys):
        code, out, _ = run(capsys, ["rank", files["F_EMPTY"]])
        assert "rank=1" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.aut"
        bad.write_text("nonsense\n")
        code, _, err = run(capsys, ["rank", str(bad)])
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["rank", "/nonexistent/file.aut"])
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "alphabet 2\nstates 2\nstart 5\npriority 0 0\npriority 1 1\n",
            "alphabet 2\nstates 2\nstart 0\npriority 0 0\npriority 1 -1\n",
            "alphabet 1\nstates 1\nstart 0\npriority 0 0\ntrans 0 0 0\n",
        ],
        ids=["start-out-of-range", "negative-priority", "alphabet-1"],
    )
    def test_invalid_automaton_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.aut"
        bad.write_text(text)
        code, _, err = run(capsys, ["rank", str(bad)])
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_guesser_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.guess"
        bad.write_text("alphabet 2\nstates 1\nstart 3\noutput 0 0\n")
        code, _, err = run(capsys, ["verify", str(bad), files["F_ONE"]])
        assert code == 2
        assert err.startswith("error:")


# sha256 of `rank --trace` and `remainder --trace` on every fixture and
# C_40, taken when the trace printed every stage of `chain` at once
TRACE_DIGEST = (
    "06aafd4bf0c0df4dd4e5117446f6924e"
    "b696ae8a3222d2fec5fb383b8c91dda5"
)


class TestRemainderTrace:
    def test_stage_lines(self, files, capsys):
        code, out, _ = run(capsys, ["remainder", files["F_ONE"], "--trace"])
        assert code == 0
        assert "Q[0] = {0,1}" in out
        assert "Q[1] = {0}" in out
        assert "Q[2] = {}" in out
        assert "alpha(S) = 2" in out
        assert "S_infty_empty = true" in out

    def test_gaps(self, files, capsys):
        code, out, _ = run(capsys, ["remainder", files["F_CYL1"], "--gaps"])
        assert "gap_stages = {1}" in out

    def test_trace_output_is_unchanged(self, files, capsys, tmp_path):
        c40 = tmp_path / "c40.aut"
        c40.write_text(render_automaton(counter_set(40)))
        h = hashlib.sha256()
        for path in [files[name] for name in sorted(FIXTURES)] + [str(c40)]:
            for command in ("rank", "remainder"):
                code, out, _ = run(capsys, [command, "--trace", path])
                h.update(f"{code}\n{out}\0".encode())
        assert h.hexdigest() == TRACE_DIGEST


class TestSynthesizeVerifyWitness:
    def test_synthesize_writes_certified_guesser(self, files, tmp_path, capsys):
        out_path = str(tmp_path / "out.guess")
        code, out, _ = run(capsys, ["synthesize", files["F_NO11"], "-o", out_path])
        assert code == 0
        assert "bound_ok=true" in out
        guesser, ranked, _ = parse_guesser(Path(out_path).read_text())
        assert ranked is not None

    def test_synthesize_not_guessable(self, files, capsys):
        code, out, _ = run(capsys, ["synthesize", files["F_INF1"]])
        assert code == 1
        assert "rank=NOT_GUESSABLE" in out

    def test_verify_holds(self, files, capsys):
        code, out, _ = run(capsys, ["verify", files["GS_ONE"], files["F_ONE"]])
        assert code == 0
        assert "witness=NONE" in out

    def test_verify_counterexample(self, files, capsys):
        code, out, _ = run(capsys, ["verify", files["CONST0"], files["F_FULL"]])
        assert code == 1
        assert "witness=(0)" in out


class TestDiff:
    def test_build_set_and_guesser(self, files, tmp_path, capsys):
        set_path = str(tmp_path / "level.aut")
        guess_path = str(tmp_path / "level.guess")
        code, out, _ = run(
            capsys,
            [
                "diff",
                "build",
                files["CHAIN"],
                "--emit",
                "both",
                "-o",
                set_path,
                "--guesser-output",
                guess_path,
            ],
        )
        assert code == 0
        assert "theta=2" in out
        assert "bound_ok=true" in out
        assert "witness=NONE" in out
        level, _ = parse_automaton(Path(set_path).read_text())
        assert equivalent(level, FIXTURES["F_NO11"])

    def test_extract_round_trip(self, files, tmp_path, capsys):
        out_dir = str(tmp_path / "chainout")
        code, out, _ = run(
            capsys, ["diff", "extract", files["F_NO11"], "--out-dir", out_dir]
        )
        assert code == 0
        assert "side=SELF" in out
        assert "round_trip=true" in out

    def test_extract_complement_side(self, files, capsys):
        # complement of an open non-closed set sits on the other side
        from guessable.space import complement

        comp = complement(FIXTURES["F_ONE"])
        import os

        path = os.path.join(files["DIR"], "comp.aut")
        with open(path, "w") as handle:
            handle.write(render_automaton(comp))
        code, out, _ = run(capsys, ["diff", "extract", path])
        assert code == 0
        assert "side=COMPLEMENT" in out


class TestClassify:
    def test_fixture(self, files, capsys):
        code, out, _ = run(capsys, ["classify", files["F_ONE"]])
        assert code == 0
        assert "rank=2" in out
        assert "side=SELF" in out

    def test_not_guessable(self, files, capsys):
        code, out, _ = run(capsys, ["classify", files["F_INF1"]])
        assert code == 0
        assert "side=NEITHER" in out
        assert "chain=NONE" in out


class TestBasedVerify:
    def test_constant_family(self, files, tmp_path, capsys):
        fam = tmp_path / "fam.fam"
        fam.write_text("family explicit\ncycle F_ONE.aut\n")
        lastbit = tmp_path / "lastbit.guess"
        lastbit.write_text(render_guesser(last_bit_guesser()))
        code, out, _ = run(
            capsys,
            [
                "based",
                "verify",
                str(fam),
                str(lastbit),
                files["F_ONE"],
                "--budget",
                "40",
            ],
        )
        assert code == 0
        assert "ok=true" in out

    def test_failing_family(self, files, tmp_path, capsys):
        fam = tmp_path / "fam.fam"
        fam.write_text("family explicit\ncycle F_FULL.aut\n")
        lastbit = tmp_path / "lastbit.guess"
        lastbit.write_text(render_guesser(last_bit_guesser()))
        code, out, _ = run(
            capsys,
            ["based", "verify", str(fam), str(lastbit), files["F_EMPTY"]],
        )
        assert code == 1
        assert "ok=false" in out


class TestOracleCheck:
    def test_small_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, ["oracle", "check", "--k", "2", "--d", "2", "--exhaustive"]
        )
        assert code == 0
        assert "rank_agreement=pass" in out


ORACLE_PASS = ["rank_agreement=pass", "guesser_agreement=pass", "finite_rank=pass"]


@pytest.mark.parametrize(
    "argv, code, lines",
    [
        # a wrong-side constant opinion, the wrong opinion on 1(0), and
        # an oscillating opinion
        (["witness", "CONST0", "F_INF1"], 1, ["witness=(1)"]),
        (["witness", "GS_NO11", "F_INF1"], 1, ["witness=1(0)"]),
        (["witness", "LASTBIT", "F_INF1"], 1, ["witness=(10)"]),
        (["verify", "--budget", "20", "GS_NO11", "F_NO11"], 0,
         ["witness=NONE", "words=20"]),
        # canonical guessers lifted to the cylinder families, and a
        # lifted guesser for the wrong set
        (["based", "verify", "CYL2", "SIM_F_NO11", "F_NO11"], 0,
         ["ok=true", "words=100"]),
        (["based", "verify", "CYL3", "SIM_T_CYL2", "T_CYL2", "--budget", "30"], 0,
         ["ok=true", "words=30"]),
        (["based", "verify", "CYL2", "SIM_F_CYL1", "F_ONE"], 1,
         ["ok=false", "witness=0(1)"]),
        # a guesser file whose bounds fail `check_bound` certifies
        # nothing, though it never diverges from the empty set
        (["verify", "BOUND5", "F_EMPTY"], 1, ["bound_ok=false"]),
        (["witness", "BOUND5", "F_EMPTY"], 1, ["bound_ok=false"]),
        (["based", "verify", "CYL2", "BOUND5", "F_EMPTY"], 1, ["bound_ok=false"]),
        # every binary depth-3 and every ternary depth-2 table
        (["oracle", "check", "--k", "2", "--d", "3", "--exhaustive"], 0,
         ["tables_checked=256", *ORACLE_PASS]),
        (["oracle", "check", "--k", "3", "--d", "2", "--exhaustive"], 0,
         ["tables_checked=512", *ORACLE_PASS]),
        # words four symbols past every binary depth-2 table's tree
        (["oracle", "check", "--k", "2", "--d", "2", "--exhaustive", "--words", "6"],
         0, ["tables_checked=16", *ORACLE_PASS]),
    ],
    ids=[
        "const0", "no11", "lastbit", "verify-budget", "based-cyl2", "based-cyl3",
        "based-wrong-set", "verify-bound", "witness-bound", "based-bound",
        "oracle-k2-d3", "oracle-k3-d2", "oracle-k2-d2-words6",
    ],
)
def test_console_output(files, capsys, argv, code, lines):
    """The exact stdout of a run, with file arguments named as in `files`."""
    argv = [files.get(arg, arg) for arg in argv]
    assert run(capsys, argv)[:2] == (code, "".join(f"{line}\n" for line in lines))


class TestExportDot:
    def test_automaton(self, files, capsys):
        code, out, _ = run(capsys, ["export-dot", files["F_ONE"]])
        assert code == 0
        assert out.startswith("digraph")

    def test_guesser_detected(self, files, capsys):
        code, out, _ = run(capsys, ["export-dot", files["GS_ONE"]])
        assert code == 0
        assert "out=" in out

    @pytest.mark.parametrize("name", ["F_ONE", "GS_NO11", "GS_ONE"])
    def test_splits_the_file_once(self, files, capsys, monkeypatch, name):
        split, calls = formats._lines, []

        def counted(text):
            calls.append(text)
            return split(text)

        monkeypatch.setattr(formats, "_lines", counted)
        code, out, _ = run(capsys, ["export-dot", files[name]])
        assert code == 0 and out.startswith("digraph")
        assert len(calls) == 1

    def test_output_is_unchanged(self, files, capsys, tmp_path):
        """Every fixture automaton, plain and ranked guesser files, a
        file completed with a sink and one of both kinds."""
        c40 = synthesize(counter_set(40))
        extra = {
            "c40.guess": render_guesser(c40.guesser, c40),
            "partial.aut": "alphabet 2\nstates 2\npriority 0 1\npriority 1 2\n"
            "trans 0 1 1\ntrans 1 0 1\n",
            "mixed.aut": render_automaton(F_INF1) + "output 0 1\n",
        }
        for name, text in extra.items():
            (tmp_path / name).write_text(text)
        names = sorted(FIXTURES) + ["GS_ONE", "GS_NO11", "CONST0", "LASTBIT", "BOUND5"]
        paths = [files[name] for name in names] + [str(tmp_path / n) for n in extra]
        h = hashlib.sha256()
        for path in paths:
            code, out, err = run(capsys, ["export-dot", path])
            h.update(f"{code}\n{out}\0{err.replace(path, '<file>')}\0".encode())
        assert h.hexdigest() == EXPORT_DOT_DIGEST


# sha256 of the exit code, stdout and stderr of `export-dot` on the
# files of `TestExportDot.test_output_is_unchanged`, taken when the
# file's kind was found by a split of its own
EXPORT_DOT_DIGEST = (
    "0f34fe0e471598ebe2866763a50905295a60779d4dbe5ba34865b296592b6177"
)


class TestExitsOnPatchedFailures:
    """Exit paths that no input reaches while the library is right."""

    def test_witness_declares_a_zero_budget(self):
        parser = build_parser()
        assert parser.parse_args(["witness", "g", "s"]).budget == 0
        with pytest.raises(SystemExit):
            parser.parse_args(["witness", "g", "s", "--budget", "3"])

    def test_failing_converted_guesser_exits_1(
        self, files, tmp_path, capsys, monkeypatch
    ):
        convert = cli.chain_to_guesser

        def flipped(chain):
            ranked = convert(chain)
            return RankedGuesser(
                flip_outputs(ranked.guesser), ranked.bound, ranked.codomain
            )

        monkeypatch.setattr(cli, "chain_to_guesser", flipped)
        path = tmp_path / "flipped.guess"
        code, out, _ = run(capsys, [
            "diff", "build", files["CHAIN"], "--emit", "guesser",
            "--guesser-output", str(path),
        ])
        assert code == 1
        lines = out.splitlines()
        assert lines[:3] == ["theta=2", f"guesser={path}", "bound_ok=true"]
        assert len(lines) == 4 and lines[3].startswith("witness=")
        literal = lines[3].removeprefix("witness=")
        word = UPWord.from_literal(literal)
        assert str(word) == literal
        chain, _ = formats.parse_chain(Path(files["CHAIN"]).read_text(), files["DIR"])
        guesser, ranked, _ = parse_guesser(path.read_text())
        assert ranked == flipped(chain)
        assert not verify_on_up(guesser, FIXTURES["F_NO11"], word)

    def test_infinite_rank_fails_the_oracle_check(self, capsys, monkeypatch):
        trace = remainder_chain(F_INF1)
        monkeypatch.setattr(oracle, "remainder_chain", lambda automaton: trace)
        code, out, _ = run(capsys, ["oracle", "check", "--k", "2", "--d", "1"])
        assert code == 1
        assert out == (
            "tables_checked=4\nrank_agreement=pass\nguesser_agreement=pass\n"
            "finite_rank=FAIL\n"
        )


class TestDeterminism:
    def test_identical_runs(self, files, capsys):
        first = run(capsys, ["rank", files["F_NO11"], "--trace"])
        second = run(capsys, ["rank", files["F_NO11"], "--trace"])
        assert first == second

    def test_classify_deterministic(self, files, capsys):
        first = run(capsys, ["classify", files["F_CYL1"]])
        second = run(capsys, ["classify", files["F_CYL1"]])
        assert first == second
