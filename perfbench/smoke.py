"""One input per workload through `guessable.cli.main`, in process.

The CLI reads files written to a temporary directory, and its
`key=value` stdout and exit code must match the library verdict that
the timed pipeline already produced for the same input.  This runs
outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _main(calls, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = calls.main(argv)
    return code, out.getvalue().splitlines()


def pick(workload, results) -> int:
    """Index of the input the smoke decides, among inputs with verdicts:
    the smallest C_m, the first pair, or the first guessable random set."""
    items = workload.items
    decided = [i for i, out in enumerate(results) if out is not None]
    if workload.name == "deep-rank":
        deep = [i for i in decided if not items[i].expect["complemented"]]
        return min(deep, key=lambda i: items[i].expect["m"])
    if workload.name == "many-priorities":
        return decided[0]
    return next(
        i for i in decided if items[i].kind == "set" and results[i]["trace"].guessable
    )


def _expected(item, out):
    """(rank, synthesize, verify, classify) as (exit code, stdout)."""
    if item.kind == "pair":
        trace = out["chains"][0]
        not_guessable = ["guessable=false", "rank=NOT_GUESSABLE"]
        return (
            (0, not_guessable + [f"alpha_S={trace.alpha_s}"]),
            (1, not_guessable),
            (1, [f"witness={out['witness']}"]),
            (0, ["rank=NOT_GUESSABLE", "side=NEITHER", "chain=NONE"]),
        )
    trace, ranked, c = out["trace"], out["ranked"], out["classification"]
    rank = trace.state_rank[trace.subject.start]
    return (
        (0, ["guessable=true", f"rank={rank}", f"alpha_S={trace.alpha_s}"]),
        (0, ["guesser=<G>", f"rank={ranked.codomain}", "bound_ok=true"]),
        (0, ["witness=NONE"]),
        (0, [f"rank={rank}", f"side={c.side.value}", f"chain=theta {c.chain.theta_int}"]),
    )


def run(calls, workload, results, scratch_dir) -> tuple:
    """Decide one input through the CLI; returns its index and the
    disagreements between CLI and library."""
    index = pick(workload, results)
    item, out = workload.items[index], results[index]
    rank, synth, verify, classify = _expected(item, out)
    bad = []
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        aut = _write(tmp, "set.aut", item.texts[0])
        guess = os.path.join(tmp, "g.guess")
        checks = [
            (["rank", aut], rank),
            (["synthesize", aut, "-o", guess], synth),
        ]
        for argv, (want_code, want_lines) in checks:
            want_lines = [line.replace("<G>", guess) for line in want_lines]
            got = _main(calls, argv)
            if got != (want_code, want_lines):
                bad.append(f"cli {argv[0]}: {got}, want {(want_code, want_lines)}")
        if item.kind == "pair":
            _write(tmp, "g.guess", item.texts[3])
        else:
            with open(guess, encoding="utf-8") as handle:
                if handle.read() != out["text"]:
                    bad.append("cli synthesize wrote another guesser than the library")
        for argv, want in (
            (["verify", guess, aut], verify),
            (["classify", aut], classify),
        ):
            got = _main(calls, argv)
            if got != want:
                bad.append(f"cli {argv[0]}: {got}, want {want}")
        if workload.name == "random-corpus":
            # all 16 depth-2 binary tables agree with the brute force
            want = (0, [
                "tables_checked=16",
                "rank_agreement=pass",
                "guesser_agreement=pass",
                "finite_rank=pass",
            ])
            got = _main(calls, ["oracle", "check", "--k", "2", "--d", "2", "--exhaustive"])
            if got != want:
                bad.append(f"cli oracle check: {got}, want {want}")
    return index, bad
