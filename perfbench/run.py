"""Benchmark of the guessable verdict pipelines.

    python3 perfbench/run.py --workload deep-rank --seed 0 --seconds 45 --trace 0

Run from the repository root.  Set-up imports `guessable` from `src/`
and generates the workload's inputs from the seed; it is repeated
between passes and `setup_s` is the median.  The measured loop decides
every input once, checking each verdict against its known answer right
after its timed section, and puts one input through the CLI.  It then
keeps cycling through the inputs until the timed sections add up to
`--seconds`.

Times are normalised to the host's speed of the moment.  A shared host
runs the same code up to twice as slowly for seconds at a time, so a
fixed pure-Python reference kernel is timed between the measured
sections, at least every REF_EVERY_S of measured work.  Each repetition
(and each set-up) is divided by the mean of the reference times just
before and after it and multiplied by REF_S, the kernel's time on a
fast host, so the reported seconds are those of such a host.  An
input's time is the median of its normalised repetitions.  The raw
wall-clock figures are printed too, on lines of their own.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` untraced and traced passes alternate and it carries
the per-layer metrics, read from spans the benchmark records around its
own calls into each library module.  The spans of one traced pass are
written to `perfbench/out/`.  The exit code is 1 when any verdict
disagrees with its known answer or the verdict digest misses its pinned
value, and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import inputs
import pipelines
import smoke
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
DEFAULT_SEED = 0
TAIL_BEYOND = 10
# the reference kernel's first-percentile time over 10 s of repetitions on
# a 2-vCPU x86-64 host with CPython 3.11; only a scale, which turns
# reference units back into seconds
REF_S = 1.2e-3
REF_EVERY_S = 0.02
MODULES = (
    "formats", "space", "remainder", "guesser", "diff_hierarchy",
    "based_guessing", "oracle", "randgen", "cli",
)


def import_library() -> SimpleNamespace:
    """A fresh import of `guessable` from this checkout's `src/`."""
    for name in [n for n in sys.modules if n.split(".")[0] == "guessable"]:
        del sys.modules[name]
    package = importlib.import_module("guessable")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise ImportError(f"guessable imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"guessable.{m}") for m in MODULES}
    )


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind the library does (tuples, dict
    and set updates); its time tracks the host's speed."""
    counts: dict = {}
    for i in range(4000):
        key = ((i * 7) % 1013, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len({a ^ b for a, b in counts})


def time_reference() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def normalised(elapsed: float, before: float, after: float) -> float:
    """`elapsed` in seconds of the host on which the kernel takes REF_S."""
    return elapsed * REF_S / ((before + after) / 2)


class SetUp:
    """Import plus input generation, repeated between passes so that its
    median spans the run."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.times: list[float] = []
        self.raw: list[float] = []

    def once(self):
        before = time_reference()
        start = perf_counter()
        lib = import_library()
        workload = inputs.generate(lib, self.name, self.seed)
        elapsed = perf_counter() - start
        self.raw.append(elapsed)
        self.times.append(normalised(elapsed, before, time_reference()))
        return lib, workload

    def again(self) -> None:
        """One more timed set-up whose result is dropped, until there are
        SETUP_REPEATS; then nothing."""
        if len(self.times) < SETUP_REPEATS:
            self.once()
            gc.collect()  # the dropped modules are garbage; collect it now


class Measurement:
    """Per-input timings, verdicts and failures of one workload run."""

    def __init__(self, lib, workload) -> None:
        self.lib = lib
        self.workload = workload
        n = len(workload.items)
        # per input: (seconds, index in self.refs of the reference before)
        self.times: list[list[tuple]] = [[] for _ in range(n)]
        self.refs: list[float] = []
        self.since_ref = 0.0
        self.results: list = [None] * n
        self.lines: list[str] = []
        self.failures: dict[int, str] = {}
        self.timed = 0.0

    def _run(self, calls, index):
        item = self.workload.items[index]
        run = pipelines.KINDS[item.kind][0]
        start = perf_counter()
        out = run(calls, self.lib, item, self.workload.words)
        elapsed = perf_counter() - start
        self.timed += elapsed
        return out, elapsed

    def _measured(self, calls, index):
        """`_run`, with a reference timing first when REF_EVERY_S of
        measured work has passed since the last one."""
        if not self.refs or self.since_ref >= REF_EVERY_S:
            self.refs.append(time_reference())
            self.since_ref = 0.0
        out, elapsed = self._run(calls, index)
        self.since_ref += elapsed
        self.times[index].append((elapsed, len(self.refs) - 1))
        return out

    def first_pass(self, calls) -> None:
        """Decide every input once and check it outside its timed section."""
        for i, item in enumerate(self.workload.items):
            _, lines, check = pipelines.KINDS[item.kind]
            try:
                out = self._measured(calls, i)
            except Exception as exc:  # a raised verdict is a failed input
                self.failures[i] = f"raised {exc!r}"
                self.lines.append(f"raised {type(exc).__name__}")
                continue
            self.results[i] = out
            self.lines.extend(lines(item, out))
            bad = check(self.lib, item, out, self.workload.words)
            if bad:
                self.failures[i] = "; ".join(bad)

    def live(self) -> list[int]:
        return [i for i in range(len(self.times)) if i not in self.failures]

    def cycle(self, calls, seconds: float, after_pass) -> None:
        """Repeat inputs in order until the timed sections reach `seconds`."""
        live = self.live()
        while live and self.timed < seconds:
            for i in live:
                self._measured(calls, i)
                if self.timed >= seconds:
                    break
            else:
                after_pass()
        self.refs.append(time_reference())  # closes the last repetitions

    def full_pass(self, calls, tracer=None) -> float:
        total = 0.0
        root = tracer.open("pass") if tracer else None
        for i in self.live():
            token = tracer.open("input." + self.workload.items[i].kind) if tracer else None
            elapsed = self._run(calls, i)[1]
            if tracer:
                tracer.close(token)
            total += elapsed
        if tracer:
            tracer.close(root)
        return total

    def per_input(self) -> list[float]:
        """Each input's median normalised repetition."""
        return [
            statistics.median(
                normalised(t, self.refs[j], self.refs[j + 1]) for t, j in reps
            )
            for reps in self.times
            if reps
        ]

    def per_input_raw(self) -> list[float]:
        """Each input's fastest repetition in wall-clock seconds."""
        return [min(t for t, _ in reps) for reps in self.times if reps]


def tail(values: list[float]):
    """Highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def end_to_end(m: Measurement, setup: SetUp) -> tuple[dict, list[str]]:
    per_input = m.per_input()
    value, pct = tail(per_input)
    raw = m.per_input_raw()
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "decide_s": (sum(per_input), "s"),
        "verdict_p50_ms": (1000 * statistics.median(per_input), "ms"),
        "verdict_tail_ms": (1000 * value, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    refs = sorted(m.refs)
    notes = [
        f"verdict_tail_ms is p{pct:.1f} of {len(per_input)} inputs",
        f"setup_s is the median of {len(setup.times)} set-ups",
        f"times are normalised to a reference kernel time of {REF_S * 1e3:g} ms;"
        f" this run timed it {len(refs)} times, fastest {refs[0] * 1e3:.4g} ms,"
        f" median {statistics.median(refs) * 1e3:.4g} ms",
        f"wall clock: setup_s={statistics.median(setup.raw):.6g}"
        f" decide_s={sum(raw):.6g} (fastest repetitions)"
        f" verdict_p50_ms={1000 * statistics.median(raw):.6g}",
        f"{min(len(t) for t in m.times if t)} to {max(len(t) for t in m.times)}"
        " repetitions per input",
    ]
    return metrics, notes


def per_layer(counts, busy, traced, untraced, smoke_tracer) -> dict:
    """Per-layer busy time (median over traced passes) and counts (of
    one traced pass; every pass counts the same)."""
    metrics = {}
    for name in spans.LAYERS:
        if name == "cli.main":
            busy_s = smoke_tracer.self_times().get(name, 0.0)
            calls = smoke_tracer.counters[name + ".calls"]
        else:
            busy_s = statistics.median(b.get(name, 0.0) for b in busy)
            calls = counts[name + ".calls"]
        metrics[name + ".busy_s"] = (busy_s, "s")
        metrics[name + ".calls"] = (calls, "count")
    metrics["formats.calls"] = (
        sum(counts[n + ".calls"] for n in spans.LAYERS if n.startswith("formats.")),
        "count",
    )
    for name, unit in (
        ("formats.bytes_parsed", "bytes"),
        ("remainder.stages", "count"),
        ("guesser.synthesize.states_out", "count"),
        ("diff_hierarchy.d_theta.states_out", "count"),
        ("oracle.tables", "count"),
    ):
        metrics[name] = (counts[name], unit)
    for layer, hit in (
        ("guesser.divergence_witness", "found"),
        ("space.equivalent", "true"),
    ):
        base = counts[layer + ".calls"]
        metrics[f"{layer}.{hit}_ratio"] = (counts[f"{layer}.{hit}"] / base if base else 0.0, "1")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "1"
    )
    return metrics


def pinned_digest(name: str):
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]["digest_seed_0"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    setup = SetUp(args.workload, args.seed)
    try:
        lib, workload = setup.once()
    except ImportError as exc:
        print(f"error: cannot import guessable from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    m = Measurement(lib, workload)
    plain = spans.layer_calls(lib)
    m.first_pass(plain)
    smoke_tracer = spans.Tracer()
    token = smoke_tracer.open("smoke")
    index, bad = smoke.run(spans.layer_calls(lib, smoke_tracer), workload, m.results, OUT)
    smoke_tracer.close(token)
    if bad:
        m.failures.setdefault(index, "; ".join(bad))
    # later passes only time: drop the verdicts and keep the collector
    # off the long-lived inputs
    m.results = None
    gc.collect()
    gc.freeze()
    setup.again()
    first, busy, traced, untraced = None, [], [], []
    if args.trace:
        while not busy or m.timed < args.seconds:
            untraced.append(m.full_pass(plain))
            tracer = spans.Tracer()
            traced.append(m.full_pass(spans.layer_calls(lib, tracer), tracer))
            busy.append(tracer.self_times())
            first = first or tracer
            setup.again()
    else:
        m.cycle(plain, args.seconds, setup.again)
    while len(setup.times) < SETUP_REPEATS:
        setup.again()

    got = digest(m.lines)
    failed = len(m.failures)
    attempted = len(workload.items)
    digest_note = "not pinned for this seed"
    if args.seed == DEFAULT_SEED:
        want = pinned_digest(args.workload)
        digest_note = "matches the pinned value" if got == want else f"MISMATCH, pinned {want}"
        if got != want:
            failed += 1  # the digest check counts as one failed verdict

    for i, reason in sorted(m.failures.items()):
        print(f"failed input {i} ({workload.items[i].kind}): {reason}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(first.counters, busy, traced, untraced, smoke_tracer)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        first.dump(path, {"workload": args.workload, "seed": args.seed,
                          "smoke_spans": smoke_tracer.spans})
        notes = [f"spans of one traced pass written to {os.path.relpath(path)}",
                 f"{len(traced)} traced and {len(untraced)} untraced passes"]
    else:
        metrics, notes = end_to_end(m, setup)
    print(f"workload={args.workload} seed={args.seed} inputs={attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name}={value:.6g} {unit}")
    print(f"failed_ratio={failed / attempted:.6g} 1 ({failed} of {attempted})")
    print(f"digest=sha256:{got} ({digest_note})")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
