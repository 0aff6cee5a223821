"""Layer calls as the benchmark makes them, optionally traced.

`layer_calls` hands the pipelines one attribute per public library
function they time.  Untraced, each attribute is the library function
itself.  Traced, each call records a span (id, parent id, name, start,
end) and bumps the counters named after its layer, measured where the
work happens.  Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


def _parsed(counters, args, result):
    counters["formats.bytes_parsed"] += len(args[0])


def _stages(counters, args, result):
    counters["remainder.stages"] += len(result.chain)


def _synthesized(counters, args, result):
    counters["guesser.synthesize.states_out"] += result.guesser.n_states


def _witness(counters, args, result):
    counters["guesser.divergence_witness.found"] += result is not None


def _equivalent(counters, args, result):
    counters["space.equivalent.true"] += bool(result)


def _level_set(counters, args, result):
    counters["diff_hierarchy.d_theta.states_out"] += result.n_states


def _tables(counters, args, result):
    counters["oracle.tables"] += result.tables_checked


# span name -> (module, attribute, counter hook); attributes are unique
LAYERS = {
    "formats.parse_automaton": ("formats", "parse_automaton", _parsed),
    "formats.parse_guesser": ("formats", "parse_guesser", _parsed),
    "formats.render_guesser": ("formats", "render_guesser", None),
    "remainder.remainder_chain": ("remainder", "remainder_chain", _stages),
    "guesser.synthesize": ("guesser", "synthesize", _synthesized),
    "guesser.divergence_witness": ("guesser", "divergence_witness", _witness),
    "space.equivalent": ("space", "equivalent", _equivalent),
    "space.is_empty": ("space", "is_empty", None),
    "diff_hierarchy.classify": ("diff_hierarchy", "classify", None),
    "diff_hierarchy.OpenChain": ("diff_hierarchy", "OpenChain", None),
    "diff_hierarchy.d_theta": ("diff_hierarchy", "d_theta", _level_set),
    "diff_hierarchy.chain_to_guesser": ("diff_hierarchy", "chain_to_guesser", None),
    "diff_hierarchy.guesser_to_chain": ("diff_hierarchy", "guesser_to_chain", None),
    "based_guessing.verify_based": ("based_guessing", "verify_based", None),
    "based_guessing.cylinder_simulation": ("based_guessing", "cylinder_simulation", None),
    "oracle.cross_validate": ("oracle", "cross_validate", _tables),
    "cli.main": ("cli", "main", None),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.counters: Counter = Counter()
        self.parent = None

    def wrap(self, name, fn, hook):
        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            end = perf_counter()
            self.spans.append((len(self.spans), self.parent, name, start, end))
            self.counters[name + ".calls"] += 1
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def open(self, name):
        """Start a span that later layer spans hang under; returns a token
        for `close`."""
        span_id = len(self.spans)
        self.spans.append(None)
        token = (span_id, self.parent, name, perf_counter())
        self.parent = span_id
        return token

    def close(self, token) -> None:
        span_id, parent, name, start = token
        self.spans[span_id] = (span_id, parent, name, start, perf_counter())
        self.parent = parent

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus the part its
        direct children cover (children never overlap here)."""
        covered = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += end - start - covered[span_id]
        return dict(out)

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)


def layer_calls(lib, tracer=None) -> SimpleNamespace:
    calls = {}
    for name, (module, attr, hook) in LAYERS.items():
        fn = getattr(getattr(lib, module), attr)
        calls[attr] = fn if tracer is None else tracer.wrap(name, fn, hook)
    return SimpleNamespace(**calls)
