"""Text formats: automata, guessers, chains, families, DOT export.

Automaton files are line oriented with `#` comments:

    alphabet 2
    states 3
    start 0
    priority 0 1
    trans 0 0 0
    trans 0 1 1
    ...

Partial transition tables are completed with an explicit rejecting
sink, and the parser reports that it did so.  An optional
`acceptance min-even` line declares min-parity input, which is
converted to the global max-even convention at parse time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .ordinal import (
    ZERO,
    OrdinalCNF,
    from_text as ordinal_from_text,
    to_text as ordinal_to_text,
)
from .space import Machine, OpenSet, ParitySet, open_from_parity
from .guesser import MooreGuesser, RankedGuesser
from .diff_hierarchy import OpenChain
from .based_guessing import OracleFamily, cylinders_family, explicit_family


# transitions a machine file may declare (states x alphabet); missing
# transitions are filled in, so the table is not bounded by the file
TABLE_CELL_BUDGET = 1 << 18


class FormatError(ValueError):
    """Raised on malformed input files."""


@dataclass
class ParseNotes:
    """Side reports from parsing, e.g. table completion."""

    messages: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.messages.append(message)


def _lines(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def _bad_line(row: list[str], exc: Exception) -> FormatError:
    """A directive line with missing or malformed arguments."""
    return FormatError(f"bad line {' '.join(row)!r}: {exc}")


def _set_once(labels: dict, key: str, q: int, value) -> None:
    """Record a per-state line, refusing a second one for the state."""
    if q in labels:
        raise FormatError(f"duplicate {key} for state {q}")
    labels[q] = value


def _parse_machine(text: str, notes: ParseNotes, want_outputs: bool):
    # -> (alphabet, n_states, start, table, priorities, outputs, bounds, codomain)
    alphabet = None
    n_states = None
    start = 0
    acceptance = "max-even"
    priorities: dict[int, int] = {}
    outputs: dict[int, int] = {}
    bounds: dict[int, OrdinalCNF] = {}
    codomain: Optional[OrdinalCNF] = None
    trans: list[tuple[int, int, int]] = []
    for row in _lines(text):
        key, args = row[0], row[1:]
        try:
            if key == "alphabet":
                alphabet = int(args[0])
            elif key == "states":
                n_states = int(args[0])
            elif key == "start":
                start = int(args[0])
            elif key == "acceptance":
                acceptance = args[0]
            elif key == "priority":
                _set_once(priorities, key, int(args[0]), int(args[1]))
            elif key == "output":
                _set_once(outputs, key, int(args[0]), int(args[1]))
            elif key == "bound":
                _set_once(
                    bounds, key, int(args[0]), ordinal_from_text(" ".join(args[1:]))
                )
            elif key == "codomain":
                codomain = ordinal_from_text(" ".join(args))
            elif key == "trans":
                trans.append((int(args[0]), int(args[1]), int(args[2])))
            else:
                raise FormatError(f"unknown directive {key!r}")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise _bad_line(row, exc) from exc
    if alphabet is None or n_states is None:
        raise FormatError("missing alphabet or states directive")
    if acceptance not in ("max-even", "min-even"):
        raise FormatError(f"unknown acceptance convention {acceptance!r}")
    labelled = {"priority": priorities, "output": outputs, "bound": bounds}
    for key, labels in labelled.items():
        for q in labels:
            if not 0 <= q < n_states:
                raise FormatError(f"{key} for state {q} out of range")
    # every state needs its own label line, so a state count beyond the
    # label lines fails here, before a table of that size is built
    if want_outputs:
        for q in range(n_states):
            if q not in outputs:
                raise FormatError(f"missing output for state {q}")
            if outputs[q] not in (0, 1):
                raise FormatError(f"output of state {q} must be a bit")
    else:
        for q in range(n_states):
            if q not in priorities:
                raise FormatError(f"missing priority for state {q}")
    if n_states * alphabet > TABLE_CELL_BUDGET:
        raise FormatError(
            f"{n_states} states x {alphabet} symbols exceeds the table budget"
            f" of {TABLE_CELL_BUDGET} transitions"
        )
    table: list[list[Optional[int]]] = [
        [None] * alphabet for _ in range(n_states)
    ]
    for q, a, nq in trans:
        if not (0 <= q < n_states and 0 <= a < alphabet and 0 <= nq < n_states):
            raise FormatError(f"transition {q} {a} {nq} out of range")
        if table[q][a] is not None:
            raise FormatError(f"duplicate transition for state {q} symbol {a}")
        table[q][a] = nq
    if acceptance == "min-even" and not want_outputs:
        top = max(priorities.values(), default=0)
        bound = top if top % 2 == 0 else top + 1
        priorities = {q: bound - p for q, p in priorities.items()}
        notes.add(f"converted min-even priorities (p -> {bound}-p)")
    return alphabet, n_states, start, table, priorities, outputs, bounds, codomain


def _complete(
    alphabet: int,
    n_states: int,
    table: list[list[Optional[int]]],
    notes: ParseNotes,
    sink_priority: Optional[dict[int, int]] = None,
    sink_output: Optional[dict[int, int]] = None,
) -> int:
    missing = sum(1 for row in table for cell in row if cell is None)
    if missing == 0:
        return n_states
    sink = n_states
    n_states += 1
    for row in table:
        for a in range(alphabet):
            if row[a] is None:
                row[a] = sink
    table.append([sink] * alphabet)
    if sink_priority is not None:
        sink_priority[sink] = 1
    if sink_output is not None:
        sink_output[sink] = 0
    notes.add(
        f"completed {missing} missing transitions with a rejecting sink"
    )
    return n_states


def parse_automaton(text: str) -> tuple[ParitySet, ParseNotes]:
    notes = ParseNotes()
    alphabet, n, start, table, priorities, _, _, _ = _parse_machine(
        text, notes, want_outputs=False
    )
    n = _complete(alphabet, n, table, notes, sink_priority=priorities)
    try:
        automaton = ParitySet(
            alphabet=alphabet,
            start=start,
            delta=tuple(tuple(row) for row in table),
            priority=tuple(priorities[q] for q in range(n)),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return automaton, notes


def render_automaton(s: ParitySet) -> str:
    out = [f"alphabet {s.alphabet}", f"states {s.n_states}", f"start {s.start}"]
    for q in range(s.n_states):
        out.append(f"priority {q} {s.priority[q]}")
    for q in range(s.n_states):
        for a in range(s.alphabet):
            out.append(f"trans {q} {a} {s.delta[q][a]}")
    return "\n".join(out) + "\n"


def parse_guesser(text: str) -> tuple[MooreGuesser, Optional[RankedGuesser], ParseNotes]:
    """A guesser file; returns the ranked form too when bound lines and
    a codomain are present."""
    notes = ParseNotes()
    alphabet, n, start, table, _, outputs, bounds, codomain = _parse_machine(
        text, notes, want_outputs=True
    )
    n = _complete(alphabet, n, table, notes, sink_output=outputs)
    try:
        guesser = MooreGuesser(
            alphabet=alphabet,
            start=start,
            delta=tuple(tuple(row) for row in table),
            output=tuple(outputs[q] for q in range(n)),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    ranked = None
    if bounds or codomain is not None:
        if codomain is None:
            raise FormatError("bound lines need a codomain line")
        bound = tuple(bounds.get(q, ZERO) for q in range(n))
        ranked = RankedGuesser(guesser=guesser, bound=bound, codomain=codomain)
    return guesser, ranked, notes


def render_guesser(
    g: MooreGuesser, ranked: Optional[RankedGuesser] = None
) -> str:
    out = [f"alphabet {g.alphabet}", f"states {g.n_states}", f"start {g.start}"]
    for q in range(g.n_states):
        out.append(f"output {q} {g.output[q]}")
    if ranked is not None:
        for q in range(g.n_states):
            out.append(f"bound {q} {ordinal_to_text(ranked.bound[q])}")
        out.append(f"codomain {ordinal_to_text(ranked.codomain)}")
    for q in range(g.n_states):
        for a in range(g.alphabet):
            out.append(f"trans {q} {a} {g.delta[q][a]}")
    return "\n".join(out) + "\n"


def _load_member(
    base_dir: str, words: list[str], notes: ParseNotes
) -> tuple[str, ParitySet]:
    """Parse the member automaton named by `words`, relative to the file
    that names it; its notes are kept with its path in front."""
    path = os.path.join(base_dir, " ".join(words))
    with open(path, "r", encoding="utf-8") as handle:
        automaton, sub_notes = parse_automaton(handle.read())
    notes.messages.extend(f"{path}: {m}" for m in sub_notes.messages)
    return path, automaton


def parse_chain(text: str, base_dir: str) -> tuple[OpenChain, ParseNotes]:
    """Chain file: a `theta n` header then one `set <index> <path>` line
    per member, paths relative to the chain file."""
    notes = ParseNotes()
    theta = None
    members: dict[int, OpenSet] = {}
    for row in _lines(text):
        key, args = row[0], row[1:]
        try:
            if key == "theta":
                theta = int(args[0])
            elif key == "set":
                idx = int(args[0])
                path, automaton = _load_member(base_dir, args[1:], notes)
                try:
                    members[idx] = open_from_parity(automaton)
                except ValueError as exc:
                    raise FormatError(
                        f"{path}: not an open set automaton: {exc}"
                    )
            else:
                raise FormatError(f"unknown directive {key!r} in chain file")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise _bad_line(row, exc) from exc
    if theta is None:
        raise FormatError("missing theta header")
    # the count first: theta may be far larger than the file
    if len(members) != theta or sorted(members) != list(range(theta)):
        raise FormatError("chain must define sets 0..theta-1")
    return OpenChain(tuple(members[i] for i in range(theta))), notes


def render_chain(paths: list[str]) -> str:
    out = [f"theta {len(paths)}"]
    for i, path in enumerate(paths):
        out.append(f"set {i} {path}")
    return "\n".join(out) + "\n"


def parse_family(text: str, base_dir: str) -> tuple[OracleFamily, ParseNotes]:
    """Family file: `family explicit` with `prefix <path>` / `cycle
    <path>` member lines, or `family cylinders <k>`."""
    notes = ParseNotes()
    kind = None
    cylinders: Optional[OracleFamily] = None
    prefix: list[ParitySet] = []
    cycle: list[ParitySet] = []
    for row in _lines(text):
        key, args = row[0], row[1:]
        try:
            if key == "family":
                kind = args[0]
                if kind == "cylinders":
                    cylinders = cylinders_family(int(args[1]))
            elif key in ("prefix", "cycle"):
                _, automaton = _load_member(base_dir, args, notes)
                (prefix if key == "prefix" else cycle).append(automaton)
            else:
                raise FormatError(f"unknown directive {key!r} in family file")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise _bad_line(row, exc) from exc
    if kind == "cylinders":
        assert cylinders is not None
        return cylinders, notes
    if kind == "explicit":
        if not cycle:
            raise FormatError("explicit family needs at least one cycle member")
        return explicit_family(tuple(prefix), tuple(cycle)), notes
    raise FormatError("missing or unknown family directive")


def _dot(m: Machine, name: str, labels: list[str]) -> str:
    out = [f"digraph {name} {{", "  rankdir=LR;", '  init [shape=point, label=""];']
    for q in range(m.n_states):
        out.append(f'  q{q} [shape=circle, label="q{q}\\n{labels[q]}"];')
    out.append(f"  init -> q{m.start};")
    for q in range(m.n_states):
        by_target: dict[int, list[int]] = {}
        for a in range(m.alphabet):
            by_target.setdefault(m.delta[q][a], []).append(a)
        for nq in sorted(by_target):
            label = ",".join(str(a) for a in by_target[nq])
            out.append(f'  q{q} -> q{nq} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def to_dot(s: ParitySet, name: str = "aut") -> str:
    """GraphViz rendering with priorities as labels."""
    return _dot(s, name, [f"p={p}" for p in s.priority])


def guesser_to_dot(g: MooreGuesser, name: str = "guesser") -> str:
    """GraphViz rendering with outputs as labels."""
    return _dot(g, name, [f"out={b}" for b in g.output])
