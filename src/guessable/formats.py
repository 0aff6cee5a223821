"""Text formats: automata, guessers, chains, families, DOT export.

Machine files are line oriented with `#` comments.  An automaton file:

    alphabet 2
    states 3
    start 0
    priority 0 1
    trans 0 0 0
    trans 0 1 1
    ...

An optional `acceptance min-even` line declares min-parity input,
converted to the global max-even convention at parse time.  A guesser
file has `output <state> <bit>` lines instead, plus a `codomain
<ordinal>` line and a `bound <state> <ordinal>` line for every state
when ranked.  `MACHINE_KINDS` names the directives of each kind; a
line of the other kind is refused.  A fixed-arity directive
(`LINE_WORDS`) takes exactly its arguments and a word beyond them is
refused; `bound` and `codomain` read the rest of the line as one
ordinal literal.  A single-valued directive (`SINGLE_VALUED`) appears
once; a second line of it is refused, in machine, chain and family
files alike.  Partial transition tables are completed with an explicit
rejecting sink, of bound 0 in a ranked guesser, and the parser reports
that it did so.  A family file builds an `ExplicitFamily` from its
member lines or a `CylinderFamily`, which takes none.

Every input file, chain and family members included, is read as UTF-8
by `read`, which refuses one that does not decode and names its path.
The parsers return their notes as a list of strings.
"""

from __future__ import annotations

import os
from typing import Optional

from .ordinal import (
    ZERO,
    from_text as ordinal_from_text,
    to_text as ordinal_to_text,
)
from .space import Machine, OpenSet, ParitySet, open_from_parity
from .guesser import MooreGuesser, RankedGuesser
from .diff_hierarchy import OpenChain
from .based_guessing import CylinderFamily, ExplicitFamily, OracleFamily


# transitions a machine file may declare (states x alphabet); missing
# transitions are filled in, so the table is not bounded by the file
TABLE_CELL_BUDGET = 1 << 18

# what each machine-file kind reads besides `alphabet`, `states`,
# `start` and `trans`: the per-state label every state needs, that
# label's value on the rejecting sink, every directive of the kind, and
# the class the file builds, which takes the label as a keyword
MACHINE_KINDS = {
    "automaton": ("priority", 1, frozenset({"priority", "acceptance"}), ParitySet),
    "guesser": ("output", 0, frozenset({"output", "bound", "codomain"}), MooreGuesser),
}


class FormatError(ValueError):
    """Raised on malformed input files."""


def read(path: str) -> str:
    """The text of the input file at `path`, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from exc


# the words on a line of each fixed-arity directive, the directive
# included; a `family` line counts from its kind, `explicit` or
# `cylinders`; `bound`, `codomain`, `set` and the family member lines
# read the rest of the line as one literal or path
LINE_WORDS = {
    "alphabet": 2, "states": 2, "start": 2, "acceptance": 2, "theta": 2,
    "priority": 3, "output": 3, "trans": 4, "explicit": 1, "cylinders": 2,
}


# directives a file gives at most once; a second line is refused
SINGLE_VALUED = frozenset(
    {"alphabet", "states", "start", "acceptance", "codomain", "theta", "family"}
)


def _lines(text: str) -> list[list[str]]:
    """The words of each line that has any, `#` comments removed."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(filter(None, map(str.split, lines)))


def _check_arity(row: list[str]) -> None:
    """Refuse words beyond a fixed-arity directive's arguments.  Called
    once the arguments are read, so a missing or malformed one is
    reported as it always was."""
    if len(row) > LINE_WORDS.get(row[0], len(row)):
        count = LINE_WORDS[row[0]] - 1
        raise ValueError(
            f"{row[0]} takes {count} argument{'s' if count != 1 else ''},"
            f" not {len(row) - 1}"
        )


def _bad_line(row: list[str], exc: Exception) -> FormatError:
    """A directive line with missing, malformed or extra arguments."""
    return FormatError(f"bad line {' '.join(row)!r}: {exc}")


def _once(seen: set, key: str) -> None:
    """Refuse a second line of a single-valued directive.  Called once
    the line's arguments are read, so the errors of earlier lines and a
    missing or malformed argument of this one come first."""
    if key in seen:
        raise FormatError(f"duplicate {key}")
    seen.add(key)


def _set_once(labels: dict, key: str, q: int, value) -> None:
    """Record a per-state line, refusing a second one for the state."""
    if q in labels:
        raise FormatError(f"duplicate {key} for state {q}")
    labels[q] = value


def machine_kind(text: str) -> str:
    """The kind of a machine file: a guesser when it has an `output`
    line, an automaton otherwise."""
    if any(row[0] == "output" for row in _lines(text)):
        return "guesser"
    return "automaton"


def _parse_machine(text: str, notes: list[str], kind: str):
    """Read a machine file of `kind`, refusing directives of other kinds.
    Returns `(machine, bounds, codomain)`: the machine is the kind's
    class, its table completed with a rejecting sink, `bounds` maps each
    state with a `bound` line to its ordinal, the sink's included, and
    `codomain` is None for an automaton."""
    label, sink_value, own, build = MACHINE_KINDS[kind]
    alphabet = n_states = codomain = None
    start = 0
    acceptance = "max-even"
    labels = {key: {} for key in ("priority", "output", "bound") if key in own}
    trans: list[tuple[int, int, int]] = []
    seen: set[str] = set()
    for row in _lines(text):
        key = row[0]
        try:
            # most lines are transitions
            if key == "trans":
                trans.append((int(row[1]), int(row[2]), int(row[3])))
                if len(row) > 4:
                    _check_arity(row)
                continue
            if key == "alphabet":
                alphabet = int(row[1])
            elif key == "states":
                n_states = int(row[1])
            elif key == "start":
                start = int(row[1])
            elif key not in own:
                raise FormatError(f"unknown directive {key!r}")
            elif key == "acceptance":
                acceptance = row[1]
            elif key == "codomain":
                codomain = ordinal_from_text(" ".join(row[1:]))
            elif key == "bound":
                q = int(row[1])
                _set_once(labels[key], key, q, ordinal_from_text(" ".join(row[2:])))
            else:
                _set_once(labels[key], key, int(row[1]), int(row[2]))
            if key in SINGLE_VALUED:
                _once(seen, key)
            _check_arity(row)
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise _bad_line(row, exc) from exc
    if alphabet is None or n_states is None:
        raise FormatError("missing alphabet or states directive")
    if acceptance not in ("max-even", "min-even"):
        raise FormatError(f"unknown acceptance convention {acceptance!r}")
    for key, found in labels.items():
        for q in found:
            if not 0 <= q < n_states:
                raise FormatError(f"{key} for state {q} out of range")
    # every state needs its own label line, so a state count beyond the
    # label lines fails here, before a table of that size is built
    found = labels[label]
    bits = kind == "guesser"
    for q in range(n_states):
        if q not in found:
            raise FormatError(f"missing {label} for state {q}")
        if bits and found[q] not in (0, 1):
            raise FormatError(f"output of state {q} must be a bit")
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
    if acceptance == "min-even":
        top = max(found.values(), default=0)
        bound = top if top % 2 == 0 else top + 1
        found = {q: bound - p for q, p in found.items()}
        notes.append(f"converted min-even priorities (p -> {bound}-p)")
    missing = sum(row.count(None) for row in table)
    if missing:
        sink = n_states
        table = [[sink if c is None else c for c in row] for row in table]
        table.append([sink] * alphabet)
        found[sink] = sink_value
        if labels.get("bound"):
            labels["bound"][sink] = ZERO
        notes.append(
            f"completed {missing} missing transitions with a rejecting sink"
        )
    try:
        machine = build(
            alphabet=alphabet,
            start=start,
            delta=tuple(map(tuple, table)),
            **{label: tuple(found[q] for q in range(len(table)))},
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return machine, labels.get("bound", {}), codomain


def parse_automaton(text: str) -> tuple[ParitySet, list[str]]:
    notes: list[str] = []
    return _parse_machine(text, notes, "automaton")[0], notes


def _render(m: Machine, labels: list[str]) -> str:
    """A machine file: the skeleton's lines around the kind's `labels`."""
    out = [f"alphabet {m.alphabet}", f"states {m.n_states}", f"start {m.start}"]
    out += labels
    for q in range(m.n_states):
        for a in range(m.alphabet):
            out.append(f"trans {q} {a} {m.delta[q][a]}")
    return "\n".join(out) + "\n"


def render_automaton(s: ParitySet) -> str:
    return _render(s, [f"priority {q} {p}" for q, p in enumerate(s.priority)])


def parse_guesser(text: str) -> tuple[MooreGuesser, Optional[RankedGuesser], list[str]]:
    """A guesser file; returns the ranked form too when bound lines and
    a codomain are present."""
    notes: list[str] = []
    guesser, bounds, codomain = _parse_machine(text, notes, "guesser")
    n = guesser.n_states
    ranked = None
    if bounds or codomain is not None:
        if codomain is None:
            raise FormatError("bound lines need a codomain line")
        for q in range(n):
            if q not in bounds:
                raise FormatError(f"missing bound for state {q}")
        bound = tuple(bounds[q] for q in range(n))
        ranked = RankedGuesser(guesser=guesser, bound=bound, codomain=codomain)
    return guesser, ranked, notes


def render_guesser(
    g: MooreGuesser, ranked: Optional[RankedGuesser] = None
) -> str:
    labels = [f"output {q} {b}" for q, b in enumerate(g.output)]
    if ranked is not None:
        bounds = map(ordinal_to_text, ranked.bound)
        labels += [f"bound {q} {b}" for q, b in enumerate(bounds)]
        labels.append(f"codomain {ordinal_to_text(ranked.codomain)}")
    return _render(g, labels)


def _load_member(
    base_dir: str, words: list[str], notes: list[str]
) -> tuple[str, ParitySet]:
    """Parse the member automaton named by `words`, relative to the file
    that names it; its notes are kept with its path in front."""
    path = os.path.join(base_dir, " ".join(words))
    automaton, sub_notes = parse_automaton(read(path))
    notes.extend(f"{path}: {m}" for m in sub_notes)
    return path, automaton


def parse_chain(text: str, base_dir: str) -> tuple[OpenChain, list[str]]:
    """Chain file: a `theta n` header then one `set <index> <path>` line
    per member, paths relative to the chain file."""
    notes: list[str] = []
    theta = None
    members: dict[int, OpenSet] = {}
    seen: set[str] = set()
    for row in _lines(text):
        key, args = row[0], row[1:]
        try:
            if key == "theta":
                theta = int(args[0])
                _once(seen, key)
                _check_arity(row)
            elif key == "set":
                idx = int(args[0])
                if idx in members:
                    raise FormatError(f"duplicate set {idx}")
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


def parse_family(text: str, base_dir: str) -> tuple[OracleFamily, list[str]]:
    """Family file: `family explicit` with `prefix <path>` / `cycle
    <path>` member lines, or `family cylinders <k>` alone."""
    notes: list[str] = []
    kind = cylinders = None
    members: dict[str, list[ParitySet]] = {"prefix": [], "cycle": []}
    seen: set[str] = set()
    for row in _lines(text):
        key, args = row[0], row[1:]
        try:
            if key == "family":
                kind = args[0]
                if kind == "cylinders":
                    cylinders = CylinderFamily(int(args[1]))
                _once(seen, key)
                if kind in ("explicit", "cylinders"):
                    _check_arity(args)
            elif key in members:
                members[key].append(_load_member(base_dir, args, notes)[1])
            else:
                raise FormatError(f"unknown directive {key!r} in family file")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise _bad_line(row, exc) from exc
    prefix, cycle = tuple(members["prefix"]), tuple(members["cycle"])
    if cylinders is not None:
        if prefix or cycle:
            raise FormatError("cylinder family takes no member lines")
        return cylinders, notes
    if kind == "explicit":
        if not cycle:
            raise FormatError("explicit family needs at least one cycle member")
        return ExplicitFamily(prefix, cycle), notes
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


def to_dot(s: ParitySet) -> str:
    """GraphViz rendering with priorities as labels."""
    return _dot(s, "aut", [f"p={p}" for p in s.priority])


def guesser_to_dot(g: MooreGuesser) -> str:
    """GraphViz rendering with outputs as labels."""
    return _dot(g, "guesser", [f"out={b}" for b in g.output])
