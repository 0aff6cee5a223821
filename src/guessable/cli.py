"""Command line surface.

Subcommands: rank, remainder, synthesize, verify, witness,
diff build|extract, classify, based verify, oracle check, export-dot.
Machine-readable output is one `key=value` pair per line, in a fixed
order.  Exit codes: 0 the property holds, 1 a counterexample or a
failed certification, 2 unusable input or running out of memory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Optional

from . import formats
from .based_guessing import _check_based_alphabets, verify_based
from .diff_hierarchy import (
    ChainNotIncreasingError,
    Side,
    chain_to_guesser,
    classify,
    d_theta,
)
from .guesser import (
    NotGuessableError,
    check_bound,
    divergence_witness,
    synthesize,
    verify_on_up,
)
from .oracle import (
    BudgetExceededError,
    cross_validate,
    draw_tables,
    exhaustive_tables,
)
from .remainder import remainder_chain
from .space import (
    AlphabetMismatchError,
    _check_alphabets,
    complement,
    equivalent,
    up_words,
)

DEFAULT_BUDGET = 100


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _print_notes(notes: list[str], prefix: str = "") -> None:
    for message in notes:
        print(f"note: {prefix}{message}", file=sys.stderr)


def _load(path: str):
    """The automaton in the file at `path`; its notes go to stderr with
    the path in front."""
    automaton, notes = formats.parse_automaton(formats.read(path))
    _print_notes(notes, f"{path}: ")
    return automaton


def _load_pair(args: argparse.Namespace):
    """The guesser and the set that `args` names, read in that order,
    and whether the guesser file's bound lines, if any, pass
    `check_bound`.  A caller checks the alphabets before it prints
    `bound_ok=false`, so a mismatch exits 2 and failing bounds exit 1."""
    guesser, ranked, notes = formats.parse_guesser(formats.read(args.guesser))
    _print_notes(notes, f"{args.guesser}: ")
    return guesser, _load(args.set), ranked is None or check_bound(ranked)


def _rank_text(rank) -> str:
    return "NOT_GUESSABLE" if rank is None else str(rank)


def _print_stages(trace) -> None:
    for i, stage in enumerate(trace.stages()):
        body = ",".join(str(q) for q in sorted(stage))
        print(f"Q[{i}] = {{{body}}}")


def cmd_rank(args: argparse.Namespace) -> int:
    automaton = _load(args.automaton)
    trace = remainder_chain(automaton)
    print(f"guessable={'true' if trace.guessable else 'false'}")
    print(f"rank={_rank_text(trace.rank)}")
    print(f"alpha_S={trace.alpha_s}")
    if args.trace:
        _print_stages(trace)
    return 0


def cmd_remainder(args: argparse.Namespace) -> int:
    automaton = _load(args.automaton)
    trace = remainder_chain(automaton)
    if args.trace:
        _print_stages(trace)
    print(f"alpha(S) = {trace.alpha_s}")
    print(f"S_infty_empty = {'true' if trace.guessable else 'false'}")
    if args.gaps:
        gaps = ",".join(str(a) for a in trace.gap_stages())
        print(f"gap_stages = {{{gaps}}}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    automaton = _load(args.automaton)
    try:
        ranked = synthesize(automaton)
    except NotGuessableError:
        print("guessable=false")
        print("rank=NOT_GUESSABLE")
        return 1
    text = formats.render_guesser(ranked.guesser, ranked)
    if args.output:
        _write(args.output, text)
        print(f"guesser={args.output}")
    else:
        sys.stdout.write(text)
    print(f"rank={ranked.codomain}")
    print(f"bound_ok={'true' if check_bound(ranked) else 'false'}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    budget = getattr(args, "budget", 0)
    if budget < 0:
        print("error: verify needs --budget >= 0", file=sys.stderr)
        return 2
    guesser, automaton, bound_ok = _load_pair(args)
    _check_alphabets(automaton, guesser)
    if not bound_ok:
        print("bound_ok=false")
        return 1
    witness = divergence_witness(guesser, automaton)
    if witness is not None:
        print(f"witness={witness}")
        return 1
    print("witness=NONE")
    if budget:
        # redundant spot check of the certificate on concrete words
        for word in itertools.islice(up_words(automaton.alphabet), budget):
            if not verify_on_up(guesser, automaton, word):
                print(f"witness={word}")
                return 1
        print(f"words={budget}")
    return 0


def _write_chain(chain, out_dir: str, stem: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for i, member in enumerate(chain.sets):
        name = f"{stem}_set{i}.aut"
        text = formats.render_automaton(member.to_parity())
        _write(os.path.join(out_dir, name), text)
        names.append(name)
    chain_path = os.path.join(out_dir, f"{stem}.chain")
    _write(chain_path, formats.render_chain(names))
    return chain_path


def cmd_diff_build(args: argparse.Namespace) -> int:
    chain, notes = formats.parse_chain(
        formats.read(args.chain), os.path.dirname(os.path.abspath(args.chain))
    )
    _print_notes(notes)
    level_set = d_theta(chain)
    # every file is written before any line is printed
    out = [f"theta={chain.theta_int}\n"]
    code = 0
    if args.emit in ("set", "both"):
        text = formats.render_automaton(level_set)
        if args.output:
            _write(args.output, text)
            text = f"set={args.output}\n"
        out.append(text)
    if args.emit in ("guesser", "both"):
        ranked = chain_to_guesser(chain)
        bound_ok = check_bound(ranked)
        witness = divergence_witness(ranked.guesser, level_set)
        if args.guesser_output:
            _write(args.guesser_output, formats.render_guesser(ranked.guesser, ranked))
            out.append(f"guesser={args.guesser_output}\n")
        out.append(f"bound_ok={'true' if bound_ok else 'false'}\n")
        out.append(f"witness={'NONE' if witness is None else witness}\n")
        if not bound_ok or witness is not None:
            code = 1
    sys.stdout.write("".join(out))
    return code


def _print_classified(args: argparse.Namespace, stem: str):
    """Classify `args.set`, print its rank, side and chain (its files
    named after `stem` in `args.out_dir`), and return set and outcome."""
    automaton = _load(args.set)
    outcome = classify(automaton)
    if outcome.chain is None:
        chain = "NONE"
    elif args.out_dir:  # the files are written before any line is printed
        chain = _write_chain(outcome.chain, args.out_dir, stem)
    else:
        chain = f"theta {outcome.chain.theta_int}"
    print(f"rank={_rank_text(outcome.rank)}")
    print(f"side={outcome.side.value}")
    print(f"chain={chain}")
    return automaton, outcome


def cmd_diff_extract(args: argparse.Namespace) -> int:
    automaton, outcome = _print_classified(args, "extracted")
    if outcome.chain is None:
        return 1
    target = (
        automaton if outcome.side in (Side.SELF, Side.BOTH) else complement(automaton)
    )
    round_trip = equivalent(d_theta(outcome.chain), target)
    print(f"round_trip={'true' if round_trip else 'false'}")
    return 0 if round_trip else 1


def cmd_classify(args: argparse.Namespace) -> int:
    _print_classified(args, "witness")
    return 0


def cmd_based_verify(args: argparse.Namespace) -> int:
    if args.budget < 1:
        print("error: based verify needs --budget >= 1", file=sys.stderr)
        return 2
    family, notes = formats.parse_family(
        formats.read(args.family), os.path.dirname(os.path.abspath(args.family))
    )
    _print_notes(notes)
    guesser, automaton, bound_ok = _load_pair(args)
    _check_based_alphabets(guesser, family, automaton)
    if not bound_ok:
        print("bound_ok=false")
        return 1
    for word in itertools.islice(up_words(automaton.alphabet), args.budget):
        if not verify_based(guesser, family, automaton, word):
            print("ok=false")
            print(f"witness={word}")
            return 1
    print("ok=true")
    print(f"words={args.budget}")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.k < 2 or args.d < 0:
        print("error: oracle check needs --k >= 2 and --d >= 0", file=sys.stderr)
        return 2
    if args.samples < 0:
        print("error: oracle check needs --samples >= 0", file=sys.stderr)
        return 2
    if args.words < 0:
        print("error: oracle check needs --words >= 0", file=sys.stderr)
        return 2
    if args.exhaustive or args.samples == 0:
        tables = exhaustive_tables(args.k, args.d)
    else:
        tables = draw_tables(args.k, args.d, args.samples, seed=args.seed)
    report = cross_validate(tables, word_length=args.words)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    text = formats.read(args.file)
    if formats.machine_kind(text) == "guesser":
        guesser, _, notes = formats.parse_guesser(text)
        dot = formats.guesser_to_dot(guesser)
    else:
        automaton, notes = formats.parse_automaton(text)
        dot = formats.to_dot(automaton)
    _print_notes(notes, f"{args.file}: ")
    sys.stdout.write(dot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guessable",
        description="guessers, mind-change ranks and difference hierarchies "
        "for automaton-represented sets of infinite sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="mind-change rank of a set")
    p.add_argument("automaton")
    p.add_argument("--trace", action="store_true", help="print the stage sets")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("remainder", help="remainder chain of a set")
    p.add_argument("automaton")
    p.add_argument("--trace", action="store_true", help="print the stage sets")
    p.add_argument(
        "--gaps",
        action="store_true",
        help="report stages whose word set is nonempty but carries no point",
    )
    p.set_defaults(func=cmd_remainder)

    p = sub.add_parser("synthesize", help="build the canonical ranked guesser")
    p.add_argument("automaton")
    p.add_argument("-o", "--output", help="write the guesser file here")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="certify a guesser against a set")
    p.add_argument("guesser")
    p.add_argument("set")
    p.add_argument(
        "--budget",
        type=int,
        default=0,
        help="also spot-check this many canonical UP words",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("witness", help="search for a diverging point")
    p.add_argument("guesser")
    p.add_argument("set")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diff", help="difference hierarchy conversions")
    diff_sub = p.add_subparsers(dest="diff_command", required=True)
    b = diff_sub.add_parser("build", help="chain file to level set / guesser")
    b.add_argument("chain")
    b.add_argument("--emit", choices=["set", "guesser", "both"], default="set")
    b.add_argument("-o", "--output", help="write the level-set automaton here")
    b.add_argument("--guesser-output", help="write the converted guesser here")
    b.set_defaults(func=cmd_diff_build)
    e = diff_sub.add_parser("extract", help="set to witnessing chain")
    e.add_argument("set")
    e.add_argument("--out-dir", help="directory for the chain files")
    e.set_defaults(func=cmd_diff_extract)

    p = sub.add_parser("classify", help="rank and hierarchy side of a set")
    p.add_argument("set")
    p.add_argument("--out-dir", help="directory for the witnessing chain")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("based", help="oracle-family guessing")
    based_sub = p.add_subparsers(dest="based_command", required=True)
    v = based_sub.add_parser("verify", help="check a bit guesser over a family")
    v.add_argument("family")
    v.add_argument("guesser")
    v.add_argument("set")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.set_defaults(func=cmd_based_verify)

    p = sub.add_parser("oracle", help="brute-force cross validation")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    c = oracle_sub.add_parser("check", help="compare pipeline against brute force")
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--d", type=int, default=3)
    c.add_argument("--samples", type=int, default=0, help="0 = exhaustive")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--exhaustive", action="store_true")
    c.add_argument(
        "--words", type=int, default=4, help="compare words up to this length"
    )
    c.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("export-dot", help="GraphViz rendering of a machine")
    p.add_argument("file")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        formats.FormatError,
        AlphabetMismatchError,
        BudgetExceededError,
        ChainNotIncreasingError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # written below, once the traceback lets go of what was half built
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
