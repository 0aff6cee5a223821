"""Depth-truncated brute force over explicit clopen tables.

This module recomputes stage sets, word ranks and the canonical
guesser directly from their definitions on the tree of words of
length <= d, and exists to cross-check the automaton pipeline.  The
stage sets are built once per table, as the chain is iterated, and the
guesser's case split reads the stage it names from them; it runs once
per word per table, each word reading its parent's guess.  The
convention that makes the literal recursion terminate: below depth d
every subtree is membership-constant, so an infinite extension stays
inside a stage set exactly when all of its prefixes up to depth d do.
That restricts the oracle to clopen sets by design; the automaton
route is the only way to non-clopen sets, and its validation burden
is carried by the cross checks below.

Only the cross checks here are part of the package: the literal
stage-by-stage iteration of the remainder chain on automaton states,
the guesser that rebuilds each stage from the word ranks and the
guesser that walks one word's prefixes, the references for the trace,
the kept stages and the one sweep per table, are read by the tests
alone and are kept with them in `tests/literal.py`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator

from .guesser import evaluate, synthesize
from .ordinal import INFINITY
from .remainder import remainder_chain, word_rank
from .space import ClopenTable, Word, compile_clopen, words_up_to


class BudgetExceededError(ValueError):
    """Raised when a sweep would build too many tables or too large a one."""


# cells in one table: 2^16 tables for an exhaustive sweep, and a
# sampled table small enough to compile and cross-check
ENUMERATION_CELL_BUDGET = 16
SAMPLE_CELL_BUDGET = 4096


def _cells(alphabet: int, depth: int, budget: int, what: str) -> int:
    """alphabet**depth, checked against a cell budget before anything of
    that size is built."""
    if depth * (alphabet.bit_length() - 1) > 5000:
        # at least 2^5000 cells: over any budget, and the power is not
        # computed, since it may be too long to print
        raise BudgetExceededError(
            f"{alphabet}^{depth} cells exceeds the {what} budget"
        )
    cells = alphabet**depth
    if cells > budget:
        raise BudgetExceededError(
            f"{alphabet}^{depth} = {cells} cells exceeds the {what} budget"
        )
    return cells


@dataclass(frozen=True)
class TruncatedTree:
    """Stage ranks of every node of the depth-d word tree, computed by
    running the stage step until the node set stops shrinking, and the
    stages themselves: `stages[i]` is `{w : ranks[w] > i}`, from every
    word of length <= d down to the empty one at `least_empty_stage`."""

    table: ClopenTable
    ranks: dict[Word, int]
    least_empty_stage: int
    stages: tuple[frozenset[Word], ...]

    def rank_of(self, word: Word) -> int:
        """Rank of an arbitrary word; beyond depth d the subtree is
        homogeneous, so the word leaves the chain at stage 1."""
        if len(word) <= self.table.depth:
            return self.ranks[word]
        return 1


def _extension_classes(
    table: ClopenTable, node: Word, stage: AbstractSet[Word]
) -> set[int]:
    """Membership classes of infinite extensions of `node`, a word of
    `stage`, that stay in it: classes of depth-d descendants whose whole
    prefix path lies in the stage."""
    k, d = table.alphabet, table.depth
    classes: set[int] = set()
    frontier = [node]
    for _ in range(d - len(node)):
        nxt = []
        for w in frontier:
            for a in range(k):
                child = w + (a,)
                if child in stage:
                    nxt.append(child)
        frontier = nxt
    for leaf in frontier:
        classes.add(table.lookup(leaf))
        if len(classes) == 2:
            break
    return classes


def truncated_remainder(table: ClopenTable) -> TruncatedTree:
    """Stagewise word-level chain, literally: a node survives into the
    next stage iff extensions of both classes remain available through
    the current stage."""
    stage = frozenset(words_up_to(table.alphabet, table.depth))
    stages = [stage]
    ranks: dict[Word, int] = {}
    while stage:
        survivors = frozenset(
            w for w in stage if len(_extension_classes(table, w, stage)) == 2
        )
        if survivors == stage:
            raise AssertionError("clopen stage chain failed to empty")
        for w in stage - survivors:
            ranks[w] = len(stages)
        stages.append(survivors)
        stage = survivors
    return TruncatedTree(table, ranks, len(stages) - 1, tuple(stages))


def truncated_guesser(table: ClopenTable) -> dict[Word, int]:
    """The canonical guesser on words of length <= d+1, by the literal
    case split: with extensions available inside the previous stage,
    output their common class; with none, inherit the parent's output
    (0 at the root)."""
    return _guesses(table, truncated_remainder(table), table.depth + 1)


def _guesses(table: ClopenTable, tree: TruncatedTree, length: int) -> dict[Word, int]:
    """The guess at each word of length <= `length`, its parent's first."""
    out: dict[Word, int] = {}
    for word in words_up_to(table.alphabet, length):
        out[word] = _guess_at(table, tree, word, out)
    return out


def _guess_at(
    table: ClopenTable,
    tree: TruncatedTree,
    word: Word,
    memo: dict[Word, int],
) -> int:
    if len(word) > table.depth:
        # homogeneous below depth d: the one available class wins
        return table.lookup(word)
    # stage r - 1 for the word's rank r: the last stage it lies in
    classes = _extension_classes(table, word, tree.stages[tree.rank_of(word) - 1])
    if len(classes) == 2:
        raise AssertionError("rank mismatch: both classes at a ranked node")
    if classes:
        return classes.pop()
    if word:
        return memo[word[:-1]]
    return 0


def exhaustive_tables(alphabet: int, depth: int) -> Iterator[ClopenTable]:
    """Every depth-d table once; budget-limited to 2^(k^d) <= 2^16."""
    cells = _cells(alphabet, depth, ENUMERATION_CELL_BUDGET, "enumeration")
    for values in itertools.product((0, 1), repeat=cells):
        yield ClopenTable(alphabet=alphabet, depth=depth, values=values)


def draw_tables(
    alphabet: int, depth: int, count: int, seed: int = 0
) -> Iterator[ClopenTable]:
    """Seeded random depth-d tables (with replacement), each drawn when
    it is read; the sampling budget of cells is checked at the call."""
    cells = _cells(alphabet, depth, SAMPLE_CELL_BUDGET, "sampling")
    rng = random.Random(seed)
    return (
        ClopenTable(
            alphabet=alphabet,
            depth=depth,
            values=tuple(rng.randint(0, 1) for _ in range(cells)),
        )
        for _ in range(count)
    )


def sample_tables(
    alphabet: int, depth: int, count: int, seed: int = 0
) -> list[ClopenTable]:
    """The tables of `draw_tables`, as a list."""
    return list(draw_tables(alphabet, depth, count, seed))


@dataclass
class CrossValidationReport:
    """Outcome of checking the automaton pipeline against this module."""

    tables_checked: int = 0
    rank_mismatches: list[tuple[ClopenTable, Word]] = field(default_factory=list)
    guess_mismatches: list[tuple[ClopenTable, Word]] = field(default_factory=list)
    rank_infinite: list[ClopenTable] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.rank_mismatches or self.guess_mismatches or self.rank_infinite
        )

    def summary_lines(self) -> list[str]:
        return [
            f"tables_checked={self.tables_checked}",
            f"rank_agreement={'pass' if not self.rank_mismatches else 'FAIL'}",
            f"guesser_agreement={'pass' if not self.guess_mismatches else 'FAIL'}",
            f"finite_rank={'pass' if not self.rank_infinite else 'FAIL'}",
        ]


def cross_validate(
    tables: Iterable[ClopenTable],
    word_length: int = 4,
) -> CrossValidationReport:
    """For each table, compare word ranks and guesser outputs between
    the literal recursion here and the automaton pipeline; the case
    split runs once per word of length <= min(word_length, d)."""
    report = CrossValidationReport()
    for table in tables:
        report.tables_checked += 1
        automaton = compile_clopen(table)
        trace = remainder_chain(automaton)
        tree = truncated_remainder(table)
        if not trace.guessable:
            report.rank_infinite.append(table)
            continue
        ranked = synthesize(automaton)
        guesses = _guesses(table, tree, min(word_length, table.depth))
        for word in words_up_to(table.alphabet, word_length):
            want = tree.rank_of(word)
            got = word_rank(trace, word)
            if got is INFINITY or got.to_int() != want:
                report.rank_mismatches.append((table, word))
            guess = guesses[word] if word in guesses else table.lookup(word)
            if evaluate(ranked.guesser, word) != guess:
                report.guess_mismatches.append((table, word))
    return report
