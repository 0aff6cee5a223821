"""Depth-truncated brute force over explicit clopen tables.

This module recomputes word ranks and the canonical guesser on the
tree of words of length <= d, and exists to cross-check the automaton
pipeline.  The convention that makes the recursion terminate: below
depth d every subtree is membership-constant, so an infinite extension
stays inside a stage set exactly when all of its prefixes up to depth
d do.  That restricts the oracle to clopen sets by design; the
automaton route is the only way to non-clopen sets, and its validation
burden is carried by the cross checks below.

One kernel, `_levels`, gives every word of the tree its stage rank and
canonical guess: a bottom-up pass reads each word's rank and the
classes its extensions show in the last stage it lies in off its
children's, and a top-down pass turns those into the guesses.
`cross_validate` walks the automaton and the guesser along the same
tree, one transition per word, and compares the two with the kernel at
each word; it holds nothing larger than the tree, however long the
words it checks.  The stage-by-stage constructions the kernel replaces
are kept with the tests, in `tests/literal.py`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .guesser import MooreGuesser, synthesize
from .ordinal import INFINITY
from .remainder import RemainderTrace, remainder_chain
from .space import ClopenTable, Word, compile_clopen


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


def _levels(table: ClopenTable) -> list[tuple[list[int], list[int]]]:
    """The stage rank and the canonical guess of every word of length
    <= d: one pair of lists per length n, indexed by base-k code.

    A word in stage s keeps the classes of its in-stage children (its
    own class at a leaf) as a mask, bit 1 << c for class c, and survives
    while it has both, so its mask reads both at every stage but its
    last.  A node is thus summed up by its rank and its last-stage mask,
    read off its children in one bottom-up pass: a leaf leaves at stage
    1 with its class; an inner node whose children reach rank R at most
    sees both classes up to stage R - 2 and, at stage R - 1, the union
    of the last masks of its rank-R children.  With both it lasts one
    stage more and leaves at R + 1 with none; otherwise it leaves at R
    with that union.  The guess is the one class of the last mask, or
    the parent's guess when there is none (0 at the root)."""
    k = table.alphabet
    ranks = [1] * len(table.values)
    masks = [1 << v for v in table.values]
    bottom_up = [(ranks, masks)]
    for _ in range(table.depth):
        parent_ranks, parent_masks = [], []
        for i in range(0, len(ranks), k):
            top = max(ranks[i : i + k])
            mask = 0
            for r, m in zip(ranks[i : i + k], masks[i : i + k]):
                if r == top:
                    mask |= m
            if mask == 3:
                top, mask = top + 1, 0
            parent_ranks.append(top)
            parent_masks.append(mask)
        ranks, masks = parent_ranks, parent_masks
        bottom_up.append((ranks, masks))
    levels = []
    guesses = [0]
    for ranks, masks in reversed(bottom_up):
        guesses = [m >> 1 if m else guesses[i // k] for i, m in enumerate(masks)]
        levels.append((ranks, guesses))
    return levels


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
    """For each table, compare the rank of every word of length <=
    `word_length` in the automaton's remainder trace with its stage rank
    here, and the synthesized guesser's output there with the canonical
    guess here.  Mismatches are listed table by table, each table's
    words in `words_up_to` order."""
    report = CrossValidationReport()
    for table in tables:
        report.tables_checked += 1
        automaton = compile_clopen(table)
        trace = remainder_chain(automaton)
        if not trace.guessable:
            report.rank_infinite.append(table)
            continue
        guesser = synthesize(automaton).guesser
        ranks, guesses = _mismatches(table, trace, guesser, word_length)
        k = table.alphabet
        report.rank_mismatches += [(table, _word(k, n, c)) for n, c in ranks]
        report.guess_mismatches += [(table, _word(k, n, c)) for n, c in guesses]
    return report


def _mismatches(
    table: ClopenTable, trace: RemainderTrace, guesser: MooreGuesser, length: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Two lists of the words of length <= `length`, as (length, code)
    pairs in `words_up_to` order: those whose state's rank in the trace
    differs from their stage rank, and those whose guesser state's
    output differs from their canonical guess.  The words are walked
    depth first, a word's states its parent's stepped by its last
    symbol, so the stack holds at most k words per length; below depth
    d a word has rank 1 and its parent's guess, the class of its
    depth-d prefix."""
    k, d = table.alphabet, table.depth
    delta, g_delta, output = trace.subject.delta, guesser.delta, guesser.output
    rank = {
        q: None if r is INFINITY else r.to_int() for q, r in trace.state_rank.items()
    }
    levels = _levels(table)
    ranks_off: list[tuple[int, int]] = []
    guesses_off: list[tuple[int, int]] = []
    stack = [(trace.subject.start, guesser.start, 0, 0, 0)]
    while stack:
        q, g, n, code, b = stack.pop()
        if n <= d:
            r, b = levels[n][0][code], levels[n][1][code]
        else:
            r = 1
        if rank[q] != r:
            ranks_off.append((n, code))
        if output[g] != b:
            guesses_off.append((n, code))
        if n < length:
            for a, (p, h) in enumerate(zip(delta[q], g_delta[g])):
                stack.append((p, h, n + 1, code * k + a, b))
    return sorted(ranks_off), sorted(guesses_off)


def _word(alphabet: int, length: int, code: int) -> Word:
    """The word of the given length whose base-k code is `code`."""
    symbols = []
    for _ in range(length):
        code, a = divmod(code, alphabet)
        symbols.append(a)
    return tuple(reversed(symbols))
