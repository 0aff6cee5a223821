"""The literal references the tests compare the library against, each
kept once and built from nothing it checks.

- The graph kernels the one-pass remainder trace and the refinement
  search `cycles.cycle_components` replaced: a component carries a
  cycle, the backward closure, the nodes on some cycle, and one SCC
  pass per priority for the cycles of each maximum priority of one
  parity.  They read only `strongly_connected_components`.
- `literal_divergence_witness`, the guesser-set product search with
  one SCC pass for oscillating cycles and, for each opinion, the
  per-priority components of the wrong-side parity, the reference for
  the single refinement search of `guesser.divergence_witness`.
- `literal_remainder_chain`, the stage-by-stage iteration of the
  remainder chain on automaton states, the reference for the trace.
- `literal_truncated_remainder`, the stage-by-stage iteration of the
  chain on the depth-d word tree, each node's extension classes read
  off its whole subtree (`_extension_classes`), kept as a `StageTree`:
  the reference for the ranks of the one bottom-up pass
  `oracle._levels`.
- `guesser_value`, the guesser's case split (`_guess_at`) at one word,
  run afresh on each of its prefixes with the stages the tree keeps,
  and `literal_guesser_value`, the same split with each stage rebuilt
  from the word ranks: the references for the guesses of
  `oracle._levels` and of the walk in `oracle.cross_validate`.
- `product_boolean`, the index-appearance-record boolean product, the
  reference for equivalence, emptiness, `open_subset` and
  `open_union`.
- `literal_family_bits`, each oracle family's membership bit read
  one member at a time, the reference for the stream word
  `OracleFamily.stream` builds.
- `literal_canonical_up_words`, the enumeration that keeps a set of
  the words it has listed, the reference for the stream
  `space.up_words`.
- `literal_cylinder` and `literal_compile_clopen`, the clopen table of
  a cylinder by a base-k encoding loop and the prefix tree numbered
  through a list of its words and an index dict, the references for
  the closed forms of `space.cylinder` and `space.compile_clopen`.

The file is named so that pytest does not collect it; the test modules
import it by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Literal, Sequence

from guessable.based_guessing import CylinderFamily, OracleFamily
from guessable.cycles import (
    Node,
    explore,
    shortest_word_path,
    strongly_connected_components,
)
from guessable.guesser import MooreGuesser
from guessable.ordinal import INFINITY, Rank, from_int
from guessable.remainder import RemainderTrace
from guessable.space import (
    ClopenTable,
    ParitySet,
    UPWord,
    Word,
    _check_alphabets,
    _check_symbols,
    _check_word,
    complement,
    membership_up,
    product,
    words_up_to,
)

# -- graph kernels ----------------------------------------------------------


def is_nontrivial(component: Sequence[Node], succ: Sequence) -> bool:
    """The component carries a cycle: more than one node, or a self-loop."""
    if len(component) > 1:
        return True
    node = component[0]
    return node in succ[node]


def backward_closure(targets: Iterable[Node], nodes: set, succ: Sequence) -> set:
    """Nodes inside `nodes` from which a target is reachable without
    leaving `nodes`."""
    pred: dict[Node, list[Node]] = {n: [] for n in nodes}
    for n in nodes:
        for m in succ[n]:
            if m in nodes:
                pred[m].append(n)
    seen = {t for t in targets if t in nodes}
    stack = list(seen)
    while stack:
        n = stack.pop()
        for p in pred[n]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def cycle_nodes(nodes: set, succ: Sequence) -> set:
    """Nodes lying on some cycle inside `nodes`."""
    out: set = set()
    for comp in strongly_connected_components(nodes, succ):
        if is_nontrivial(comp, succ):
            out.update(comp)
    return out


def parity_components(
    nodes: set, succ: Sequence, priority: Callable[[Node], int], want: int
):
    """Yield `(component, p)` for each priority p of parity `want`
    (0/1), increasing, and each nontrivial SCC of the priority<=p
    subgraph that visits a priority-p node: a cycle has maximum priority
    p iff it lies in one of these components and visits such a node.
    """
    for p in sorted({priority(n) for n in nodes}):
        if p % 2 != want:
            continue
        sub = {n for n in nodes if priority(n) <= p}
        for comp in strongly_connected_components(sub, succ):
            if is_nontrivial(comp, succ) and any(priority(n) == p for n in comp):
                yield comp, p


def parity_cycle_nodes(
    nodes: set, succ: Sequence, priority: Callable[[Node], int], want: int
) -> set:
    """Nodes on a cycle whose maximum priority has parity `want` (0/1)."""
    result: set = set()
    for comp, _ in parity_components(nodes, succ, priority, want):
        result.update(comp)
    return result


def can_reach_parity_cycle(
    nodes: set, succ: Sequence, priority: Callable[[Node], int], want: int
) -> set:
    """Nodes from which a cycle with max-priority parity `want` is
    reachable without leaving `nodes`."""
    anchors = parity_cycle_nodes(nodes, succ, priority, want)
    return backward_closure(anchors, nodes, succ)


# -- the remainder chain ------------------------------------------------------


def literal_remainder_chain(s: ParitySet) -> RemainderTrace:
    """The remainder trace by iterating the both-continuations step to
    its fixpoint, one stage at a time, with every per-state value read
    off the stages literally: a state's rank is the first stage it is
    missing from, and its accepting (rejecting) value counts the
    stages in which it still reaches an accepting (rejecting) cycle
    without leaving the stage."""
    reach = s.reachable_states()
    succ = s.delta
    prio = lambda q: s.priority[q]

    chain = [frozenset(reach)]
    reaching: list[tuple[set, set]] = []
    while True:
        current = set(chain[-1])
        acc = can_reach_parity_cycle(current, succ, prio, want=0)
        rej = can_reach_parity_cycle(current, succ, prio, want=1)
        reaching.append((acc, rej))
        nxt = frozenset(acc & rej)
        if nxt == chain[-1]:
            break
        chain.append(nxt)

    fixpoint = chain[-1]

    def count(q: int, stage_sets) -> Rank:
        if q in fixpoint:
            return INFINITY
        return from_int(sum(1 for sets in stage_sets if q in sets))

    return RemainderTrace(
        subject=s,
        alpha_s=from_int(len(chain) - 1),
        state_rank={q: count(q, chain) for q in reach},
        accept_rank={q: count(q, [acc for acc, _ in reaching]) for q in reach},
        reject_rank={q: count(q, [rej for _, rej in reaching]) for q in reach},
    )


# -- the divergence witness --------------------------------------------------


def literal_divergence_witness(g: MooreGuesser, s: ParitySet) -> UPWord | None:
    """The least counterexample u(v) by (|u| + |v|, |u|, u, v) among
    the candidates of three searches of the guesser-set product: each
    nontrivial SCC holding both opinions, anchored at its least node
    with a period to the other opinion and back; and for each opinion
    b, each component of `parity_components` of parity b inside the
    nodes of opinion b, anchored at its least top-priority node with
    its shortest closed walk.  None when there is no candidate."""
    _check_alphabets(s, g)
    order, rows = product(g, s)
    # the access word of each node along its breadth-first tree edge
    access: list[Word | None] = [()] + [None] * (len(order) - 1)
    for i, row in enumerate(rows):
        for a, j in enumerate(row):
            if access[j] is None:
                access[j] = access[i] + (a,)
    out = [g.output[p] for p, _ in order]
    prio = [s.priority[q] for _, q in order]

    candidates: list[tuple[int, int, Word, Word]] = []

    def add(anchor: int, period: Word) -> None:
        u = access[anchor]
        candidates.append((len(u) + len(period), len(u), u, period))

    for comp in strongly_connected_components(set(range(len(order))), rows):
        comp_set = set(comp)
        other = {n for n in comp if out[n] != out[comp[0]]}
        if other:
            leg1 = shortest_word_path(comp[0], other, comp_set, rows)
            assert leg1 is not None
            leg2 = shortest_word_path(leg1[1], {comp[0]}, comp_set, rows)
            assert leg2 is not None
            add(comp[0], leg1[0] + leg2[0])
    for b in (0, 1):
        sub = {n for n in range(len(order)) if out[n] == b}
        for comp, p in parity_components(sub, rows, prio.__getitem__, want=b):
            anchor = min(n for n in comp if prio[n] == p)
            loop = shortest_word_path(anchor, {anchor}, set(comp), rows)
            assert loop is not None
            add(anchor, loop[0])
    if not candidates:
        return None
    _, _, u, v = min(candidates)
    return UPWord(u, v)


# -- the truncated word tree -------------------------------------------------


@dataclass(frozen=True)
class StageTree:
    """Stage ranks of every node of the depth-d word tree and the stages
    themselves: `stages[i]` is `{w : ranks[w] > i}`, from every word of
    length <= d down to the empty one at `least_empty_stage`."""

    depth: int
    ranks: dict[Word, int]
    least_empty_stage: int
    stages: tuple[frozenset[Word], ...]

    def rank_of(self, word: Word) -> int:
        """Rank of an arbitrary word; beyond depth d the subtree is
        homogeneous, so the word leaves the chain at stage 1."""
        if len(word) <= self.depth:
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


def literal_truncated_remainder(table: ClopenTable) -> StageTree:
    """The stagewise word-level chain, literally: a node survives into
    the next stage iff extensions of both classes remain available
    through the current stage, each read off the node's whole subtree."""
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
    return StageTree(table.depth, ranks, len(stages) - 1, tuple(stages))


def _guess_at(
    table: ClopenTable,
    tree: StageTree,
    word: Word,
    memo: dict[Word, int],
) -> int:
    """The guesser's case split at one word, its parent's guess in
    `memo`: with extensions available inside stage r - 1 for the word's
    rank r, the last stage it lies in, their common class; with none,
    the parent's guess (0 at the root); below depth d, the table's
    class."""
    if len(word) > table.depth:
        return table.lookup(word)
    classes = _extension_classes(table, word, tree.stages[tree.rank_of(word) - 1])
    if len(classes) == 2:
        raise AssertionError("rank mismatch: both classes at a ranked node")
    if classes:
        return classes.pop()
    if word:
        return memo[word[:-1]]
    return 0


def guesser_value(table: ClopenTable, tree: StageTree, word: Word) -> int:
    """The canonical guesser at a single word of any length, by the
    case split on each of its prefixes in turn."""
    out: dict[Word, int] = {}
    for i in range(len(word) + 1):
        prefix = word[:i]
        out[prefix] = _guess_at(table, tree, prefix, out)
    return out[word]


def literal_guesser_value(table: ClopenTable, tree: StageTree, word: Word) -> int:
    """The canonical guesser at `word` by the case split of `_guess_at`, with
    stage r - 1 for each prefix's rank r rebuilt by scanning the rank
    of every word of length <= d."""
    out: dict[Word, int] = {}
    for i in range(len(word) + 1):
        prefix = word[:i]
        if len(prefix) > table.depth:
            out[prefix] = table.lookup(prefix)
            continue
        rank = tree.rank_of(prefix)
        stage_prev = {
            w
            for w in words_up_to(table.alphabet, table.depth)
            if tree.rank_of(w) > rank - 1
        }
        classes = _extension_classes(table, prefix, stage_prev)
        assert len(classes) < 2, "rank mismatch: both classes at a ranked node"
        if classes:
            out[prefix] = classes.pop()
        elif prefix:
            out[prefix] = out[prefix[:-1]]
        else:
            out[prefix] = 0
    return out[word]


# -- oracle family streams ---------------------------------------------------


def literal_family_bits(family: OracleFamily, w: UPWord, n: int) -> Word:
    """The first n bits of the family's membership stream at w, bit i
    the membership of w in member i.  Member i*k+j of the cylinder
    family holds the points whose symbol at position i is j; member i
    of an explicit family is prefix[i], then the cycle in turn."""
    _check_word(w, family.alphabet)
    if isinstance(family, CylinderFamily):
        k = family.alphabet
        return tuple(int(w.symbol(i // k) == i % k) for i in range(n))
    p, c = len(family.prefix), len(family.cycle)
    members = (
        family.prefix[i] if i < p else family.cycle[(i - p) % c] for i in range(n)
    )
    return tuple(membership_up(m, w) for m in members)


# -- clopen tables ----------------------------------------------------------


def literal_cylinder(s: Word, alphabet: int = 2) -> ClopenTable:
    """The cylinder of s as a table: 1 at the base-k code of s, 0
    elsewhere."""
    _check_symbols(s, alphabet)
    values = [0] * alphabet ** len(s)
    code = 0
    for a in s:
        code = code * alphabet + a
    values[code] = 1
    return ClopenTable(alphabet=alphabet, depth=len(s), values=tuple(values))


def literal_compile_clopen(t: ClopenTable) -> ParitySet:
    """The prefix tree of depth d, its words listed shortest first and
    numbered through an index dict, feeding the accepting and then the
    rejecting sink."""
    k = t.alphabet
    if t.depth == 0:
        accept = t.values[0] == 1
        return ParitySet(
            alphabet=k,
            start=0,
            delta=((0,) * k,),
            priority=(2 if accept else 1,),
        )
    internal: list[Word] = []
    for n in range(t.depth):
        internal.extend(itertools.product(range(k), repeat=n))
    index = {w: i for i, w in enumerate(internal)}
    acc = len(internal)
    rej = acc + 1
    rows: list[tuple[int, ...]] = []
    for w in internal:
        row = []
        for a in range(k):
            child = w + (a,)
            if len(child) < t.depth:
                row.append(index[child])
            else:
                row.append(acc if t.lookup(child) == 1 else rej)
        rows.append(tuple(row))
    rows.append((acc,) * k)
    rows.append((rej,) * k)
    priority = tuple([1] * len(internal) + [2, 1])
    return ParitySet(alphabet=k, start=0, delta=tuple(rows), priority=priority)


# -- canonical UP words ------------------------------------------------------


def literal_canonical_up_words(alphabet: int, count: int) -> list[UPWord]:
    """The first `count` distinct UP words over the alphabet, ordered by
    total spelled length, then prefix length, then symbols."""
    out: list[UPWord] = []
    seen: set[UPWord] = set()
    total = 1
    while len(out) < count:
        for plen in range(1, total + 1):
            ulen = total - plen
            for u in itertools.product(range(alphabet), repeat=ulen):
                for v in itertools.product(range(alphabet), repeat=plen):
                    w = UPWord(u, v)
                    if w not in seen:
                        seen.add(w)
                        out.append(w)
                        if len(out) == count:
                            return out
        total += 1
    return out


# -- boolean products -----------------------------------------------
#
# The reference construction that the tests compare the decision
# procedures against; no decision procedure builds it.  Complement is
# free (bump priorities).  Intersection is the real construction: the
# conjunction of two max-even parity conditions is a Streett condition
# (one pair per odd priority per side), and a deterministic Streett
# condition turns back into a parity condition with an index
# appearance record, whose size is factorial in the number of
# priorities.  The record keeps pair indices ordered by how recently
# they were granted; a request strictly in front of every grant is a
# suspicious event and emits an odd priority, a grant at the frontmost
# touched position emits an even one.  Union, difference and xor
# reduce to intersection and complement.  Pointwise correctness on all
# UP words is exercised exhaustively in the test suite.

BooleanOp = Literal["and", "or", "xor", "diff"]


def product_boolean(s: ParitySet, t: ParitySet, op: BooleanOp) -> ParitySet:
    _check_alphabets(s, t)
    if op == "and":
        return _intersection(s, t)
    if op == "or":
        return complement(_intersection(complement(s), complement(t)))
    if op == "diff":
        return _intersection(s, complement(t))
    if op == "xor":
        return product_boolean(
            product_boolean(s, t, "diff"), product_boolean(t, s, "diff"), "or"
        )
    raise ValueError(f"unknown boolean op {op!r}")


def _intersection(s: ParitySet, t: ParitySet) -> ParitySet:
    k = s.alphabet
    pairs: list[tuple[int, int]] = []
    for o in sorted({p for p in s.priority if p % 2 == 1}):
        pairs.append((0, o))
    for o in sorted({p for p in t.priority if p % 2 == 1}):
        pairs.append((1, o))
    npairs = len(pairs)

    def events(sq: int, tq: int) -> tuple[set[int], set[int]]:
        prios = (s.priority[sq], t.priority[tq])
        grants = {j for j, (side, o) in enumerate(pairs) if prios[side] > o}
        requests = {j for j, (side, o) in enumerate(pairs) if prios[side] == o}
        return grants, requests

    def emit(record: tuple[int, ...], grants: set[int], requests: set[int]) -> int:
        pos = {j: i + 1 for i, j in enumerate(record)}
        g = min((pos[j] for j in grants), default=None)
        r = min((pos[j] for j in requests), default=None)
        if g is None and r is None:
            return 0
        if g is not None and (r is None or g <= r):
            return 2 * (npairs + 1 - g)
        return 2 * (npairs + 1 - r) - 1

    def advance(record: tuple[int, ...], grants: set[int]) -> tuple[int, ...]:
        stay = tuple(j for j in record if j not in grants)
        moved = tuple(j for j in record if j in grants)
        return stay + moved

    prio: list[int] = []

    def successors(key: tuple[int, int, tuple[int, ...]]):
        sq, tq, record = key
        grants, requests = events(sq, tq)
        prio.append(emit(record, grants, requests))
        rec_next = advance(record, grants)
        return [(ns, nt, rec_next) for ns, nt in zip(s.delta[sq], t.delta[tq])]

    _, rows = explore((s.start, t.start, tuple(range(npairs))), successors)
    return ParitySet(alphabet=k, start=0, delta=tuple(rows), priority=tuple(prio))
