"""Cycle and reachability analysis on small state graphs.

Everything here works on an explicit node set of state numbers plus
rows indexed by state, ``succ[q] -> iterable of states``: a machine's
`delta` or the rows `explore` returns, passed as they are.  Edges
leaving the node set are ignored.  All outputs are deterministic.

A call costs what its node set and their edges cost: it reads the rows
of its nodes only and never sizes anything by ``len(succ)``, so the
searches below a top priority, which run on small subsets of a large
graph, stay as cheap as the subsets.

`explore` is the one builder of reachable products: it numbers the
keys reachable from a start key in breadth-first discovery order and
returns the numbered transition rows, from which every product
construction (the plain product of machines, the canonical guesser,
chain and bound conversions) assembles its machine and on which every
search here runs.

`cycle_components` is the one search for cycles of a wanted kind, by
Emerson-Lei refinement: split into SCCs, drop the nodes of a top
label, and split what is left again, yielding each component whose
tops have the wanted parities.  A kind names a parity for the maximum
of each of some labels along the cycle: emptiness asks for an even
maximum priority, equivalence for a cycle whose two sides' maxima
differ in parity, the remainder ranks for the parity a component's
top does not give, and `open_subset` for any cycle at all.  `has_cycle`
asks whether it yields anything; the divergence witness asks for three
kinds on the whole guesser-set product, over its opinion, the flipped
opinion and the priority: both opinions (an oscillating cycle), opinion
0 under an even top, and opinion 1 under an odd top (a constant opinion
on the wrong side).  None of them builds a parity product.

A component of one state is decided from that state alone, here and
in both folds over the condensation: its only possible cycle is its
self-loop, on which every label's top is the state's own label, and
nothing lies below that top to search again.  Most components are
single states, and each then costs one row lookup instead of a set, a
maximum over its members and a second search.  The folds read the
order `strongly_connected_components` emits, each component after
every one it reaches, so they keep no member sets.

`shortest_word_path` is the one speller of words: it gives a path's
symbols as positions in the rows.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Sequence

Node = Hashable
# (label, parity) pairs: a cycle is of the kind when the maximum of each
# label along it has that parity; the empty kind takes any cycle
Kind = Sequence[tuple[Sequence[int], int]]


def explore(
    start: Node, successors: Callable[[Node], Iterable[Node]]
) -> tuple[list[Node], list[tuple[int, ...]]]:
    """Number the keys reachable from `start` in breadth-first discovery
    order.

    `successors(key)` lists a key's successors in symbol order; it is
    called exactly once per key, in numbering order, so it may record
    per-key labels as it goes.  Returns `(order, rows)`: `order[i]` is
    the key numbered i and `rows[i]` the numbers of its successors.
    """
    index = {start: 0}
    order = [start]
    rows = []
    for key in order:  # grows while it is walked
        row = []
        for nxt in successors(key):
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(order)
                order.append(nxt)
            row.append(i)
        rows.append(tuple(row))
    return order, rows


def forward_closure(starts: Iterable[Node], nodes: set, succ: Sequence) -> set:
    """Nodes reachable from starts without leaving `nodes`."""
    seen = {s for s in starts if s in nodes}
    stack = list(seen)
    while stack:
        for m in succ[stack.pop()]:
            if m not in seen and m in nodes:
                seen.add(m)
                stack.append(m)
    return seen


def strongly_connected_components(nodes: set, succ: Sequence) -> list[list[Node]]:
    """Tarjan's algorithm (Tarjan, "Depth-first search and linear graph
    algorithms", SIAM J. Comput. 1, 1972), iterative, roots taken in
    increasing order and successors in row order.  Components come out
    in the order Tarjan completes them, each one sorted.

    `index` holds 0 for a node not yet visited, its visit number while
    it is on the stack, and `done` (above every visit number) once its
    component is out, so one comparison stands for the on-stack test.
    """
    index = dict.fromkeys(nodes, 0)
    done = len(index) + 1
    low: dict[Node, int] = {}
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0
    for root in sorted(index):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        # (node, its remaining successors, its position on the stack)
        work = [(root, iter(succ[root]), len(stack))]
        stack.append(root)
        while work:
            node, children, pos = work[-1]
            for child in children:
                i = index.get(child)
                if i is None:  # outside the node set
                    continue
                if not i:
                    counter += 1
                    index[child] = low[child] = counter
                    work.append((child, iter(succ[child]), len(stack)))
                    stack.append(child)
                    break
                if i < low[node]:
                    low[node] = i
            else:
                work.pop()
                lowest = low[node]
                if lowest == index[node]:
                    if pos == len(stack) - 1:  # one node: no slice or sort
                        stack.pop()
                        index[node] = done
                        components.append([node])
                    else:
                        comp = stack[pos:]
                        del stack[pos:]
                        for member in comp:
                            index[member] = done
                        comp.sort()
                        components.append(comp)
                elif lowest < low[work[-1][0]]:
                    # a node that is not a component's root has a parent
                    low[work[-1][0]] = lowest
    return components


def cycle_components(
    nodes: set, succ: Sequence, kinds: Sequence[Kind]
) -> Iterator[list[Node]]:
    """Yield the components of the Emerson-Lei refinement inside `nodes`
    whose top of every label of one of the `kinds` has that label's
    parity (0/1), once for each such kind.  A kind is a list of
    `(label, parity)` pairs, each label a sequence indexed by state; a
    cycle is of that kind when the maximum of every label along it has
    the paired parity, and the empty kind takes any cycle.

    One SCC pass is shared by all kinds.  A nontrivial SCC whose tops
    all have the wanted parities has a cycle through all of its nodes
    and is yielded.  Otherwise no cycle of that kind passes through the
    top nodes of the first label of the wrong parity.  Either way the
    top nodes of the last label read (after a match, the kind's last
    one) are dropped and the rest is searched again for that kind
    alone, unless no node of the rest has that label's wanted parity;
    a match of the empty kind has no label and ends its search.
    So for one label each yielded component with top p is the SCC of
    the priority <= p nodes that holds it, and every such SCC that
    holds a p-node and a cycle is yielded.
    """
    pending = [(set(nodes), kinds)]
    while pending:
        sub, wanted = pending.pop()
        for comp in strongly_connected_components(sub, succ):
            if len(comp) == 1:
                # its one possible cycle is a self-loop, on which every
                # label's top is the node's own, with nothing below it
                node = comp[0]
                if node in succ[node]:
                    for kind in wanted:
                        for label, parity in kind:
                            if label[node] % 2 != parity:
                                break
                        else:
                            yield comp
                continue
            for kind in wanted:
                for label, parity in kind:
                    top = max(map(label.__getitem__, comp))
                    if top % 2 != parity:
                        break
                else:
                    yield comp
                    if not kind:  # any cycle: no top to search below
                        continue
                below = {n for n in comp if label[n] < top}
                # a cycle of the kind below needs a top of the wanted
                # parity there, so a set without such a node is dropped
                if any(label[n] % 2 == parity for n in below):
                    pending.append((below, [kind]))


def has_cycle(nodes: set, succ: Sequence, kinds: Sequence[Kind]) -> bool:
    """True iff some cycle inside `nodes` is of one of the `kinds`."""
    return next(cycle_components(nodes, succ, kinds), None) is not None


def shortest_word_path(
    start: Node, goals: set, nodes: set, succ: Sequence
) -> tuple[tuple[int, ...], Node] | None:
    """BFS for the shortest (then lexicographically least) nonempty
    symbol word leading from start to a goal node inside `nodes`; the
    symbols are the positions in each row `succ[q]`.

    The empty word is never a solution, even if start is a goal, which
    is how closed walks are found.
    """
    # each reached node keeps the edge it was first reached by; the word
    # is spelled only for the goal that is returned
    parent: dict = {start: None}
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for a, nxt in enumerate(succ[node]):
                if nxt not in nodes:
                    continue
                if nxt in goals:
                    word = [a]
                    while parent[node] is not None:
                        node, a = parent[node]
                        word.append(a)
                    return tuple(reversed(word)), nxt
                if nxt not in parent:
                    parent[nxt] = (node, a)
                    next_frontier.append(nxt)
        frontier = next_frontier
    return None
