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
construction (the plain product of machines, boolean products, the
canonical guesser, chain and bound conversions) assembles its machine
and on which every search here runs.

`has_cycle` is the one search for a cycle of a wanted kind, by
Emerson-Lei refinement: split into SCCs, drop the nodes of a top
label that no wanted cycle can pass through, and split what is left
again.  A kind names a parity for the maximum of each of some labels
along the cycle: emptiness asks for an even maximum priority,
equivalence for a cycle whose two sides' maxima differ in parity, and
the remainder ranks for the parity a component's top does not give.
None of them builds a parity product.

A component of one state is decided from that state alone, here and
in every consumer of the condensation: its only possible cycle is its
self-loop, on which every label's top is the state's own label, and
nothing lies below that top to search again.  Most components are
single states, and each then costs one row lookup instead of a set, a
maximum over its members and a second search.

`parity_components` yields the components holding the cycles of each
maximum priority of one parity: `parity_cycle_nodes` is their union,
and the divergence witness anchors its wrong-side cycles in them.
`shortest_word_path` spells a path's symbols as positions in the rows.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Sequence

Node = Hashable
# (label, parity) pairs: a cycle is of the kind when the maximum of each
# label along it has that parity
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


def is_nontrivial(component: Sequence[Node], succ: Sequence) -> bool:
    """The component carries a cycle: more than one node, or a self-loop."""
    if len(component) > 1:
        return True
    node = component[0]
    return node in succ[node]


def cycle_nodes(nodes: set, succ: Sequence) -> set:
    """Nodes lying on some cycle inside `nodes`."""
    out: set = set()
    for comp in strongly_connected_components(nodes, succ):
        if len(comp) > 1:
            out.update(comp)
        elif comp[0] in succ[comp[0]]:
            out.add(comp[0])
    return out


def has_cycle(nodes: set, succ: Sequence, kinds: Sequence[Kind]) -> bool:
    """True iff some cycle inside `nodes` is of one of the `kinds`.  A
    kind is a list of `(label, parity)` pairs, each label a sequence
    indexed by state; a cycle is of that kind when the maximum of every
    label along it has the paired parity (0/1).

    Emerson-Lei refinement, one SCC pass shared by all kinds: a
    nontrivial SCC whose top of every label of a kind has that label's
    parity has a cycle through all of its nodes, which is a witness.
    Otherwise no cycle of that kind passes through the top nodes of the
    first label whose top has the wrong parity, so those nodes are
    dropped and the rest is searched again for that kind alone.
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
                            return True
                continue
            for kind in wanted:
                for label, parity in kind:
                    top = max(map(label.__getitem__, comp))
                    if top % 2 != parity:
                        below = {n for n in comp if label[n] < top}
                        if below:
                            pending.append((below, [kind]))
                        break
                else:
                    return True
    return False


def parity_components(
    nodes: set, succ: Sequence, priority: Callable[[Node], int], want: int
) -> Iterator[tuple[list[Node], int]]:
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
            if len(comp) == 1:
                node = comp[0]
                if priority(node) == p and node in succ[node]:
                    yield comp, p
            elif any(priority(n) == p for n in comp):
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
