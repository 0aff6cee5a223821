"""The graph kernels on state numbers, the order-key bound check and
the stored finite part and integer of an ordinal, each against the
literal form it replaced: a Tarjan pass over a copied adjacency dict,
the forward closure testing the node set first, the two Emerson-Lei
searches `has_cycle` replaced, a bound check through the ordinal
operators, and the ordinal readers that walked the Cantor normal form
terms.  `has_cycle` is also checked against an exhaustive search of
the strongly connected node subsets, and the components
`cycle_components` yields for one label against one SCC pass per
priority.  A search on a few nodes of a large graph reads only their
rows.

The consumers of the condensation decide a one-state component from
its own state; on graphs made mostly of single states, with and
without self-loops, each is checked against its body from before that
rule, and the remainder trace against the literal stage iteration."""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from guessable.cycles import (
    Node,
    cycle_components,
    forward_closure,
    has_cycle,
    shortest_word_path,
    strongly_connected_components,
)
from guessable.diff_hierarchy import _forced_levels
from guessable.guesser import MooreGuesser, RankedGuesser, check_bound, synthesize
from guessable.ordinal import (
    INFINITY,
    OMEGA,
    ONE,
    ZERO,
    OrdinalCNF,
    add,
    from_int,
    from_text,
    omega_power,
    parity,
    pred,
    succ,
    to_text,
)
from guessable.randgen import random_parity_set
from guessable.remainder import remainder_chain
from guessable.space import ParitySet, complement
from literal import (
    backward_closure,
    cycle_nodes,
    is_nontrivial,
    literal_remainder_chain,
    parity_components,
)
from test_fast_paths import counter_set
from test_ordinal import ORDINALS

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


# -- the literal references ------------------------------------------------


def literal_scc(nodes, succ):
    """Tarjan's algorithm, iterative, on an adjacency dict copied from the
    rows: the reference for the order and the sorting of the components."""
    adj = {n: [m for m in succ[n] if m in nodes] for n in nodes}
    index, low = {}, {}
    on_stack, stack, components = set(), [], []
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adj[node]
            while child_i < len(children):
                child = children[child_i]
                child_i += 1
                if child not in index:
                    work[-1] = (node, child_i)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                components.append(sorted(comp))
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[node])
    return components


def literal_forward_closure(starts, nodes, succ):
    seen = {s for s in starts if s in nodes}
    stack = list(seen)
    while stack:
        n = stack.pop()
        for m in succ[n]:
            if m in nodes and m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


# `cycle_parities` and `even_odd_cycle` as they stood before `has_cycle`
# replaced them, kept verbatim


def cycle_parities(
    nodes: set, succ: Sequence, priority: Callable[[Node], int]
) -> set[int]:
    """Parities (0/1) of the maximum priorities of the cycles inside
    `nodes`.

    A nontrivial SCC has a cycle through its top priority; every other
    cycle in it avoids the top-priority nodes, so the search goes on
    below the top until both parities are found or nothing cycles.
    """
    found: set[int] = set()
    pending = [set(nodes)]
    while pending and len(found) < 2:
        sub = pending.pop()
        for comp in strongly_connected_components(sub, succ):
            if not is_nontrivial(comp, succ):
                continue
            top = max(map(priority, comp))
            found.add(top % 2)
            below = {n for n in comp if priority(n) < top}
            if below:
                pending.append(below)
    return found


def even_odd_cycle(
    nodes: set,
    succ: Sequence,
    kinds: Sequence[tuple[Callable[[Node], int], Callable[[Node], int]]],
) -> bool:
    """True iff some cycle inside `nodes` is of one of the `kinds`: for
    a kind `(even, odd)`, its maximum `even` priority is even and its
    maximum `odd` priority is odd.

    Emerson-Lei refinement, one SCC pass shared by all kinds: in a
    nontrivial SCC whose top `even` priority is odd, or whose top `odd`
    priority is even, no cycle of that kind passes through those top
    nodes, so they are dropped and the rest is searched again for that
    kind; an SCC with both tops of the wanted parity has a cycle
    through all of its nodes, which is a witness.
    """
    pending = [(set(nodes), kinds)]
    while pending:
        sub, kinds = pending.pop()
        for comp in strongly_connected_components(sub, succ):
            if not is_nontrivial(comp, succ):
                continue
            for even, odd in kinds:
                top = max(map(even, comp))
                if top % 2 == 0:
                    label, top = odd, max(map(odd, comp))
                    if top % 2 == 1:
                        return True
                else:
                    label = even
                below = {n for n in comp if label(n) < top}
                if below:
                    pending.append((below, [(even, odd)]))
    return False


# `has_cycle` and `_forced_levels` as they stood before a one-state
# component was decided from its own state, kept verbatim but for the
# names


def literal_has_cycle(nodes: set, succ: Sequence, kinds) -> bool:
    pending = [(set(nodes), kinds)]
    while pending:
        sub, wanted = pending.pop()
        for comp in strongly_connected_components(sub, succ):
            if not is_nontrivial(comp, succ):
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


def literal_forced_levels(succ: Sequence, levels: Sequence[int]) -> list[int]:
    forced = [0] * len(succ)
    for comp in strongly_connected_components(set(range(len(succ))), succ):
        inside = set(comp)
        value = levels[comp[0]] if is_nontrivial(comp, succ) else 0
        for q in comp:
            for n in succ[q]:
                if n not in inside and forced[n] > value:
                    value = forced[n]
        for q in comp:
            forced[q] = value
    return forced


def exhaustive_has_cycle(nodes, succ, kinds):
    """Some nonempty node subset is strongly connected, carries a cycle
    and has each label's maximum of the wanted parity: a cycle's nodes
    form such a subset, and such a subset has a closed walk through all
    of its nodes."""
    for size in range(1, len(nodes) + 1):
        for sub in map(set, itertools.combinations(sorted(nodes), size)):
            first = min(sub)
            if (
                literal_forward_closure([first], sub, succ) != sub
                or backward_closure([first], sub, succ) != sub
                or (size == 1 and first not in succ[first])
            ):
                continue
            for kind in kinds:
                if all(max(label[n] for n in sub) % 2 == p for label, p in kind):
                    return True
    return False


def literal_check_bound(rg):
    """The two bound conditions and the cap through the ordinal operators."""
    g = rg.guesser
    for q in g.reachable_states():
        if not rg.bound[q] < rg.codomain:
            return False
        for a in range(g.alphabet):
            nxt = g.delta[q][a]
            if rg.bound[nxt] > rg.bound[q]:
                return False
            if g.output[nxt] != g.output[q] and not rg.bound[nxt] < rg.bound[q]:
                return False
    return True


# -- graph kernels ----------------------------------------------------------


@st.composite
def graphs_with_subsets(draw, max_states=14):
    """Rows over n states, a node subset (whose rows also point outside
    it, or not at all) and a start or target set that may leave it."""
    n = draw(st.integers(1, max_states))
    state = st.integers(0, n - 1)
    succ = draw(
        st.lists(st.lists(state, max_size=4).map(tuple), min_size=n, max_size=n)
    )
    nodes = draw(st.sets(state))
    ends = draw(st.sets(state, max_size=4))
    return succ, nodes, ends


@PROPERTY
@given(graphs_with_subsets())
def test_kernels_agree_with_the_literal_forms(graph):
    succ, nodes, ends = graph
    assert strongly_connected_components(nodes, succ) == literal_scc(nodes, succ)
    assert forward_closure(ends, nodes, succ) == literal_forward_closure(
        ends, nodes, succ
    )


@st.composite
def labelled_graphs(draw, graphs=graphs_with_subsets(7)):
    """Rows over at most 7 states, a node subset whose rows may point
    outside it, 1-3 labels and 1-2 kinds of 0-3 pairs over them: the
    empty kind takes any cycle."""
    succ, nodes, _ = draw(graphs)
    n = len(succ)
    labels = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    )
    pair = st.tuples(st.sampled_from(labels), st.integers(0, 1))
    kind = st.lists(pair, max_size=3)
    kinds = draw(st.lists(kind, min_size=1, max_size=2))
    return succ, nodes, labels, kinds


@PROPERTY
@given(labelled_graphs())
def test_has_cycle_agrees_with_the_exhaustive_search(graph):
    succ, nodes, _, kinds = graph
    assert has_cycle(nodes, succ, kinds) == exhaustive_has_cycle(nodes, succ, kinds)


def assert_components_per_priority(nodes, succ, labels):
    """For one label and parity, the refinement components paired with
    their tops are the components of the one-pass-per-priority search."""
    for label in labels:
        for parity in (0, 1):
            found = cycle_components(nodes, succ, [[(label, parity)]])
            assert sorted(
                (comp, max(label[n] for n in comp)) for comp in found
            ) == sorted(parity_components(nodes, succ, label.__getitem__, parity))


@PROPERTY
@given(labelled_graphs())
def test_cycle_components_are_the_per_priority_components(graph):
    succ, nodes, labels, _ = graph
    assert_components_per_priority(nodes, succ, labels)


@PROPERTY
@given(labelled_graphs())
def test_has_cycle_agrees_with_the_searches_it_replaced(graph):
    succ, nodes, labels, _ = graph
    for label in labels:
        found = cycle_parities(nodes, succ, label.__getitem__)
        for parity in (0, 1):
            assert has_cycle(nodes, succ, [[(label, parity)]]) == (parity in found)
    for even, odd in itertools.product(labels, repeat=2):
        for kinds in ([(even, odd)], [(even, odd), (odd, even)]):
            want = even_odd_cycle(
                nodes, succ, [(e.__getitem__, o.__getitem__) for e, o in kinds]
            )
            asked = [[(e, 0), (o, 1)] for e, o in kinds]
            assert has_cycle(nodes, succ, asked) == want


@st.composite
def single_state_graphs(draw, max_states=9):
    """Rows over n states that are mostly one-state components: a chain
    or DAG whose edges lead to later states, each state with or without
    a self-loop, and now and then an edge to any state, which can close
    a larger component.  The node subset is every state or a part."""
    n = draw(st.integers(1, max_states))
    succ = []
    for q in range(n):
        row = [q + 1] if q + 1 < n and draw(st.booleans()) else []
        if q + 1 < n:
            row += draw(st.lists(st.integers(q + 1, n - 1), max_size=2))
        if draw(st.booleans()):
            row.append(q)
        if draw(st.integers(0, 5)) == 0:
            row.append(draw(st.integers(0, n - 1)))
        succ.append(tuple(draw(st.permutations(row))))
    everything = st.just(set(range(n)))
    nodes = draw(st.one_of(everything, everything, st.sets(st.integers(0, n - 1))))
    return succ, nodes, set()


@PROPERTY
@given(labelled_graphs(single_state_graphs()))
def test_one_state_components_are_decided_as_before(graph):
    succ, nodes, labels, kinds = graph
    assert strongly_connected_components(nodes, succ) == literal_scc(nodes, succ)
    found = has_cycle(nodes, succ, kinds)
    assert found == literal_has_cycle(nodes, succ, kinds)
    assert found == exhaustive_has_cycle(nodes, succ, kinds)
    for label in labels:
        for parity in (0, 1):
            kind = [[(label, parity)]]
            assert has_cycle(nodes, succ, kind) == literal_has_cycle(nodes, succ, kind)
    assert_components_per_priority(nodes, succ, labels)
    assert has_cycle(nodes, succ, [()]) == bool(cycle_nodes(nodes, succ))
    skeleton = SimpleNamespace(delta=succ, n_states=len(succ))
    assert _forced_levels(skeleton, labels[0]) == literal_forced_levels(
        succ, labels[0]
    )


@PROPERTY
@given(st.one_of(labelled_graphs(), single_state_graphs()))
def test_the_empty_kind_yields_every_cyclic_component(graph):
    """The empty kind takes any cycle, so the search yields each
    component that has one, in the order of one SCC pass, and searches
    no further inside it."""
    succ, nodes = graph[:2]
    cyclic = [
        comp
        for comp in strongly_connected_components(nodes, succ)
        if len(comp) > 1 or comp[0] in succ[comp[0]]
    ]
    assert list(cycle_components(nodes, succ, [()])) == cyclic


@st.composite
def single_state_sets(draw, max_states=10):
    """Parity sets whose every symbol stays put or leads to a later
    state, now and then to any state: chains and DAGs of one-state
    components, with and without self-loops, and a few larger ones."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, max_states))
    delta = []
    for q in range(n):
        later = st.integers(q + 1, n - 1) if q + 1 < n else st.just(q)
        row = draw(st.lists(later, min_size=k, max_size=k))
        if draw(st.booleans()):
            row[draw(st.integers(0, k - 1))] = q
        if draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, k - 1))] = draw(st.integers(0, n - 1))
        delta.append(tuple(row))
    priority = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return ParitySet(
        alphabet=k, start=0, delta=tuple(delta), priority=tuple(priority)
    )


@PROPERTY
@given(single_state_sets())
def test_trace_equals_literal_on_single_state_sets(s):
    for t in (s, complement(s)):
        assert remainder_chain(t) == literal_remainder_chain(t)


def test_trace_equals_literal_on_counters_and_random_sets():
    for m in range(12):
        for t in (counter_set(m), complement(counter_set(m))):
            assert remainder_chain(t) == literal_remainder_chain(t)
    rng = random.Random(20)
    transient = looping = 0
    for _ in range(1500):
        s = random_parity_set(rng, alphabet=rng.choice([2, 3]), max_states=8)
        assert remainder_chain(s) == literal_remainder_chain(s)
        for comp in strongly_connected_components(s.reachable_states(), s.delta):
            if len(comp) == 1:
                if comp[0] in s.delta[comp[0]]:
                    looping += 1
                else:
                    transient += 1
    assert transient >= 100 and looping >= 300


def test_shortest_word_path_without_a_reachable_goal():
    succ = [(1, 1), (1, 1), (2, 2)]
    assert shortest_word_path(0, {1}, {0, 1}, succ) == ((0,), 1)
    assert shortest_word_path(0, {2}, {0, 1, 2}, succ) is None
    # a goal outside `nodes` is never entered
    assert shortest_word_path(0, {1}, {0}, succ) is None


def test_tarjan_on_a_long_chain_needs_no_recursion():
    n = 50_000
    succ = [(q + 1,) for q in range(n - 1)] + [(0,)]
    assert strongly_connected_components(set(range(n)), succ) == [list(range(n))]
    succ[-1] = ()
    comps = strongly_connected_components(set(range(n)), succ)
    assert comps == literal_scc(set(range(n)), succ)


class CountingRows(Sequence):
    """Rows of a large graph built on demand: every read is recorded,
    and asking for the length fails."""

    def __init__(self, size):
        self.size = size
        self.read = set()

    def __getitem__(self, q):
        self.read.add(q)
        return ((q + 1) % self.size, (q * 7 + 3) % self.size, q - 2)

    def __len__(self):
        raise AssertionError("a kernel sized something by the row count")


def test_a_subset_costs_only_its_own_rows():
    rows = CountingRows(200_000)
    sub = {100, 101, 102}  # one cycle 100 -> 101 -> 102 -> 100; other edges leave
    mod3 = {q: q % 3 for q in sub}  # labels that only hold the subset
    one = dict.fromkeys(sub, 1)
    for run in (
        lambda: strongly_connected_components(sub, rows),
        lambda: forward_closure([100], sub, rows),
        lambda: has_cycle(sub, rows, [()]),
        lambda: has_cycle(sub, rows, [[(mod3, 1)]]),
        lambda: list(cycle_components(sub, rows, [[(mod3, 0)], [(mod3, 1)]])),
        lambda: has_cycle(sub, rows, [[(mod3, 0), (one, 1)]]),
    ):
        rows.read.clear()
        run()
        assert rows.read <= sub
    assert strongly_connected_components(sub, rows) == [[100, 101, 102]]
    # its top is 2, and below it 102 -> 100 does not close a cycle
    assert has_cycle(sub, rows, [[(mod3, 0)]])
    assert not has_cycle(sub, rows, [[(mod3, 1)]])


# -- the bound check ----------------------------------------------------------

# strictly increasing maps n -> f(n) that carry a finite bound function
# to a transfinite one satisfying the same conditions
LIFTS = [
    lambda n: from_int(n),
    lambda n: add(OMEGA, from_int(n)),  # w, w + 1, ...
    lambda n: add(from_text("w^2*3"), from_int(n)),
    lambda n: add(omega_power(1, n + 1), from_int(1)),  # w + 1, w*2 + 1, ...
]


@st.composite
def ranked_guessers(draw):
    """A canonical guesser with its bounds lifted, sometimes mutated: a
    raised bound, a bound kept across an opinion flip, an INFINITY bound,
    an INFINITY codomain, or bounds drawn at random."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 7))
    state = st.integers(0, n - 1)
    s = ParitySet(
        alphabet=k,
        start=draw(state),
        delta=tuple(draw(st.lists(st.tuples(*[state] * k), min_size=n, max_size=n))),
        priority=tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
    )
    pool = [ZERO, from_int(1), from_int(3), OMEGA, from_text("w + 1"),
            from_text("w^2*3"), INFINITY]
    try:
        canonical = synthesize(s)
    except ValueError:
        g = MooreGuesser(
            alphabet=k,
            start=s.start,
            delta=s.delta,
            output=tuple(p % 2 for p in s.priority),
        )
        bound = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        return RankedGuesser(g, tuple(bound), draw(st.sampled_from(pool)))
    g = canonical.guesser
    lift = draw(st.sampled_from(LIFTS))
    bound = [lift(b.to_int()) for b in canonical.bound]
    codomain = lift(canonical.codomain.to_int())
    q = draw(st.integers(0, g.n_states - 1))
    mutation = draw(st.sampled_from(["none", "raise", "flip", "infinity", "cap"]))
    if mutation == "raise":
        bound[q] = add(bound[q], draw(st.sampled_from([from_int(1), OMEGA])))
    elif mutation == "flip":
        flips = [
            (p, nxt)
            for p in range(g.n_states)
            for nxt in g.delta[p]
            if g.output[nxt] != g.output[p]
        ]
        if flips:
            p, nxt = draw(st.sampled_from(flips))
            bound[nxt] = bound[p]
    elif mutation == "infinity":
        bound[q] = INFINITY
    elif mutation == "cap":
        codomain = INFINITY
    return RankedGuesser(g, tuple(bound), codomain)


@PROPERTY
@given(ranked_guessers())
def test_check_bound_agrees_with_the_operator_form(rg):
    assert check_bound(rg) == literal_check_bound(rg)


def test_an_infinity_bound_fails_the_check():
    g = MooreGuesser(alphabet=2, start=0, delta=((1, 1), (1, 1)), output=(0, 1))
    for bound in ((INFINITY, ZERO), (OMEGA, INFINITY), (INFINITY, INFINITY)):
        for codomain in (from_int(2), INFINITY):
            rg = RankedGuesser(g, bound, codomain)
            assert check_bound(rg) is False
            assert literal_check_bound(rg) is False
    rg = RankedGuesser(g, (from_text("w + 1"), OMEGA), INFINITY)
    assert check_bound(rg) is True


# -- the ordinal readers --------------------------------------------------

# the readers as they stood before each ordinal stored its finite part
# and integer, kept verbatim except that a method becomes a function of
# the value and calls the other references, not the stored readers


def literal_is_finite(self):
    return all(exp.is_zero for exp, _ in self.terms)


def literal_finite_part(self) -> int:
    """The n in a = lambda + n with lambda limit or 0."""
    if self.terms and self.terms[-1][0].is_zero:
        return self.terms[-1][1]
    return 0


def literal_is_successor(self) -> bool:
    return literal_finite_part(self) >= 1


def literal_to_int(self) -> int:
    if not literal_is_finite(self):
        raise ValueError(f"{self} is not a finite ordinal")
    return literal_finite_part(self)


def literal_parity(a: OrdinalCNF) -> int:
    """0 for even, 1 for odd: the parity of n in a = lambda + n."""
    return literal_finite_part(a) % 2


def literal_succ(a: OrdinalCNF) -> OrdinalCNF:
    return add(a, ONE)


def literal_pred(a: OrdinalCNF) -> OrdinalCNF:
    """Predecessor of a successor ordinal."""
    if not literal_is_successor(a):
        raise ValueError(f"{a} is not a successor ordinal")
    head = a.terms[:-1]
    exp, coef = a.terms[-1]
    if coef > 1:
        return OrdinalCNF(head + ((exp, coef - 1),))
    return OrdinalCNF(head)


def literal_to_text(a: OrdinalCNF) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coef in a.terms:
        if exp.is_zero:
            parts.append(str(coef))
            continue
        if exp == ONE:
            base = "w"
        elif literal_is_finite(exp) or exp == OMEGA:
            base = f"w^{literal_to_text(exp)}"
        else:
            base = f"w^({literal_to_text(exp)})"
        parts.append(base if coef == 1 else f"{base}*{coef}")
    return " + ".join(parts)


def _outcome(read, a):
    """What `read(a)` returns, or the type of what it raises."""
    try:
        return read(a)
    except ValueError as exc:
        return type(exc)


@PROPERTY
@given(ORDINALS)
def test_stored_readers_agree_with_the_term_walks(a):
    assert a.is_finite == literal_is_finite(a)
    assert a.is_successor == literal_is_successor(a)
    assert _outcome(OrdinalCNF.to_int, a) == _outcome(literal_to_int, a)
    assert parity(a) == literal_parity(a)
    assert succ(a) == literal_succ(a)
    assert _outcome(pred, a) == _outcome(literal_pred, a)
    assert to_text(a) == literal_to_text(a)
    assert from_text(to_text(a)) == a


@PROPERTY
@given(st.integers(0, 10**20))
def test_succ_and_pred_of_a_finite_value_are_interned(n):
    after = succ(from_int(n))
    assert after is from_int(n + 1)
    assert pred(after) is from_int(n)
    assert after.to_int() == n + 1 and to_text(after) == str(n + 1)
