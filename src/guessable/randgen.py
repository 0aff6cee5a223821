"""Seeded random corpora: parity automata, guessers, open chains.

Everything is driven by an explicit random.Random so runs reproduce
bit for bit from a seed.
"""

from __future__ import annotations

import random

from .space import OpenSet, ParitySet, make_open, open_union
from .guesser import MooreGuesser
from .diff_hierarchy import OpenChain


def random_parity_set(
    rng: random.Random,
    alphabet: int = 2,
    max_states: int = 6,
    max_priority: int = 3,
) -> ParitySet:
    n = rng.randint(1, max_states)
    delta = tuple(
        tuple(rng.randrange(n) for _ in range(alphabet)) for _ in range(n)
    )
    priority = tuple(rng.randint(0, max_priority) for _ in range(n))
    return ParitySet(
        alphabet=alphabet, start=rng.randrange(n), delta=delta, priority=priority
    )


def random_scc_dag(rng: random.Random, alphabet: int = 2) -> ParitySet:
    """A parity automaton whose strongly connected components form a
    random DAG and are each pure, so the set is guessable.

    Components are laid out in a topological order from the start
    state's.  Each closes a ring on symbol 0 (or, with some chance when
    it has one state and is not last, is transient and only leads on),
    its first state leads into the next component, and every other
    edge goes to a random state of the same or a later component.  All
    priorities in a component share one parity, which flips from one
    cyclic component to the next with probability 0.8, so runs meet
    long alternations and ranks of 3 and more are common.  There are
    at most 6 components of at most 3 states, with priorities 0 to 5.
    """
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
    first = [0]
    for size in sizes:
        first.append(first[-1] + size)
    n = first[-1]
    kind = rng.randrange(2)
    delta = []
    priority = []
    for c, size in enumerate(sizes):
        last = c == len(sizes) - 1
        transient = not last and size == 1 and rng.random() < 0.2
        if not transient and rng.random() < 0.8:
            kind ^= 1
        for i in range(size):
            lowest = first[c + 1] if transient else first[c]
            row = [rng.randrange(lowest, n) for _ in range(alphabet)]
            if not transient:
                row[0] = first[c] + (i + 1) % size
            if not last and i == 0:
                row[-1] = rng.randrange(first[c + 1], first[c + 2])
            delta.append(tuple(row))
            priority.append(rng.randrange(kind, 6, 2))
    return ParitySet(
        alphabet=alphabet, start=0, delta=tuple(delta), priority=tuple(priority)
    )


def random_moore_guesser(
    rng: random.Random, alphabet: int = 2, max_states: int = 4
) -> MooreGuesser:
    n = rng.randint(1, max_states)
    delta = tuple(
        tuple(rng.randrange(n) for _ in range(alphabet)) for _ in range(n)
    )
    output = tuple(rng.randint(0, 1) for _ in range(n))
    return MooreGuesser(
        alphabet=alphabet, start=rng.randrange(n), delta=delta, output=output
    )


def duplicate_state(s: ParitySet, rng: random.Random) -> ParitySet:
    """Split one state into two copies with identical behaviour and
    rewire a random subset of its incoming edges; the represented set
    is unchanged."""
    q = rng.randrange(s.n_states)
    copy = s.n_states
    delta = [list(row) for row in s.delta]
    delta.append(list(s.delta[q]))
    for p in range(s.n_states):
        for a in range(s.alphabet):
            if delta[p][a] == q and rng.random() < 0.5:
                delta[p][a] = copy
    start = s.start
    if start == q and rng.random() < 0.5:
        start = copy
    return ParitySet(
        alphabet=s.alphabet,
        start=start,
        delta=tuple(tuple(row) for row in delta),
        priority=s.priority + (s.priority[q],),
    )


def random_open_set(
    rng: random.Random, alphabet: int = 2, max_states: int = 4
) -> OpenSet:
    n = rng.randint(1, max_states)
    target = {q for q in range(n) if rng.random() < 0.4}
    delta = []
    for q in range(n):
        row = []
        for _ in range(alphabet):
            if q in target and target:
                row.append(rng.choice(sorted(target)))
            else:
                row.append(rng.randrange(n))
        delta.append(tuple(row))
    return make_open(alphabet, rng.randrange(n), tuple(delta), target)


def random_open_chain(
    rng: random.Random,
    alphabet: int = 2,
    max_theta: int = 3,
    max_states: int = 4,
) -> OpenChain:
    """An increasing chain built as running unions of random open sets;
    later members grow as products."""
    theta = rng.randint(1, max_theta)
    members = []
    acc = None
    for _ in range(theta):
        piece = random_open_set(rng, alphabet, max_states)
        acc = piece if acc is None else open_union(acc, piece)
        members.append(acc)
    return OpenChain(tuple(members))


def random_nested_chain(
    rng: random.Random,
    alphabet: int = 2,
    max_theta: int = 3,
    max_states: int = 4,
) -> OpenChain:
    """An increasing chain whose members all share one small transition
    skeleton with nested absorbing targets, so every member respects
    the state budget."""
    theta = rng.randint(1, max_theta)
    n = rng.randint(1, max_states)
    delta = [[rng.randrange(n) for _ in range(alphabet)] for _ in range(n)]
    states = list(range(n))
    rng.shuffle(states)
    cut_points = sorted(rng.randint(0, n) for _ in range(theta))
    targets = [set(states[:cut]) for cut in cut_points]
    # largest target first: make it absorbing, then each smaller one
    for target in reversed(targets):
        for q in target:
            for a in range(alphabet):
                if delta[q][a] not in target:
                    delta[q][a] = rng.choice(sorted(target))
    start = rng.randrange(n)
    frozen = tuple(tuple(row) for row in delta)
    members = [make_open(alphabet, start, frozen, t) for t in targets]
    return OpenChain(tuple(members))
