"""Seeded input generators for the three benchmark workloads.

Every input reaches the library as text: automata and guessers are
rendered with `formats` here, at set-up, and parsed again on the timed
path.  Each input carries the answers that are known without calling
the code being timed: a closed form, a construction, or a literal that
`membership_up` confirms.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# deep-rank: m drawn once per stratum of [M_LO, M_HI], one input per
# stratum, C_m and its complement alternating; narrow strata keep the
# workload's cost nearly the same from seed to seed
M_LO, M_HI, M_STRATA = 24, 56, 24

# many-priorities: every (n_s, n_t) size pair appears PAIR_REPEATS times
PAIR_SIZES = range(8, 11)
PAIR_REPEATS = 20
DISTINGUISH_WORDS = 200

# random-corpus parts
CORPUS_SETS = 900
CORPUS_SET_GUESSERS = 2
CORPUS_CHAINS = 180
CORPUS_BINARY_TABLES = 76  # a seeded sample of the 256 binary depth-3 tables
CORPUS_TERNARY_TABLES = 60
CORPUS_BASED = 36

# canonical UP words per alphabet: verify_based inputs and harness checks
UP_WORDS = 30


@dataclass
class Item:
    """One input: its kind, its texts and its known answers."""

    kind: str
    texts: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    items: list
    words: dict  # alphabet -> the first UP_WORDS canonical UP words


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"generator invariant failed: {message}")


def _reaches_all(start: int, delta) -> bool:
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for nq in delta[q]:
            if nq not in seen:
                seen.add(nq)
                stack.append(nq)
    return len(seen) == len(delta)


def counter_automaton(lib, m: int):
    """C_m: state (c, b) counts symbol changes c = min(changes, m) with
    last symbol b; priority 2 when c is odd, else 1; start (0, 0)."""
    delta = []
    priority = []
    for c in range(m + 1):
        for b in (0, 1):
            delta.append(
                tuple(2 * (c if a == b else min(c + 1, m)) + a for a in (0, 1))
            )
            priority.append(2 if c % 2 else 1)
    s = lib.space.ParitySet(
        alphabet=2, start=0, delta=tuple(delta), priority=tuple(priority)
    )
    _require(s.n_states == 2 * m + 2, f"C_{m} has 2m+2 states")
    return s


def _deep_rank(lib, rng: random.Random) -> list:
    width = (M_HI - M_LO + 1) / M_STRATA
    flip = rng.randrange(2)
    items = []
    for j in range(M_STRATA):
        lo = M_LO + int(j * width)
        hi = M_LO + int((j + 1) * width) - 1
        m = rng.randint(lo, hi)
        s = counter_automaton(lib, m)
        complemented = (j + flip) % 2 == 1
        if complemented:
            s = lib.space.complement(s)
        items.append(
            Item(
                "deep",
                (lib.formats.render_automaton(s),),
                {"m": m, "complemented": complemented},
            )
        )
    rng.shuffle(items)
    return items


def dense_automaton(lib, rng: random.Random, n: int):
    """n states on a symbol-0 Hamiltonian cycle, priorities a permutation
    of 0..n-1, and a symbol-1 self-loop on the state of priority n-2.

    The whole automaton is one SCC holding a cycle of maximum n-1 (the
    Hamiltonian one) and one of maximum n-2 (the self-loop), so the set
    and its complement are nonempty and no stage of the remainder chain
    drops a state: the set is not guessable.
    """
    order = list(range(n))
    rng.shuffle(order)
    priority = list(range(n))
    rng.shuffle(priority)
    delta = [[0, 0] for _ in range(n)]
    for i, q in enumerate(order):
        delta[q][0] = order[(i + 1) % n]
        delta[q][1] = rng.randrange(n)
    loop = priority.index(n - 2)
    delta[loop][1] = loop
    _require(_reaches_all(order[0], delta), "pair automaton reaches every state")
    s = lib.space.ParitySet(
        alphabet=2,
        start=order[0],
        delta=tuple(tuple(row) for row in delta),
        priority=tuple(priority),
    )
    # 0^omega runs the Hamiltonian cycle; 0^j 1^omega sits on the loop
    top = lib.space.UPWord((), (0,))
    on_loop = lib.space.UPWord((0,) * order.index(loop), (1,))
    even, odd = (top, on_loop) if (n - 1) % 2 == 0 else (on_loop, top)
    _require(lib.space.membership_up(s, even) == 1, "even cycle accepts")
    _require(lib.space.membership_up(s, odd) == 0, "odd cycle rejects")
    return s, str(even), str(odd)


def _many_priorities(lib, rng: random.Random) -> list:
    words = lib.space.canonical_up_words(2, DISTINGUISH_WORDS)
    sizes = [(a, b) for a in PAIR_SIZES for b in PAIR_SIZES] * PAIR_REPEATS
    rng.shuffle(sizes)
    render = lib.formats.render_automaton
    items = []
    for n_s, n_t in sizes:
        s, in_s, in_not_s = dense_automaton(lib, rng, n_s)
        for _ in range(100):
            t, _, _ = dense_automaton(lib, rng, n_t)
            apart = next(
                (
                    w
                    for w in words
                    if lib.space.membership_up(s, w) != lib.space.membership_up(t, w)
                ),
                None,
            )
            if apart is not None:
                break
        _require(apart is not None, "unrelated pair has a distinguishing word")
        twin = lib.randgen.duplicate_state(s, rng)
        guesser = lib.randgen.random_moore_guesser(rng, alphabet=2, max_states=4)
        items.append(
            Item(
                "pair",
                (
                    render(s),
                    render(t),
                    render(twin),
                    lib.formats.render_guesser(guesser),
                ),
                {
                    "n": (n_s, n_t),
                    "in_s": in_s,
                    "in_not_s": in_not_s,
                    "apart": str(apart),
                },
            )
        )
    return items


def nested_chain_texts(lib, rng: random.Random, alphabet: int) -> list:
    """Members of an increasing open chain on one transition skeleton:
    nested targets, each made absorbing, so the chain increases by
    construction.  Returned as automaton texts, least member first."""
    theta = rng.randint(1, 3)
    n = rng.randint(1, 4)
    delta = [[rng.randrange(n) for _ in range(alphabet)] for _ in range(n)]
    states = list(range(n))
    rng.shuffle(states)
    targets = [set(states[:cut]) for cut in sorted(rng.randint(0, n) for _ in range(theta))]
    for target in reversed(targets):
        for q in target:
            for a in range(alphabet):
                if delta[q][a] not in target:
                    delta[q][a] = rng.choice(sorted(target))
    start = rng.randrange(n)
    frozen = tuple(tuple(row) for row in delta)
    return [
        lib.formats.render_automaton(
            lib.space.make_open(alphabet, start, frozen, target).to_parity()
        )
        for target in targets
    ]


def _random_table(lib, rng: random.Random, alphabet: int, depth: int):
    cells = alphabet**depth
    return lib.space.ClopenTable(
        alphabet=alphabet,
        depth=depth,
        values=tuple(rng.randint(0, 1) for _ in range(cells)),
    )


def _random_corpus(lib, rng: random.Random) -> list:
    render = lib.formats.render_automaton
    items = []
    for i in range(CORPUS_SETS):
        k = 2 + i % 2
        s = lib.randgen.random_parity_set(rng, alphabet=k, max_states=8, max_priority=4)
        guessers = tuple(
            lib.formats.render_guesser(
                lib.randgen.random_moore_guesser(rng, alphabet=k, max_states=4)
            )
            for _ in range(CORPUS_SET_GUESSERS)
        )
        items.append(Item("set", (render(s),) + guessers, {"k": k}))
    for i in range(CORPUS_CHAINS):
        k = 2 + i % 2
        items.append(Item("chain", tuple(nested_chain_texts(lib, rng, k)), {"k": k}))
    tables = rng.sample(list(lib.oracle.exhaustive_tables(2, 3)), CORPUS_BINARY_TABLES)
    tables += [_random_table(lib, rng, 3, 2) for _ in range(CORPUS_TERNARY_TABLES)]
    for table in tables:
        items.append(Item("table", (table,), {"k": table.alphabet}))
    # clopen sets are guessable by construction, so synthesis succeeds
    for i in range(CORPUS_BASED):
        k = 2 + i % 2
        table = _random_table(lib, rng, k, 2 + (i // 2) % 2)
        items.append(
            Item("based", (render(lib.space.compile_clopen(table)),), {"k": k})
        )
    rng.shuffle(items)
    return items


GENERATORS = {
    "deep-rank": _deep_rank,
    "many-priorities": _many_priorities,
    "random-corpus": _random_corpus,
}


def generate(lib, name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    items = GENERATORS[name](lib, rng)
    words = {k: lib.space.canonical_up_words(k, UP_WORDS) for k in (2, 3)}
    return Workload(name, items, words)
