"""Golden state numbering of every product construction.

Each construction numbers its states in breadth-first discovery order,
and the rendered machines are part of the CLI output.  The digests
below were taken from the renderings before the constructions shared
one explorer; any change to the numbering, the transitions or the
labels changes a digest.  The `classify` digest (rank, side and chain
members) was taken while `classify` still certified the opposite side
by a root-repair search and an equivalence check, with one correction:
that search missed the open complement of the clopen random set 1189
(see `TestClassify.test_clopen_set_is_on_both_sides`), so its
side went from SELF to BOTH; every chain is unchanged.  The
`divergence_witness` digest pins the counterexamples the guesser-set
product search prints; it was taken while the search for wrong-side
constant-opinion cycles still scanned the priorities itself, and it
still holds now that the search reads the refinement components of
`cycles.cycle_components`.
"""

import hashlib
import itertools
import random

import pytest

from guessable.based_guessing import cylinder_simulation
from guessable.diff_hierarchy import (
    OpenChain,
    chain_to_guesser,
    classify,
    d_theta,
    make_anticongruent,
    normalize_h,
)
from guessable.fixtures import (
    FIXTURES,
    OPEN_EMPTY,
    OPEN_FACTOR_11,
    OPEN_FULL,
    OPEN_ONE,
)
from guessable.formats import render_automaton, render_guesser
from guessable.guesser import divergence_witness, synthesize
from guessable.ordinal import to_text
from guessable.randgen import (
    random_moore_guesser,
    random_nested_chain,
    random_open_chain,
    random_parity_set,
)
from guessable.remainder import remainder_chain
from guessable.space import complement, open_subset
from literal import product_boolean
from test_fast_paths import counter_set

OPEN_FIXTURES = (OPEN_EMPTY, OPEN_FACTOR_11, OPEN_ONE, OPEN_FULL)


def _chains() -> list[OpenChain]:
    chains = []
    for length in (1, 2, 3, 4):
        for members in itertools.product(OPEN_FIXTURES, repeat=length):
            if all(open_subset(a, b) for a, b in zip(members, members[1:])):
                chains.append(OpenChain(members))
    for s in FIXTURES.values():
        chain = classify(s).chain
        if chain is not None:
            chains.append(chain)
    rng = random.Random(11)
    chains += [random_open_chain(rng) for _ in range(8)]
    chains += [random_nested_chain(rng, alphabet=3) for _ in range(8)]
    return chains


def _synthesized():
    sets = list(FIXTURES.values())
    rng = random.Random(5)
    sets += [random_parity_set(rng, max_states=5) for _ in range(20)]
    sets += [random_parity_set(rng, alphabet=3, max_states=5) for _ in range(20)]
    return [synthesize(s) for s in sets if remainder_chain(s).guessable]


def _classified() -> list[str]:
    """Rank, side and rendered chain members of `classify` on the
    fixtures, seeded random sets and the counter family, with the
    complement of each fixture and counter set."""
    sets = []
    for s in FIXTURES.values():
        sets += [s, complement(s)]
    rng = random.Random(17)
    for _ in range(2000):
        sets.append(
            random_parity_set(
                rng,
                alphabet=rng.choice([2, 3]),
                max_states=rng.choice([4, 8]),
                max_priority=rng.choice([3, 5]),
            )
        )
    for m in range(30):
        sets += [counter_set(m), complement(counter_set(m))]
    texts = []
    for s in sets:
        outcome = classify(s)
        rank = "NONE" if outcome.rank is None else to_text(outcome.rank)
        members = () if outcome.chain is None else outcome.chain.sets
        rendered = [render_automaton(m.to_parity()) for m in members]
        texts.append("\n".join([rank, outcome.side.value, *rendered]))
    return texts


def _witnesses() -> list[str]:
    """`divergence_witness` on seeded random guesser and set pairs over
    two and three symbols, NONE where the guesser is certified."""
    rng = random.Random(29)
    texts = []
    for k in (2, 3):
        for _ in range(1000):
            g = random_moore_guesser(rng, alphabet=k, max_states=5)
            s = random_parity_set(rng, alphabet=k, max_states=6, max_priority=4)
            witness = divergence_witness(g, s)
            texts.append("NONE" if witness is None else str(witness))
    return texts


def _renderings() -> dict[str, list[str]]:
    chains = _chains()
    synthesized = _synthesized()
    converted = [chain_to_guesser(c) for c in chains]
    rng = random.Random(3)
    operands = list(FIXTURES.values())
    operands += [random_parity_set(rng, max_states=3, max_priority=4) for _ in range(4)]
    return {
        "synthesize": [render_guesser(rg.guesser, rg) for rg in synthesized],
        "d_theta": [render_automaton(d_theta(c)) for c in chains],
        "chain_to_guesser": [render_guesser(rg.guesser, rg) for rg in converted],
        "normalize_h": [
            render_guesser(out.guesser, out)
            for out in map(normalize_h, synthesized + converted)
        ],
        "make_anticongruent": [
            render_guesser(out.guesser, out)
            for out in map(make_anticongruent, synthesized + converted)
        ],
        "classify": _classified(),
        "divergence_witness": _witnesses(),
        "cylinder_simulation": [
            render_guesser(cylinder_simulation(rg.guesser, rg.guesser.alphabet))
            for rg in synthesized + converted
        ],
        **{
            f"product_boolean_{op}": [
                render_automaton(product_boolean(s, t, op))
                for s in operands
                for t in operands
            ]
            for op in ("and", "or", "xor", "diff")
        },
    }


def _digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


GOLDEN = {
    "synthesize": (
        "e263c82648f62d5ca33e4ef85b2aa9ba"
        "bf69af8d330a479f300b3334b79440b6"
    ),
    "d_theta": (
        "3f796723dd585e877431dfbd1b14fb08"
        "8fd23fbe36b9d475e27e0fc134ddbad9"
    ),
    "chain_to_guesser": (
        "ceafccecf8a1dd8d94245031b2d5efb8"
        "dacf8aacde0f8be554f887177c6fc18d"
    ),
    "normalize_h": (
        "2d7bdd9a050f2610b0d3158f4a9d68aa"
        "4730a850d043ca3eb9b73c9e14454b71"
    ),
    "make_anticongruent": (
        "8f685e0cb00b531e728ad664c9993af4"
        "2318d7320919858bd9748d8f3e086fe0"
    ),
    "classify": (
        "bd543fecabcd132cef5f9d2803217b39"
        "1f5ad9a2f22d7db137894d4c335ff090"
    ),
    "divergence_witness": (
        "b654ce28177829b03b7c6f02fcd91402"
        "278439ec2e43592f13a4223ed769f32d"
    ),
    "cylinder_simulation": (
        "27b7d5697e27ed496706aa29faa26374"
        "99ea6fc2a09bd6e8877bd2f3c75e5b8b"
    ),
    "product_boolean_and": (
        "2bb79595c5b8385f7fbf70e6dd35c034"
        "359a09932e564147a3b9b3776f663b81"
    ),
    "product_boolean_or": (
        "79fdf11ae9b7499c13957503c658d2bc"
        "be1d9e436d639747a136cb4837f5fd3c"
    ),
    "product_boolean_xor": (
        "29fe484f49042d553c2bfe1012c84abd"
        "ddec17435fca402adb9e2e1a824b605b"
    ),
    "product_boolean_diff": (
        "21bb33e47b33b75a300468ae49f412d0"
        "1cd67e30782374db4db75afe8a9b9479"
    ),
}


@pytest.fixture(scope="module")
def renderings():
    return _renderings()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendering_is_unchanged(renderings, name):
    assert _digest(renderings[name]) == GOLDEN[name]
