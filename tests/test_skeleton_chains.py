"""Chains on one skeleton: a level per state.

`guesser_to_chain` builds a chain as a skeleton machine with an entry
level per state, and `OpenChain(sets)` derives one from its members'
product.  `d_theta` and `chain_to_guesser` read only the skeleton, so
the two kinds of chain are checked against each other, against the
literal sublevel sets and against per-member forced sets.  Every
skeleton is checked to be numbered as `explore` numbers it, so the
conversions read it without renumbering; `classify` is checked to
build no `OpenSet`, and the CLI's chain commands are replayed against
a digest of their output.
"""

import contextlib
import hashlib
import io
import random

from hypothesis import given, strategies as st

import guessable.diff_hierarchy
import guessable.space
from guessable.cli import main
from guessable.cycles import explore
from guessable.diff_hierarchy import (
    OpenChain,
    _forced_levels,
    chain_to_guesser,
    classify,
    d_theta,
    guesser_to_chain,
)
from guessable.fixtures import FIXTURES
from guessable.formats import render_automaton, render_guesser
from guessable.guesser import MooreGuesser, RankedGuesser
from guessable.ordinal import from_int
from guessable.randgen import (
    random_nested_chain,
    random_open_chain,
    random_parity_set,
    random_scc_dag,
)
from guessable.remainder import remainder_chain
from guessable.space import OpenSet, complement
from literal import backward_closure, cycle_nodes
from test_fast_paths import (
    PROPERTY,
    counter_set,
    literal_sublevel_targets,
    root_zero_guessers,
)


def forced_sets(member):
    """States of the member's automaton from which every run enters its
    target: no cycle is reachable outside the target."""
    aut = member.automaton
    states = set(range(aut.n_states))
    outside = states - member.target
    succ = aut.delta
    doomed = backward_closure(cycle_nodes(outside, succ), outside, succ)
    return states - doomed


def reference_chain_to_guesser(chain):
    """The guesser watching the least member the cylinder is forced
    into, over the product of the members, one forced set per member."""
    members = chain.sets
    theta = len(members)
    forced = [forced_sets(m) for m in members]

    def successors(profile):
        return [
            tuple(m.automaton.delta[q][a] for m, q in zip(members, profile))
            for a in range(chain.alphabet)
        ]

    order, rows = explore(tuple(m.automaton.start for m in members), successors)
    least = [
        next((eta for eta, q in enumerate(p) if q in forced[eta]), theta)
        for p in order
    ]
    guesser = MooreGuesser(
        alphabet=chain.alphabet,
        start=0,
        delta=tuple(rows),
        output=tuple(eta % 2 ^ theta % 2 for eta in least),
    )
    return RankedGuesser(
        guesser, tuple(from_int(eta) for eta in least), from_int(theta + 1)
    )


def rendered(chain):
    ranked = chain_to_guesser(chain)
    return render_automaton(d_theta(chain)), render_guesser(ranked.guesser, ranked)


def assert_skeleton_form(chain):
    """The skeleton starts at 0, `explore` maps it onto itself, and no
    level rises along an edge."""
    skeleton, levels = chain.skeleton, chain.levels
    assert skeleton.start == 0
    order, rows = explore(0, skeleton.delta.__getitem__)
    assert order == list(range(skeleton.n_states))
    assert tuple(rows) == skeleton.delta
    assert all(
        levels[n] <= levels[q] for q, row in enumerate(skeleton.delta) for n in row
    )


def assert_skeleton_agrees(chain):
    """The chain, rebuilt from its members, renders the same level set
    and guesser, and both match the per-member forced reference."""
    rebuilt = OpenChain(chain.sets)
    assert_skeleton_form(chain)
    assert_skeleton_form(rebuilt)
    level_set, guesser = rendered(chain)
    assert rendered(rebuilt) == (level_set, guesser)
    reference = reference_chain_to_guesser(chain)
    assert guesser == render_guesser(reference.guesser, reference)


def assert_forced_levels_agree(chain):
    """On a nested chain every member sits on the skeleton itself, so
    the forced level of a state is the least member whose forced set
    holds it."""
    skeleton, levels = chain.skeleton, chain.levels
    forced = [forced_sets(m) for m in chain.sets]
    theta = chain.theta_int
    want = [
        next((eta for eta in range(theta) if q in forced[eta]), theta)
        for q in range(skeleton.n_states)
    ]
    assert _forced_levels(skeleton, levels) == want


def assert_dag_chains_agree(s):
    for t in (s, complement(s)):
        outcome = classify(t)
        assert_skeleton_agrees(outcome.chain)
        assert_forced_levels_agree(outcome.chain)
        for rg in root_zero_guessers(t):
            chain = guesser_to_chain(rg)
            assert_skeleton_form(chain)
            assert [m.target for m in chain.sets] == literal_sublevel_targets(rg)
            assert_forced_levels_agree(chain)


def test_random_scc_dags_reach_deep_ranks():
    rng = random.Random(0)
    ranks = [remainder_chain(random_scc_dag(rng)).rank for _ in range(200)]
    assert None not in ranks
    assert sum(r.to_int() >= 3 for r in ranks) >= 60


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_skeleton_chains_agree_on_scc_dags(seed, alphabet):
    assert_dag_chains_agree(random_scc_dag(random.Random(seed), alphabet=alphabet))


def test_skeleton_chains_agree_on_seeded_corpus():
    rng = random.Random(9)
    for _ in range(150):
        assert_dag_chains_agree(random_scc_dag(rng, alphabet=rng.choice([2, 3])))
    for m in range(8):
        assert_dag_chains_agree(counter_set(m))
    for _ in range(40):
        assert_skeleton_agrees(random_open_chain(rng, alphabet=rng.choice([2, 3])))
        assert_skeleton_agrees(random_nested_chain(rng, alphabet=rng.choice([2, 3])))


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_member_built_chains_match_the_forced_reference(seed):
    rng = random.Random(seed)
    assert_skeleton_agrees(random_open_chain(rng, max_theta=4))


def test_classify_and_conversions_build_no_open_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an OpenSet was built")

    monkeypatch.setattr(guessable.diff_hierarchy, "make_open", refuse)
    monkeypatch.setattr(guessable.space, "make_open", refuse)
    monkeypatch.setattr(OpenSet, "__post_init__", refuse)
    chain = classify(counter_set(40)).chain
    assert chain.theta_int == 40
    d_theta(chain)
    chain_to_guesser(chain)
    monkeypatch.undo()
    assert len(chain.sets) == 40


def test_built_chains_are_read_without_renumbering(monkeypatch):
    rng = random.Random(5)
    chains = [classify(counter_set(12)).chain]
    chains += [guesser_to_chain(rg) for rg in root_zero_guessers(counter_set(5))]
    for _ in range(10):
        chains += [random_open_chain(rng), random_nested_chain(rng)]
    before = [rendered(chain) for chain in chains]

    def refuse(*args):
        raise AssertionError("the skeleton was renumbered")

    monkeypatch.setattr(guessable.diff_hierarchy, "explore", refuse)
    assert [rendered(chain) for chain in chains] == before


# sha256 of the replayed outputs below, taken before chains stood on a
# skeleton; the members written by `--out-dir` are part of it
REPLAY_DIGEST = (
    "0cc6a0d5760d2110d998cb3fb0cf0c97"
    "44ed30a8b0cc943abd93641801248bca"
)


def _replay_sets():
    sets = list(FIXTURES.values())
    rng = random.Random(23)
    sets += [
        random_parity_set(rng, alphabet=rng.choice([2, 3]), max_states=6)
        for _ in range(15)
    ]
    for m in range(10):
        sets += [counter_set(m), complement(counter_set(m))]
    return sets


def _cli(argv, root):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(arg) for arg in argv])
    return f"{code}\n{stdout.getvalue()}".replace(str(root), "ROOT")


def _written(directory):
    if not directory.exists():
        return []
    return [
        f"{path.name}\n{path.read_text()}" for path in sorted(directory.iterdir())
    ]


def replay(root):
    """stdout and exit code of `classify` and `diff extract` with
    `--out-dir`, the files they write, and `diff build --emit both` on
    every extracted chain."""
    texts = []
    for i, s in enumerate(_replay_sets()):
        path = root / f"set{i}.aut"
        path.write_text(render_automaton(s))
        for cmd, out_dir in ((["classify"], "witness"), (["diff", "extract"], "extract")):
            directory = root / f"{out_dir}{i}"
            texts.append(_cli(cmd + [path, "--out-dir", directory], root))
            texts += _written(directory)
        chain = root / f"extract{i}" / "extracted.chain"
        if chain.exists():
            texts.append(_cli(["diff", "build", chain, "--emit", "both"], root))
    return texts


def test_cli_chain_commands_replay_unchanged(tmp_path):
    h = hashlib.sha256()
    for text in replay(tmp_path):
        h.update(text.encode())
        h.update(b"\0")
    assert h.hexdigest() == REPLAY_DIGEST
