"""The shared machine base, its period window and the explorer."""

import dataclasses

import pytest

from guessable.cycles import explore
from guessable.diff_hierarchy import BoundViolationError, bound_limit_on_up
from guessable.fixtures import F_CYL1, F_NO11
from guessable.guesser import (
    MooreGuesser,
    RankedGuesser,
    check_bound,
    evaluate,
    mind_changes,
    synthesize,
)
from guessable.ordinal import ZERO, from_int
from guessable.remainder import in_s_alpha, remainder_chain, word_rank
from guessable.space import AlphabetMismatchError, Machine, ParitySet, UPWord


P, G = ParitySet, MooreGuesser


@pytest.mark.parametrize(
    "cls, fields, message",
    [
        (P, dict(alphabet=1, delta=(), priority=()), "alphabet size must be >= 2"),
        (P, dict(delta=(), priority=(1,)), "automaton needs at least one state"),
        (P, dict(delta=((0, 0),), priority=()), "priority map must cover every state"),
        (P, dict(start=1, delta=((0, 0),), priority=(-1,)), "start state out of range"),
        (P, dict(delta=((0,),), priority=(-1,)), "state 0 is missing transitions"),
        (P, dict(delta=((0, 3),), priority=(-1,)), "transition target 3 out of range"),
        (P, dict(delta=((0, 0),), priority=(-1,)), "priorities must be non-negative"),
        (G, dict(alphabet=1, delta=(), output=()), "alphabet size must be >= 2"),
        (G, dict(delta=(), output=()), "start state out of range"),
        (G, dict(delta=(), output=(1,)), "output map must cover every state"),
        (G, dict(start=1, delta=((0, 0),), output=(2,)), "start state out of range"),
        (G, dict(delta=((0,),), output=(2,)), "state 0 is missing transitions"),
        (G, dict(delta=((0, -1),), output=(2,)), "transition target -1 out of range"),
        (G, dict(delta=((0, 0),), output=(2,)), "outputs must be bits"),
        (G, dict(delta=((0, 0),), output=([1],)), "outputs must be bits"),
    ],
)
def test_first_failing_check_names_the_fault(cls, fields, message):
    fields = {"alphabet": 2, "start": 0, **fields}
    with pytest.raises(ValueError) as info:
        cls(**fields)
    assert str(info.value) == message


def test_machines_keep_their_fields_and_equality():
    assert [f.name for f in dataclasses.fields(ParitySet)] == [
        "alphabet", "start", "delta", "priority",
    ]
    assert [f.name for f in dataclasses.fields(MooreGuesser)] == [
        "alphabet", "start", "delta", "output",
    ]
    s = ParitySet(alphabet=2, start=0, delta=((0, 0),), priority=(1,))
    g = MooreGuesser(alphabet=2, start=0, delta=((0, 0),), output=(1,))
    assert isinstance(s, Machine) and isinstance(g, Machine)
    assert s == ParitySet(alphabet=2, start=0, delta=((0, 0),), priority=(1,))
    assert s != g
    assert hash(s) == hash(ParitySet(2, 0, ((0, 0),), (1,)))


def test_period_window_is_the_cycle_of_the_run():
    # F_NO11: 0 = only 0s, 1 = last was 1, 2 = saw a 1 and last was 0
    assert F_NO11.period_window(UPWord((), (0,))) == {0}
    assert F_NO11.period_window(UPWord((1,), (0,))) == {2}
    assert F_NO11.period_window(UPWord((), (1, 0))) == {1, 2}
    assert F_NO11.period_window(UPWord((), (1,))) == {3}
    with pytest.raises(AlphabetMismatchError):
        F_NO11.period_window(UPWord((), (2,)))


def test_bound_limit_checks_the_alphabet():
    ranked = synthesize(F_NO11)
    assert bound_limit_on_up(ranked, UPWord((), (0,))).to_int() == 2
    with pytest.raises(AlphabetMismatchError):
        bound_limit_on_up(ranked, UPWord((), (2,)))


def test_bound_limit_refuses_a_bound_that_rises_on_a_cycle():
    """A bound that goes 1, 0, 1, ... round a two-state cycle fails its
    conditions, and is refused as such."""
    guesser = G(alphabet=2, start=0, delta=((1, 1), (0, 0)), output=(0, 0))
    ranked = RankedGuesser(guesser, (from_int(1), ZERO), from_int(3))
    assert not check_bound(ranked)
    with pytest.raises(BoundViolationError, match="^bound oscillates on a cycle$"):
        bound_limit_on_up(ranked, UPWord((), (0,)))


@pytest.mark.parametrize("symbol", [-1, 2])
def test_finite_runs_check_the_alphabet(symbol):
    """A symbol outside the alphabet is refused, not read as another
    symbol through a negative index or past the end of a row."""
    trace = remainder_chain(F_CYL1)
    guesser = synthesize(F_CYL1).guesser
    word = (symbol, symbol, 0)
    message = f"^symbol {symbol} outside alphabet 2$"
    for check in (
        lambda: word_rank(trace, (symbol,)),
        lambda: in_s_alpha(trace, word, ZERO),
        lambda: mind_changes(guesser, word),
        lambda: evaluate(guesser, word),
        lambda: F_CYL1.state_after(word),
        lambda: F_CYL1.run_states(word),
    ):
        with pytest.raises(AlphabetMismatchError, match=message):
            check()


def test_explore_numbers_in_breadth_first_discovery_order():
    calls = []

    def successors(n):
        calls.append(n)
        return [(2 * n) % 7, (2 * n + 1) % 7]

    order, rows = explore(1, successors)
    assert order == [1, 2, 3, 4, 5, 6, 0]
    assert calls == order
    assert rows[0] == (1, 2)
    for key, row in zip(order, rows):
        assert [order[j] for j in row] == successors(key)
