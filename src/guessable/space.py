"""Finite representations of subsets of Sigma^omega.

The base space is Sigma^omega for a finite alphabet Sigma = {0..k-1},
k >= 2.  Sets are represented by deterministic complete parity
automata with one global acceptance convention: a sequence belongs to
the set iff the maximum priority visited infinitely often along its
run is even.  Membership is evaluated exactly on ultimately periodic
words; arbitrary sequences are never sampled as if exact.

Every machine, a parity automaton here or a guesser in the guesser
module, is a `Machine`: one validated deterministic complete
transition structure with its runs, its reachable states and
`period_window`, the states a run visits infinitely often on an
ultimately periodic word.  Exact membership and every other limit on
such a word are reductions over that window.

The restriction to finite alphabets is deliberate.  The underlying
theory lives in the infinite-branching sequence space; every statement
used here is alphabet agnostic, and finite branching is what makes all
of the operations below decidable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Iterator

from .cycles import explore, forward_closure, has_cycle

Word = tuple[int, ...]


class AlphabetMismatchError(ValueError):
    """Raised when operands live over different alphabets."""


def words_up_to(alphabet: int, length: int) -> Iterator[Word]:
    """All words of length <= `length`, shortest first, lexicographic."""
    for n in range(length + 1):
        yield from itertools.product(range(alphabet), repeat=n)


@dataclass(frozen=True)
class UPWord:
    """Ultimately periodic word u * v^omega, kept in canonical form.

    Canonical means the period is primitive (not a proper power) and
    the prefix is minimal (no common tail is left to rotate into the
    period).  Two literals denoting the same point are equal after
    construction.
    """

    prefix: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(s < 0 for s in self.prefix + self.period):
            raise ValueError("symbols must be non-negative")
        u, v = _canonical_up(self.prefix, self.period)
        object.__setattr__(self, "prefix", u)
        object.__setattr__(self, "period", v)

    def head(self, n: int) -> Word:
        """The first n symbols."""
        return tuple(map(self.symbol, range(n)))

    def symbol(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    @property
    def max_symbol(self) -> int:
        return max(self.prefix + self.period)

    @classmethod
    def from_literal(cls, text: str) -> "UPWord":
        """Parse `u(v)`, e.g. `001(10)`; u may be empty: `(10)`.

        One digit is one symbol unless the literal contains a `.`;
        then every symbol is a decimal number followed by `.`, e.g.
        `10.(1.)` is the symbol 10 followed by 1 forever.
        """
        text = text.strip()
        if not text.endswith(")") or "(" not in text:
            raise ValueError(f"bad UP word literal {text!r}")
        parts = text[:-1].split("(", 1)
        if "." in text:
            # each symbol ends with its ".", so each part ends in an empty field
            fields = [part.split(".") for part in parts]
            if any(f[-1] for f in fields):
                raise ValueError(f"bad UP word literal {text!r}")
            fields = [f[:-1] for f in fields]
        else:
            fields = [list(part) for part in parts]
        if not fields[1] or not all(s.isdigit() for f in fields for s in f):
            raise ValueError(f"bad UP word literal {text!r}")
        u, v = (tuple(int(s) for s in f) for f in fields)
        return cls(u, v)

    def __str__(self) -> str:
        if self.max_symbol < 10:
            u = "".join(str(s) for s in self.prefix)
            v = "".join(str(s) for s in self.period)
        else:
            u = "".join(f"{s}." for s in self.prefix)
            v = "".join(f"{s}." for s in self.period)
        return f"{u}({v})"


def _canonical_up(u: Word, v: Word) -> tuple[Word, Word]:
    # primitive root of the period
    n = len(v)
    for d in range(1, n + 1):
        if n % d == 0 and v == v[: d] * (n // d):
            v = v[:d]
            break
    # absorb a shared tail: u.x (y.x)^w == u (x.y)^w
    u, v = list(u), list(v)
    while u and u[-1] == v[-1]:
        last = v.pop()
        v.insert(0, last)
        u.pop()
    return tuple(u), tuple(v)


def up_words(alphabet: int) -> Iterator[UPWord]:
    """Every UP word over the alphabet once, by total spelled length, then
    prefix length, then symbols; in that order a pair (u, v) is new exactly
    when it is canonical, as any other pair spells a shorter word."""
    for total in itertools.count(1):
        for plen in range(1, total + 1):
            for u in itertools.product(range(alphabet), repeat=total - plen):
                for v in itertools.product(range(alphabet), repeat=plen):
                    w = UPWord(u, v)
                    if w.prefix == u and w.period == v:
                        yield w


def canonical_up_words(alphabet: int, count: int) -> list[UPWord]:
    """The first `count` words of `up_words`."""
    return list(itertools.islice(up_words(alphabet), count))


# -- machines -------------------------------------------------------


@dataclass(frozen=True)
class Machine:
    """Deterministic complete machine over {0..alphabet-1}.

    States are 0..n-1; delta[q][a] is the successor of q on symbol a.
    Subclasses add one label per state and validate it through the
    two hooks, the count before the transitions and the values after.
    """

    alphabet: int
    start: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.delta)
        if self.alphabet < 2:
            raise ValueError("alphabet size must be >= 2")
        self._check_label_count(n)
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        for q, row in enumerate(self.delta):
            if len(row) != self.alphabet:
                raise ValueError(f"state {q} is missing transitions")
            for nxt in row:
                if not 0 <= nxt < n:
                    raise ValueError(f"transition target {nxt} out of range")
        self._check_label_values()

    def _check_label_count(self, n: int) -> None:
        pass

    def _check_label_values(self) -> None:
        pass

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def state_after(self, word: Word) -> int:
        _check_symbols(word, self.alphabet)
        q = self.start
        for a in word:
            q = self.delta[q][a]
        return q

    def run_states(self, word: Word) -> list[int]:
        """States visited reading `word`, start state included."""
        _check_symbols(word, self.alphabet)
        q = self.start
        states = [q]
        for a in word:
            q = self.delta[q][a]
            states.append(q)
        return states

    def reachable_states(self) -> set[int]:
        return forward_closure([self.start], set(range(self.n_states)), self.delta)

    def period_window(self, w: UPWord) -> set[int]:
        """The states the run on w visits infinitely often.

        Runs the prefix, then whole periods until a period-start state
        repeats; the periods from the first repeated start on are the
        cycle the run stays on forever.
        """
        _check_word(w, self.alphabet)
        delta, period = self.delta, w.period
        q = self.state_after(w.prefix)
        seen = {q: 0}
        starts = [q]
        while True:
            for a in period:
                q = delta[q][a]
            if q in seen:
                break
            seen[q] = len(starts)
            starts.append(q)
        window = set()
        for p in starts[seen[q]:]:
            for a in period:
                window.add(p)
                p = delta[p][a]
        return window


def product(*machines: Machine) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The reachable product of machines over one alphabet, numbered by
    `explore` from the tuple of their starts: `order[i]` is the tuple of
    states numbered i and `rows[i]` its successors in symbol order, the
    transition rows of the product machine with start 0."""
    deltas = [m.delta for m in machines]
    return explore(
        tuple(m.start for m in machines),
        lambda key: zip(*map(getitem, deltas, key)),
    )


@dataclass(frozen=True)
class ParitySet(Machine):
    """Deterministic complete parity automaton over {0..alphabet-1}.

    A sequence is in the set iff the maximum priority seen infinitely
    often along its run is even.
    """

    priority: tuple[int, ...]

    def _check_label_count(self, n: int) -> None:
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if len(self.priority) != n:
            raise ValueError("priority map must cover every state")

    def _check_label_values(self) -> None:
        if any(p < 0 for p in self.priority):
            raise ValueError("priorities must be non-negative")


def _check_word(w: UPWord, alphabet: int) -> None:
    """Refuse a word that uses a symbol outside the alphabet."""
    if w.max_symbol >= alphabet:
        raise AlphabetMismatchError(
            f"word uses symbol {w.max_symbol} outside alphabet {alphabet}"
        )


def _check_symbols(word: Word, alphabet: int) -> None:
    """Refuse a finite word with a symbol outside the alphabet."""
    if word and (min(word) < 0 or max(word) >= alphabet):
        a = next(a for a in word if not 0 <= a < alphabet)
        raise AlphabetMismatchError(f"symbol {a} outside alphabet {alphabet}")


def _check_alphabets(*operands) -> int:
    """The first operand's alphabet, which every operand must share."""
    k = operands[0].alphabet
    for s in operands[1:]:
        if s.alphabet != k:
            raise AlphabetMismatchError(
                f"alphabet mismatch: {s.alphabet} vs {k}"
            )
    return k


def complement(s: ParitySet) -> ParitySet:
    """Same structure, every priority bumped by one: membership flips."""
    return ParitySet(
        alphabet=s.alphabet,
        start=s.start,
        delta=s.delta,
        priority=tuple(p + 1 for p in s.priority),
    )


def membership_up(s: ParitySet, w: UPWord) -> int:
    """Exact membership of an ultimately periodic word: the parity of
    the maximum priority in the run's period window."""
    return 1 - max(s.priority[q] for q in s.period_window(w)) % 2


def is_empty(s: ParitySet) -> bool:
    """True iff no point is in the set: no reachable cycle has an even
    maximum priority, found by refining the reachable SCCs below their
    top priorities."""
    return not has_cycle(s.reachable_states(), s.delta, [[(s.priority, 0)]])


def equivalent(s: ParitySet, t: ParitySet) -> bool:
    """True iff both sets contain exactly the same points.

    A point lies in one set and not the other iff its run in the plain
    pair product ends on a cycle whose maximum s-priority and maximum
    t-priority differ in parity, so one `product` of the two and one
    refinement search on its rows, for both directions at once, decide
    it.
    """
    _check_alphabets(s, t)
    order, rows = product(s, t)
    on_s = [s.priority[p] for p, _ in order]
    on_t = [t.priority[q] for _, q in order]
    differ = [[(on_s, 0), (on_t, 1)], [(on_t, 0), (on_s, 1)]]
    return not has_cycle(set(range(len(rows))), rows, differ)


# -- clopen tables --------------------------------------------------


@dataclass(frozen=True)
class ClopenTable:
    """A set whose membership depends only on the first `depth` symbols.

    `values` is indexed by the base-k encoding of the depth-d prefix.
    """

    alphabet: int
    depth: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.alphabet < 2:
            raise ValueError("alphabet size must be >= 2")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if len(self.values) != self.alphabet**self.depth:
            raise ValueError("table must have one entry per depth-d word")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("table entries must be 0 or 1")

    def encode(self, word: Word) -> int:
        if len(word) < self.depth:
            raise ValueError("word shorter than table depth")
        head = word[: self.depth]
        _check_symbols(head, self.alphabet)
        code = 0
        for a in head:
            code = code * self.alphabet + a
        return code

    def lookup(self, word: Word) -> int:
        """Membership class of every extension of a length >= d word."""
        return self.values[self.encode(word)]


def cylinder(s: Word, alphabet: int = 2) -> ClopenTable:
    """The basic open set of all sequences extending s, as a table of
    depth len(s)."""
    _check_symbols(s, alphabet)
    s = tuple(s)
    words = itertools.product(range(alphabet), repeat=len(s))
    return ClopenTable(alphabet, len(s), tuple(int(w == s) for w in words))


def compile_clopen(t: ClopenTable) -> ParitySet:
    """Prefix tree of depth d feeding two absorbing sinks.

    The depth-n word with base-k code c is state (k^n - 1)/(k - 1) + c,
    so state i reads k*i + 1 + a on symbol a.  The words shorter than d
    are the states below acc = (k^d - 1)/(k - 1); the depth-d word with
    code c would be acc + c, and its place is taken by the accepting
    sink acc or the rejecting sink acc + 1, as values[c] says.  That is
    exactly (k^d - 1)/(k - 1) + 2 states, and one state at depth 0.
    """
    k = t.alphabet
    if t.depth == 0:
        accept = t.values[0] == 1
        return ParitySet(
            alphabet=k,
            start=0,
            delta=((0,) * k,),
            priority=(2 if accept else 1,),
        )
    acc = (k**t.depth - 1) // (k - 1)
    target = [*range(acc), *((acc + 1, acc)[v] for v in t.values)]
    rows = [tuple(target[k * i + 1 : k * i + k + 1]) for i in range(acc)]
    delta = (*rows, (acc,) * k, (acc + 1,) * k)
    return ParitySet(alphabet=k, start=0, delta=delta, priority=(1,) * acc + (2, 1))


# -- open sets ------------------------------------------------------


@dataclass(frozen=True)
class OpenSet:
    """Reachability-acceptance set: a point belongs iff its run ever
    enters the target class, which is absorbing.

    Represented as a parity automaton with derived priorities (2 on
    target states, 1 elsewhere), so every generic operation applies.
    """

    automaton: ParitySet
    target: frozenset[int]

    def __post_init__(self) -> None:
        aut = self.automaton
        for q in self.target:
            if not 0 <= q < aut.n_states:
                raise ValueError("target state out of range")
            for a in range(aut.alphabet):
                if aut.delta[q][a] not in self.target:
                    raise ValueError("target class must be absorbing")
        for q in range(aut.n_states):
            want = 2 if q in self.target else 1
            if aut.priority[q] != want:
                raise ValueError("priorities must be derived from the target")

    @property
    def alphabet(self) -> int:
        return self.automaton.alphabet

    def to_parity(self) -> ParitySet:
        return self.automaton


def make_open(
    alphabet: int,
    start: int,
    delta: tuple[tuple[int, ...], ...],
    target: Iterable[int],
) -> OpenSet:
    tset = frozenset(target)
    priority = tuple(2 if q in tset else 1 for q in range(len(delta)))
    aut = ParitySet(alphabet=alphabet, start=start, delta=delta, priority=priority)
    return OpenSet(automaton=aut, target=tset)


def open_from_parity(s: ParitySet) -> OpenSet:
    """Reinterpret a parity automaton with absorbing even-priority class
    as an open set."""
    target = [q for q in range(s.n_states) if s.priority[q] % 2 == 0]
    return make_open(s.alphabet, s.start, s.delta, target)


def open_union(a: OpenSet, b: OpenSet) -> OpenSet:
    """Union of open sets, open again: the reachable product of the two
    automata, at most |A| x |B| states, whose target is the pairs in
    either target."""
    _check_alphabets(a.automaton, b.automaton)
    order, rows = product(a.automaton, b.automaton)
    target = [i for i, (p, q) in enumerate(order) if p in a.target or q in b.target]
    return make_open(a.alphabet, 0, tuple(rows), target)


def open_subset(a: OpenSet, b: OpenSet) -> bool:
    """True iff every point of a lies in b.

    Both targets are absorbing, so a point of a outside b has a run in
    the plain pair `product` that eventually stays among pairs inside
    a's target and outside b's; such a run exists iff those reachable
    pairs carry a cycle.
    """
    _check_alphabets(a.automaton, b.automaton)
    order, rows = product(a.automaton, b.automaton)
    escaping = {
        i for i, (p, q) in enumerate(order) if p in a.target and q not in b.target
    }
    return not has_cycle(escaping, rows, [()])
