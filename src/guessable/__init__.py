"""Executable theory of guessable sets over finite alphabets.

The package turns three classical characterizations of the second
ambiguous class into running code for automaton-represented sets of
infinite sequences: the shrinking remainder chain and its fixpoint,
guessers with ordinal mind-change budgets, and finite levels of the
difference hierarchy of open sets, together with a brute-force oracle
that cross-checks everything on clopen sets.
"""

__version__ = "0.1.0"
