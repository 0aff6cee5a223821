"""Executable theory of guessable sets over finite alphabets.

The package turns three classical characterizations of the second
ambiguous class into running code for automaton-represented sets of
infinite sequences: the shrinking remainder chain and its fixpoint,
guessers with ordinal mind-change budgets, and finite levels of the
difference hierarchy of open sets, together with a brute-force oracle
that cross-checks everything on clopen sets.
"""

from .ordinal import (
    INFINITY,
    OMEGA,
    ONE,
    ZERO,
    OrdinalCNF,
    add,
    compare,
    congruent,
    from_int,
    parity,
    pred,
    succ,
)
from .space import (
    AlphabetMismatchError,
    ClopenTable,
    OpenSet,
    ParitySet,
    UPWord,
    canonical_up_words,
    compile_clopen,
    complement,
    cylinder,
    equivalent,
    is_empty,
    make_open,
    membership_up,
    open_from_parity,
    open_subset,
    open_union,
)
from .remainder import (
    RemainderTrace,
    in_s_alpha,
    is_guessable,
    remainder_chain,
    rm_alpha_empty,
    s_alpha_empty,
    word_rank,
)
from .guesser import (
    MooreGuesser,
    NotGuessableError,
    RankedGuesser,
    check_bound,
    constant_guesser,
    divergence_witness,
    evaluate,
    flip_outputs,
    limit_on_up,
    mind_change_rank,
    mind_changes,
    synthesize,
    verify_on_up,
)
from .diff_hierarchy import (
    BoundViolationError,
    ChainNotIncreasingError,
    Classification,
    OpenChain,
    RootNotZeroError,
    Side,
    bound_limit_on_up,
    chain_to_guesser,
    classify,
    d_theta,
    guesser_to_chain,
    make_anticongruent,
    normalize_h,
)
from .based_guessing import (
    CylinderFamily,
    ExplicitFamily,
    NotEventuallyPeriodicError,
    OracleFamily,
    cylinder_simulation,
    cylinders_family,
    explicit_family,
    family_stream,
    last_bit_guesser,
    limsup_liminf_check,
    stream_periodicity,
    verify_based,
)
from .oracle import (
    BudgetExceededError,
    TruncatedTree,
    cross_validate,
    draw_tables,
    exhaustive_tables,
    sample_tables,
    truncated_guesser,
    truncated_remainder,
)

__version__ = "0.1.0"
