"""Finite-automata toolkit for quotient-complexity measurements.

The library builds complete DFAs, applies language operations whose
operands may use different alphabets, and measures the quotient (state)
complexity of every result. A registry of closed-form bounds and the
witness families attaining them turns the documented complexity tables
into an executable regression suite (see the `verify` CLI subcommand).
"""

from .algebra import syntactic_semigroup_size, transition_semigroup
from .atoms import atom_complexities, atom_dfa, atoms
from .automata import (
    CapacityError,
    Dfa,
    accepts,
    make_alphabet,
    minimize,
    quotient_complexity,
    quotient_complexity_of_state,
    trim_alphabet,
    union_alphabets,
)
from .dfafile import DfaParseError, parse_dfa, render_dfa
from .operations import (
    BooleanOp,
    OpResult,
    boolean,
    complement,
    product,
    reverse,
    star,
)
from .bounds import (
    BoundEntry,
    VerificationRow,
    WitnessRecipe,
    all_match,
    atom_formula,
    emit_report,
    registry,
    registry_by_id,
    run_sweep,
)
from .witnesses import (
    DialectSpec,
    WitnessClass,
    apply_dialect,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    build_two_sided_ideal,
    parse_dialect,
)

import types as _types

__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
