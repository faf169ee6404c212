"""Language operations over possibly different alphabets.

Binary operations take their operands as they are declared: each DFA
carries only its own letters. Product, star and reversal are subset
walks in which a letter missing from an operand simply empties that
operand's part of the subset, while boolean operations complete both
operands over the union alphabet with a sink before walking the direct
product, so complement always means complement with respect to the union
universe. Every result is minimized, trimmed to the alphabet of the
result language, and reported with its quotient complexity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .automata import (
    Dfa,
    bits,
    complete_over,
    determinize,
    make_alphabet,
    minimize,
    reversal_step,
    subset_step,
    trim_alphabet,
    union_alphabets,
)


class BooleanOp(Enum):
    """The ten proper binary boolean operations.

    The value is the truth table as (TT, TF, FT, FF): whether a word
    belongs to the result given membership in the left and right operand.
    Complemented operands are complemented with respect to the union
    universe, which the direct-product construction provides for free.
    """

    UNION = (True, True, True, False)
    INTER = (True, False, False, False)
    SYMDIFF = (False, True, True, False)
    XNOR = (True, False, False, True)
    DIFF = (False, True, False, False)
    REVDIFF = (False, False, True, False)
    IMPL = (True, False, True, True)
    CONVERSE_IMPL = (True, True, False, True)
    NOR = (False, False, False, True)
    NAND = (False, True, True, True)

    def holds(self, in_lhs: bool, in_rhs: bool) -> bool:
        tt, tf, ft, ff = self.value
        if in_lhs:
            return tt if in_rhs else tf
        return ft if in_rhs else ff


@dataclass(frozen=True)
class OpResult:
    """A minimal trimmed result DFA together with its quotient complexity."""

    dfa: Dfa
    kappa: int
    combined_alphabet: tuple[str, ...]


def _finish(d: Dfa, combined: tuple[str, ...]) -> OpResult:
    trimmed = trim_alphabet(d)
    return OpResult(dfa=trimmed, kappa=trimmed.state_count, combined_alphabet=combined)


def product(lhs: Dfa, rhs: Dfa) -> OpResult:
    """Concatenation of the two languages over the union of their alphabets.

    Subset walk over the left states (bits 0..m-1) and the right states
    (bits m..m+n-1): entering a final state of the left operand also
    enters the right operand's initial state. Each operand moves only on
    its own letters; on any other letter its part of the subset empties.
    """
    lhs = minimize(lhs)
    rhs = minimize(rhs)
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    offset = lhs.state_count
    enter_rhs = 1 << (offset + rhs.initial)

    def left(q: int) -> int:
        return 1 << q | (enter_rhs if q in lhs.finals else 0)

    masks = []
    for letter in combined:
        row = [0] * (offset + rhs.state_count)
        if letter in lhs.alphabet:
            row[:offset] = map(left, lhs.transformation(letter))
        if letter in rhs.alphabet:
            row[offset:] = (1 << (offset + q) for q in rhs.transformation(letter))
        masks.append(row)
    right_finals = bits(offset + f for f in rhs.finals)
    subsets = determinize(
        combined, left(lhs.initial), subset_step(masks), lambda s: s & right_finals
    )
    return _finish(subsets, combined)


def _direct_product(lhs: Dfa, rhs: Dfa, op: BooleanOp) -> Dfa:
    """Reachable direct product of two DFAs over one shared alphabet."""
    assert lhs.alphabet == rhs.alphabet
    pairs = list(zip(lhs.delta, rhs.delta))
    return determinize(
        lhs.alphabet,
        (lhs.initial, rhs.initial),
        lambda pq: [(row1[pq[0]], row2[pq[1]]) for row1, row2 in pairs],
        lambda pq: op.holds(pq[0] in lhs.finals, pq[1] in rhs.finals),
    )


def boolean(op: BooleanOp, lhs: Dfa, rhs: Dfa) -> OpResult:
    """Any of the ten proper boolean operations over the union alphabet."""
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    lc = complete_over(minimize(lhs), combined)
    rc = complete_over(minimize(rhs), combined)
    return _finish(_direct_product(lc, rc, op), combined)


def complement(d: Dfa, universe: tuple[str, ...] | str) -> OpResult:
    """Complement with respect to the given universe alphabet."""
    universe = make_alphabet(universe)
    completed = complete_over(minimize(d), universe)
    flipped = replace(completed, finals=frozenset(range(completed.state_count)) - completed.finals)
    return _finish(flipped, universe)


def star(d: Dfa) -> OpResult:
    """Kleene star as a subset walk with a fresh initial-final state.

    The fresh state (bit n) starts the walk together with the old initial
    state and has no moves of its own; entering an old final state also
    re-enters the old initial state. If the language already contains the
    empty word the fresh state simply merges away during minimization.
    """
    d = minimize(d)
    fresh = d.state_count
    restart = 1 << d.initial
    masks = [
        [1 << q | (restart if q in d.finals else 0) for q in row] + [0] for row in d.delta
    ]
    accepting = bits(d.finals) | 1 << fresh
    subsets = determinize(
        d.alphabet, 1 << fresh | restart, subset_step(masks), lambda s: s & accepting
    )
    return _finish(subsets, d.alphabet)


def reverse(d: Dfa) -> OpResult:
    """Reversal: the preimage subset walk from the final states.

    A subset is final iff it holds the initial state.
    """
    subsets = determinize(
        d.alphabet, bits(d.finals), reversal_step(d), lambda s: s >> d.initial & 1
    )
    return _finish(subsets, d.alphabet)


def universal_dfa(alphabet: tuple[str, ...] | str) -> Dfa:
    """One-state DFA accepting every word over the alphabet."""
    alphabet = make_alphabet(alphabet)
    return Dfa(
        state_count=1,
        alphabet=alphabet,
        delta=((0,),) * len(alphabet),
        initial=0,
        finals=frozenset({0}),
    )


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff the two languages are equal as word sets.

    Both automata are completed over the union of their alphabets and the
    reachable direct product is searched for a pair on which exactly one
    side accepts; no such pair means equality.
    """
    combined = union_alphabets(d1.alphabet, d2.alphabet)
    c1 = complete_over(d1, combined)
    c2 = complete_over(d2, combined)
    prod = _direct_product(c1, c2, BooleanOp.SYMDIFF)
    return not prod.finals


def _is_ideal(d: Dfa, prepend: bool, append: bool) -> bool:
    trimmed = trim_alphabet(d)
    if not trimmed.finals:
        return False  # ideals are non-empty by definition
    sigma = trimmed.alphabet
    if not sigma:
        return False  # the language {epsilon} cannot absorb anything
    grown = trimmed
    universe = universal_dfa(sigma)
    if prepend:
        grown = product(universe, grown).dfa
    if append:
        grown = product(grown, universe).dfa
    return grown == trimmed  # minimize is canonical


def is_right_ideal(d: Dfa) -> bool:
    """True iff L is non-empty and absorbs its alphabet on the right."""
    return _is_ideal(d, prepend=False, append=True)


def is_left_ideal(d: Dfa) -> bool:
    """True iff L is non-empty and absorbs its alphabet on the left."""
    return _is_ideal(d, prepend=True, append=False)


def is_two_sided_ideal(d: Dfa) -> bool:
    """True iff L is non-empty and absorbs its alphabet on both sides."""
    return _is_ideal(d, prepend=True, append=True)
