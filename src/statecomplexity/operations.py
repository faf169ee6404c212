"""Language operations over possibly different alphabets.

Binary operations take their operands as they are declared: each DFA
carries only its own letters. Every construction is a subset walk over
int bitmasks whose masks come from `_moves`: each operand's states sit
at their own bits, and a letter an operand lacks empties that operand's
part of the subset, which stands for its empty quotient. So product,
star, the boolean operations and complement share one mechanism, and
complement always means complement with respect to the universe the
walk reads; reversal walks preimages instead. Every result is minimized,
trimmed to the alphabet of the result language, and reported with its
quotient complexity.

Two languages are equal iff `trim_alphabet` gives the same DFA for both
over the same letter order (minimize is canonical), as `_is_ideal` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import (
    Dfa,
    bits,
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
    universe: a letter one operand lacks leaves that operand's part of
    the walk empty, so the word is outside that operand.
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


def _finish(d: Dfa) -> OpResult:
    trimmed = trim_alphabet(d)
    return OpResult(dfa=trimmed, kappa=trimmed.state_count)


def _moves(d: Dfa, alphabet: tuple[str, ...], offset: int = 0, link: int = 0) -> list[list[int]]:
    """Per letter of `alphabet`, the bitmask each state of `d` moves to.

    State q sits at bit offset + q. On a letter `d` lacks every state
    moves to the empty mask, so the operand's part of the subset empties;
    a move into a final state also sets the bits of `link`.
    """
    targets = [1 << (offset + q) | (link if q in d.finals else 0) for q in range(d.state_count)]
    rows = dict(zip(d.alphabet, d.delta))
    return [
        [targets[q] for q in rows[letter]] if letter in rows else [0] * d.state_count
        for letter in alphabet
    ]


def product(lhs: Dfa, rhs: Dfa) -> OpResult:
    """Concatenation of the two languages over the union of their alphabets.

    Subset walk over the left states (bits 0..m-1) and the right states
    (bits m..m+n-1): entering a final state of the left operand also
    enters the right operand's initial state.
    """
    lhs = minimize(lhs)
    rhs = minimize(rhs)
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    offset = lhs.state_count
    enter_rhs = 1 << (offset + rhs.initial)
    masks = [
        left + right
        for left, right in zip(
            _moves(lhs, combined, link=enter_rhs), _moves(rhs, combined, offset)
        )
    ]
    start = 1 << lhs.initial | (enter_rhs if lhs.initial in lhs.finals else 0)
    right_finals = bits(offset + f for f in rhs.finals)
    subsets = determinize(combined, start, subset_step(masks), lambda s: s & right_finals)
    return _finish(subsets)


def boolean(op: BooleanOp, lhs: Dfa, rhs: Dfa) -> OpResult:
    """Any of the ten proper boolean operations over the union alphabet.

    Subset walk over both operands side by side, the left states at bits
    0..m-1 and the right states at bits m..m+n-1; a subset holds at most
    one state of each, and none once a missing letter has emptied it.
    """
    lhs = minimize(lhs)
    rhs = minimize(rhs)
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    offset = lhs.state_count
    masks = [
        left + right
        for left, right in zip(_moves(lhs, combined), _moves(rhs, combined, offset))
    ]
    left_finals = bits(lhs.finals)
    right_finals = bits(offset + f for f in rhs.finals)
    subsets = determinize(
        combined,
        1 << lhs.initial | 1 << (offset + rhs.initial),
        subset_step(masks),
        lambda s: op.holds(bool(s & left_finals), bool(s & right_finals)),
    )
    return _finish(subsets)


def complement(d: Dfa, universe: tuple[str, ...] | str) -> OpResult:
    """Complement with respect to the given universe alphabet.

    The result keeps the universe's letter order.
    """
    universe = make_alphabet(universe)
    d = minimize(d)
    if set(d.alphabet) - set(universe):
        raise ValueError(f"target alphabet {universe!r} is missing letters of {d.alphabet!r}")
    finals = bits(d.finals)
    subsets = determinize(
        universe, 1 << d.initial, subset_step(_moves(d, universe)), lambda s: not s & finals
    )
    return _finish(subsets)


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
    masks = [row + [0] for row in _moves(d, d.alphabet, link=restart)]
    accepting = bits(d.finals) | 1 << fresh
    subsets = determinize(
        d.alphabet, 1 << fresh | restart, subset_step(masks), lambda s: s & accepting
    )
    return _finish(subsets)


def reverse(d: Dfa) -> OpResult:
    """Reversal: the preimage subset walk from the final states.

    A subset is final iff it holds the initial state.
    """
    subsets = determinize(
        d.alphabet, bits(d.finals), reversal_step(d), lambda s: s >> d.initial & 1
    )
    return _finish(subsets)


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
