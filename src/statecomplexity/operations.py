"""Language operations over possibly different alphabets.

Binary operations take their operands as they are declared: each DFA
carries only its own letters. Every construction is a subset walk over
int bitmasks whose masks come from `_moves`: each operand's states sit
at their own bits, and a letter an operand lacks empties that operand's
part of the subset, which stands for its empty quotient. So product,
star, the boolean operations and complement share one mechanism, and
complement always means complement with respect to the universe the
walk reads; reversal walks preimages instead. The ten boolean operations
on one pair are one walk, the direct product of the two operands, each
completed by its empty quotient (`_pair_walk`); each operation reads its
own final subsets off that walk. Every result is minimal,
trimmed to the alphabet of the result language, and reported with its
quotient complexity. Each walk is minimized after it, except reversal's:
its operand is minimized first, and the preimage walk of a minimal DFA
is minimal by Brzozowski's theorem, so it is not refined.

Two languages are equal iff `trim_alphabet` gives the same DFA for both
over the same letter order (minimize is canonical).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .automata import (
    Dfa,
    _trim_minimal,
    _walk_dfa,
    bits,
    determinize,
    make_alphabet,
    minimize,
    preimage_masks,
    subset_walk,
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
    subsets = determinize(combined, start, masks, lambda s: s & right_finals)
    return _finish(subsets)


# Only the last pair's walk is kept: a sweep runs each pair's cells back to back.
@functools.lru_cache(maxsize=1)
def _pair_walk(
    lhs: Dfa, rhs: Dfa
) -> tuple[tuple[str, ...], list[int], tuple[tuple[int, ...], ...], int, int]:
    """The walk every boolean operation on (lhs, rhs) reads its finals from.

    Subset walk over both minimized operands side by side, the left
    states at bits 0..m-1 and the right states at bits m..m+n-1; a subset
    holds at most one state of each, and none once a missing letter has
    emptied it. Returns the union alphabet, the walk's subsets and rows,
    and the masks of the left and right final states.
    """
    lhs = minimize(lhs)
    rhs = minimize(rhs)
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    offset = lhs.state_count
    masks = [
        left + right
        for left, right in zip(_moves(lhs, combined), _moves(rhs, combined, offset))
    ]
    keys, rows = subset_walk((1 << lhs.initial | 1 << (offset + rhs.initial),), masks)
    right_finals = bits(offset + f for f in rhs.finals)
    return combined, keys, tuple(map(tuple, rows)), bits(lhs.finals), right_finals


def boolean(op: BooleanOp, lhs: Dfa, rhs: Dfa) -> OpResult:
    """Any of the ten proper boolean operations over the union alphabet.

    Every operation on a pair reads one walk (`_pair_walk`), the direct
    product of the operands completed by their empty quotients; only the
    final subsets depend on `op`. The walk of the last pair is kept, so
    the operations of one pair called back to back walk it once.
    """
    combined, keys, rows, left_finals, right_finals = _pair_walk(lhs, rhs)
    table = op.value  # indexed as (TT, TF, FT, FF): 2·(not in lhs) + (not in rhs)
    finals = frozenset(
        i for i, s in enumerate(keys) if table[(not s & left_finals) << 1 | (not s & right_finals)]
    )
    return _finish(_walk_dfa(len(keys), combined, rows, finals))


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
        universe, 1 << d.initial, _moves(d, universe), lambda s: not s & finals
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
    subsets = determinize(d.alphabet, 1 << fresh | restart, masks, lambda s: s & accepting)
    return _finish(subsets)


def reverse(d: Dfa) -> OpResult:
    """Reversal: the preimage subset walk from the final states.

    A subset is final iff it holds the initial state. The operand is
    minimized first, which makes it accessible; the preimage walk of an
    accessible DFA is then minimal (Brzozowski, 1962) and numbered from
    its start like `minimize`'s output, so it is not refined again.
    Only its letters are trimmed.
    """
    d = minimize(d)
    subsets = determinize(
        d.alphabet, bits(d.finals), preimage_masks(d.delta), lambda s: s >> d.initial & 1
    )
    trimmed = _trim_minimal(subsets)
    return OpResult(dfa=trimmed, kappa=trimmed.state_count)

