"""Language operations over possibly different alphabets.

Binary operations take their operands as they are declared: each DFA
carries only its own letters. Every construction is a subset walk over
int bitmasks whose masks come from `_moves`: each operand's states sit
at their own bits, and a letter an operand lacks empties that operand's
part of the subset, which stands for its empty quotient, so complement
always means complement with respect to the universe the walk reads.
Product and the ten boolean operations are one walk of both operands
side by side (`_walk_pair`), product's linking the left finals to the
right initial state. The walk sorts its subsets once into four colour
classes, by which operands' finals they hold, and one truth-table
reader (`_read`) takes the finals as the union of the classes a table
accepts. The last pair's boolean walk is kept with a memo of its reads:
each truth table is refined once, its complement reuses that
refinement with the finals flipped, and from the walk's second
refinement on its refinements share one set of preimage lists. Star,
complement and reversal walk one operand with `determinize`; reversal
walks preimages. Every result is minimal, trimmed to the alphabet of
the result language, and reported with its quotient complexity. Each
walk is minimized after it, except reversal's: its operand is minimized
first, and the preimage walk of a minimal DFA is minimal by
Brzozowski's theorem, so it is not refined.

Two languages are equal iff `trim_alphabet` gives the same DFA for both
over the same letter order (minimize is canonical).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from enum import Enum
from itertools import compress

from .automata import (
    _MINIMAL,
    _PREIMAGES,
    Dfa,
    _preimage_lists,
    _trim_minimal,
    _unchecked_dfa,
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


class OpResult(namedtuple("OpResult", "dfa kappa")):
    """A minimal trimmed result DFA together with its quotient complexity."""

    __slots__ = ()


# A pair walk: its alphabet, its rows, the colour classes of its subsets
# (see `_walk_pair`) and the memo its reads share (see `_read`), keyed by
# truth table and by `_PREIMAGES`, which lives and dies with the walk.
_PairWalk = tuple[tuple[str, ...], tuple[tuple[int, ...], ...], list[list[int]], dict]


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


def _walk_pair(lhs: Dfa, rhs: Dfa, link: bool) -> _PairWalk:
    """The subset walk of both minimized operands over the union alphabet.

    The left states sit at bits 0..m-1 and the right states at m..m+n-1.
    Unlinked, it is the direct product of the operands completed by their
    empty quotients. Linked (product), entering a left final state, the
    start included, is what enters the right initial state.
    Returns the alphabet, the rows, the colour classes and an empty memo
    for the walk's reads. The colour classes TT, TF, FT and FF list the
    subsets by whether they hold a left final state and a right final
    state, each subset once, in walk order.
    """
    lhs = minimize(lhs)
    rhs = minimize(rhs)
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    offset = lhs.state_count
    enter_rhs = 1 << (offset + rhs.initial)
    left_moves = _moves(lhs, combined, link=enter_rhs if link else 0)
    masks = [left + right for left, right in zip(left_moves, _moves(rhs, combined, offset))]
    start = 1 << lhs.initial | (enter_rhs if not link or lhs.initial in lhs.finals else 0)
    keys, rows = subset_walk((start,), masks)
    left_finals = bits(lhs.finals)
    right_finals = bits(offset + f for f in rhs.finals)
    colours: list[list[int]] = [[], [], [], []]
    for i, s in enumerate(keys):
        colours[(not s & left_finals) << 1 | (not s & right_finals)].append(i)
    return combined, tuple(map(tuple, rows)), colours, {}


# Only the last pair's unlinked walk is kept, and its memo with it: a sweep
# runs each pair's cells back to back.
@functools.lru_cache(maxsize=1)
def _pair_walk(lhs: Dfa, rhs: Dfa) -> _PairWalk:
    """The unlinked walk of (lhs, rhs), which every boolean operation reads."""
    return _walk_pair(lhs, rhs, link=False)


def _read(walk: _PairWalk, table: tuple[bool, bool, bool, bool]) -> OpResult:
    """The walk as a DFA whose finals are the subsets `table` accepts.

    `table` is a truth table (TT, TF, FT, FF): whether a subset is final
    given whether it holds a left final state and a right final state,
    so the finals are the union of the colour classes it accepts. The
    walk's memo keeps each table's DFA and result, so a table read again
    returns the same result. Complementary tables have the same Nerode
    partition, and `minimize` numbers classes by the partition, the
    initial state and delta alone, so the complement of a table read
    before is its minimal DFA with the finals flipped, not refined
    again. Every other read refines the walk; from its second refinement
    on, the refinements read the walk's preimage lists, built once and
    kept in the memo, so a walk read once keeps none.
    """
    combined, rows, colours, memo = walk
    known = memo.get(table)
    if known is None:
        twin = memo.get(tuple(not accepted for accepted in table))
        if twin is not None:
            m = minimize(twin[0])
            flipped = frozenset(range(m.state_count)) - m.finals
            d = _unchecked_dfa(m.state_count, m.alphabet, m.delta, m.initial, flipped)
            d.__dict__[_MINIMAL] = True
        else:
            count = sum(map(len, colours))
            d = _walk_dfa(count, combined, rows, frozenset().union(*compress(colours, table)))
            if memo:  # not the walk's first refinement
                if _PREIMAGES not in memo:
                    memo[_PREIMAGES] = _preimage_lists(rows, range(count))
                d.__dict__[_PREIMAGES] = memo[_PREIMAGES]
        known = memo[table] = d, _finish(d)
    return known[1]


def product(lhs: Dfa, rhs: Dfa) -> OpResult:
    """Concatenation over the union alphabet: the linked walk, read as "in the right operand"."""
    return _read(_walk_pair(lhs, rhs, link=True), (True, False, True, False))


def boolean(op: BooleanOp, lhs: Dfa, rhs: Dfa) -> OpResult:
    """Any of the ten proper boolean operations over the union alphabet.

    Every operation on a pair reads the pair's unlinked walk, with its
    own truth table; the walk of the last pair is kept with a memo of its
    reads, so the operations of one pair called back to back walk it
    once, refine it once per complementary pair of operations, and an
    operation called again returns its first result (see `_read`).
    """
    return _read(_pair_walk(lhs, rhs), op.value)


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

