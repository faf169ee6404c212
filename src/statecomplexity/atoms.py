"""Atoms: non-empty intersections of complemented and uncomplemented quotients.

For a minimal n-state DFA, every subset S of states names a candidate
atom: the words whose quotient-membership profile is exactly S (the word
lies in the quotient of each state in S and outside every other
quotient). Words are partitioned by their profile, so distinct atoms are
disjoint and the non-empty profiles count the quotients of the reversed
language.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterable

from .automata import (
    Dfa,
    _walked_dfa,
    bits,
    components,
    minimize,
    nerode_classes,
    reversal_step,
    subset_step,
    walk,
)
from .witnesses import WitnessClass


def _profile(s: Iterable[int], n: int) -> frozenset[int]:
    """S as a set, after checking that it names only states 0..n-1."""
    s = frozenset(s)
    for q in s:
        if not isinstance(q, int) or not 0 <= q < n:
            raise ValueError(f"profile member {q!r} is not a state 0..{n - 1}")
    return s


def _pair_automaton(d: Dfa, profiles: Iterable[Iterable[int]]) -> Dfa:
    """DFA over (X, Y) pairs tracking the images of each S and of its complement.

    X and Y are bitmasks. State i is the start pair (S, Q minus S) of the
    i-th distinct profile, and the walk goes on from all of them at once,
    so the profiles of one DFA share every pair they reach. A pair with
    overlapping halves can never separate again, so all such pairs
    collapse into one dead key up front. Accepting pairs are those with X
    inside the finals and Y disjoint from them. The walk meets each subset
    in many pairs but there are at most 2^n subsets, so their images are
    memoized for the length of this call.
    """
    image = cache(subset_step([[1 << q for q in row] for row in d.delta]))
    dead = None
    finals = bits(d.finals)

    def step(pair):
        if pair is dead:
            return [dead] * len(d.alphabet)
        x, y = pair
        return [dead if nx & ny else (nx, ny) for nx, ny in zip(image(x), image(y))]

    full = (1 << d.state_count) - 1
    starts = (bits(_profile(s, d.state_count)) for s in profiles)
    keys, rows = walk(len(d.alphabet), ((x, full & ~x) for x in starts), step)
    return _walked_dfa(
        len(keys),
        d.alphabet,
        tuple(map(tuple, rows)),
        frozenset(
            i
            for i, pair in enumerate(keys)
            if pair is not dead and not pair[0] & ~finals and not pair[1] & finals
        ),
    )


def atom_dfa(d: Dfa, s: Iterable[int]) -> Dfa:
    """Minimal DFA of the atom named by S, over the input's full alphabet.

    The input must be minimal over its language's alphabet. The result is
    minimized but deliberately not alphabet-trimmed any further: atoms are
    read as languages over the same alphabet as the input. An atom with no
    words comes back as the one-state dead DFA, so S is realized iff the
    result has a final state.
    """
    return minimize(_pair_automaton(d, [s]))


def atom_complexities(d: Dfa, profiles: Iterable[Iterable[int]]) -> list[int]:
    """The state count of `atom_dfa(d, s)` for each profile s, in order.

    One pair walk from every profile's start pair and one refinement of
    it serve all the profiles. A pair's language does not depend on which
    start reached it, so the classes reachable from the start pair of S
    are exactly the states of the minimal DFA of S's atom, and their
    number equals `atom_dfa(d, s).state_count`. One pass over the
    strongly connected components of the class graph, sinks first, gives
    every class the bitmask of the classes it reaches, and a profile's
    count is that mask's popcount at its start class. An empty atom
    counts 1, like the one-state dead DFA.
    """
    profiles = [_profile(s, d.state_count) for s in profiles]
    if not profiles:
        return []
    pairs = _pair_automaton(d, profiles)
    cls = nerode_classes(pairs)
    member = [0] * (max(cls) + 1)  # any member gives its class's successors
    for q, c in enumerate(cls):
        member[c] = q
    successors = [[cls[row[q]] for row in pairs.delta] for q in member]
    comp = components(successors)
    # reach[k]: bitmask of the classes reachable from component k. Edges
    # go to the same or a lower component, so each is complete when read.
    reach = [0] * (max(comp) + 1)
    for c in sorted(range(len(comp)), key=comp.__getitem__):
        reach[comp[c]] |= 1 << c
        for e in successors[c]:
            reach[comp[c]] |= reach[comp[e]]
    start = {s: number for number, s in enumerate(dict.fromkeys(profiles))}
    return [reach[comp[cls[start[s]]]].bit_count() for s in profiles]


def atoms(d: Dfa) -> list[frozenset[int]]:
    """All profiles S whose atom is non-empty, in bitmask order.

    The profile of a word w is {q : the quotient of q contains w}, and
    reading w backwards from the final states of a minimal DFA computes
    exactly that set. The realized profiles are therefore the keys of the
    reversal's subset walk, which keeps the enumeration proportional to
    the number of atoms rather than to 2^n.
    """
    profiles, _ = walk(len(d.alphabet), (bits(d.finals),), reversal_step(d))
    return [
        frozenset(q for q in range(d.state_count) if mask >> q & 1) for mask in sorted(profiles)
    ]


def _require_witness(witness_class: WitnessClass, n: int) -> None:
    if n < witness_class.min_n:
        raise ValueError(f"{witness_class.value} witness needs n >= {witness_class.min_n}")


def _named_values(n: int) -> dict[WitnessClass, dict[frozenset[int], int]]:
    """The closed forms' named profiles at n and their values, in table order."""
    full = frozenset(range(n))
    return {
        WitnessClass.REGULAR: {frozenset(): 2**n - 1, full: 2**n - 1},
        WitnessClass.RIGHT_IDEAL: {full: 2 ** (n - 1)},
        WitnessClass.LEFT_IDEAL: {frozenset(): 2 ** (n - 1), full: n},
        WitnessClass.TWO_SIDED_IDEAL: {full: n, full - {1}: 2 ** (n - 2) + n - 1},
    }


# Inner term of the double sum over (x, y) for the profiles not named above.
_INNER = {
    WitnessClass.REGULAR: lambda n, x, y: comb(n, x) * comb(n - x, y),
    WitnessClass.RIGHT_IDEAL: lambda n, x, y: comb(n - 1, x - 1) * comb(n - x, y),
    WitnessClass.LEFT_IDEAL: lambda n, x, y: comb(n - 1, x) * comb(n - 1 - x, y),
    WitnessClass.TWO_SIDED_IDEAL: lambda n, x, y: comb(n - 2, x - 1) * comb(n - x - 1, y - 1),
}


def atom_formula(witness_class: WitnessClass, n: int, s: Iterable[int]) -> int:
    """Closed-form atom complexity for the witness of the given class.

    Returns the documented table as stated, for the registry rows that
    report it. Defined exactly for the profiles the closed forms cover;
    other profiles (whose atoms the witnesses do not realize) raise
    ValueError. Two entries are ones the witnesses cannot meet: the
    left-ideal general branch, whose inner binomial the witness realizes
    as C(n-x-1, y-1) rather than C(n-1-x, y), and the two-sided special
    value 2^(n-2)+n-1 named at Q_n minus {1}. That profile holds the
    initial state without being Q_n, so no word has it; the value belongs
    to Q_n minus {0}.
    """
    _require_witness(witness_class, n)
    s = _profile(s, n)
    named = _named_values(n)[witness_class]
    if s in named:
        return named[s]
    if not s:
        kind = "right" if witness_class is WitnessClass.RIGHT_IDEAL else "two-sided"
        raise ValueError(f"the empty profile is not an atom of a {kind} ideal")
    inner = _INNER[witness_class]
    size = len(s)
    return 1 + sum(
        inner(n, x, y) for x in range(1, size + 1) for y in range(1, n - size + 1)
    )


def explicit_profiles(cls: WitnessClass, n: int) -> list[frozenset[int]]:
    """Profiles the closed forms single out by name, checked even if empty.

    Returns the documented table as stated. Its two-sided entry Q_n minus
    {1} is one no atom of the witness has (a profile holding the initial
    state of a two-sided ideal is all of Q_n), and the table's left-ideal
    general branch is likewise not met by the witness; see atom_formula.
    Below the witness floor there is no witness, so this raises
    ValueError as atom_formula does.
    """
    _require_witness(cls, n)
    return list(_named_values(n)[cls])
