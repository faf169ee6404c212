"""Atoms: non-empty intersections of complemented and uncomplemented quotients.

For a DFA with states Q, every subset S of Q names a candidate atom: the
words whose quotient-membership profile is exactly S (the word lies in
the language of each state in S and outside that of every other state).
Words are partitioned by their profile, so distinct atoms are disjoint,
and for a minimal DFA the non-empty profiles count the quotients of the
reversed language.

Every quotient of an atom is a union of atoms (Brzozowski and Tamm,
"Theory of átomata", TCS 539, 2014), so the atom DFAs are subset walks
over the atoms themselves: the átomaton. Atoms are disjoint and
non-empty, so distinct unions of atoms are distinct languages, and such
a walk is already minimal.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from . import automata
from .automata import (
    CapacityError,
    Dfa,
    bits,
    components,
    determinize,
    preimage_masks,
    subset_walk,
)
from .witnesses import WitnessClass


def _profile(s: Iterable[int], n: int) -> frozenset[int]:
    """S as a set, after checking that it names only states 0..n-1."""
    s = frozenset(s)
    for q in s:
        if type(q) is not int or not 0 <= q < n:
            raise ValueError(f"profile member {q!r} is not a state 0..{n - 1}")
    return s


def _atomaton(d: Dfa, profiles: Iterable[Iterable[int]]) -> tuple[list[int], list[list[int]]]:
    """Each profile's atom as a set of atoms, and the átomaton's masks.

    The reversal's subset walk from the final states (see `atoms`) sends
    the profile of w, on letter a, to the profile of aw. Atoms are
    numbered as it numbers their profiles, key 0 being the profile of the
    empty word, and a set of atoms is the bitmask of their numbers: an
    unrealized profile's atom is the empty set. The quotient of atom S by
    a is the union of the atoms T whose walk row on a sends T to S, so
    the masks are the preimage masks of the walk's rows, and a set of
    atoms holds the empty word iff it holds atom 0.

    Each of the k·A masks over A atoms can be A bits wide, and the walk
    packs them into A ints of k·A bits, so when k·A² exceeds
    `MAX_SUBSET_BITS` this raises `CapacityError` before building any.
    """
    n = d.state_count
    profiles = [bits(_profile(s, n)) for s in profiles]
    keys, rows = subset_walk((bits(d.finals),), preimage_masks(d.delta))
    if len(rows) * len(keys) ** 2 > automata.MAX_SUBSET_BITS:
        raise CapacityError(
            f"átomaton masks over {len(keys)} atoms and {len(rows)} letters"
            f" exceed {automata.MAX_SUBSET_BITS} bits"
        )
    atom = {key: 1 << number for number, key in enumerate(keys)}
    return [atom.get(s, 0) for s in profiles], preimage_masks(rows)


def atom_dfa(d: Dfa, s: Iterable[int]) -> Dfa:
    """Minimal DFA of the atom named by S, over the input's full alphabet.

    The átomaton's subset walk from S's atom. It is minimal and numbered
    breadth-first as `minimize` numbers its output, so it is not refined.
    Building the átomaton costs the reversal's whole subset walk and its
    masks, however few states S's atom has, and each walked set of atoms
    steps by one OR of a packed mask per atom it holds.
    The result is deliberately not alphabet-trimmed: atoms are read as
    languages over the same alphabet as the input. An atom with no words
    comes back as the one-state dead DFA, so S is realized iff the result
    has a final state.
    """
    (start,), masks = _atomaton(d, [s])
    return determinize(d.alphabet, start, masks, lambda union: union & 1)


def atom_complexities(d: Dfa, profiles: Iterable[Iterable[int]]) -> list[int]:
    """The state count of `atom_dfa(d, s)` for each profile s, in order.

    One subset walk of the átomaton from every profile's atom at once
    serves all the profiles: the sets of atoms reachable from S's atom
    are exactly the states of `atom_dfa(d, s)`. One pass over the
    strongly connected components of the walk, sinks first, gives every
    walked set the bitmask of the sets it reaches, and a profile's count
    is that mask's popcount at its start. An empty atom counts 1, like
    the one-state dead DFA.
    """
    profiles = list(profiles)
    if not profiles:
        return []
    starts, masks = _atomaton(d, profiles)
    keys, rows = subset_walk(starts, masks)
    successors = [[row[v] for row in rows] for v in range(len(keys))]
    comp = components(successors)
    # reach[k]: bitmask of the sets reachable from component k. Edges go
    # to the same or a lower component, so each is complete when read.
    reach = [0] * (max(comp) + 1)
    for v in sorted(range(len(comp)), key=comp.__getitem__):
        reach[comp[v]] |= 1 << v
        for e in successors[v]:
            reach[comp[v]] |= reach[comp[e]]
    # The walk numbers the distinct starts first, in the order given.
    number = {start: v for v, start in enumerate(dict.fromkeys(starts))}
    return [reach[comp[number[start]]].bit_count() for start in starts]


def atoms(d: Dfa) -> list[frozenset[int]]:
    """All profiles S whose atom is non-empty, in bitmask order.

    The profile of a word w is {q : the language of q contains w}, and
    reading w backwards from the final states computes exactly that set.
    The realized profiles are therefore the keys of the reversal's subset
    walk, which keeps the enumeration proportional to the number of atoms
    rather than to 2^n.
    """
    profiles, _ = subset_walk((bits(d.finals),), preimage_masks(d.delta))
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
