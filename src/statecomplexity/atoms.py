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

from collections.abc import Iterable

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


def _profile(s: Iterable[int], n: int) -> frozenset[int]:
    """S as a set, after checking that it names only states 0..n-1."""
    s = frozenset(s)
    for q in s:
        if type(q) is not int or not 0 <= q < n:
            raise ValueError(f"profile member {q!r} is not a state 0..{n - 1}")
    return s


def _atomaton(d: Dfa) -> tuple[list[int], list[list[int]]]:
    """The realized profiles, numbered as atoms, and the átomaton's masks.

    The reversal's subset walk from the final states (see `atoms`) sends
    the profile of w, on letter a, to the profile of aw. Its keys are the
    realized profiles, and atom i is the one whose profile is key i, key 0
    being the profile of the empty word. A set of atoms is the bitmask of
    their numbers. The quotient of atom S by a is the union of the atoms T
    whose walk row on a sends T to S, so the masks are the preimage masks
    of the walk's rows, and a set of atoms holds the empty word iff it
    holds atom 0.

    Each of the k·A masks over A atoms can be A bits wide, and the walk
    packs them into A ints of k·A bits, so when k·A² exceeds
    `MAX_SUBSET_BITS` this raises `CapacityError` before building any.
    """
    keys, rows = subset_walk((bits(d.finals),), preimage_masks(d.delta))
    if len(rows) * len(keys) ** 2 > automata.MAX_SUBSET_BITS:
        raise CapacityError(
            f"átomaton masks over {len(keys)} atoms and {len(rows)} letters"
            f" exceed {automata.MAX_SUBSET_BITS} bits"
        )
    return keys, preimage_masks(rows)


def _states(mask: int, n: int) -> frozenset[int]:
    return frozenset(q for q in range(n) if mask >> q & 1)


def atom_dfa(d: Dfa, s: Iterable[int]) -> Dfa:
    """Minimal DFA of the atom named by S, over the input's full alphabet.

    The átomaton's subset walk from S's atom. It is minimal and numbered
    breadth-first as `minimize` numbers its output, so it is not refined.
    Building the átomaton costs the reversal's whole subset walk and its
    masks, however few states S's atom has, and each walked set of atoms
    steps by one OR of a packed mask per atom it holds.
    The result is deliberately not alphabet-trimmed: atoms are read as
    languages over the same alphabet as the input. An atom with no words
    is the empty set of atoms and comes back as the one-state dead DFA, so
    S is realized iff the result has a final state.
    """
    s = bits(_profile(s, d.state_count))
    keys, masks = _atomaton(d)
    start = 1 << keys.index(s) if s in keys else 0
    return determinize(d.alphabet, start, masks, lambda union: union & 1)


def atom_complexities(d: Dfa) -> dict[frozenset[int], int]:
    """`atom_dfa(d, s).state_count` for every profile s of `atoms(d)`, in its order.

    One subset walk of the átomaton from every atom at once serves all the
    profiles: the sets of atoms reachable from S's atom are exactly the
    states of `atom_dfa(d, s)`. The walk starts from the singletons, so
    atom i is walked set i. One pass over the strongly connected
    components of the walk, sinks first, gives every walked set the
    bitmask of the sets it reaches, and an atom's count is that mask's
    popcount.
    """
    keys, masks = _atomaton(d)
    walked, rows = subset_walk([1 << i for i in range(len(keys))], masks)
    successors = [[row[v] for row in rows] for v in range(len(walked))]
    comp = components(successors)
    # reach[k]: bitmask of the sets reachable from component k. Edges go
    # to the same or a lower component, so each is complete when read.
    reach = [0] * (max(comp) + 1)
    for v in sorted(range(len(comp)), key=comp.__getitem__):
        reach[comp[v]] |= 1 << v
        for e in successors[v]:
            reach[comp[v]] |= reach[comp[e]]
    return {
        _states(key, d.state_count): reach[comp[i]].bit_count()
        for key, i in sorted(zip(keys, range(len(keys))))
    }


def atoms(d: Dfa) -> list[frozenset[int]]:
    """All profiles S whose atom is non-empty, in bitmask order.

    The profile of a word w is {q : the language of q contains w}, and
    reading w backwards from the final states computes exactly that set.
    The realized profiles are therefore the keys of the reversal's subset
    walk, which keeps the enumeration proportional to the number of atoms
    rather than to 2^n.
    """
    profiles, _ = subset_walk((bits(d.finals),), preimage_masks(d.delta))
    return [_states(mask, d.state_count) for mask in sorted(profiles)]
