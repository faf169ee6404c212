"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
import sys
from collections import deque
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from statecomplexity import (
    BooleanOp,
    Dfa,
    make_alphabet,
    product,
    trim_alphabet,
    union_alphabets,
)
from statecomplexity.bounds import WitnessRecipe


# Columns 1-6 of `verify --m 3..8 --n 3..8`, 17 documented mismatches
# included: the one golden grid. Every smaller grid's golden is a
# restriction of it, taken by `golden_within`.
GOLDEN_GRID = Path(__file__).parent / "verify_grid_3to8.csv"

# The default `verify` grid's range of m and n per witness class, keyed by
# the id prefix. A literal, not the library's table, so a change to the
# library's default grid fails the tests that compare against it.
DEFAULT_RANGES = {"REG": (3, 5), "RID": (3, 5), "LID": (4, 5), "TID": (5, 6)}


def golden_within(ranges: Mapping[str, tuple[int, int]]) -> str:
    """The header and, in file order, every row of the golden grid whose n
    lies in its class's range and whose m is empty or lies there too; the
    class is the id's prefix (REG, RID, LID or TID)."""
    header, *rows = GOLDEN_GRID.read_text().splitlines(keepends=True)

    def within(row: str) -> bool:
        entry_id, m, n = row.split(",")[:3]
        lo, hi = ranges[entry_id.split("-", 1)[0]]
        return lo <= int(n) <= hi and (m == "" or lo <= int(m) <= hi)

    return "".join([header, *filter(within, rows)])


def fig_ends_in_b() -> Dfa:
    """Two-state minimal DFA for the words over {a,b} ending in b."""
    return Dfa(
        state_count=2,
        alphabet=("a", "b"),
        delta=((0, 0), (1, 1)),
        initial=0,
        finals=frozenset({1}),
    )


def fig_ends_in_c() -> Dfa:
    """Two-state minimal DFA for the words over {a,c} ending in c."""
    return Dfa(
        state_count=2,
        alphabet=("a", "c"),
        delta=((0, 0), (1, 1)),
        initial=0,
        finals=frozenset({1}),
    )


def random_dfa(rng: random.Random, max_states: int = 8, letters: str = "abcd") -> Dfa:
    """Uniformly random complete DFA; not necessarily minimal."""
    n = rng.randint(1, max_states)
    k = rng.randint(1, len(letters))
    return random_dfa_over(rng, sorted(rng.sample(letters, k)), n)


def random_dfa_over(rng: random.Random, alphabet: list[str], n: int) -> Dfa:
    """Uniformly random complete n-state DFA over `alphabet`, in its order."""
    delta = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in alphabet)
    finals = frozenset(rng.sample(range(n), rng.randint(0, n)))
    return Dfa(n, make_alphabet(alphabet), delta, rng.randrange(n), finals)


def random_word(rng: random.Random, alphabet: tuple[str, ...], max_len: int = 12) -> str:
    if not alphabet:
        return ""
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def word_in(d: Dfa, word: str) -> bool:
    """Language membership that treats foreign letters as rejection.

    A word using a letter outside the DFA's alphabet cannot be in its
    language, so this is membership in L(d) as a set of words over any
    larger universe.
    """
    table = dict(zip(d.alphabet, d.delta))
    q = d.initial
    for letter in word:
        if letter not in table:
            return False
        q = table[letter][q]
    return q in d.finals


def nfa_accepts(
    transitions: frozenset[tuple[int, str | None, int]],
    initials: frozenset[int],
    finals: frozenset[int],
    word: str,
) -> bool:
    """Direct simulation of an NFA whose label None marks empty-word moves.

    An oracle independent of determinize.
    """
    eps: dict[int, set[int]] = {}
    step: dict[tuple[int, str], set[int]] = {}
    for p, label, q in transitions:
        if label is None:
            eps.setdefault(p, set()).add(q)
        else:
            step.setdefault((p, label), set()).add(q)

    def closure(states: set[int]) -> set[int]:
        out = set(states)
        stack = list(states)
        while stack:
            p = stack.pop()
            for q in eps.get(p, ()):
                if q not in out:
                    out.add(q)
                    stack.append(q)
        return out

    current = closure(set(initials))
    for letter in word:
        nxt: set[int] = set()
        for p in current:
            nxt |= step.get((p, letter), set())
        current = closure(nxt)
    return bool(current & finals)


def _reverse_determinize(d: Dfa) -> Dfa:
    """Subset construction of the reversed DFA over frozenset subsets.

    Subsets are numbered in BFS order with letters in alphabet order, so
    the numbering is canonical; it shares no code with the library's walk.
    """
    start = frozenset(d.finals)
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in d.alphabet]
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for row, images in zip(rows, d.delta):
            nxt = frozenset(p for p, q in enumerate(images) if q in subset)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
    return Dfa(
        state_count=len(order),
        alphabet=d.alphabet,
        delta=tuple(map(tuple, rows)),
        initial=0,
        finals=frozenset(i for i, subset in enumerate(order) if d.initial in subset),
    )


def brzozowski_minimize(d: Dfa) -> Dfa:
    """Minimization by double reversal; an oracle against minimize."""
    return _reverse_determinize(_reverse_determinize(d))


def subset_step_oracle(masks):
    """Per-letter subset step; an oracle against the step `subset_walk`
    runs inline.

    Each member of a subset ORs its mask on every letter into that
    letter's image, one letter at a time.
    """

    def step(subset: int) -> list[int]:
        images = [0] * len(masks)
        while subset:
            low = subset & -subset
            q = low.bit_length() - 1
            for k, row in enumerate(masks):
                images[k] |= row[q]
            subset ^= low
        return images

    return step


def subset_walk_oracle(
    starts: Iterable[int], masks, cap: int
) -> tuple[list[int], list[list[int]]] | None:
    """Breadth-first subset walk over `subset_step_oracle`; an oracle
    against `subset_walk`. The distinct starts are numbered first, in
    order. Returns None when a new subset is reached with `cap` already
    numbered, where the library raises `CapacityError`.
    """
    step = subset_step_oracle(masks)
    keys = list(dict.fromkeys(starts))
    index = {start: number for number, start in enumerate(keys)}
    rows: list[list[int]] = [[] for _ in masks]
    queue = deque(keys)
    while queue:
        for row, nxt in zip(rows, step(queue.popleft())):
            if nxt not in index:
                if len(keys) >= cap:
                    return None
                index[nxt] = len(keys)
                keys.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
    return keys, rows


def moore_classes(d: Dfa) -> list[int]:
    """Moore's refinement; an oracle against `nerode_classes`.

    States start split by finality and are re-bucketed on the classes of
    their successors, one round per word length, until stable. The class
    numbers are not always dense: an all-final DFA gives `[1] * n`.
    """
    cls = [int(q in d.finals) for q in range(d.state_count)]
    count = len(set(cls))
    while True:
        buckets: dict[tuple[int, ...], int] = {}
        signatures = zip(cls, *([cls[j] for j in row] for row in d.delta))
        nxt = [buckets.setdefault(sig, len(buckets)) for sig in signatures]
        if len(buckets) == count:
            return cls
        cls, count = nxt, len(buckets)


def moore_minimize(d: Dfa) -> Dfa:
    """`minimize` with Moore's refinement in place of Hopcroft's.

    The quotient of `moore_classes`, numbered by its own breadth-first
    search from the initial class with letters in alphabet order; an
    oracle that shares no walk with the library and checks that neither
    the refinement nor the renumbering changes a result, not even a
    numbering.
    """
    cls = moore_classes(d)
    rep: dict[int, int] = {}
    for q, c in enumerate(cls):
        rep.setdefault(c, q)
    start = cls[d.initial]
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in d.alphabet]
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for row, images in zip(rows, d.delta):
            nxt = cls[images[rep[c]]]
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
    return Dfa(
        state_count=len(order),
        alphabet=d.alphabet,
        delta=tuple(map(tuple, rows)),
        initial=0,
        finals=frozenset(i for i, c in enumerate(order) if rep[c] in d.finals),
    )


def pair_atom_oracle(d: Dfa, s: Iterable[int]) -> Dfa:
    """Minimal DFA of the atom of profile S by the (X, Y) pair construction.

    Brzozowski and Tamm's pair method ("Complexity of atoms of regular
    languages", IJFCS 24(7), 2013): a word leads the pair (S, Q minus S)
    to the images (X, Y) of both sets, and the rest of the word stays in
    the atom iff it takes X into the final states and Y outside them. A
    pair whose halves overlap accepts nothing, so all such pairs are one
    dead state. A plain breadth-first search over frozenset pairs,
    minimized by `moore_minimize`; an oracle against `atom_dfa` that
    shares no walk with the library.
    """
    x = frozenset(s)
    start = (x, frozenset(range(d.state_count)) - x)
    dead = None
    index = {start: 0}
    order: list = [start]
    rows: list[list[int]] = [[] for _ in d.alphabet]
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for row, images in zip(rows, d.delta):
            nxt = dead
            if pair is not dead:
                nx = frozenset(images[q] for q in pair[0])
                ny = frozenset(images[q] for q in pair[1])
                if not nx & ny:
                    nxt = (nx, ny)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
    return moore_minimize(
        Dfa(
            state_count=len(order),
            alphabet=d.alphabet,
            delta=tuple(map(tuple, rows)),
            initial=0,
            finals=frozenset(
                i
                for i, pair in enumerate(order)
                if pair is not dead and pair[0] <= d.finals and not pair[1] & d.finals
            ),
        )
    )


def language_alphabet_oracle(d: Dfa) -> tuple[str, ...]:
    """Letters on some path from the initial state to a final state.

    A forward search for the reachable states, then a reverse search from
    the reachable finals for the states that reach one; a letter counts
    iff it moves a reachable state into that set. An oracle against
    `language_alphabet`, which reads the letters off the minimal DFA.
    """
    order = [d.initial]
    seen = {d.initial}
    for q in order:
        for row in d.delta:
            if row[q] not in seen:
                seen.add(row[q])
                order.append(row[q])
    back: dict[int, list[int]] = {q: [] for q in order}
    for row in d.delta:
        for q in order:
            back[row[q]].append(q)
    useful = {q for q in order if q in d.finals}
    stack = list(useful)
    while stack:
        for q in back[stack.pop()]:
            if q not in useful:
                useful.add(q)
                stack.append(q)
    return tuple(a for a, row in zip(d.alphabet, d.delta) if any(row[q] in useful for q in order))


def semigroup_oracle(d: Dfa) -> set[tuple[int, ...]]:
    """Each transformation of a non-empty word, as an int tuple.

    Breadth-first closure composing int tuples pointwise in diagrammatic
    order (t then g sends q to g[t[q]]); an oracle against the library's
    `bytes` closure.
    """
    seen = set(d.delta)
    queue = deque(seen)
    while queue:
        t = queue.popleft()
        for g in d.delta:
            composed = tuple(g[q] for q in t)
            if composed not in seen:
                seen.add(composed)
                queue.append(composed)
    return seen


def is_isomorphic(d1: Dfa, d2: Dfa) -> bool:
    """Structural equality up to renaming of states.

    Alphabets must be equal as ordered sequences. The bijection is built
    by parallel BFS from the initial states; unreachable states (absent
    when both inputs are minimal) are compared only by count.
    """
    if d1.alphabet != d2.alphabet or d1.state_count != d2.state_count:
        return False
    if (d1.initial in d1.finals) != (d2.initial in d2.finals):
        return False
    pairing = {d1.initial: d2.initial}
    queue = deque([(d1.initial, d2.initial)])
    while queue:
        p, q = queue.popleft()
        for row1, row2 in zip(d1.delta, d2.delta):
            p2, q2 = row1[p], row2[q]
            if p2 in pairing:
                if pairing[p2] != q2:
                    return False
                continue
            if q2 in pairing.values():
                return False
            if (p2 in d1.finals) != (q2 in d2.finals):
                return False
            pairing[p2] = q2
            queue.append((p2, q2))
    return True


def complete_over(d: Dfa, alphabet: Iterable[str]) -> Dfa:
    """Extend the DFA to a larger alphabet by adding one non-final sink.

    Letters the DFA already has keep their transformations; every missing
    letter sends every state to the sink, and the sink is fixed by all of
    the target alphabet. No sink is added when no letter is missing, so
    completion is a no-op on already-complete inputs.
    """
    target = make_alphabet(alphabet)
    missing = [a for a in target if a not in d.alphabet]
    if set(d.alphabet) - set(target):
        raise ValueError(
            f"target alphabet {target!r} is missing letters of {d.alphabet!r}"
        )
    if not missing:
        if target == d.alphabet:
            return d
        # Same letters, different order: just realign the rows.
        rows = tuple(d.transformation(a) for a in target)
        return Dfa(d.state_count, target, rows, d.initial, d.finals)
    n = d.state_count
    sink = n
    rows = []
    for a in target:
        if a in d.alphabet:
            rows.append(d.transformation(a) + (sink,))
        else:
            rows.append((sink,) * (n + 1))
    return Dfa(
        state_count=n + 1,
        alphabet=target,
        delta=tuple(rows),
        initial=d.initial,
        finals=d.finals,
    )


def holds(op: BooleanOp, in_lhs: bool, in_rhs: bool) -> bool:
    """Whether a word is in `op`'s result, given its membership in the
    left and right operands: the truth table read as (TT, TF, FT, FF)."""
    tt, tf, ft, ff = op.value
    if in_lhs:
        return tt if in_rhs else tf
    return ft if in_rhs else ff


def sink_product(op: BooleanOp, lhs: Dfa, rhs: Dfa) -> Dfa:
    """Reachable direct product of both operands, each completed with a
    sink over the union alphabet; a pair is final iff `op` holds.

    Tuple-keyed breadth-first search that shares no code with the
    library's subset walk; an oracle against `boolean`.
    """
    combined = union_alphabets(lhs.alphabet, rhs.alphabet)
    lc, rc = complete_over(lhs, combined), complete_over(rhs, combined)
    order = [(lc.initial, rc.initial)]
    index = {order[0]: 0}
    rows: list[list[int]] = [[] for _ in combined]
    for p, q in order:  # order grows while it is read: it is the queue
        for row, left, right in zip(rows, lc.delta, rc.delta):
            pair = (left[p], right[q])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            row.append(index[pair])
    return Dfa(
        state_count=len(order),
        alphabet=combined,
        delta=tuple(map(tuple, rows)),
        initial=0,
        finals=frozenset(
            i for i, (p, q) in enumerate(order) if holds(op, p in lc.finals, q in rc.finals)
        ),
    )


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff the two languages are equal as word sets: no reachable
    pair of their sink product accepts on exactly one side."""
    return not sink_product(BooleanOp.SYMDIFF, d1, d2).finals


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def dfa_checks(monkeypatch) -> list[Dfa]:
    """Every DFA that `Dfa._check` checks during the test, from a cold
    witness cache: the library checks none that it builds itself."""
    checked: list[Dfa] = []
    check = Dfa._check

    def count(d: Dfa) -> None:
        checked.append(d)
        check(d)

    monkeypatch.setattr(Dfa, "_check", count)
    WitnessRecipe.build.cache_clear()
    return checked


@pytest.fixture
def alphabet_checks(monkeypatch) -> list[tuple[str, ...]]:
    """Every alphabet that `make_alphabet` checks during the test, in
    whichever module of the package calls it."""
    checked: list[tuple[str, ...]] = []

    def count(letters):
        alphabet = make_alphabet(letters)
        checked.append(alphabet)
        return alphabet

    for name, module in list(sys.modules.items()):
        if name.startswith("statecomplexity.") and vars(module).get("make_alphabet") is make_alphabet:
            monkeypatch.setattr(module, "make_alphabet", count)
    return checked
