"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Iterable

import pytest

from statecomplexity import BooleanOp, Dfa, make_alphabet, union_alphabets


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
        return replace(d, alphabet=target, delta=tuple(d.transformation(a) for a in target))
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
            i for i, (p, q) in enumerate(order) if op.holds(p in lc.finals, q in rc.finals)
        ),
    )


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff the two languages are equal as word sets: no reachable
    pair of their sink product accepts on exactly one side."""
    return not sink_product(BooleanOp.SYMDIFF, d1, d2).finals


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
