"""Complete DFAs, the subset-walk engine, and the quotient-complexity measurement.

Every DFA here is complete by construction: each letter acts on the state
set as a total transformation, stored as a tuple of ints whose entry q is
the image of state q. States are the integers 0..n-1, the initial state
is a single index, and alphabets are ordered tuples of single lowercase
letters. No function changes a DFA's value. A DFA is checked once, where
it enters the library: by `Dfa(...)` in user code or by `parse_dfa`.
Everything the library derives from checked parts is built unchecked, by
`_unchecked_dfa`. `minimize` caches its result on the instance, in a
private `__dict__` slot outside the five fields, so equality, hashing
and `repr` never see it; walks whose reads share one refinement
index hand it to `nerode_classes` the same way.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

# Hard cap on subset-construction growth; desk-scale sweeps stay far below.
MAX_SUBSET_STATES = 1 << 20
# Cap on the bits a walk's packed masks and keys hold together (512 MiB).
# A key is as wide as the walk's state count, so walks over fewer than
# about 4,000 states stop at MAX_SUBSET_STATES keys, and wider walks sooner.
MAX_SUBSET_BITS = 1 << 32

# Private `__dict__` slots of a Dfa. `_MINIMAL` holds `minimize`'s result,
# or True when that is the Dfa itself; `_WALK` marks a `_walk_dfa`
# result, which is accessible and numbered as `minimize` numbers;
# `_PREIMAGES` holds `_preimage_lists` of its delta, built once for
# every DFA that shares that delta, until `nerode_classes` reads it.
_MINIMAL = "_minimal"
_WALK = "_walk"
_PREIMAGES = "_preimages"


class CapacityError(RuntimeError):
    """A construction exceeded its configured state or element budget."""


def make_alphabet(letters: Iterable[str]) -> tuple[str, ...]:
    """Validate and freeze an ordered alphabet of distinct letters a-z."""
    seq = tuple(letters)
    for a in seq:
        if not isinstance(a, str) or len(a) != 1 or not ("a" <= a <= "z"):
            raise ValueError(f"alphabet symbol {a!r} is not a single letter a-z")
    if len(set(seq)) != len(seq):
        raise ValueError(f"alphabet {seq!r} contains duplicate symbols")
    return seq


def union_alphabets(first: Iterable[str], second: Iterable[str]) -> tuple[str, ...]:
    """Union of two checked alphabets, sorted lexicographically."""
    return tuple(sorted(set(first) | set(second)))


class Dfa:
    """Complete deterministic automaton over an ordered alphabet.

    `delta` holds one row per alphabet letter, in alphabet order; a row
    is a tuple of ints whose entry q is the image of state q, so
    completeness is structural rather than checked per word. This
    constructor checks every field, and with `parse_dfa` it is the only
    check: the library builds every other DFA with `_unchecked_dfa`.
    A Dfa is immutable and equals only a Dfa with the same five fields.
    """

    def __init__(
        self,
        state_count: int,
        alphabet: tuple[str, ...],
        delta: tuple[tuple[int, ...], ...],
        initial: int,
        finals: frozenset[int],
    ) -> None:
        self.__dict__.update(
            state_count=state_count, alphabet=alphabet, delta=delta, initial=initial, finals=finals
        )
        self._check()

    def _check(self) -> None:
        n = self.state_count
        if type(n) is not int or n <= 0:
            raise ValueError(f"state count {n!r} is not a positive int")
        if not (isinstance(self.alphabet, tuple) and isinstance(self.delta, tuple)):
            raise ValueError("alphabet and delta must be tuples")
        if not isinstance(self.finals, frozenset):
            raise ValueError("finals must be a frozenset")
        make_alphabet(self.alphabet)
        if len(self.delta) != len(self.alphabet):
            raise ValueError("need exactly one row per alphabet letter")
        # Only the rows and finals are walked, never range(n), so a huge
        # declared state count over the empty alphabet costs nothing here.
        for letter, row in zip(self.alphabet, self.delta):
            if not isinstance(row, tuple) or len(row) != n:
                raise ValueError(f"row for {letter!r} is not a tuple of {n} states")
            for q in row:
                if type(q) is not int or not 0 <= q < n:
                    raise ValueError(f"row for {letter!r} has image {q!r}, not a state 0..{n - 1}")
        if type(self.initial) is not int or not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial!r} out of range")
        if not all(type(q) is int and 0 <= q < n for q in self.finals):
            raise ValueError("final states out of range")

    def _key(self) -> tuple:
        return (self.state_count, self.alphabet, self.delta, self.initial, self.finals)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(state_count={self.state_count!r},"
            f" alphabet={self.alphabet!r}, delta={self.delta!r},"
            f" initial={self.initial!r}, finals={self.finals!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def transformation(self, letter: str) -> tuple[int, ...]:
        """The row of `letter`: entry q is the image of state q."""
        try:
            return self.delta[self.alphabet.index(letter)]
        except ValueError:
            raise ValueError(f"letter {letter!r} not in alphabet {self.alphabet!r}") from None

    def run(self, q: int, word: str) -> int:
        """The state that `word` leads to from state q."""
        if type(q) is not int or not 0 <= q < self.state_count:
            raise ValueError(f"state {q!r} out of range 0..{self.state_count - 1}")
        table = dict(zip(self.alphabet, self.delta))
        for letter in word:
            if letter not in table:
                raise ValueError(f"word letter {letter!r} not in alphabet {self.alphabet!r}")
            q = table[letter][q]
        return q


def accepts(d: Dfa, word: str) -> bool:
    """True iff the DFA ends in a final state; foreign letters are an error."""
    return d.run(d.initial, word) in d.finals


def _pack(masks: Sequence[Sequence[int]]) -> tuple[Sequence[int], int]:
    """Entry q holds `masks[k][q]` at bits k·width.. for every letter k.

    Built with one list comprehension per letter after the first; returns
    the packed ints and the lane width, the number of states.
    """
    width = len(masks[0])
    packed = masks[0]
    for k, row in enumerate(masks[1:], 1):
        packed = [p | m << k * width for p, m in zip(packed, row)]
    return packed, width


def subset_walk(
    starts: Iterable[int], masks: Sequence[Sequence[int]]
) -> tuple[list[int], list[list[int]]]:
    """Accessible breadth-first walk over subsets of states, as int bitmasks.

    `masks[k][q]` is the bitmask of states that state q reaches on letter
    k (empty-word moves already included); a subset goes to the union
    over its members. The distinct start subsets are numbered first, in
    the order given, and every other subset in the order the walk first
    reaches it, so the numbering is canonical. Returns the subsets in
    that order and, per letter, the row mapping each subset's number to
    its successor's number. State q's images on all k letters are packed
    side by side into one int, letter k at bits k·width.., so a subset's
    step is one OR per member and one shift-and-mask per letter, run
    inline. The walk raises `CapacityError` rather than number a key past
    `MAX_SUBSET_STATES`, or past the `MAX_SUBSET_BITS` its packed masks
    leave for keys of `width` bits each.
    """
    index: dict[int, int] = {}
    for start in starts:
        index.setdefault(start, len(index))
    keys = list(index)
    if not masks:  # no letters: no successors, and no row to size a lane
        return keys, []
    packed, width = _pack(masks)
    full = (1 << width) - 1
    rows: list[list[int]] = [[] for _ in masks]
    lanes = [(row, k * width) for k, row in enumerate(rows)]
    room = max(0, MAX_SUBSET_BITS - sum(map(int.bit_length, packed)))
    cap = min(MAX_SUBSET_STATES, room // max(width, 1))
    for subset in keys:  # keys grows while it is read: it is the BFS queue
        union = 0
        while subset:
            low = subset & -subset
            union |= packed[low.bit_length() - 1]
            subset ^= low
        for row, shift in lanes:
            image = union >> shift & full
            number = index.get(image)
            if number is None:
                if len(keys) >= cap:
                    raise CapacityError(f"subset construction exceeded {cap} states")
                number = index[image] = len(keys)
                keys.append(image)
            row.append(number)
    return keys, rows


def determinize(
    alphabet: tuple[str, ...],
    start: int,
    masks: Sequence[Sequence[int]],
    accepting: Callable[[int], bool],
) -> Dfa:
    """The DFA of the subsets reachable from `start`, numbered canonically.

    Every subset construction here is such a walk (see `subset_walk`):
    `masks` holds one row per letter, and a subset is a final state iff
    `accepting(subset)`. Callers pass a checked alphabet and one mask row
    per letter, all of the same width; the walk numbers every row entry
    itself, so nothing is checked here.
    """
    keys, rows = subset_walk((start,), masks)
    finals = frozenset(i for i, key in enumerate(keys) if accepting(key))
    return _walk_dfa(len(keys), alphabet, tuple(map(tuple, rows)), finals)


def _walk_dfa(
    state_count: int,
    alphabet: tuple[str, ...],
    delta: tuple[tuple[int, ...], ...],
    finals: frozenset[int],
) -> Dfa:
    """The DFA of a one-start `subset_walk`, marked `_WALK` for `minimize`."""
    walk = _unchecked_dfa(state_count, alphabet, delta, 0, finals)
    walk.__dict__[_WALK] = True
    return walk


def _unchecked_dfa(
    state_count: int,
    alphabet: tuple[str, ...],
    delta: tuple[tuple[int, ...], ...],
    initial: int,
    finals: frozenset[int],
) -> Dfa:
    """A Dfa built without running `Dfa._check`.

    The rule for every caller: each field comes from a checked DFA, a
    checked alphabet or a checked int, or is numbered by the caller
    itself, as a walk numbers its rows and `parse_dfa` checks each line.
    The public constructor's checks would only repeat those checks.
    """
    d = object.__new__(Dfa)
    d.__dict__.update(
        state_count=state_count, alphabet=alphabet, delta=delta, initial=initial, finals=finals
    )
    return d


def components(successors: Sequence[Iterable[int]]) -> list[int]:
    """Entry v is the number of the strongly connected component of v.

    `successors[v]` lists the vertices v has edges to, as ints 0..N-1.
    Tarjan's algorithm with an explicit stack, so deep graphs do not hit
    the recursion limit. It closes a component only after every component
    it reaches, and numbers them in that order: sinks first, so every
    edge goes to the same component or a lower-numbered one.
    """
    order = [0] * len(successors)  # 1 + the visit number, or 0 if unvisited
    low = [0] * len(successors)
    comp = [-1] * len(successors)
    open_vertices: list[int] = []
    count = visits = 0
    for root in range(len(successors)):
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        open_vertices.append(root)
        path = [(root, iter(successors[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not order[w]:
                    visits += 1
                    order[w] = low[w] = visits
                    open_vertices.append(w)
                    path.append((w, iter(successors[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is still open
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = open_vertices.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return comp


def bits(states: Iterable[int]) -> int:
    """The bitmask of a set of states."""
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


def preimage_masks(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Masks of the reversed walk over `rows`: entry q is q's preimages.

    `rows` holds one transformation per letter, such as a DFA's `delta`
    or a walk's rows, each entry q the image of q.
    """
    masks = [[0] * len(row) for row in rows]
    for preimages, row in zip(masks, rows):
        for p, q in enumerate(row):
            preimages[q] |= 1 << p
    return masks


def _preimage_lists(delta: Sequence[Sequence[int]], states: Sequence[int]) -> list[list]:
    """Per letter, entry q lists the preimages of q among `states`, in that order.

    Most states have at most one preimage on a letter: those with none
    share (), and each list starts at its exact size. `nerode_classes`
    reads the lists and never changes them, and its partition does not
    depend on their order, so one build can serve every DFA over `delta`.
    """
    preimages = []
    for row in delta:
        pre: list = [()] * len(row)
        for p in states:
            q = row[p]
            if pre[q]:
                pre[q].append(p)
            else:
                pre[q] = [p]
        preimages.append(pre)
    return preimages


def nerode_classes(d: Dfa) -> list[int]:
    """Entry q is the number of the class of states with q's language.

    Hopcroft's refinement over every state, reachable or not, kept in
    Valmari and Lehtinen's refinable partition ("Fast brief practical DFA
    minimization", IPL 112, 2012). States start split by finality. A
    pending class is a splitter: per letter, its preimages are marked,
    and every class holding both marked and unmarked states splits, the
    smaller part becoming a new pending class. After the first pending
    class, the smaller of the two finality classes, a state joins a
    pending class only in the smaller part of a split, so its preimages
    are scanned O(log n) times: O(k·n·log n) for k letters. Classes are
    numbered 0..count-1. Once every state is its own class no splitter
    can split anything, so the refinement stops there, pending classes
    left unscanned. The preimage lists come from the `_PREIMAGES`
    slot of `d` when it holds them, and are built here otherwise; the
    slot is emptied, so no DFA keeps its lists past its refinement.
    """
    preimages = d.__dict__.pop(_PREIMAGES, None)
    n = d.state_count
    block = [0] * n
    split = n - len(d.finals)
    if not 0 < split < n:
        return block  # one finality, one class
    for q in d.finals:
        block[q] = 1
    # Each class c is the slice elems[first[c]:end[c]], its marked states
    # in front of mid[c]; loc[q] is the index of q in elems.
    elems = [q for q in range(n) if q not in d.finals]
    elems += d.finals
    first, mid, end = [0, split], [0, split], [split, n]
    loc = [0] * n
    for i, q in enumerate(elems):
        loc[q] = i
    pending = [0 if split <= n - split else 1]  # the smaller class
    if preimages is None:
        preimages = _preimage_lists(d.delta, elems)
    while pending and len(first) < n:
        b = pending.pop()
        splitter = elems[first[b] : end[b]]
        for pre in preimages:
            # A state has one successor per letter, so no state is marked
            # twice here: each one is swapped to the end of its class's
            # marked part.
            touched = []
            for q in splitter:
                for p in pre[q]:
                    c = block[p]
                    m = mid[c]
                    if m == first[c]:
                        if m + 1 == end[c]:
                            continue  # a single state cannot split
                        touched.append(c)
                    i, r = loc[p], elems[m]
                    elems[m], elems[i] = p, r
                    loc[p], loc[r] = m, i
                    mid[c] = m + 1
            for c in touched:
                lo, m, hi = first[c], mid[c], end[c]
                mid[c] = lo
                if m == hi:
                    continue  # wholly marked: nothing splits
                if m - lo <= hi - m:  # the marked part is the smaller
                    first[c] = mid[c] = m
                    hi = m
                else:
                    end[c] = m
                    lo = m
                new = len(first)
                first.append(lo)
                mid.append(lo)
                end.append(hi)
                for p in elems[lo:hi]:
                    block[p] = new
                pending.append(new)
    return block


def minimize(d: Dfa) -> Dfa:
    """Minimal DFA for the same language over the same alphabet.

    The classes of `nerode_classes` are numbered as `_quotient` numbers
    them, so two equal languages over equal alphabets yield identical (not
    merely isomorphic) results, and an input that is already minimal and
    numbered that way is returned as it is. A walk's DFA (`_walk_dfa`) is
    numbered that way already, so when no two of its states merge it is
    returned without the renumbering pass. The result is remembered on
    `d` and marked minimal itself, so a later call on either returns at
    once.
    """
    known = d.__dict__.get(_MINIMAL)
    if known is not None:
        return d if known is True else known
    if not d.alphabet:
        # Nothing to refine; a huge declared state count allocates nothing.
        finals = frozenset({0}) if d.initial in d.finals else frozenset()
        m = d if d.state_count == 1 else _unchecked_dfa(1, (), (), 0, finals)
    else:
        cls = nerode_classes(d)
        count = max(cls) + 1
        merges_nothing = count == d.state_count and _WALK in d.__dict__
        m = d if merges_nothing else _quotient(d, cls, count)
    m.__dict__[_MINIMAL] = True
    if m is not d:
        d.__dict__[_MINIMAL] = m
    return m


def _quotient(d: Dfa, cls: list[int], count: int) -> Dfa:
    """The DFA of the classes of `d`, numbered breadth-first.

    `cls[q]` is the class 0..count-1 of state q, and the states of a class
    must agree on every letter's class image. The classes are numbered
    from the initial class, letters in alphabet order, as `subset_walk`
    numbers its keys; unreachable classes are left out. When every state
    is its own class and keeps its number, `d` is returned as it is.
    """
    rep = [0] * count  # any member stands for its class
    for q, c in enumerate(cls):
        rep[c] = q
    images = [[cls[row[q]] for q in rep] for row in d.delta]
    start = cls[d.initial]
    order = [start]  # the classes in breadth-first order: the BFS queue
    number = [-1] * count  # entry c is the new number of class c, or -1
    number[start] = 0
    for c in order:
        for image in images:
            t = image[c]
            if number[t] < 0:
                number[t] = len(order)
                order.append(t)
    if count == d.state_count and order == cls:
        return d  # every state its own class, numbered as the walk numbers it
    return _unchecked_dfa(
        len(order),
        d.alphabet,
        tuple(tuple([number[image[c]] for c in order]) for image in images),
        0,
        frozenset(number[cls[q]] for q in d.finals) - {-1},  # -1: an unreached class
    )


def restrict_alphabet(d: Dfa, letters: Iterable[str]) -> Dfa:
    """Drop the transition rows of every letter not in `letters`."""
    wanted = set(letters)
    keep = tuple(a for a in d.alphabet if a in wanted)
    rows = tuple(d.delta[d.alphabet.index(a)] for a in keep)
    return _unchecked_dfa(d.state_count, keep, rows, d.initial, d.finals)


def trim_alphabet(d: Dfa) -> Dfa:
    """Minimal DFA of the language over the language's own alphabet.

    One refinement, by `minimize`; dropping letters then only renumbers
    (see `_trim_minimal`). The empty language and {epsilon} both trim to
    a single state over the empty alphabet, so the quotient complexity of
    either is 1.
    """
    return _trim_minimal(minimize(d))


def _trim_minimal(m: Dfa) -> Dfa:
    """`trim_alphabet` of a DFA that is already minimal.

    The letters are read off the minimal DFA, where every state is
    reachable and the empty-language state, if any, is the one non-final
    state that every letter fixes. A letter occurs in an accepted word
    iff it sends some state to a live one. Dropping the other letters
    changes no state's language, so the states stay pairwise distinct and
    only the dead state can become unreachable: the restricted DFA is
    renumbered by `_quotient`, every state its own class, and marked
    minimal without being refined again.
    """
    fixed = range(m.state_count)
    for row in m.delta:
        fixed = [q for q in fixed if row[q] == q]
    dead = next((q for q in fixed if q not in m.finals), None)
    # A row is useless iff it sends every state to the dead one: its first
    # entry settles most rows, and a C-level count the rest.
    useful = [
        a
        for a, row in zip(m.alphabet, m.delta)
        if row[0] != dead or row.count(dead) != len(row)
    ]
    if len(useful) == len(m.alphabet):
        return m
    trimmed = _quotient(restrict_alphabet(m, useful), list(range(m.state_count)), m.state_count)
    trimmed.__dict__[_MINIMAL] = True
    return trimmed


def language_alphabet(d: Dfa) -> tuple[str, ...]:
    """Letters that occur in at least one accepted word, in alphabet order."""
    return trim_alphabet(d).alphabet


def quotient_complexity(d: Dfa) -> int:
    """Number of quotients of L(d) by words over the language's alphabet."""
    return trim_alphabet(d).state_count


def quotient_complexity_of_state(d: Dfa, q: int) -> int:
    """Quotient complexity of the language of state q.

    The states of a minimal DFA stay pairwise distinct whatever its
    initial state, so one that `minimize` has marked is re-rooted and
    renumbered, not refined again.
    """
    if type(q) is not int or not 0 <= q < d.state_count:
        raise ValueError(f"state {q!r} out of range 0..{d.state_count - 1}")
    rooted = _unchecked_dfa(d.state_count, d.alphabet, d.delta, q, d.finals)
    if d.__dict__.get(_MINIMAL) is True:
        every = list(range(d.state_count))
        return _trim_minimal(_quotient(rooted, every, d.state_count)).state_count
    return quotient_complexity(rooted)

