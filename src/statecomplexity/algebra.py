"""Transition-semigroup closure and syntactic-semigroup size."""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Iterator

from .automata import CapacityError, Dfa, bits, components, subset_walk, trim_alphabet

MAX_SEMIGROUP_ELEMENTS = 10**7


def transition_semigroup(d: Dfa) -> set[bytes]:
    """All transformations induced by non-empty words: the closure of the
    letter transformations under composition.

    Each element is `bytes` of length n whose entry q is the image of
    state q, so `element[q]` is an int as in a DFA row; compare with
    `bytes(row)`, not with a tuple. The empty word is excluded: this is
    the semigroup generated by the letters, not the monoid.

    Elements compose in diagrammatic order: t followed by the letter row
    g sends q to g[t[q]], which is `t.translate(g)` once g is padded to a
    256-byte table. That caps the closure at 256 states. `Dfa` checked the
    rows, and composing total maps of {0..n-1} gives another, so no
    element is checked again.
    """
    n = d.state_count
    if n > 256:
        raise CapacityError(f"semigroup closure handles at most 256 states, not {n}")
    tables = [bytes(row) + bytes(256 - n) for row in d.delta]
    queue = deque(dict.fromkeys(g[:n] for g in tables))
    seen = set(queue)
    while queue:
        t = queue.popleft()
        for g in tables:
            composed = t.translate(g)
            if composed in seen:
                continue
            if len(seen) >= MAX_SEMIGROUP_ELEMENTS:
                raise CapacityError(
                    f"semigroup closure exceeded {MAX_SEMIGROUP_ELEMENTS} elements"
                )
            seen.add(composed)
            queue.append(composed)
    return seen


def syntactic_semigroup_size(d: Dfa) -> int:
    """Size of the transition semigroup of the minimal DFA over the
    language's own alphabet, which is the syntactic-semigroup size.

    Counted one R-class at a time, after Linton, Pfeiffer, Robertson and
    Ruškuc, "Groups and actions in transformation semigroups" (1998),
    rather than element by element. Elements compose in diagrammatic
    order as in `transition_semigroup`, so letters act on the right of
    an element's image:

    - The images form the subset walk from the full state set. Each of
      its strongly connected components (sccs) is rooted at its
      first-walked image A0, and a breadth-first tree inside the scc
      gives a map u_B of A0 onto each image B of the scc.
    - The permutations u_B a u_{Ba}^-1 of A0, over the letters a that
      keep Ba in the scc, generate the scc's Schützenberger group G.
    - The R-class of an element whose image lies in the scc has
      |scc| * |G| elements. R is a left congruence, so multiplying class
      representatives on the left by letters, starting from the letters,
      reaches every R-class.
    - Mapped back onto A0 by u_B^-1, two elements are R-related iff one
      is the other followed by an element of G. Every representative
      stores its |G| such images, so one set lookup decides whether an
      element starts a new class.

    The stored images, which number at most |S|, are capped by
    `MAX_SEMIGROUP_ELEMENTS` (read at call time) and the image walk by
    `MAX_SUBSET_STATES`; past either cap this raises `CapacityError`.
    """
    d = trim_alphabet(d)
    n = d.state_count
    if n > 256:
        raise CapacityError(f"semigroup count handles at most 256 states, not {n}")
    pad = bytes(range(n, 256))
    letters = [bytes(row) for row in d.delta]
    tables = [g + pad for g in letters]
    images, rows = subset_walk(((1 << n) - 1,), [[1 << q for q in row] for row in d.delta])
    position = {image: v for v, image in enumerate(images)}
    comp = components([[row[v] for row in rows] for v in range(len(images))])
    roots: dict[int, int] = {}
    for v, k in enumerate(comp):
        roots.setdefault(k, v)
    identity = bytes(range(256))
    cap = MAX_SEMIGROUP_ELEMENTS

    @cache
    def scc_group(k: int) -> tuple[int, dict[int, bytes], list[bytes]]:
        """The scc's size, u_B^-1 as a translate table per image B, and G
        as translate tables that fix every state outside A0."""
        root = roots[k]
        maps = {root: bytes(range(n))}
        queue = [root]
        for v in queue:  # queue grows while it is read
            for g, row in zip(tables, rows):
                w = row[v]
                if comp[w] == k and w not in maps:
                    maps[w] = maps[v].translate(g)
                    queue.append(w)
        base = [q for q in range(n) if images[root] >> q & 1]
        inverse = {}
        for v, u in maps.items():
            table = bytearray(256)
            for q in base:
                table[u[q]] = q
            inverse[v] = bytes(table)
        generators = set()
        for v in queue:
            for g, row in zip(tables, rows):
                w = row[v]
                if comp[w] == k:
                    moved = maps[v].translate(g).translate(inverse[w])
                    perm = bytearray(identity)
                    for q in base:
                        perm[q] = moved[q]
                    generators.add(bytes(perm))
        generators.discard(identity)
        group = [identity]
        members = {identity}
        for e in group:  # group grows while it is read
            for g in generators:
                h = e.translate(g)
                if h not in members:
                    if len(members) >= cap:
                        raise CapacityError(f"semigroup count exceeded {cap} stored elements")
                    members.add(h)
                    group.append(h)
        return len(maps), inverse, group

    stored: set[bytes] = set()
    representatives: list[bytes] = []

    def candidates() -> Iterator[bytes]:
        yield from letters
        for x in representatives:  # representatives grows while it is read
            table = x + pad
            for g in letters:
                yield g.translate(table)  # g then x

    size = 0
    for t in candidates():
        v = position[bits(set(t))]
        orbit, inverse, group = scc_group(comp[v])
        t = t.translate(inverse[v])
        if t in stored:
            continue
        if len(stored) + len(group) > cap:
            raise CapacityError(f"semigroup count exceeded {cap} stored elements")
        stored.update([t.translate(s) for s in group])
        representatives.append(t)
        size += orbit * len(group)
    return size
