"""Transition-semigroup closure and syntactic-semigroup size."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Optional

from .automata import CapacityError, Dfa, trim_alphabet

MAX_SEMIGROUP_ELEMENTS = 10**7


@dataclass(frozen=True)
class SemigroupClosure:
    """All transformations induced by non-empty words, with sample words.

    Each element is `bytes` of length n whose entry q is the image of
    state q, so `element[q]` is an int as in a DFA row; compare with
    `bytes(row)`, not with a tuple.

    `generator_words` maps each element to one shortest word (ties broken
    in alphabet order) inducing it, or is None unless `with_words` was
    set. The empty word is excluded: this is the semigroup generated by
    the letters, not the monoid.

    `elements` is the closure's own set, handed over rather than copied
    into a frozenset, which would hold two hash tables at the peak. It
    belongs to the closure and must not be mutated.
    """

    elements: AbstractSet[bytes]
    generator_words: Optional[dict[bytes, str]]

    def __len__(self) -> int:
        return len(self.elements)


def transition_semigroup(d: Dfa, with_words: bool = False) -> SemigroupClosure:
    """Closure of the letter transformations under composition.

    Breadth-first over words in length-then-alphabet order, so the first
    word reaching an element is a shortest one. Elements compose in
    diagrammatic order: t followed by the letter row g sends q to g[t[q]],
    which is `t.translate(g)` once g is padded to a 256-byte table. That
    caps the closure at 256 states. `Dfa` checked the rows, and composing
    total maps of {0..n-1} gives another, so no element is checked again.
    """
    n = d.state_count
    if n > 256:
        raise CapacityError(f"semigroup closure handles at most 256 states, not {n}")
    words: dict[bytes, str] = {}
    seen: set[bytes] = set()
    queue: deque[bytes] = deque()
    tables = [bytes(row) + bytes(256 - n) for row in d.delta]
    generators = list(zip(d.alphabet, tables))
    for letter, g in generators:
        t = g[:n]
        if t not in seen:
            seen.add(t)
            queue.append(t)
            if with_words:
                words[t] = letter
    while queue:
        t = queue.popleft()
        for letter, g in generators:
            composed = t.translate(g)
            if composed in seen:
                continue
            if len(seen) >= MAX_SEMIGROUP_ELEMENTS:
                raise CapacityError(
                    f"semigroup closure exceeded {MAX_SEMIGROUP_ELEMENTS} elements"
                )
            seen.add(composed)
            queue.append(composed)
            if with_words:
                words[composed] = words[t] + letter
    return SemigroupClosure(
        elements=seen,
        generator_words=words if with_words else None,
    )


def syntactic_semigroup_size(d: Dfa) -> int:
    """Size of the transition semigroup of the minimal DFA over the
    language's own alphabet, which is the syntactic-semigroup size."""
    return len(transition_semigroup(trim_alphabet(d), with_words=False))
