"""Transition-semigroup closure and syntactic-semigroup size."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import CapacityError, Dfa, trim_alphabet

MAX_SEMIGROUP_ELEMENTS = 10**7

# Above this many states the closure skips generator words to save memory.
WORDS_STATE_LIMIT = 6


@dataclass(frozen=True)
class SemigroupClosure:
    """All transformations induced by non-empty words, with sample words.

    Each element is a tuple of ints whose entry q is the image of state q.

    `generator_words` maps each element to one shortest word (ties broken
    in alphabet order) inducing it, or is None when word tracking was
    skipped. The empty word is excluded: this is the semigroup generated
    by the letters, not the monoid.
    """

    elements: frozenset[tuple[int, ...]]
    generator_words: Optional[dict[tuple[int, ...], str]]

    def __len__(self) -> int:
        return len(self.elements)


def transition_semigroup(d: Dfa, with_words: Optional[bool] = None) -> SemigroupClosure:
    """Closure of the letter transformations under composition.

    Breadth-first over words in length-then-alphabet order, so the first
    word reaching an element is a shortest one. Elements compose in
    diagrammatic order: t followed by the letter row g sends q to g[t[q]].
    `Dfa` checked the rows, and composing total maps of {0..n-1} gives
    another, so no element is checked again.
    """
    if with_words is None:
        with_words = d.state_count < WORDS_STATE_LIMIT
    words: dict[tuple[int, ...], str] = {}
    seen: set[tuple[int, ...]] = set()
    queue: deque[tuple[int, ...]] = deque()
    generators = list(zip(d.alphabet, d.delta))
    for letter, t in generators:
        if t not in seen:
            seen.add(t)
            queue.append(t)
            if with_words:
                words[t] = letter
    while queue:
        t = queue.popleft()
        for letter, g in generators:
            composed = tuple(map(g.__getitem__, t))
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
        elements=frozenset(seen),
        generator_words=words if with_words else None,
    )


def syntactic_semigroup_size(d: Dfa) -> int:
    """Size of the transition semigroup of the minimal DFA over the
    language's own alphabet, which is the syntactic-semigroup size."""
    return len(transition_semigroup(trim_alphabet(d), with_words=False))
