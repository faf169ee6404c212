"""Canonical witness automata and permutational dialects.

Each witness family is a stream of n-state DFAs over a fixed small
alphabet whose letters act by simple transformations (a cycle, a
transposition, a single-point move, a constant map, the identity).
Dialects relabel a subset of the letters by a partial permutation and
drop the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

from .automata import Dfa, make_alphabet

UNDEFINED = None  # dialect target for a dropped letter


class WitnessClass(Enum):
    REGULAR = "regular"
    RIGHT_IDEAL = "right"
    LEFT_IDEAL = "left"
    TWO_SIDED_IDEAL = "twosided"

    @property
    def min_n(self) -> int:
        return {
            WitnessClass.REGULAR: 3,
            WitnessClass.RIGHT_IDEAL: 3,
            WitnessClass.LEFT_IDEAL: 4,
            WitnessClass.TWO_SIDED_IDEAL: 5,
        }[self]

    @property
    def canonical_alphabet(self) -> tuple[str, ...]:
        return {
            WitnessClass.REGULAR: ("a", "b", "c", "d"),
            WitnessClass.RIGHT_IDEAL: ("a", "b", "c", "d", "e"),
            WitnessClass.LEFT_IDEAL: ("a", "b", "c", "d", "e"),
            WitnessClass.TWO_SIDED_IDEAL: ("a", "b", "c", "d", "e", "f"),
        }[self]

    def build(self, n: int) -> Dfa:
        return _BUILDERS[self](n)


def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _cycle(n: int, points: Iterable[int]) -> tuple[int, ...]:
    """Cyclic permutation of the listed states; all others are fixed."""
    pts = list(points)
    images = list(range(n))
    for i, p in enumerate(pts):
        images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def _constant(n: int, target: int, domain: Optional[Iterable[int]] = None) -> tuple[int, ...]:
    """Send every state of `domain` (default: all states) to `target`."""
    images = list(range(n))
    for q in range(n) if domain is None else domain:
        images[q] = target
    return tuple(images)


def _point_map(n: int, source: int, target: int) -> tuple[int, ...]:
    """Send one state to another; all other states are fixed."""
    return _constant(n, target, domain=(source,))


def build_regular(n: int) -> Dfa:
    """n-state regular witness over {a,b,c,d}.

    a cycles all states, b swaps 0 and 1, c sends n-1 back to 0, d is the
    identity; state n-1 is the only final state.
    """
    if n < 3:
        raise ValueError(f"regular witness needs n >= 3, got {n}")
    return Dfa(
        state_count=n,
        alphabet=("a", "b", "c", "d"),
        delta=(
            _cycle(n, range(n)),
            _cycle(n, (0, 1)),
            _point_map(n, n - 1, 0),
            _identity(n),
        ),
        initial=0,
        finals=frozenset({n - 1}),
    )


def build_right_ideal(n: int) -> Dfa:
    """n-state right-ideal witness over {a,b,c,d,e}; state n-1 is absorbing."""
    if n < 3:
        raise ValueError(f"right-ideal witness needs n >= 3, got {n}")
    return Dfa(
        state_count=n,
        alphabet=("a", "b", "c", "d", "e"),
        delta=(
            _cycle(n, range(n - 1)),
            _cycle(n, range(1, n - 1)),
            _point_map(n, n - 2, 0),
            _point_map(n, n - 2, n - 1),
            _identity(n),
        ),
        initial=0,
        finals=frozenset({n - 1}),
    )


def build_left_ideal(n: int) -> Dfa:
    """n-state left-ideal witness over {a,b,c,d,e}; state 0 waits for e."""
    if n < 4:
        raise ValueError(f"left-ideal witness needs n >= 4, got {n}")
    return Dfa(
        state_count=n,
        alphabet=("a", "b", "c", "d", "e"),
        delta=(
            _cycle(n, range(1, n)),
            _cycle(n, (1, 2)),
            _point_map(n, n - 1, 1),
            _point_map(n, n - 1, 0),
            _constant(n, 1),
        ),
        initial=0,
        finals=frozenset({n - 1}),
    )


def build_two_sided_ideal(n: int) -> Dfa:
    """n-state two-sided-ideal witness over {a,b,c,d,e,f}; n-1 is absorbing."""
    if n < 5:
        raise ValueError(f"two-sided-ideal witness needs n >= 5, got {n}")
    return Dfa(
        state_count=n,
        alphabet=("a", "b", "c", "d", "e", "f"),
        delta=(
            _cycle(n, range(1, n - 1)),
            _cycle(n, (1, 2)),
            _point_map(n, n - 2, 1),
            _point_map(n, n - 2, 0),
            _constant(n, 1, domain=range(n - 1)),
            _point_map(n, 1, n - 1),
        ),
        initial=0,
        finals=frozenset({n - 1}),
    )


_BUILDERS = {
    WitnessClass.REGULAR: build_regular,
    WitnessClass.RIGHT_IDEAL: build_right_ideal,
    WitnessClass.LEFT_IDEAL: build_left_ideal,
    WitnessClass.TWO_SIDED_IDEAL: build_two_sided_ideal,
}


@dataclass(frozen=True)
class DialectSpec:
    """Partial permutation of a witness alphabet, aligned entry by entry.

    Entry i gives the new name of letter i of the canonical alphabet, or
    UNDEFINED when that letter (and its transformation) is dropped.
    Defined targets must be pairwise distinct.
    """

    targets: tuple[Optional[str], ...]

    def __post_init__(self) -> None:
        defined = [t for t in self.targets if t is not UNDEFINED]
        make_alphabet(defined)

    def __str__(self) -> str:
        return ",".join("-" if t is UNDEFINED else t for t in self.targets)

    @staticmethod
    def identity(size: int) -> "DialectSpec":
        return DialectSpec(tuple("abcdefghijklmnopqrstuvwxyz"[:size]))


def parse_dialect(text: str) -> DialectSpec:
    """Parse a comma-separated dialect such as "a,b,-,c"."""
    tokens = [tok.strip() for tok in text.split(",")]
    targets: list[Optional[str]] = []
    for tok in tokens:
        if tok == "-":
            targets.append(UNDEFINED)
        elif len(tok) == 1 and "a" <= tok <= "z":
            targets.append(tok)
        else:
            raise ValueError(f"bad dialect token {tok!r} in {text!r}")
    return DialectSpec(tuple(targets))


def apply_dialect(d: Dfa, spec: DialectSpec) -> Dfa:
    """Relabel letters by the partial permutation and drop undefined ones.

    The resulting alphabet is re-sorted into canonical order so that
    operands built from different dialects align letter by letter. States,
    the initial state, and the finals are untouched. A spec shorter than
    the alphabet drops the trailing letters, so "b,a" on a four-letter
    witness means "b,a,-,-".
    """
    if len(spec.targets) > len(d.alphabet):
        raise ValueError(
            f"dialect has {len(spec.targets)} entries for alphabet of size {len(d.alphabet)}"
        )
    padded = spec.targets + (UNDEFINED,) * (len(d.alphabet) - len(spec.targets))
    renamed = [
        (target, t)
        for target, t in zip(padded, d.delta)
        if target is not UNDEFINED
    ]
    renamed.sort(key=lambda pair: pair[0])
    return replace(
        d,
        alphabet=tuple(target for target, _ in renamed),
        delta=tuple(t for _, t in renamed),
    )
