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
from string import ascii_lowercase
from typing import Iterable, Optional

from .automata import Dfa, make_alphabet


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


class WitnessClass(Enum):
    REGULAR = "regular"
    RIGHT_IDEAL = "right"
    LEFT_IDEAL = "left"
    TWO_SIDED_IDEAL = "twosided"

    @property
    def min_n(self) -> int:
        return _STREAMS[self][1]

    @property
    def canonical_alphabet(self) -> tuple[str, ...]:
        return self.build(self.min_n).alphabet

    def build(self, n: int) -> Dfa:
        """The n-state witness: letters a, b, c, ... in row order, state 0
        initial and state n-1 the only final state."""
        name, floor, letter_rows = _STREAMS[self]
        if n < floor:
            raise ValueError(f"{name} witness needs n >= {floor}, got {n}")
        delta = letter_rows(n)
        return Dfa(
            state_count=n,
            alphabet=tuple(ascii_lowercase[: len(delta)]),
            delta=delta,
            initial=0,
            finals=frozenset({n - 1}),
        )


# One row per stream: the name in error messages, the floor, and the
# letter rows at n.
_STREAMS = {
    # a cycles all states, b swaps 0 and 1, c sends n-1 back to 0, d is the identity.
    WitnessClass.REGULAR: ("regular", 3, lambda n: (
        _cycle(n, range(n)),
        _cycle(n, (0, 1)),
        _point_map(n, n - 1, 0),
        _identity(n),
    )),
    # State n-1 is absorbing.
    WitnessClass.RIGHT_IDEAL: ("right-ideal", 3, lambda n: (
        _cycle(n, range(n - 1)),
        _cycle(n, range(1, n - 1)),
        _point_map(n, n - 2, 0),
        _point_map(n, n - 2, n - 1),
        _identity(n),
    )),
    # State 0 waits for e.
    WitnessClass.LEFT_IDEAL: ("left-ideal", 4, lambda n: (
        _cycle(n, range(1, n)),
        _cycle(n, (1, 2)),
        _point_map(n, n - 1, 1),
        _point_map(n, n - 1, 0),
        _constant(n, 1),
    )),
    # State n-1 is absorbing.
    WitnessClass.TWO_SIDED_IDEAL: ("two-sided-ideal", 5, lambda n: (
        _cycle(n, range(1, n - 1)),
        _cycle(n, (1, 2)),
        _point_map(n, n - 2, 1),
        _point_map(n, n - 2, 0),
        _constant(n, 1, domain=range(n - 1)),
        _point_map(n, 1, n - 1),
    )),
}

build_regular = WitnessClass.REGULAR.build
build_right_ideal = WitnessClass.RIGHT_IDEAL.build
build_left_ideal = WitnessClass.LEFT_IDEAL.build
build_two_sided_ideal = WitnessClass.TWO_SIDED_IDEAL.build


@dataclass(frozen=True)
class DialectSpec:
    """Partial permutation of a witness alphabet, aligned entry by entry.

    Entry i gives the new name of letter i of the canonical alphabet, or
    None when that letter (and its transformation) is dropped.
    Defined targets must be pairwise distinct.
    """

    targets: tuple[Optional[str], ...]

    def __post_init__(self) -> None:
        defined = [t for t in self.targets if t is not None]
        make_alphabet(defined)


def parse_dialect(text: str) -> DialectSpec:
    """Parse a comma-separated dialect such as "a,b,-,c"."""
    tokens = [tok.strip() for tok in text.split(",")]
    targets: list[Optional[str]] = []
    for tok in tokens:
        if tok == "-":
            targets.append(None)
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
    padded = spec.targets + (None,) * (len(d.alphabet) - len(spec.targets))
    renamed = [
        (target, t)
        for target, t in zip(padded, d.delta)
        if target is not None
    ]
    renamed.sort(key=lambda pair: pair[0])
    return replace(
        d,
        alphabet=tuple(target for target, _ in renamed),
        delta=tuple(t for _, t in renamed),
    )
