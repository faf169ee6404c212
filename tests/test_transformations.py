"""Composition of transformations, as the semigroup closure performs it.

A transformation of {0..n-1} is a DFA row: entry q is the image of q.
The closure holds each one as `bytes` with the same entries and composes
in diagrammatic order (apply s, then t); these tests compare it with a
test-local pointwise composition.
"""

from __future__ import annotations

from functools import reduce

from hypothesis import given
from hypothesis import strategies as st

from statecomplexity import Dfa, transition_semigroup


def letters_dfa(*rows: tuple[int, ...]) -> Dfa:
    return Dfa(len(rows[0]), tuple("abcd"[: len(rows)]), rows, 0, frozenset())


def pointwise_compose(s: bytes, t: bytes) -> bytes:
    # Independent oracle: apply s then t, state by state.
    return bytes(t[s[q]] for q in range(len(s)))


def test_transposition_is_involution():
    swap = bytes((1, 0, 2))
    assert pointwise_compose(swap, swap) == bytes((0, 1, 2))
    closure = transition_semigroup(letters_dfa(tuple(swap)), with_words=True)
    assert closure.generator_words == {swap: "a", bytes((0, 1, 2)): "aa"}


@st.composite
def transformation_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.tuples(*[st.integers(0, n - 1)] * n)
    return draw(row), draw(row)


@given(transformation_pairs())
def test_compose_matches_pointwise_oracle(pair):
    s, t = map(bytes, pair)
    d = letters_dfa(tuple(s), tuple(t))
    closure = transition_semigroup(d, with_words=True)
    assert pointwise_compose(s, t) in closure.elements
    assert pointwise_compose(t, s) in closure.elements
    rows = dict(zip(d.alphabet, (s, t)))
    for element, word in closure.generator_words.items():
        # Each element is its word's letters composed pointwise, in order,
        # and composing it with either letter stays inside the closure.
        assert reduce(pointwise_compose, (rows[a] for a in word)) == element
        assert pointwise_compose(element, s) in closure.elements
        assert pointwise_compose(element, t) in closure.elements
