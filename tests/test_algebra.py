from __future__ import annotations

import pytest

from statecomplexity import (
    CapacityError,
    Dfa,
    apply_dialect,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    build_two_sided_ideal,
    parse_dialect,
    syntactic_semigroup_size,
    transition_semigroup,
    trim_alphabet,
)
from statecomplexity.bounds import registry_by_id

from conftest import random_dfa, semigroup_oracle


def reg(n, dialect):
    return apply_dialect(build_regular(n), parse_dialect(dialect))


def test_full_transformation_semigroup_sizes():
    assert len(transition_semigroup(reg(3, "a,b,c"))) == 27
    assert len(transition_semigroup(reg(4, "a,b,c"))) == 256


def test_identity_generator_gives_singleton():
    d = Dfa(4, ("a",), ((0, 1, 2, 3),), 0, frozenset({0}))
    closure = transition_semigroup(d, with_words=True)
    assert len(closure) == 1
    assert closure.generator_words == {bytes((0, 1, 2, 3)): "a"}
    assert transition_semigroup(d).generator_words is None  # words only on request


def pointwise(d: Dfa, word: str) -> bytes:
    # Independent oracle: run the word from every state, letter by letter.
    return bytes(d.run(q, word) for q in range(d.state_count))


def test_generator_words_are_shortest(rng):
    for _ in range(20):
        d = random_dfa(rng, max_states=4, letters="ab")
        closure = transition_semigroup(d, with_words=True)
        # Recompute by plain breadth-first enumeration of words.
        frontier = [""]
        first_seen = {}
        while len(first_seen) < len(closure.elements):
            frontier = [w + a for w in frontier for a in d.alphabet]
            for word in frontier:
                first_seen.setdefault(pointwise(d, word), word)
        assert set(first_seen) == closure.elements
        assert {t: len(w) for t, w in closure.generator_words.items()} == {
            t: len(w) for t, w in first_seen.items()
        }
        assert all(pointwise(d, w) == t for t, w in closure.generator_words.items())


def test_closure_composes_in_diagrammatic_order():
    # a cycles 0 -> 1 -> 2 -> 0, b sends 2 to 0; "ab" applies a first.
    d = Dfa(3, ("a", "b"), ((1, 2, 0), (0, 1, 0)), 0, frozenset({0}))
    words = transition_semigroup(d, with_words=True).generator_words
    assert words[bytes((1, 0, 0))] == "ab"
    assert words[bytes((1, 2, 1))] == "ba"


def test_identity_letter_is_neutral():
    # Words mixing the identity a into powers of b add no new elements.
    d = Dfa(4, ("a", "b"), ((0, 1, 2, 3), (2, 2, 0, 1)), 0, frozenset({0}))
    closure = transition_semigroup(d, with_words=True)
    assert closure.generator_words == {
        bytes((0, 1, 2, 3)): "a",
        bytes((2, 2, 0, 1)): "b",
        bytes((0, 0, 2, 2)): "bb",
        bytes((2, 2, 0, 0)): "bbb",
    }


def test_elements_are_nonempty_word_transformations():
    # The identity is present only when some non-empty word induces it.
    d = Dfa(2, ("a",), ((1, 0),), 0, frozenset({0}))
    closure = transition_semigroup(d, with_words=True)
    assert closure.generator_words == {bytes((1, 0)): "a", bytes((0, 1)): "aa"}  # the swap is an involution
    one_letter = Dfa(2, ("a",), ((1, 1),), 0, frozenset({0}))
    assert len(transition_semigroup(one_letter)) == 1  # no identity anywhere


def test_syntactic_sizes_of_ideal_witnesses():
    rid = apply_dialect(build_right_ideal(4), parse_dialect("a,b,c,d"))
    assert syntactic_semigroup_size(rid) == 4**3
    assert syntactic_semigroup_size(build_left_ideal(4)) == 4**3 + 3
    assert syntactic_semigroup_size(build_two_sided_ideal(5)) == 5**3 + 3 * 2**3 + 1


def test_syntactic_size_uses_the_minimal_trimmed_dfa():
    # A dead extra letter must not inflate the syntactic semigroup.
    base = reg(3, "a,b,c")
    padded = Dfa(
        4,
        ("a", "b", "c", "z"),
        (
            (1, 2, 0, 3),
            (1, 0, 2, 3),
            (0, 1, 0, 3),
            (3, 3, 3, 3),
        ),
        0,
        frozenset({2}),
    )
    assert syntactic_semigroup_size(padded) == syntactic_semigroup_size(base) == 27


def test_size_bounded_by_n_to_the_n(rng):
    for _ in range(50):
        d = random_dfa(rng, max_states=5)
        assert len(transition_semigroup(d, with_words=False)) <= d.state_count**d.state_count


def test_size_invariant_under_dialects():
    base = build_right_ideal(4)
    relabeled = apply_dialect(base, parse_dialect("c,d,e,a,b"))
    assert syntactic_semigroup_size(base) == syntactic_semigroup_size(relabeled)


def test_identity_letter_adds_at_most_one_element():
    for n in (3, 4, 5):
        without = len(transition_semigroup(reg(n, "a,b,c"), with_words=False))
        with_d = len(transition_semigroup(build_regular(n), with_words=False))
        assert with_d - without in (0, 1)
        assert with_d == n**n  # the three generators already produce the identity


def test_capacity_guard():
    import statecomplexity.algebra as algebra

    d = build_regular(5)
    old = algebra.MAX_SEMIGROUP_ELEMENTS
    algebra.MAX_SEMIGROUP_ELEMENTS = 100
    try:
        with pytest.raises(CapacityError):
            transition_semigroup(d, with_words=False)
    finally:
        algebra.MAX_SEMIGROUP_ELEMENTS = old


def test_closure_matches_tuple_oracle(rng):
    witnesses = [build_regular(n) for n in (3, 4, 5)]
    witnesses += [build_right_ideal(n) for n in (3, 4, 5)]
    witnesses += [build_left_ideal(n) for n in (4, 5)]
    witnesses += [build_two_sided_ideal(5)]
    for d in witnesses + [random_dfa(rng, max_states=5) for _ in range(300)]:
        closure = transition_semigroup(d, with_words=True)
        oracle = semigroup_oracle(d)
        assert closure.elements == {bytes(t) for t in oracle}
        assert closure.generator_words == {bytes(t): w for t, w in oracle.items()}


def cycle(n: int) -> Dfa:
    return Dfa(n, ("a",), (tuple((q + 1) % n for q in range(n)),), 0, frozenset({0}))


def test_closure_handles_256_states():
    closure = transition_semigroup(cycle(256))
    assert len(closure) == 256
    assert bytes(range(256)) in closure.elements  # a^256 is the identity


def test_closure_refuses_257_states():
    with pytest.raises(CapacityError, match="256"):
        transition_semigroup(cycle(257))


@pytest.mark.slow
def test_regular_semigroup_n6():
    assert syntactic_semigroup_size(reg(6, "a,b,c")) == 6**6


# --- the R-class count against the closure ------------------------------------


def with_permutation_letter(rng, d: Dfa) -> Dfa:
    """`d` with one letter's row replaced by a random permutation."""
    images = list(range(d.state_count))
    rng.shuffle(images)
    k = rng.randrange(len(d.alphabet))
    delta = d.delta[:k] + (tuple(images),) + d.delta[k + 1 :]
    return Dfa(d.state_count, d.alphabet, delta, d.initial, d.finals)


def test_count_matches_the_oracle_on_random_dfas(rng):
    for i in range(600):
        d = random_dfa(rng, max_states=6, letters="abc")
        if i % 3 == 0:
            d = with_permutation_letter(rng, d)
        assert syntactic_semigroup_size(d) == len(semigroup_oracle(trim_alphabet(d)))


SEMIGROUP_CELLS = [
    pytest.param(tag, n, marks=[pytest.mark.slow] if n == 7 else [])
    for tag, floor in (("REG", 3), ("RID", 3), ("LID", 4), ("TID", 5))
    for n in range(floor, 8)
]


@pytest.mark.parametrize("tag,n", SEMIGROUP_CELLS)
def test_count_matches_the_oracle_on_witnesses(tag, n):
    d = registry_by_id()[f"{tag}-SEMIGROUP"].lhs.build(n)
    assert syntactic_semigroup_size(d) == len(semigroup_oracle(trim_alphabet(d)))


def test_count_has_no_elements_without_letters():
    assert syntactic_semigroup_size(Dfa(3, (), (), 0, frozenset({0}))) == 0
    assert syntactic_semigroup_size(Dfa(1, ("a",), ((0,),), 0, frozenset({0}))) == 1


def test_count_handles_256_states():
    assert syntactic_semigroup_size(cycle(256)) == 256


def test_count_refuses_257_states():
    with pytest.raises(CapacityError, match="256"):
        syntactic_semigroup_size(cycle(257))


def test_count_caps_its_stored_elements(monkeypatch):
    import statecomplexity.algebra as algebra

    d = reg(5, "a,b,c")
    monkeypatch.setattr(algebra, "MAX_SEMIGROUP_ELEMENTS", 100)  # S_5 alone has 120
    with pytest.raises(CapacityError, match="100"):
        syntactic_semigroup_size(d)
    monkeypatch.setattr(algebra, "MAX_SEMIGROUP_ELEMENTS", 5**5)  # at most |S| are stored
    assert syntactic_semigroup_size(d) == 5**5


@pytest.mark.slow
def test_semigroup_witnesses_at_n8():
    # No enumeration oracle reaches these sizes; the closed forms check them.
    expected = {"REG": 16_777_216, "RID": 2_097_152, "LID": 2_097_159, "TID": 262_529}
    for tag, size in expected.items():
        assert syntactic_semigroup_size(registry_by_id()[f"{tag}-SEMIGROUP"].lhs.build(8)) == size
