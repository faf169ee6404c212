from __future__ import annotations

import pytest

from statecomplexity import (
    DialectSpec,
    WitnessClass,
    accepts,
    apply_dialect,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    build_two_sided_ideal,
    minimize,
    parse_dialect,
)
from statecomplexity.witnesses import _constant, _cycle

from conftest import (
    is_isomorphic,
    is_left_ideal,
    is_right_ideal,
    is_two_sided_ideal,
    random_word,
)


def rows(d):
    return list(d.delta)


def test_regular_witness_n3_rows():
    d = build_regular(3)
    assert d.alphabet == ("a", "b", "c", "d")
    assert rows(d) == [(1, 2, 0), (1, 0, 2), (0, 1, 0), (0, 1, 2)]
    assert d.initial == 0 and d.finals == {2}


def test_regular_witness_identity_letter():
    for n in (3, 5, 8):
        assert build_regular(n).transformation("d") == tuple(range(n))


def test_constant_and_cycle_notation():
    assert _constant(4, 1) == (1, 1, 1, 1)
    assert _constant(5, 1, domain=range(4)) == (1, 1, 1, 1, 4)
    assert _cycle(4, range(1, 3)) == (0, 2, 1, 3)


def test_right_ideal_n4_rows():
    d = build_right_ideal(4)
    assert rows(d)[0] == (1, 2, 0, 3)  # cycle on 0..n-2 fixes n-1
    assert rows(d)[1] == (0, 2, 1, 3)
    assert rows(d)[2] == (0, 1, 0, 3)
    assert rows(d)[3] == (0, 1, 3, 3)
    assert rows(d)[4] == (0, 1, 2, 3)
    # state n-1 is fixed by every letter
    assert all(images[3] == 3 for images in rows(d))


def test_left_ideal_n4_rows():
    d = build_left_ideal(4)
    assert rows(d) == [
        (0, 2, 3, 1),
        (0, 2, 1, 3),
        (0, 1, 2, 1),
        (0, 1, 2, 0),
        (1, 1, 1, 1),
    ]


def test_two_sided_ideal_n5_rows():
    d = build_two_sided_ideal(5)
    assert rows(d)[4] == (1, 1, 1, 1, 4)  # constant on the non-final part
    assert rows(d)[5] == (0, 4, 2, 3, 4)
    assert all(images[4] == 4 for images in rows(d))


@pytest.mark.parametrize(
    "builder,min_n,cls,name",
    [
        pytest.param(build_regular, 3, WitnessClass.REGULAR, "regular", id="build_regular-3"),
        pytest.param(
            build_right_ideal, 3, WitnessClass.RIGHT_IDEAL, "right-ideal", id="build_right_ideal-3"
        ),
        pytest.param(
            build_left_ideal, 4, WitnessClass.LEFT_IDEAL, "left-ideal", id="build_left_ideal-4"
        ),
        pytest.param(
            build_two_sided_ideal,
            5,
            WitnessClass.TWO_SIDED_IDEAL,
            "two-sided-ideal",
            id="build_two_sided_ideal-5",
        ),
    ],
)
def test_range_errors(builder, min_n, cls, name):
    with pytest.raises(ValueError):
        builder(min_n - 1)
    builder(min_n)  # boundary value is fine
    assert cls.min_n == min_n
    with pytest.raises(ValueError) as err:
        cls.build(min_n - 1)
    assert str(err.value) == f"{name} witness needs n >= {min_n}, got {min_n - 1}"
    for n in range(min_n, min_n + 4):
        assert builder(n) == cls.build(n)


@pytest.mark.parametrize(
    "cls,ns",
    [
        (WitnessClass.REGULAR, range(3, 11)),
        (WitnessClass.RIGHT_IDEAL, range(3, 11)),
        (WitnessClass.LEFT_IDEAL, range(4, 11)),
        (WitnessClass.TWO_SIDED_IDEAL, range(5, 11)),
    ],
)
def test_witnesses_are_minimal_with_n_states(cls, ns):
    # The registry relies on this: the atom rows read the witnesses as
    # minimal DFAs without refining them (n <= 10 covers every golden grid).
    for n in ns:
        assert minimize(cls.build(n)).state_count == n


def test_ideal_membership_of_witness_streams():
    for n in range(3, 8):
        d = build_right_ideal(n)
        assert is_right_ideal(d) and not is_left_ideal(d) and not is_two_sided_ideal(d)
    for n in range(4, 8):
        d = build_left_ideal(n)
        assert is_left_ideal(d) and not is_right_ideal(d) and not is_two_sided_ideal(d)
    for n in range(5, 8):
        d = build_two_sided_ideal(n)
        assert is_right_ideal(d) and is_left_ideal(d) and is_two_sided_ideal(d)


def test_regular_witness_is_no_ideal():
    assert not is_right_ideal(build_regular(4))
    assert not is_left_ideal(build_regular(4))


# --- dialects ----------------------------------------------------------------


def test_parse_dialect():
    assert parse_dialect("a,b,-,c").targets == ("a", "b", None, "c")
    assert parse_dialect("a,e,d,-,b,f").targets == ("a", "e", "d", None, "b", "f")


def test_parse_dialect_rejects_duplicates_and_junk():
    with pytest.raises(ValueError):
        parse_dialect("a,a")
    with pytest.raises(ValueError):
        parse_dialect("a,xy")
    with pytest.raises(ValueError):
        parse_dialect("a,,b")


def test_dialect_relabels_identity_letter():
    # (a,b,-,c) keeps a and b, drops the old c, and renames d to c.
    d = apply_dialect(build_regular(5), parse_dialect("a,b,-,c"))
    assert d.alphabet == ("a", "b", "c")
    assert d.transformation("c") == (0, 1, 2, 3, 4)


def test_identity_dialect_is_isomorphic():
    d = build_regular(4)
    assert is_isomorphic(apply_dialect(d, parse_dialect("a,b,c,d")), d)


def test_swap_dialect_swaps_roles(rng):
    base = build_regular(3)
    swapped = apply_dialect(base, parse_dialect("b,a"))
    assert swapped.alphabet == ("a", "b")
    assert swapped.transformation("a") == (1, 0, 2)
    assert swapped.transformation("b") == (1, 2, 0)
    # Spot-check by acceptance: relabel the letters of a random word.
    original = apply_dialect(base, parse_dialect("a,b"))
    relabel = str.maketrans("ab", "ba")
    for _ in range(200):
        w = random_word(rng, ("a", "b"))
        assert accepts(swapped, w) == accepts(original, w.translate(relabel))


def test_dialect_preserves_states_and_finals():
    d = build_left_ideal(5)
    out = apply_dialect(d, parse_dialect("a,-,c,d,e"))
    assert out.state_count == d.state_count
    assert out.initial == d.initial
    assert out.finals == d.finals


def test_dialect_length_checked():
    with pytest.raises(ValueError):
        apply_dialect(build_regular(3), parse_dialect("a,b,c,d,e"))


def test_dialects_compose():
    base = build_right_ideal(4)
    pi = parse_dialect("b,a,-,d,c")
    step_one = apply_dialect(base, pi)  # alphabet a,b,c,d
    rho = parse_dialect("c,d,a,-")  # acts on the sorted alphabet of step_one
    step_two = apply_dialect(step_one, rho)
    # rho after pi: follow each canonical letter through both renamings.
    rho_of = dict(zip(step_one.alphabet, rho.targets))
    composed = DialectSpec(
        tuple(
            None if t is None else rho_of.get(t)
            for t in pi.targets
        )
    )
    assert step_two == apply_dialect(base, composed)
