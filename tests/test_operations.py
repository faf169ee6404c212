from __future__ import annotations

import random
from dataclasses import replace

import pytest

from statecomplexity import (
    BooleanOp,
    Dfa,
    apply_dialect,
    boolean,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    complement,
    minimize,
    parse_dialect,
    product,
    quotient_complexity,
    reverse,
    star,
    trim_alphabet,
    union_alphabets,
    universal_dfa,
)

from conftest import (
    complete_over,
    equivalent,
    fig_ends_in_b,
    fig_ends_in_c,
    random_dfa,
    random_dfa_over,
    random_word,
    sink_product,
    word_in,
)


def reg(n, dialect):
    return apply_dialect(build_regular(n), parse_dialect(dialect))


def astar():
    return Dfa(1, ("a",), ((0,),), 0, frozenset({0}))


def single_a():
    # The one-word language {a}.
    return Dfa(
        3,
        ("a",),
        ((1, 2, 2),),
        0,
        frozenset({1}),
    )


# --- product ------------------------------------------------------------------


def test_product_unrestricted_bound_at_33():
    r = product(reg(3, "a,b,-,c"), reg(3, "b,a,-,d"))
    assert r.kappa == 3 * 2**3 + 2**2 == 28
    assert r.dfa.alphabet == ("a", "b", "c", "d")


def test_product_restricted_bound_at_33():
    assert product(reg(3, "a,b,c"), reg(3, "a,b,c")).kappa == 3 * 8 - 4 == 20


def test_product_of_astar_with_itself():
    assert product(astar(), astar()).kappa == 1


def test_product_matches_split_oracle(rng):
    for _ in range(30):
        lhs = random_dfa(rng, max_states=4, letters="ab")
        rhs = random_dfa(rng, max_states=4, letters="bc")
        result = product(lhs, rhs).dfa
        sigma = union_alphabets(lhs.alphabet, rhs.alphabet)
        for _ in range(60):
            w = random_word(rng, sigma, 8)
            direct = any(
                word_in(lhs, w[:i]) and word_in(rhs, w[i:]) for i in range(len(w) + 1)
            )
            assert word_in(result, w) == direct


def test_product_is_associative_on_languages(rng):
    for _ in range(12):
        d1 = random_dfa(rng, max_states=3, letters="ab")
        d2 = random_dfa(rng, max_states=3, letters="bc")
        d3 = random_dfa(rng, max_states=3, letters="ac")
        left = product(product(d1, d2).dfa, d3).dfa
        right = product(d1, product(d2, d3).dfa).dfa
        assert equivalent(left, right)


# --- boolean operations ---------------------------------------------------------


def test_union_of_the_two_two_state_dfas():
    assert boolean(BooleanOp.UNION, fig_ends_in_b(), fig_ends_in_c()).kappa == 6


def test_union_bound_at_33():
    assert boolean(BooleanOp.UNION, reg(3, "a,b,-,c"), reg(3, "b,a,-,d")).kappa == 16


def test_difference_bound_at_33():
    assert boolean(BooleanOp.DIFF, reg(3, "a,b,-,c"), reg(3, "b,a")).kappa == 12


def test_intersection_bound_at_33():
    assert boolean(BooleanOp.INTER, reg(3, "a,b"), reg(3, "b,a")).kappa == 9


TEN_OPS = list(BooleanOp)


def test_boolean_ops_are_exactly_the_ten_proper_tables():
    # Proper: not constant, and genuinely dependent on both operands.
    from itertools import product as cartesian

    def proper(table):
        tt, tf, ft, ff = table
        constant = len({tt, tf, ft, ff}) == 1
        ignores_rhs = tt == tf and ft == ff
        ignores_lhs = tt == ft and tf == ff
        return not (constant or ignores_rhs or ignores_lhs)

    all_proper = {t for t in cartesian([False, True], repeat=4) if proper(t)}
    assert {op.value for op in BooleanOp} == all_proper
    assert len(all_proper) == 10


def test_boolean_truth_tables_against_membership(rng):
    for _ in range(15):
        lhs = random_dfa(rng, max_states=4, letters="ab")
        rhs = random_dfa(rng, max_states=4, letters="bc")
        sigma = union_alphabets(lhs.alphabet, rhs.alphabet)
        results = {op: boolean(op, lhs, rhs).dfa for op in TEN_OPS}
        for _ in range(40):
            w = random_word(rng, sigma, 8)
            a, b = word_in(lhs, w), word_in(rhs, w)
            for op, out in results.items():
                assert word_in(out, w) == op.holds(a, b), (op, w)


def test_boolean_symmetry(rng):
    for _ in range(10):
        lhs = random_dfa(rng, max_states=4, letters="ab")
        rhs = random_dfa(rng, max_states=4, letters="bc")
        assert (
            boolean(BooleanOp.UNION, lhs, rhs).kappa
            == boolean(BooleanOp.UNION, rhs, lhs).kappa
        )
        assert (
            boolean(BooleanOp.SYMDIFF, lhs, rhs).kappa
            == boolean(BooleanOp.SYMDIFF, rhs, lhs).kappa
        )
        assert (
            boolean(BooleanOp.DIFF, lhs, rhs).kappa
            == boolean(BooleanOp.REVDIFF, rhs, lhs).kappa
        )


def operand_pairs(rng: random.Random, count: int):
    """Random operands whose alphabets are equal, overlapping and disjoint, in turn."""
    for i in range(count):
        left = rng.sample("abcdef", rng.randint(1, 3))
        others = [a for a in "abcdef" if a not in left]
        if i % 3 == 0:
            right = rng.sample(left, len(left))
        elif i % 3 == 1:
            right = [left[0]] + rng.sample(others, rng.randint(1, 2))
        else:
            right = rng.sample(others, rng.randint(1, 3))
        yield (
            random_dfa_over(rng, left, rng.randint(1, 5)),
            random_dfa_over(rng, right, rng.randint(1, 5)),
        )


def test_boolean_equals_the_trimmed_sink_product():
    for lhs, rhs in operand_pairs(random.Random(20160919), 90):
        for op in TEN_OPS:
            assert boolean(op, lhs, rhs).dfa == trim_alphabet(sink_product(op, lhs, rhs)), op


def test_complement_equals_the_trimmed_flipped_completion():
    rng = random.Random(4439)
    for lhs, rhs in operand_pairs(rng, 60):
        for d in (lhs, rhs):
            universe = list(d.alphabet) + rng.sample("uvwxyz", rng.randint(0, 2))
            rng.shuffle(universe)
            completed = complete_over(d, universe)
            flipped = replace(
                completed, finals=frozenset(range(completed.state_count)) - completed.finals
            )
            assert complement(d, universe).dfa == trim_alphabet(flipped)


def test_upper_bounds_on_500_random_pairs():
    rng = random.Random(987654321)
    for _ in range(500):
        lhs = random_dfa(rng, max_states=5, letters="abc")
        rhs = random_dfa(rng, max_states=5, letters="bcd")
        m = quotient_complexity(lhs)
        n = quotient_complexity(rhs)
        assert product(lhs, rhs).kappa <= m * 2**n + 2 ** (n - 1)
        for op in TEN_OPS:
            assert boolean(op, lhs, rhs).kappa <= (m + 1) * (n + 1), op


# --- complement ------------------------------------------------------------------


def test_complement_of_not_astar():
    d = Dfa(
        2,
        ("a", "b"),
        ((0, 1), (1, 1)),
        0,
        frozenset({1}),
    )
    r = complement(d, ("a", "b"))
    assert r.kappa == 1 and r.dfa.alphabet == ("a",)


def test_double_complement_restores_language(rng):
    for _ in range(30):
        d = random_dfa(rng, max_states=5, letters="ab")
        once = complement(d, ("a", "b", "c"))
        twice = complement(once.dfa, ("a", "b", "c"))
        assert equivalent(twice.dfa, d)


def test_complement_of_empty_language():
    empty = Dfa(1, ("a",), ((0,),), 0, frozenset())
    r = complement(empty, ("a",))
    assert r.kappa == 1 and r.dfa.finals


def test_complement_needs_a_large_enough_universe():
    with pytest.raises(ValueError, match=r"target alphabet \('a',\) is missing letters of"):
        complement(fig_ends_in_b(), ("a",))


def test_complement_keeps_the_universe_order():
    r = complement(fig_ends_in_b(), "zba")
    assert r.dfa.alphabet == ("z", "b", "a")


# --- star --------------------------------------------------------------------------


def test_star_bounds():
    assert star(reg(4, "a,b")).kappa == 2**3 + 2**2 == 12
    right = apply_dialect(build_right_ideal(4), parse_dialect("a,-,-,d"))
    assert star(right).kappa == 5
    assert star(astar()).kappa == 1


def test_star_matches_splitting_oracle(rng):
    for _ in range(20):
        d = random_dfa(rng, max_states=4, letters="ab")
        starred = star(d).dfa
        for _ in range(40):
            w = random_word(rng, d.alphabet, 8)
            ok = [False] * (len(w) + 1)
            ok[0] = True
            for j in range(1, len(w) + 1):
                ok[j] = any(ok[i] and word_in(d, w[i:j]) for i in range(j))
            assert word_in(starred, w) == ok[len(w)]


def test_star_alphabet_shrinks_at_most():
    for _ in range(20):
        d = trim_alphabet(random_dfa(random.Random(7), max_states=5))
        assert set(star(d).dfa.alphabet) <= set(d.alphabet)


# --- reverse ------------------------------------------------------------------------


def test_reverse_bounds():
    assert reverse(reg(3, "a,b,c")).kappa == 8
    left = apply_dialect(build_left_ideal(4), parse_dialect("a,-,c,d,e"))
    assert reverse(left).kappa == 2**3 + 1 == 9


def test_reverse_of_single_word():
    r = reverse(single_a())
    assert r.kappa == 3
    assert quotient_complexity(single_a()) == 3


def test_reverse_matches_word_reversal(rng):
    for _ in range(30):
        d = random_dfa(rng, max_states=5, letters="abc")
        rev = reverse(d).dfa
        for _ in range(40):
            w = random_word(rng, d.alphabet, 8)
            assert word_in(rev, w) == word_in(d, w[::-1])


def test_reverse_preserves_language_alphabet(rng):
    for _ in range(30):
        d = trim_alphabet(random_dfa(rng, max_states=5))
        assert reverse(d).dfa.alphabet == d.alphabet


# --- equivalence and De Morgan -------------------------------------------------------


def test_equivalent_to_own_minimization(rng):
    for _ in range(30):
        d = random_dfa(rng, max_states=6)
        assert equivalent(d, minimize(d))


def test_de_morgan_identities(rng):
    for _ in range(15):
        lhs = random_dfa(rng, max_states=4, letters="ab")
        rhs = random_dfa(rng, max_states=4, letters="bc")
        sigma = union_alphabets(lhs.alphabet, rhs.alphabet)
        u = boolean(BooleanOp.UNION, lhs, rhs)
        i = boolean(BooleanOp.INTER, lhs, rhs)
        assert equivalent(
            complement(u.dfa, sigma).dfa, boolean(BooleanOp.NOR, lhs, rhs).dfa
        )
        assert equivalent(
            complement(i.dfa, sigma).dfa, boolean(BooleanOp.NAND, lhs, rhs).dfa
        )
        assert equivalent(
            complement(boolean(BooleanOp.DIFF, lhs, rhs).dfa, sigma).dfa,
            boolean(BooleanOp.IMPL, lhs, rhs).dfa,
        )
        assert equivalent(
            complement(boolean(BooleanOp.SYMDIFF, lhs, rhs).dfa, sigma).dfa,
            boolean(BooleanOp.XNOR, lhs, rhs).dfa,
        )


def test_languages_differ_between_swapped_dialects():
    assert not equivalent(reg(3, "a,b"), reg(3, "b,a"))


def test_universal_language_absorbs_itself():
    u = universal_dfa("ab")
    assert equivalent(product(u, u).dfa, u)


def test_boolean_over_disjoint_singletons():
    # Union over fully disjoint alphabets empties each operand's part in turn.
    r = boolean(BooleanOp.UNION, astar(), universal_dfa("b"))
    assert r.dfa.alphabet == ("a", "b")
    assert word_in(r.dfa, "")  # epsilon is in both operands


def test_ideal_predicates_on_edge_cases():
    from statecomplexity import is_left_ideal, is_right_ideal, is_two_sided_ideal

    empty = Dfa(1, ("a",), ((0,),), 0, frozenset())
    assert not is_right_ideal(empty)
    assert not is_left_ideal(empty)
    assert not is_two_sided_ideal(empty)

    # a*b is not a left ideal (bb is in Sigma* a*b but not in a*b),
    # while the language of all words ending in b is one.
    astarb = Dfa(
        3,
        ("a", "b"),
        ((0, 2, 2), (1, 2, 2)),
        0,
        frozenset({1}),
    )
    assert not is_left_ideal(astarb)
    assert is_left_ideal(fig_ends_in_b())
    assert not is_two_sided_ideal(fig_ends_in_b())
    assert is_two_sided_ideal(product(fig_ends_in_b(), universal_dfa("ab")).dfa)


def test_reverse_subset_automaton_size():
    from statecomplexity import determinize
    from statecomplexity.automata import bits, reversal_step

    # The preimage walk of the 3-state witness reaches all 8 subsets.
    d = reg(3, "a,b,c")
    assert determinize(d.alphabet, bits(d.finals), reversal_step(d), bool).state_count == 8


# --- results built without re-validation -----------------------------------------------


def test_every_construction_returns_a_valid_dfa(rng):
    # Walk results skip the constructor's checks; rebuilding one through
    # the public constructor must accept it and give an equal DFA.
    ops = list(BooleanOp)
    for _ in range(150):
        lhs = random_dfa(rng, max_states=6, letters="abc")
        rhs = random_dfa(rng, max_states=6, letters="bcd")
        results = [
            minimize(lhs),
            trim_alphabet(lhs),
            product(lhs, rhs).dfa,
            boolean(rng.choice(ops), lhs, rhs).dfa,
            star(lhs).dfa,
            reverse(lhs).dfa,
            complement(lhs, "abcd").dfa,
        ]
        for d in results:
            assert Dfa(d.state_count, d.alphabet, d.delta, d.initial, d.finals) == d
            with pytest.raises(ValueError):
                replace(d, initial=d.state_count)  # replace still checks
