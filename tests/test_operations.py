from __future__ import annotations

import random
from itertools import compress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statecomplexity import (
    BooleanOp,
    CapacityError,
    Dfa,
    WitnessClass,
    apply_dialect,
    automata,
    boolean,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    complement,
    minimize,
    operations,
    parse_dialect,
    product,
    quotient_complexity,
    registry_by_id,
    reverse,
    star,
    trim_alphabet,
    union_alphabets,
)
from statecomplexity.automata import bits, determinize, preimage_masks

from conftest import (
    complete_over,
    equivalent,
    fig_ends_in_b,
    fig_ends_in_c,
    holds,
    is_left_ideal,
    is_right_ideal,
    is_two_sided_ideal,
    random_dfa,
    random_dfa_over,
    random_word,
    sink_product,
    universal_dfa,
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


def in_product(lhs, rhs, w):
    """w in L(lhs)L(rhs), by trying every split."""
    return any(word_in(lhs, w[:i]) and word_in(rhs, w[i:]) for i in range(len(w) + 1))


def in_star(d, w):
    """w in L(d)*, by splitting w into pieces of L(d) from the left."""
    ok = [True] + [False] * len(w)
    for j in range(1, len(w) + 1):
        ok[j] = any(ok[i] and word_in(d, w[i:j]) for i in range(j))
    return ok[len(w)]


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
            assert word_in(result, w) == in_product(lhs, rhs, w)


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
                assert word_in(out, w) == holds(op, a, b), (op, w)


@pytest.mark.parametrize("op", [*TEN_OPS, "product"], ids=lambda op: getattr(op, "name", op))
def test_boolean_acceptance_reads_the_truth_table(monkeypatch, op):
    """The walk's final subsets are those the truth table accepts, every subset checked.

    `boolean` reads its finals off the colour classes of `_pair_walk`, and
    `product` off those of the linked `_walk_pair`, where a subset is final
    iff it holds a right final state. A stand-in walk lists every subset
    of the m+n operand states as a chain on one letter, coloured by the
    operands' final masks, so a^s is in the result iff subset s is final.
    """
    lhs, rhs = minimize(fig_ends_in_b()), minimize(fig_ends_in_c())
    left = bits(lhs.finals)
    right = bits(lhs.state_count + f for f in rhs.finals)
    size = 1 << (lhs.state_count + rhs.state_count)
    chain = (tuple(min(s + 1, size - 1) for s in range(size)),)
    colours = [[], [], [], []]
    for s in range(size):
        colours[(not s & left) << 1 | (not s & right)].append(s)
    walk = (("a",), chain, colours, {})
    if op == "product":

        def linked_walk(lhs, rhs, link):
            assert link
            return walk

        monkeypatch.setattr(operations, "_walk_pair", linked_walk)
        result = product(lhs, rhs).dfa
        for s in range(size):
            assert word_in(result, "a" * s) == bool(s & right), s
    else:
        monkeypatch.setattr(operations, "_pair_walk", lambda *pair: walk)
        result = boolean(op, lhs, rhs).dfa
        for s in range(size):
            assert word_in(result, "a" * s) == holds(op, bool(s & left), bool(s & right)), s


def test_operations_on_a_pair_share_its_walk_and_nothing_else():
    # The ten operations on a pair walk it once, and a product of the pair
    # called between them neither walks it nor evicts it. The kept walk's
    # memo is all the operations share: an operation called again returns
    # its first result, the complement of an operation read before flips
    # that operation's minimal DFA, and later refinements share one set of
    # preimage lists. Each result, whether its walk and memo were kept
    # from the call before or not, equals the one computed from an empty
    # cache, also when the pairs interleave and when an operand is rebuilt
    # equal to, but not the same object as, the last.
    rng = random.Random(29)
    a, b, c, d = (random_dfa(rng, max_states=5, letters="abc") for _ in range(4))
    operations._pair_walk.cache_clear()
    products = []
    for op in TEN_OPS:
        boolean(op, a, b)
        products.append(product(a, b))
    assert operations._pair_walk.cache_info().misses == 1
    operations._pair_walk.cache_clear()
    assert products == [product(a, b)] * len(TEN_OPS)
    copy = Dfa(a.state_count, a.alphabet, a.delta, a.initial, a.finals)
    for lhs, rhs in [(a, b), (c, d), (a, b), (b, a), (a, b), (copy, b)]:
        for op in TEN_OPS:
            shared = boolean(op, lhs, rhs)
            operations._pair_walk.cache_clear()
            assert boolean(op, lhs, rhs) == shared, (op, lhs, rhs)


# Each operation whose table rejects FF, with its complement.
COMPLEMENTARY_OPS = [
    (op, BooleanOp(tuple(not accepted for accepted in op.value)))
    for op in TEN_OPS
    if not op.value[3]
]


@pytest.mark.parametrize("order", [TEN_OPS, TEN_OPS[::-1]], ids=["registry", "reversed"])
def test_ten_operations_on_a_pair_refine_it_five_times_over_one_index(monkeypatch, order):
    # One refinement per complementary pair of operations, whichever of
    # the two comes first, and none for an operation called again. The
    # first read refines with its own preimage lists; the other four
    # refinements read one set of lists, built once.
    lhs, rhs = minimize(reg(5, "a,b,c")), minimize(reg(4, "b,c,d"))
    refined = []  # the preimage lists each refinement was handed, or None
    real = automata.nerode_classes

    def record(d):
        refined.append(d.__dict__.get(automata._PREIMAGES))
        return real(d)

    built = []
    real_lists = operations._preimage_lists

    def build(*args):
        built.append(args)
        return real_lists(*args)

    monkeypatch.setattr(automata, "nerode_classes", record)
    monkeypatch.setattr(operations, "_preimage_lists", build)
    operations._pair_walk.cache_clear()
    results = [boolean(op, lhs, rhs) for op in order]
    assert len(refined) == 5 and len(built) == 1
    assert refined[0] is None and refined[1] is not None
    assert all(lists is refined[1] for lists in refined[1:])
    assert all(automata._PREIMAGES not in r.dfa.__dict__ for r in results)
    again = [boolean(op, lhs, rhs) for op in order]
    assert all(result is first for result, first in zip(again, results))
    assert len(refined) == 5 and len(built) == 1
    assert operations._pair_walk.cache_info().misses == 1


@st.composite
def dfas(draw):
    """A complete DFA of 1..5 states over a subset of {a, b, c}."""
    alphabet = tuple(sorted(draw(st.sets(st.sampled_from("abc")))))
    n = draw(st.integers(1, 5))
    states = st.integers(0, n - 1)
    delta = tuple(draw(st.tuples(*[states] * n)) for _ in alphabet)
    return Dfa(n, alphabet, delta, draw(states), frozenset(draw(st.sets(states))))


@given(
    dfas(),
    dfas(),
    st.lists(st.sampled_from(TEN_OPS), max_size=3),
    st.sampled_from(COMPLEMENTARY_OPS),
    st.booleans(),
)
def test_a_complement_read_after_its_base_equals_it_from_an_empty_cache(
    lhs, rhs, before, pair, swap
):
    # The walk is read by up to three operations first, so the base may be
    # refined over the walk's shared preimage lists; its complement then
    # flips the base's minimal DFA. Every result equals the one computed
    # from an empty cache, the DFA included, and is marked minimal.
    base, other = pair[::-1] if swap else pair
    operations._pair_walk.cache_clear()
    shared = [boolean(op, lhs, rhs) for op in [*before, base, other]]
    for op, result in zip([*before, base, other], shared):
        operations._pair_walk.cache_clear()
        assert boolean(op, lhs, rhs) == result, op
        assert minimize(result.dfa) is result.dfa


@given(dfas(), dfas(), st.booleans())
def test_a_walk_colours_each_subset_by_the_operands_its_access_word_is_in(lhs, rhs, link):
    check_colours(lhs, rhs, link)


def check_colours(lhs, rhs, link):
    """Each state's colour class says whether the walk's left part holds a
    left final state and its right part a right final state.

    For the state's breadth-first access word w, that is w in L(lhs) and
    w in L(rhs) unlinked, and w in L(lhs) and w in L(lhs)L(rhs) linked
    (product); a letter an operand lacks keeps w out of its language.
    """
    combined, rows, colours, memo = operations._walk_pair(lhs, rhs, link)
    assert memo == {}
    count = sum(map(len, colours))
    assert sorted(i for colour in colours for i in colour) == list(range(count))
    access = [""] + [None] * (count - 1)
    queue = [0]
    for q in queue:  # queue grows while it is read
        for letter, row in zip(combined, rows):
            if access[row[q]] is None:
                access[row[q]] = access[q] + letter
                queue.append(row[q])
    assert sorted(queue) == list(range(count))

    def in_rhs(w):
        return in_product(lhs, rhs, w) if link else word_in(rhs, w)

    for colour, states in enumerate(colours):
        for q in states:
            w = access[q]
            assert (word_in(lhs, w), in_rhs(w)) == (colour < 2, colour % 2 == 0), (q, w)


@given(dfas(), dfas(), st.sampled_from(TEN_OPS))
def test_shared_preimage_lists_give_the_same_partition(lhs, rhs, op):
    # The walk's preimage lists are built once, in state order, not in the
    # finality order `nerode_classes` builds its own in, and read by every
    # refinement of the walk; the partition and the minimal DFA are the
    # same, and the refinement takes the lists off the DFA.
    combined, rows, colours, _ = operations._walk_pair(lhs, rhs, link=False)
    finals = frozenset().union(*compress(colours, op.value))
    count = sum(map(len, colours))
    lists = automata._preimage_lists(rows, range(count))

    def walk_dfa(preimages):
        d = automata._walk_dfa(count, combined, rows, finals)
        if preimages is not None:
            d.__dict__[automata._PREIMAGES] = preimages
        return d

    shared = walk_dfa(lists)
    a, b = automata.nerode_classes(walk_dfa(None)), automata.nerode_classes(shared)
    assert len(set(zip(a, b))) == len(set(a)) == len(set(b))
    assert automata._PREIMAGES not in shared.__dict__
    assert minimize(walk_dfa(None)) == minimize(walk_dfa(lists))


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
            n = completed.state_count
            flipped = Dfa(
                n, completed.alphabet, completed.delta, completed.initial,
                frozenset(range(n)) - completed.finals,
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
            assert word_in(starred, w) == in_star(d, w)


def test_star_alphabet_shrinks_at_most():
    for _ in range(20):
        d = trim_alphabet(random_dfa(random.Random(7), max_states=5))
        assert set(star(d).dfa.alphabet) <= set(d.alphabet)


# --- closed walks -------------------------------------------------------------------


@pytest.fixture
def walk_sizes(monkeypatch) -> list[int]:
    """The subset count of every linked pair walk and every `determinize` walk."""
    sizes = []
    real_walk, real_determinize = operations._walk_pair, operations.determinize

    def walk(lhs, rhs, link):
        walked = real_walk(lhs, rhs, link)
        if link:
            sizes.append(sum(map(len, walked[2])))
        return walked

    def walk_subsets(*args):
        d = real_determinize(*args)
        sizes.append(d.state_count)
        return d

    monkeypatch.setattr(operations, "_walk_pair", walk)
    monkeypatch.setattr(operations, "determinize", walk_subsets)
    return sizes


@pytest.mark.parametrize(
    "entry_id",
    "RID-PROD-R RID-PROD-U LID-PROD-U TID-PROD-R TID-PROD-U REG-PROD-R REG-PROD-U".split(),
)
def test_an_ideal_product_walks_exactly_its_quotients(entry_id, walk_sizes):
    # The right operand's part of a linked walk is closed under quotient
    # inclusion, so no two subsets of these walks share a language: each
    # walks exactly kappa subsets, where plain bits walked up to twice as
    # many (52 for kappa = 30 in RID-PROD-U at (5, 5)). The regular
    # witness has no inclusions, and its walks were kappa already.
    entry = registry_by_id()[entry_id]
    for m in range(entry.lhs.witness.min_n, 9):
        for n in range(entry.rhs.witness.min_n, 9):
            kappa = product(entry.lhs.build(m), entry.rhs.build(n)).kappa
            assert walk_sizes == [kappa], (m, n)
            walk_sizes.clear()


@pytest.mark.parametrize("entry_id", ["RID-STAR", "LID-STAR", "TID-STAR", "REG-STAR"])
def test_an_ideal_star_walks_n_plus_one_subsets(entry_id, walk_sizes):
    # Closed under quotient inclusion, an ideal's star walks n + 1 subsets,
    # its kappa, where plain bits walked 2n - 1; the regular witness's
    # star walks its kappa, as before.
    entry = registry_by_id()[entry_id]
    for n in range(entry.lhs.witness.min_n, 9):
        kappa = star(entry.lhs.build(n)).kappa
        assert walk_sizes == [kappa] and kappa == entry.expected(None, n), n
        walk_sizes.clear()


def random_right_ideal(rng: random.Random, letters: str, max_states: int = 6) -> Dfa:
    """A random DFA with one or two final states, made accepting sinks."""
    d = random_dfa(rng, max_states, letters)
    finals = frozenset(rng.sample(range(d.state_count), min(d.state_count, rng.randint(1, 2))))
    delta = tuple(
        tuple(q if q in finals else image for q, image in enumerate(row)) for row in d.delta
    )
    return Dfa(d.state_count, d.alphabet, delta, d.initial, finals)


def right_ideal_pairs(rng: random.Random, count: int, max_states: int = 6):
    """A random left operand, a right ideal every other time, and a right ideal."""
    for i in range(count):
        lhs = random_right_ideal(rng, "abc") if i % 2 else random_dfa(rng, 5, "abc")
        yield lhs, random_right_ideal(rng, "bcd", max_states)


def test_closed_walks_of_right_ideals_match_the_membership_oracles():
    rng = random.Random(20080915)
    for lhs, rhs in right_ideal_pairs(rng, 120):
        concatenated, starred = product(lhs, rhs).dfa, star(rhs).dfa
        sigma = union_alphabets(lhs.alphabet, rhs.alphabet)
        for _ in range(30):
            w = random_word(rng, sigma, 8)
            assert word_in(concatenated, w) == in_product(lhs, rhs, w), (lhs, rhs, w)
            assert word_in(starred, w) == in_star(rhs, w), (rhs, w)
        check_colours(lhs, rhs, link=True)


def test_every_walked_subset_holds_each_state_below_a_state_it_holds(monkeypatch):
    # The start, the link or restart target and every move are closed, so
    # every subset of a linked walk's right part, and of a star walk, is.
    walked = []
    real = automata.subset_walk

    def record(starts, masks):
        keys, rows = real(starts, masks)
        walked.append(keys)
        return keys, rows

    monkeypatch.setattr(automata, "subset_walk", record)
    monkeypatch.setattr(operations, "subset_walk", record)

    def closed(part, below):
        return all(below[q] & ~part == 0 for q in range(len(below)) if part >> q & 1)

    rng = random.Random(2008)
    pairs = [(random_dfa(rng, 5, "abc"), random_dfa(rng, 6, "bcd")) for _ in range(100)]
    for lhs, rhs in [*pairs, *right_ideal_pairs(rng, 100)]:
        offset = minimize(lhs).state_count
        below = automata._inclusions(minimize(rhs))
        product(lhs, rhs)
        star(rhs)
        linked, starred = walked
        assert all(closed(key >> offset, below) for key in linked), (lhs, rhs)
        assert all(closed(key & ~(1 << len(below)), below) for key in starred), rhs
        walked.clear()


def test_operands_past_the_bound_walk_plain_bits_to_the_same_results(monkeypatch, walk_sizes):
    # An operand of n states has its preorder only while n² fits in
    # MAX_SUBSET_STATES. Lowered below n², the same pairs walk plain bits,
    # never fewer subsets, and give the same results; pairs whose plain
    # walks do not fit under the lowered bound are left out.
    rng = random.Random(20061128)
    checked = smaller = 0
    for lhs, rhs in right_ideal_pairs(rng, 400, max_states=10):
        closed = product(lhs, rhs), star(rhs)
        closed_sizes = walk_sizes[:]
        walk_sizes.clear()
        n = minimize(rhs).state_count
        with monkeypatch.context() as patch:
            patch.setattr(automata, "MAX_SUBSET_STATES", n * n - 1)
            try:
                plain = product(lhs, rhs), star(rhs)
            except CapacityError:
                walk_sizes.clear()
                continue
        assert plain == closed, (lhs, rhs)
        assert all(c <= p for c, p in zip(closed_sizes, walk_sizes)), (lhs, rhs)
        checked += 1
        smaller += closed_sizes != walk_sizes
        walk_sizes.clear()
    assert checked >= 100 and smaller >= 50, (checked, smaller)


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
    # The preimage walk of the 3-state witness reaches all 8 subsets.
    d = reg(3, "a,b,c")
    assert determinize(d.alphabet, bits(d.finals), preimage_masks(d.delta), bool).state_count == 8


def raw_reversal_walk(d: Dfa) -> Dfa:
    """The preimage subset walk of `d` itself, neither minimized nor trimmed."""
    return determinize(
        d.alphabet, bits(d.finals), preimage_masks(d.delta), lambda s: s >> d.initial & 1
    )


def test_reverse_is_the_trimmed_raw_walk_on_non_accessible_dfas():
    # reverse walks the minimized operand and refines nothing after; any
    # initial state leaves states unreachable, which that must not change.
    rng = random.Random(2024)
    for _ in range(2000):
        d = random_dfa_over(rng, sorted(rng.sample("abc", rng.randint(0, 3))), rng.randint(1, 7))
        assert reverse(d).dfa == trim_alphabet(raw_reversal_walk(d)), d


@pytest.mark.parametrize("witness", list(WitnessClass))
def test_reversal_walk_of_a_minimal_witness_is_minimal(witness):
    # Brzozowski: the preimage walk of an accessible DFA is minimal, and
    # numbered from its start, so minimize returns it unchanged.
    for n in range(witness.min_n, 12):
        walked = raw_reversal_walk(minimize(witness.build(n)))
        assert minimize(walked) == walked, n


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
                Dfa(d.state_count, d.alphabet, d.delta, d.state_count, d.finals)
