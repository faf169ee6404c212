from __future__ import annotations

import random

import pytest

from statecomplexity import (
    Dfa,
    accepts,
    build_regular,
    determinize,
    language_alphabet,
    minimize,
    operations,
    quotient_complexity,
    quotient_complexity_of_state,
    restrict_alphabet,
    trim_alphabet,
)
from statecomplexity.automata import (
    bits,
    components,
    nerode_classes,
    preimage_masks,
    subset_walk,
)
from statecomplexity.bounds import BOOLEAN_BY_NAME, registry_by_id

from conftest import (
    brzozowski_minimize,
    complete_over,
    fig_ends_in_b,
    is_isomorphic,
    language_alphabet_oracle,
    moore_classes,
    moore_minimize,
    nfa_accepts,
    random_dfa,
    random_dfa_over,
    random_word,
    subset_step_oracle,
    subset_walk_oracle,
    word_in,
)


def astar_with_dead_letter() -> Dfa:
    # a* over {a,b}: reading b falls into a dead state.
    return Dfa(
        state_count=2,
        alphabet=("a", "b"),
        delta=((0, 1), (1, 1)),
        initial=0,
        finals=frozenset({0}),
    )


def empty_language_dfa() -> Dfa:
    return Dfa(1, ("a", "b"), ((0,), (0,)), 0, frozenset())


# --- determinize -----------------------------------------------------------


def epsilon_closure(transitions, states: int) -> int:
    """Bitmask of the states reachable from `states` by empty-word moves."""
    closed = states
    while True:
        grown = closed | bits(q for p, lbl, q in transitions if lbl is None and closed >> p & 1)
        if grown == closed:
            return closed
        closed = grown


def nfa_masks(n: int, alphabet, transitions):
    """Subset-walk masks of an epsilon-NFA, the empty-word moves folded in."""

    def moves(p: int, a: str) -> int:
        return bits(q for p2, label, q in transitions if (p2, label) == (p, a))

    return [[epsilon_closure(transitions, moves(p, a)) for p in range(n)] for a in alphabet]


def test_determinize_trivial_epsilon_language():
    d = determinize(("a",), 1, nfa_masks(1, ("a",), frozenset()), lambda s: s & 1)
    assert d.alphabet == ("a",)
    assert accepts(d, "")
    assert not accepts(d, "a")


def test_determinize_agrees_with_direct_simulation(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        alphabet = ("a", "b")
        labels = [None, "a", "b"]
        transitions = frozenset(
            (rng.randrange(n), rng.choice(labels), rng.randrange(n))
            for _ in range(rng.randint(0, 12))
        )
        initials = frozenset(rng.sample(range(n), rng.randint(1, n)))
        finals = frozenset(rng.sample(range(n), rng.randint(0, n)))
        d = determinize(
            alphabet,
            epsilon_closure(transitions, bits(initials)),
            nfa_masks(n, alphabet, transitions),
            lambda s: s & bits(finals),
        )
        for _ in range(40):
            w = random_word(rng, alphabet, 8)
            assert accepts(d, w) == nfa_accepts(transitions, initials, finals, w)


def test_determinize_has_no_unreachable_states(rng):
    for _ in range(50):
        d = random_dfa(rng, max_states=6)
        subset = determinize(d.alphabet, bits(d.finals), preimage_masks(d.delta), lambda s: s & 1)
        reached = {subset.initial}
        frontier = [subset.initial]
        while frontier:
            p = frontier.pop()
            for row in subset.delta:
                if row[p] not in reached:
                    reached.add(row[p])
                    frontier.append(row[p])
        assert len(reached) == subset.state_count


@pytest.mark.parametrize(
    "masks",
    [[], [[]], [[], []], [[0]], [[1], [0], [1]], [[0, 0, 0], [0, 0, 0]]],
    ids=["no-letters", "width-0", "width-0-two-letters", "width-1-empty", "width-1", "all-zero"],
)
def test_subset_step_edge_cases_match_the_oracle(masks):
    # The step `subset_walk` runs inline, read off a walk from one subset:
    # its successors on the letters are the walk's first row entries.
    width = len(masks[0]) if masks else 5
    for subset in range(1 << width):
        keys, rows = subset_walk((subset,), masks)
        assert [keys[row[0]] for row in rows] == subset_step_oracle(masks)(subset)


def random_masks(rng, width: int, k: int) -> list[list[int]]:
    """k rows of `width` masks, each row dense, sparse (NFA-like) or empty."""
    masks = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.4:
            masks.append([rng.getrandbits(width) for _ in range(width)])
        elif kind < 0.9:
            sparse = (rng.sample(range(width), rng.randint(0, min(2, width))) for _ in range(width))
            masks.append([bits(states) for states in sparse])
        else:
            masks.append([0] * width)
    return masks


@pytest.mark.parametrize(
    "masks",
    [[], [[]], [[], []], [[0]], [[1], [0], [1]], [[0, 0, 0], [0, 0, 0]]],
    ids=["no-letters", "width-0", "width-0-two-letters", "width-1-empty", "width-1", "all-zero"],
)
def test_subset_walk_edge_cases_match_the_oracle_walk(masks):
    width = len(masks[0]) if masks else 5
    every = range(1 << width)
    for starts in (*((start,) for start in every), every, [*reversed(every), 0, 0]):
        assert subset_walk(starts, masks) == subset_walk_oracle(starts, masks, 1 << 20)


def test_subset_walk_matches_the_oracle_walk(rng, monkeypatch):
    # Sparse masks over 70 states can reach far more subsets than a test
    # should walk, so both walks stop at 300 keys, and must stop together.
    from statecomplexity import CapacityError, automata

    cap = 300
    monkeypatch.setattr(automata, "MAX_SUBSET_STATES", cap)
    capped = 0
    for _ in range(300):
        width = rng.randint(0, 70)
        masks = random_masks(rng, width, rng.randint(0, 4))
        full = (1 << width) - 1
        single = 1 << rng.randrange(width) if width else 0
        several = [rng.getrandbits(width) for _ in range(rng.randint(2, 5))]
        for starts in ((0,), (full,), (rng.getrandbits(width),), (single,), several * 2):
            expected = subset_walk_oracle(starts, masks, cap)
            if expected is None:
                capped += 1
                with pytest.raises(CapacityError):
                    subset_walk(starts, masks)
            else:
                assert subset_walk(starts, masks) == expected
    assert 0 < capped < 750  # both outcomes occur


def test_walk_numbers_its_starts_first_in_order_and_merges_duplicates():
    rotate = [[1 << (q + 1) % 6 for q in range(6)]]
    keys, rows = subset_walk([1 << 5, 1 << 2, 1 << 5, 1 << 0], rotate)
    assert keys == [1 << 5, 1 << 2, 1 << 0, 1 << 3, 1 << 1, 1 << 4]
    assert rows == [[2, 3, 4, 5, 1, 0]]
    assert subset_walk(iter([1 << 4]), rotate)[0] == [1 << q for q in (4, 5, 0, 1, 2, 3)]
    assert subset_walk([], rotate) == ([], [[]])


def test_subset_walk_stops_where_its_bits_run_out(monkeypatch):
    # A 6-state rotation packs masks of 2+3+4+5+6+1 = 21 bits, and its
    # walk from one state numbers 6 keys of 6 bits: 57 bits in all.
    from statecomplexity import CapacityError, automata

    rotate = [[1 << (q + 1) % 6 for q in range(6)]]
    monkeypatch.setattr(automata, "MAX_SUBSET_BITS", 57)
    assert len(subset_walk([1], rotate)[0]) == 6
    monkeypatch.setattr(automata, "MAX_SUBSET_BITS", 56)
    with pytest.raises(CapacityError, match="exceeded 5 states"):
        subset_walk([1], rotate)


def test_determinize_raises_capacity_error(monkeypatch):
    from statecomplexity import CapacityError, automata

    monkeypatch.setattr(automata, "MAX_SUBSET_STATES", 7)
    d = build_regular(3)
    with pytest.raises(CapacityError):
        determinize(d.alphabet, bits(d.finals), preimage_masks(d.delta), lambda s: s & 1)
    assert determinize(d.alphabet, 1, [[1, 2, 4]] * 4, bool).state_count == 1


@pytest.mark.parametrize(
    ("alphabet", "mask_rows"), [(("A",), 1), (("a", "a"), 2), (("a", "b"), 1)]
)
def test_determinize_checks_what_its_caller_supplies(alphabet, mask_rows):
    # The walked rows skip the constructor's checks, so a bad alphabet or
    # the wrong number of mask rows must be refused before they are built.
    with pytest.raises(ValueError):
        determinize(alphabet, 1, [[2, 4, 1]] * mask_rows, bool)


def test_determinize_refuses_mask_rows_of_unequal_width():
    # Packing would silently cut the longer row down to the shorter.
    with pytest.raises(ValueError):
        determinize(("a", "b"), 1, [[2, 4, 1], [2, 4]], bool)


@pytest.mark.parametrize("finals", [{2}, {-1}, {0.5}, {"0"}])
def test_dfa_rejects_final_states_out_of_range(finals):
    with pytest.raises(ValueError):
        Dfa(2, ("a",), ((0, 1),), 0, frozenset(finals))


@pytest.mark.parametrize(
    "field,value",
    [
        ("initial", 0.5),
        ("delta", ((0.0, 1),)),
        ("delta", ([0, 1],)),
        ("delta", ((0, 1, 0),)),
        ("delta", [(0, 1)]),
        ("alphabet", ["a"]),
        ("alphabet", (5,)),
        ("finals", {0}),
        ("state_count", 2.0),
    ],
    ids=[
        "float-initial",
        "float-image",
        "list-row",
        "long-row",
        "list-delta",
        "list-alphabet",
        "int-symbol",
        "set-finals",
        "float-state-count",
    ],
)
def test_dfa_rejects_non_integer_or_misshapen_rows(field, value):
    # Every field but the one under test is valid; a mutable container
    # would make the DFA unhashable and unequal to its tuple twin.
    fields = {
        "state_count": 2,
        "alphabet": ("a",),
        "delta": ((0, 1),),
        "initial": 0,
        "finals": frozenset(),
    }
    with pytest.raises(ValueError):
        Dfa(**{**fields, field: value})


def test_dfa_rejects_out_of_range_image():
    for row in ((0, 3, 1), (0, -1, 1)):
        with pytest.raises(ValueError):
            Dfa(3, ("a",), (row,), 0, frozenset())


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ((0, True, 1), "row for 'b' has image True, not a state 0..2"),
        ((0, -1, 7), "row for 'b' has image -1, not a state 0..2"),
        ((0, 3, -1), "row for 'b' has image 3, not a state 0..2"),
        ((0, 1.0, 9), "row for 'b' has image 1.0, not a state 0..2"),
        ((0, 5, "1"), "row for 'b' has image 5, not a state 0..2"),
        ((0, 2, "1"), "row for 'b' has image '1', not a state 0..2"),
    ],
    ids=["bool", "negative", "out-of-range", "float", "range-before-type", "str"],
)
def test_dfa_image_error_names_the_first_bad_entry(bad_row, message):
    # The first row is valid; the message names the first bad entry of
    # the second row, whatever follows it.
    with pytest.raises(ValueError) as err:
        Dfa(3, ("a", "b"), ((0, 1, 2), bad_row), 0, frozenset())
    assert str(err.value) == message


# --- minimize and the double-reversal oracle --------------------------------


def test_witness_already_minimal():
    d = build_regular(4)
    m = minimize(d)
    assert m.state_count == 4
    assert is_isomorphic(m, d)


def test_duplicate_final_sinks_merge():
    # Two identical absorbing final states must collapse.
    d = Dfa(
        state_count=3,
        alphabet=("a",),
        delta=((1, 1, 2),),
        initial=0,
        finals=frozenset({1, 2}),
    )
    assert minimize(d).state_count == 2


def test_minimize_agrees_with_brzozowski_on_1000_random_dfas():
    rng = random.Random(20240811)
    for _ in range(1000):
        d = random_dfa(rng, max_states=8, letters="abcd")
        minimal = minimize(d)
        double_reversal = brzozowski_minimize(d)
        assert is_isomorphic(minimal, double_reversal)
        # Both pipelines number states canonically, so they agree exactly.
        assert minimal == double_reversal


def test_minimize_is_idempotent(rng):
    for _ in range(200):
        d = random_dfa(rng, max_states=7)
        once = minimize(d)
        assert minimize(once) is once  # already canonical: returned as it is


def renumbered(d: Dfa, perm: list[int]) -> Dfa:
    """`d` with state q renamed perm[q], the initial state included."""
    rows = []
    for row in d.delta:
        new = [0] * d.state_count
        for q, image in enumerate(row):
            new[perm[q]] = perm[image]
        rows.append(tuple(new))
    return Dfa(
        d.state_count,
        d.alphabet,
        tuple(rows),
        perm[d.initial],
        frozenset(perm[q] for q in d.finals),
    )


def test_minimize_is_canonical_under_any_renumbering():
    # minimize returns an input that is already minimal and BFS-numbered
    # as it is; renumbering the states of a minimal DFA must still give the
    # canonical numbering back, so that shortcut may fire on no other input.
    rng = random.Random(20261019)
    renamed_minimal = 0
    for _ in range(1000):
        d = random_dfa(rng, max_states=8, letters="abc")
        m = minimize(d)
        perm = list(range(d.state_count))
        rng.shuffle(perm)
        assert minimize(renumbered(d, perm)) == m
        perm = list(range(m.state_count))
        rng.shuffle(perm)
        shuffled = renumbered(m, perm)
        renamed_minimal += shuffled != m
        assert minimize(shuffled) == m
    assert renamed_minimal > 300  # many draws minimize to one or two states


def test_minimize_preserves_language(rng):
    for _ in range(100):
        d = random_dfa(rng, max_states=7)
        m = minimize(d)
        for _ in range(20):
            w = random_word(rng, d.alphabet)
            assert accepts(d, w) == accepts(m, w)


# --- nerode_classes against Moore's refinement -------------------------------


def check_classes(d: Dfa) -> list[int]:
    """The classes equal the oracle's up to renaming and are numbered 0..k-1."""
    cls = nerode_classes(d)
    oracle = moore_classes(d)
    assert len(cls) == d.state_count
    assert len(set(zip(cls, oracle))) == len(set(cls)) == len(set(oracle))
    assert sorted(set(cls)) == list(range(max(cls) + 1))
    return cls


def test_nerode_classes_match_moore_on_random_dfas():
    rng = random.Random(1971)
    for _ in range(2000):
        n = rng.randint(1, 12)
        d = random_dfa_over(rng, sorted(rng.sample("abc", rng.randint(0, 3))), n)
        check_classes(d)
        assert minimize(d) == moore_minimize(d)


@pytest.mark.parametrize("finals", [frozenset(), frozenset(range(5))])
def test_nerode_classes_of_one_finality_are_one_class(finals):
    d = Dfa(5, ("a", "b"), ((1, 2, 3, 4, 0), (0, 0, 1, 1, 2)), 0, finals)
    assert check_classes(d) == [0] * 5


@pytest.mark.parametrize("finals", [frozenset(), frozenset({0})])
def test_nerode_classes_of_one_state(finals):
    assert check_classes(Dfa(1, ("a",), ((0,),), 0, finals)) == [0]
    assert check_classes(Dfa(1, (), (), 0, finals)) == [0]


def test_nerode_classes_over_the_empty_alphabet_split_by_finality():
    cls = check_classes(Dfa(4, (), (), 2, frozenset({1, 3})))
    assert cls[0] == cls[2] != cls[1] == cls[3]


@pytest.mark.slow
def test_nerode_classes_of_a_long_cyclic_counter():
    # One letter steps a 3,000-cycle toward its one final state, so every
    # state differs and Moore's rounds separate one state per round.
    n = 3000
    d = Dfa(n, ("a",), (tuple((q + 1) % n for q in range(n)),), 0, frozenset({n - 1}))
    assert len(set(check_classes(d))) == n
    assert minimize(d) == d  # already minimal and numbered in walk order


@pytest.mark.parametrize(
    ("entry_id", "m", "n"), [("REG-BOOL-U-UNION", 60, 60), ("LID-PROD-U", 40, 40)]
)
def test_nerode_classes_match_moore_on_large_walks(monkeypatch, entry_id, m, n):
    # The subset walk a large operation hands to its final minimize.
    walked = []

    def record(d):
        walked.append(d)
        return trim_alphabet(d)

    monkeypatch.setattr(operations, "trim_alphabet", record)
    entry = registry_by_id()[entry_id]
    lhs, rhs = entry.lhs.build(m), entry.rhs.build(n)
    if entry.operation == "product":
        operations.product(lhs, rhs)
    else:
        operations.boolean(BOOLEAN_BY_NAME[entry.operation], lhs, rhs)
    (d,) = walked
    check_classes(d)
    assert minimize(d) == moore_minimize(d)


# --- isomorphism ------------------------------------------------------------


def test_isomorphic_to_itself(rng):
    for _ in range(20):
        d = random_dfa(rng)
        assert is_isomorphic(d, d)


def test_letter_swap_is_not_isomorphic():
    from statecomplexity import apply_dialect, parse_dialect

    d_ab = apply_dialect(build_regular(3), parse_dialect("a,b"))
    d_ba = apply_dialect(build_regular(3), parse_dialect("b,a"))
    assert not is_isomorphic(d_ab, d_ba)
    # Independent witness word: aa is accepted only when a is the big cycle.
    assert accepts(d_ab, "aa") != accepts(d_ba, "aa")


def test_unequal_alphabets_are_not_isomorphic():
    d = astar_with_dead_letter()
    assert not is_isomorphic(d, trim_alphabet(d))


# --- alphabet of the language ------------------------------------------------


def test_language_alphabet_drops_dead_letters():
    assert language_alphabet(astar_with_dead_letter()) == ("a",)


def test_complement_can_lose_a_letter():
    # L = all words over {a,b} except a*; its complement over {a,b} is a*.
    d = astar_with_dead_letter()
    not_astar = Dfa(d.state_count, d.alphabet, d.delta, d.initial, frozenset({1}))
    assert language_alphabet(not_astar) == ("a", "b")
    assert quotient_complexity(not_astar) == 2
    from statecomplexity import complement

    comp = complement(not_astar, ("a", "b"))
    assert comp.kappa == 1
    assert comp.dfa.alphabet == ("a",)


def test_empty_language_has_empty_alphabet():
    assert language_alphabet(empty_language_dfa()) == ()
    assert quotient_complexity(empty_language_dfa()) == 1


def test_trim_agrees_with_the_reverse_search_oracle():
    rng = random.Random(20261018)
    dfas = [random_dfa(rng) for _ in range(1000)]
    # random_dfa never draws the empty alphabet: empty and {epsilon}.
    dfas += [Dfa(3, (), (), q, finals) for finals in (frozenset(), frozenset({1})) for q in range(3)]
    for d in dfas:
        letters = language_alphabet_oracle(d)
        assert language_alphabet(d) == letters
        assert trim_alphabet(d) == brzozowski_minimize(restrict_alphabet(d, letters))
        assert minimize(d) == brzozowski_minimize(d)


# --- trim_alphabet / quotient_complexity -------------------------------------


def test_trim_astar_to_one_state():
    t = trim_alphabet(astar_with_dead_letter())
    assert t.state_count == 1
    assert t.alphabet == ("a",)
    assert t.finals == frozenset({0})


def test_restrict_alphabet_takes_a_one_shot_iterable():
    d = build_regular(3)
    restricted = restrict_alphabet(d, (a for a in "ab"))
    assert restricted.alphabet == ("a", "b")
    assert restricted.delta == d.delta[:2]


def test_trim_is_plain_minimize_when_alphabet_is_tight():
    d = build_regular(5)
    assert trim_alphabet(d) == minimize(d)


def test_kappa_of_witnesses():
    for n in range(3, 7):
        assert quotient_complexity(build_regular(n)) == n


def test_kappa_single_nonfinal_state():
    assert quotient_complexity(empty_language_dfa()) == 1


def test_epsilon_language_corner():
    d = Dfa(2, ("a",), ((1, 1),), 0, frozenset({0}))
    t = trim_alphabet(d)
    assert t.state_count == 1 and t.alphabet == () and t.finals == frozenset({0})


# --- accepts ------------------------------------------------------------------


def test_accepts_traces_the_regular_witness():
    d = build_regular(3)
    assert accepts(d, "aa")
    assert accepts(d, "") == (d.initial in d.finals) == False


def test_accepts_epsilon_matches_initial_finality(rng):
    for _ in range(20):
        d = random_dfa(rng)
        assert accepts(d, "") == (d.initial in d.finals)


def test_accepts_fig1():
    assert accepts(fig_ends_in_b(), "ab")
    assert not accepts(fig_ends_in_b(), "ba")


def test_accepts_rejects_foreign_letters():
    with pytest.raises(ValueError):
        accepts(fig_ends_in_b(), "abc")


@pytest.mark.parametrize(
    "q,word", [(-1, "a"), (3, ""), (7, "a"), (True, ""), (0.5, ""), (0.5, "a")]
)
def test_run_rejects_a_start_outside_the_states(q, word):
    d = build_regular(3)
    with pytest.raises(ValueError, match="out of range 0..2"):
        d.run(q, word)


# --- complete_over, the sink-completion oracle of conftest -------------------


def test_completing_fig1_matches_fig2():
    completed = complete_over(fig_ends_in_b(), ("a", "b", "c"))
    assert completed.state_count == 3
    assert completed.alphabet == ("a", "b", "c")
    # The sink is fixed by everything and every c-transition enters it.
    assert completed.transformation("c") == (2, 2, 2)
    assert completed.transformation("a") == (0, 0, 2)
    assert completed.transformation("b") == (1, 1, 2)
    assert completed.finals == frozenset({1})


def test_complete_over_own_alphabet_is_identity():
    d = fig_ends_in_b()
    assert complete_over(d, ("a", "b")) is d


def test_sink_added_for_all_final_one_state():
    d = Dfa(1, ("a",), ((0,),), 0, frozenset({0}))
    completed = complete_over(d, ("a", "b"))
    assert completed.state_count == 2
    assert not accepts(completed, "b")
    assert accepts(completed, "aa")


def test_complete_over_missing_letter_is_error():
    with pytest.raises(ValueError):
        complete_over(fig_ends_in_b(), ("a", "c"))


def test_complete_over_preserves_language(rng):
    for _ in range(50):
        d = random_dfa(rng, max_states=6, letters="abc")
        completed = complete_over(d, ("a", "b", "c", "d"))
        for _ in range(20):
            w = random_word(rng, ("a", "b", "c", "d"))
            assert word_in(d, w) == accepts(completed, w)


# --- per-state complexity ------------------------------------------------------


def test_single_letter_witness_quotients():
    from statecomplexity import apply_dialect, parse_dialect

    for n in range(3, 7):
        d = apply_dialect(build_regular(n), parse_dialect("a"))
        for q in range(n):
            assert quotient_complexity_of_state(d, q) == n


def test_right_ideal_final_quotient_is_trivial():
    from statecomplexity import build_right_ideal

    d = build_right_ideal(4)
    assert quotient_complexity_of_state(d, 3) == 1


def test_ideal_witness_quotient_complexities():
    from statecomplexity import apply_dialect, build_left_ideal, build_right_ideal
    from statecomplexity import build_two_sided_ideal, parse_dialect

    for n in (4, 5):
        left = apply_dialect(build_left_ideal(n), parse_dialect("a,-,-,d,e"))
        assert [quotient_complexity_of_state(left, q) for q in range(n)] == [n] * n
    for n in (3, 4, 5):
        right = apply_dialect(build_right_ideal(n), parse_dialect("a,-,-,d"))
        assert [quotient_complexity_of_state(right, q) for q in range(n)] == [n] * (n - 1) + [1]
    # The absorbing final state of the two-sided witness accepts every
    # word, so its quotient is trivial; the other quotients are full.
    for n in (5, 6):
        two = apply_dialect(build_two_sided_ideal(n), parse_dialect("a,-,-,d,e,f"))
        assert [quotient_complexity_of_state(two, q) for q in range(n)] == [n] * (n - 1) + [1]


def test_dead_state_quotient():
    d = empty_language_dfa()
    assert quotient_complexity_of_state(d, 0) == 1


# --- language preservation through the pipeline --------------------------------


def test_transforms_preserve_membership_on_random_words(rng):
    for _ in range(20):
        d = random_dfa(rng, max_states=6, letters="abc")
        universe = ("a", "b", "c", "d")
        completed = complete_over(d, universe)
        variants = [minimize(d), trim_alphabet(d), completed, minimize(completed)]
        for _ in range(200):
            w = random_word(rng, universe, 12)
            expect = word_in(d, w)
            for v in variants:
                assert word_in(v, w) == expect


def test_complement_complexity_drop_is_at_most_one(rng):
    from statecomplexity import complement

    for _ in range(200):
        d = trim_alphabet(random_dfa(rng, max_states=6, letters="abc"))
        kappa = d.state_count
        comp = complement(d, d.alphabet)
        assert comp.kappa in (kappa, kappa - 1)


# --- strongly connected components ----------------------------------------------


def reachability(successors) -> list[set[int]]:
    """Entry v is the set of vertices v reaches, itself included."""
    out = []
    for v in range(len(successors)):
        seen = {v}
        stack = [v]
        while stack:
            for w in successors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(seen)
    return out


def check_components(successors) -> list[int]:
    """Compare `components` with mutual reachability and check the order."""
    comp = components(successors)
    reach = reachability(successors)
    n = len(successors)
    for v in range(n):
        for w in range(n):
            assert (comp[v] == comp[w]) == (w in reach[v] and v in reach[w])
    assert sorted(set(comp)) == list(range(len(set(comp))))
    for v, targets in enumerate(successors):
        assert all(comp[w] <= comp[v] for w in targets)  # sinks first
    return comp


def test_components_of_a_dag_are_singletons_sinks_first():
    comp = check_components([[1, 2], [3], [3], []])
    assert comp[3] == 0 and len(set(comp)) == 4


def test_components_of_a_cycle_and_self_loops():
    assert check_components([[1], [2], [0]]) == [0, 0, 0]
    assert check_components([[0], [1], [2]]) == [0, 1, 2]
    assert check_components([[0, 1], [1, 2], [2]]) == [2, 1, 0]


def test_components_of_a_disconnected_graph():
    comp = check_components([[1], [0], [3], [2], [], [4]])
    assert comp[0] == comp[1] and comp[2] == comp[3] and len(set(comp)) == 4
    assert check_components([]) == []


def test_components_of_random_graphs(rng):
    for _ in range(200):
        n = rng.randint(1, 12)
        check_components([rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)])


def test_components_of_a_long_cycle_need_no_recursion():
    n = 20000
    comp = components([[v + 1] for v in range(n - 1)] + [[0]])
    assert set(comp) == {0}
