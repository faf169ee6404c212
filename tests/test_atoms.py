from __future__ import annotations

import tracemalloc

import pytest

from statecomplexity import (
    CapacityError,
    Dfa,
    WitnessClass,
    apply_dialect,
    atom_complexities,
    atom_dfa,
    atom_formula,
    atoms,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    build_two_sided_ideal,
    minimize,
    parse_dialect,
    registry_by_id,
    reverse,
    trim_alphabet,
)
from statecomplexity import automata
from statecomplexity.atoms import explicit_profiles

from conftest import (
    brzozowski_minimize,
    pair_atom_oracle,
    random_dfa,
    random_dfa_over,
    random_word,
    word_in,
)
from test_acceptance import BUILDERS, atom_form


def reg(n, dialect="a,b,c"):
    return apply_dialect(build_regular(n), parse_dialect(dialect))


def profile_of(d: Dfa, word: str) -> frozenset[int]:
    """The set of states whose quotient contains the word."""
    return frozenset(q for q in range(d.state_count) if d.run(q, word) in d.finals)


def monoid_atom_automaton(d: Dfa, s: frozenset[int]) -> Dfa:
    """Independent construction: track the whole transformation of a word.

    States are the tuples (delta(0, w), ..., delta(n-1, w)) over prefixes w,
    starting from the identity tuple, so they run through the transition
    monoid; a tuple accepts iff its profile is exactly S. Minimizing this
    automaton gives the atom's minimal DFA without ever touching the
    átomaton or the subset-pair construction.
    """
    start = tuple(range(d.state_count))
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in d.alphabet]
    head = 0
    while head < len(order):
        t = order[head]
        head += 1
        for k, g in enumerate(d.delta):
            nxt = tuple(g[p] for p in t)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            rows[k].append(index[nxt])
    finals = frozenset(
        i
        for i, t in enumerate(order)
        if frozenset(q for q, p in enumerate(t) if p in d.finals) == s
    )
    return Dfa(
        state_count=len(order),
        alphabet=d.alphabet,
        delta=tuple(map(tuple, rows)),
        initial=0,
        finals=finals,
    )


def atom_dfa_via_monoid(d: Dfa, s: frozenset[int]) -> Dfa:
    return minimize(monoid_atom_automaton(d, s))


# --- construction against the documented values ---------------------------------


def test_atom_of_empty_profile_regular():
    assert atom_dfa(reg(3), frozenset()).state_count == 2**3 - 1 == 7


def test_atom_of_singleton_profile_regular():
    assert atom_dfa(reg(3), frozenset({0})).state_count == 10
    assert atom_formula(WitnessClass.REGULAR, 3, frozenset({0})) == 10


def test_empty_atom_is_distinct_from_trivial():
    d = build_right_ideal(4)
    missing = frozenset({0})  # profiles without the absorbing final state are empty
    a = atom_dfa(d, missing)
    assert a.state_count == 1 and not a.finals
    assert missing not in atom_complexities(d)


def test_atom_counts_of_witnesses():
    assert len(atoms(reg(3))) == 8
    rid = apply_dialect(build_right_ideal(4), parse_dialect("a,-,-,d"))
    assert len(atoms(rid)) == 8
    lid = apply_dialect(build_left_ideal(5), parse_dialect("a,-,c,d,e"))
    assert len(atoms(lid)) == 17


def test_every_profile_realized_by_regular_witness():
    for n in (3, 4):
        d = reg(n)
        assert len(atoms(d)) == 2**n


# --- the monoid-route oracle ------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
def test_pair_construction_matches_monoid_route_regular(n):
    d = reg(n)
    for mask in range(2**n):
        s = frozenset(q for q in range(n) if mask >> q & 1)
        via_pairs = atom_dfa(d, s)
        via_monoid = atom_dfa_via_monoid(d, s)
        assert via_pairs == via_monoid  # canonical minimization on both routes


def test_pair_construction_matches_monoid_route_ideals():
    d = build_right_ideal(3)
    for mask in range(2**3):
        s = frozenset(q for q in range(3) if mask >> q & 1)
        assert atom_dfa(d, s) == atom_dfa_via_monoid(d, s)


# --- the (X, Y) pair oracle --------------------------------------------------------


def test_atomaton_matches_the_pair_oracle_on_random_dfas(rng):
    # Not minimal, not accessible, over 0-3 letters; realized, unrealized,
    # empty and full profiles. The átomaton walk is not refined, so it
    # must come out minimal and canonically numbered as it is.
    for _ in range(1000):
        n = rng.randint(1, 5)
        d = random_dfa_over(rng, sorted(rng.sample("abc", rng.randint(0, 3))), n)
        full = frozenset(range(n))
        drawn = (frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(2))
        profiles = [*atoms(d), *drawn, frozenset(), full]
        oracles = [pair_atom_oracle(d, s) for s in profiles]
        for s, oracle in zip(profiles, oracles):
            a = atom_dfa(d, s)
            assert a == oracle, (d, s)
            assert minimize(a) is a
        # The oracle has a final state iff S is realized.
        assert atom_complexities(d) == {
            s: o.state_count for s, o in zip(profiles, oracles) if o.finals
        }


# --- one shared átomaton walk for many profiles -------------------------------------


def assert_counts_match_atom_dfa(d: Dfa) -> None:
    counts = atom_complexities(d)
    assert list(counts) == atoms(d)
    assert all(count == atom_dfa(d, s).state_count for s, count in counts.items())


def test_shared_walk_counts_match_atom_dfa_on_random_dfas(rng):
    for _ in range(300):
        assert_counts_match_atom_dfa(trim_alphabet(random_dfa(rng, max_states=6, letters="abc")))


@pytest.mark.parametrize("tag", ["REG", "RID", "LID", "TID"])
def test_shared_walk_counts_match_atom_dfa_on_witnesses(tag):
    recipe = registry_by_id()[f"{tag}-ATOMS"].lhs
    for n in range(recipe.witness.min_n, 7):
        assert_counts_match_atom_dfa(recipe.build(n))


def test_shared_walk_edge_cases():
    tid = build_two_sided_ideal(5)
    missing = frozenset({0, 2, 3, 4})  # no word has this profile
    assert not atom_dfa(tid, missing).finals
    counts = atom_complexities(tid)
    assert missing not in counts and counts[frozenset(range(5))] == 5
    empty_alphabet = Dfa(3, (), (), 0, frozenset({0, 2}))
    assert atom_complexities(empty_alphabet) == {frozenset({0, 2}): 1}
    for s in [{0, 2}, {1}, set(), {0, 1, 2}]:
        assert atom_dfa(empty_alphabet, s).state_count == 1


def test_atomaton_past_the_bit_budget_raises_before_building_its_masks(monkeypatch):
    # REG n=11 has 2,048 atoms over 4 letters, so its packed átomaton
    # masks would take about 4·2048² bits (2 MiB): a 2^20-bit budget
    # refuses them once the reversal walk has counted the atoms.
    monkeypatch.setattr(automata, "MAX_SUBSET_BITS", 1 << 20)
    d = build_regular(11)
    profiles = atoms(d)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="over 2048 atoms and 4 letters"):
            atom_complexities(d)
        with pytest.raises(CapacityError, match="over 2048 atoms"):
            atom_dfa(d, profiles[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_atomaton_walk_stops_at_the_bit_budget(monkeypatch):
    # REG n=8: 256 atoms, packed masks of about 2^18 bits, and 3^8 = 6,561
    # walked sets of atoms of 256 bits each, about 1.6·2^20 bits.
    d = build_regular(8)
    expected = atom_complexities(d)
    monkeypatch.setattr(automata, "MAX_SUBSET_BITS", 1 << 22)
    assert atom_complexities(d) == expected
    monkeypatch.setattr(automata, "MAX_SUBSET_BITS", 1 << 20)
    with pytest.raises(CapacityError, match="subset construction exceeded"):
        atom_complexities(d)


# --- partition property -----------------------------------------------------------


def test_words_fall_into_exactly_one_atom(rng):
    for d in (reg(3), build_left_ideal(4), trim_alphabet(random_dfa(rng, max_states=4))):
        realized = atoms(d)
        machines = {s: atom_dfa(d, s) for s in realized}
        for _ in range(200):
            w = random_word(rng, d.alphabet, 10)
            hits = [s for s, a in machines.items() if word_in(a, w)]
            assert hits == [profile_of(d, w)]


# --- atom count equals reversal complexity -----------------------------------------


def test_atom_count_is_reversal_complexity_on_witnesses():
    cases = [
        reg(3),
        reg(4),
        apply_dialect(build_right_ideal(4), parse_dialect("a,-,-,d")),
        apply_dialect(build_left_ideal(4), parse_dialect("a,-,c,d,e")),
        apply_dialect(build_two_sided_ideal(5), parse_dialect("a,-,-,d,e,f")),
        build_two_sided_ideal(5),
    ]
    for d in cases:
        t = trim_alphabet(d)
        assert len(atoms(t)) == reverse(t).kappa


def test_atom_count_is_reversal_complexity_on_random_dfas(rng):
    for _ in range(40):
        t = trim_alphabet(random_dfa(rng, max_states=6, letters="abc"))
        assert len(atoms(t)) == reverse(t).kappa


# --- closed forms -------------------------------------------------------------------


def test_formula_values_from_the_tables():
    assert atom_formula(WitnessClass.REGULAR, 3, frozenset(range(3))) == 7
    assert atom_formula(WitnessClass.LEFT_IDEAL, 4, frozenset(range(4))) == 4
    assert atom_formula(WitnessClass.TWO_SIDED_IDEAL, 5, frozenset({0, 2, 3, 4})) == 12
    assert atom_formula(WitnessClass.RIGHT_IDEAL, 4, frozenset(range(4))) == 8


def test_explicit_profiles_are_the_named_table_entries():
    assert explicit_profiles(WitnessClass.REGULAR, 3) == [frozenset(), frozenset({0, 1, 2})]
    assert explicit_profiles(WitnessClass.RIGHT_IDEAL, 4) == [frozenset({0, 1, 2, 3})]
    assert explicit_profiles(WitnessClass.LEFT_IDEAL, 4) == [frozenset(), frozenset({0, 1, 2, 3})]
    assert explicit_profiles(WitnessClass.TWO_SIDED_IDEAL, 5) == [
        frozenset({0, 1, 2, 3, 4}),
        frozenset({0, 2, 3, 4}),
    ]


@pytest.mark.parametrize("cls", list(WitnessClass))
def test_explicit_profiles_refuse_below_the_witness_floor(cls):
    n = cls.min_n - 1
    with pytest.raises(ValueError) as refused:
        atom_formula(cls, n, frozenset())
    with pytest.raises(ValueError) as listed:
        explicit_profiles(cls, n)
    assert str(listed.value) == str(refused.value)
    assert explicit_profiles(cls, cls.min_n)


def test_formula_rejects_unlisted_profiles():
    with pytest.raises(ValueError):
        atom_formula(WitnessClass.RIGHT_IDEAL, 4, frozenset())
    with pytest.raises(ValueError):
        atom_formula(WitnessClass.TWO_SIDED_IDEAL, 4, frozenset())
    with pytest.raises(ValueError):
        atom_formula(WitnessClass.REGULAR, 2, frozenset())


@pytest.mark.parametrize("profile", [{3}, {5}, {-1}, {0, 7}, {1.0}, {"0"}, {True}])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: atom_formula(WitnessClass.REGULAR, 3, s),
        lambda s: atom_dfa(build_regular(3), s),
    ],
    ids=["atom_formula", "atom_dfa"],
)
def test_profiles_naming_no_state_are_rejected(call, profile):
    # True == 1, but a profile names its states by int, as a Dfa does.
    with pytest.raises(ValueError, match=r"profile member \S+ is not a state 0\.\.2"):
        call(profile)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_regular_atom_complexities_match_formula(n):
    d = reg(n)
    for s in atoms(d):
        assert atom_dfa(d, s).state_count == atom_formula(WitnessClass.REGULAR, n, s)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_right_ideal_atom_complexities_match_formula(n):
    d = apply_dialect(build_right_ideal(n), parse_dialect("a,b,c,d"))
    for s in atoms(d):
        assert atom_dfa(d, s).state_count == atom_formula(WitnessClass.RIGHT_IDEAL, n, s)


def test_left_ideal_atoms_follow_shifted_inner_form():
    # The documented general branch does not fit any dialect of this
    # witness; the measured values follow the same form with the inner
    # binomial taken at y-1. Keep the measured shape pinned here so any
    # construction change is caught.
    from math import comb

    for n in (4, 5):
        d = build_left_ideal(n)
        for s in atoms(d):
            measured = atom_dfa(d, s).state_count
            if s == frozenset(range(n)):
                assert measured == n
            elif not s:
                assert measured == 2 ** (n - 1)
            else:
                shifted = 1 + sum(
                    comb(n - 1, x) * comb(n - 1 - x, y - 1)
                    for x in range(1, len(s) + 1)
                    for y in range(1, n - len(s) + 1)
                )
                assert measured == shifted


def test_two_sided_atoms_realize_the_named_value_at_full_minus_initial():
    # The profile dropping the initial state carries the special value;
    # the profile named in the documented table is not realized at all.
    for n in (5, 6):
        d = build_two_sided_ideal(n)
        full = frozenset(range(n))
        assert not atom_dfa(d, full - {1}).finals
        assert atom_dfa(d, full - {0}).state_count == 2 ** (n - 2) + n - 1
        assert atom_dfa(d, full).state_count == n
        for s in atoms(d):
            if s not in (full, full - {0}):
                assert atom_dfa(d, s).state_count == atom_formula(
                    WitnessClass.TWO_SIDED_IDEAL, n, s
                )


@pytest.mark.parametrize(
    "cls, n",
    [
        (WitnessClass.LEFT_IDEAL, 4),
        (WitnessClass.LEFT_IDEAL, 5),
        (WitnessClass.TWO_SIDED_IDEAL, 5),
        (WitnessClass.TWO_SIDED_IDEAL, 6),
    ],
)
def test_ideal_atom_forms_match_the_monoid_oracle(cls, n):
    # The acceptance gate's corrected forms must not rest on the átomaton
    # alone: the monoid automaton, minimized by double reversal, shares
    # neither the átomaton walk nor its numbering with atom_dfa.
    d = BUILDERS[cls](n)
    for s in atoms(d):
        oracle = brzozowski_minimize(monoid_atom_automaton(d, s)).state_count
        assert oracle == atom_dfa(d, s).state_count == atom_form(cls, n, s)
