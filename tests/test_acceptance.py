"""Acceptance gate: every complexity claim, exact integer equality.

Each test covers one numbered criterion and prints a single PASS or FAIL
line (run with `pytest -s` to see them all). The gate asserts the proven
values. Where a documented closed form is one that the named witness
provably cannot attain (the two-sided reversal/atom count and two entries
of the ideal atom tables), the documented value lives on in the registry
rows `LID-ATOMS`, `TID-ATOMS`, `TID-REVERSE` and `TID-ATOM-COUNT`, which
`verify` reports as mismatches.
"""

from __future__ import annotations

import random
from math import comb

from statecomplexity import (
    BooleanOp,
    WitnessClass,
    atom_dfa,
    atoms,
    boolean,
    build_left_ideal,
    build_regular,
    build_right_ideal,
    build_two_sided_ideal,
    complement,
    minimize,
    parse_dfa,
    parse_dialect,
    product,
    quotient_complexity,
    render_dfa,
    reverse,
    star,
    syntactic_semigroup_size,
    trim_alphabet,
    union_alphabets,
    apply_dialect,
)

from conftest import (
    brzozowski_minimize,
    equivalent,
    fig_ends_in_b,
    fig_ends_in_c,
    is_isomorphic,
    random_dfa,
)

BUILDERS = {
    WitnessClass.REGULAR: build_regular,
    WitnessClass.RIGHT_IDEAL: build_right_ideal,
    WitnessClass.LEFT_IDEAL: build_left_ideal,
    WitnessClass.TWO_SIDED_IDEAL: build_two_sided_ideal,
}


def dialect(cls: WitnessClass, n: int, spec: str):
    base = BUILDERS[cls](n)
    return apply_dialect(base, parse_dialect(spec)) if spec else base


def report(number: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = "" if not failures else f"  [{len(failures)} deviation(s): {'; '.join(failures[:6])}]"
    print(f"{status} criterion {number:2d}: {label}{detail}")
    assert not failures, f"criterion {number}: {failures}"


def sweep_binary(cls, op, lhs_spec, rhs_spec, formula, lo, hi):
    failures = []
    for m in range(lo, hi + 1):
        for n in range(lo, hi + 1):
            lhs = dialect(cls, m, lhs_spec)
            rhs = dialect(cls, n, rhs_spec)
            if op == "product":
                measured = product(lhs, rhs).kappa
            else:
                measured = boolean(op, lhs, rhs).kappa
            expected = formula(m, n)
            if measured != expected:
                failures.append(f"{cls.value} {lhs_spec}|{rhs_spec} ({m},{n}): {measured} != {expected}")
    return failures


def test_criterion_01_unrestricted_regular_product():
    failures = sweep_binary(
        WitnessClass.REGULAR, "product", "a,b,-,c", "b,a,-,d",
        lambda m, n: m * 2**n + 2 ** (n - 1), 3, 5,
    )
    corner = product(dialect(WitnessClass.REGULAR, 3, "a,b,-,c"),
                     dialect(WitnessClass.REGULAR, 3, "b,a,-,d")).kappa
    far = product(dialect(WitnessClass.REGULAR, 5, "a,b,-,c"),
                  dialect(WitnessClass.REGULAR, 5, "b,a,-,d")).kappa
    if (corner, far) != (28, 176):
        failures.append(f"corner values {(corner, far)} != (28, 176)")
    report(1, "unrestricted regular product meets m*2^n + 2^(n-1) for m,n in 3..5", failures)


def test_criterion_02_restricted_regular_product():
    failures = sweep_binary(
        WitnessClass.REGULAR, "product", "a,b,c", "a,b,c",
        lambda m, n: m * 2**n - 2 ** (n - 1), 3, 5,
    )
    report(2, "restricted regular product meets m*2^n - 2^(n-1) for m,n in 3..5", failures)


def test_criterion_03_ten_boolean_complexities():
    formulas = {
        BooleanOp.UNION: lambda m, n: (m + 1) * (n + 1),
        BooleanOp.NOR: lambda m, n: (m + 1) * (n + 1),
        BooleanOp.SYMDIFF: lambda m, n: (m + 1) * (n + 1),
        BooleanOp.XNOR: lambda m, n: (m + 1) * (n + 1),
        BooleanOp.IMPL: lambda m, n: m * n + m + 1,
        BooleanOp.CONVERSE_IMPL: lambda m, n: m * n + n + 1,
        BooleanOp.DIFF: lambda m, n: m * n + m,
        BooleanOp.REVDIFF: lambda m, n: m * n + n,
        BooleanOp.NAND: lambda m, n: m * n + 1,
        BooleanOp.INTER: lambda m, n: m * n,
    }
    failures = []
    for op, formula in formulas.items():
        failures += sweep_binary(WitnessClass.REGULAR, op, "a,b,-,c", "b,a,-,d", formula, 3, 5)
    report(3, "all ten proper boolean operations meet their forms for m,n in 3..5", failures)


def test_criterion_04_worked_union_example():
    kappa = boolean(BooleanOp.UNION, fig_ends_in_b(), fig_ends_in_c()).kappa
    failures = [] if kappa == 6 else [f"measured {kappa} != 6"]
    report(4, "union of the two-letter examples over different alphabets needs 6 states", failures)


def test_criterion_05_ideal_products():
    failures = []
    failures += sweep_binary(
        WitnessClass.RIGHT_IDEAL, "product", "a,b,-,d,e", "a,b,-,d,c",
        lambda m, n: m + 2 ** (n - 2) + 2 ** (n - 1) + 1, 3, 5,
    )
    failures += sweep_binary(
        WitnessClass.LEFT_IDEAL, "product", "a,b,-,d,e", "a,d,c,-,e",
        lambda m, n: m * n + m + n, 4, 5,
    )
    failures += sweep_binary(
        WitnessClass.TWO_SIDED_IDEAL, "product", "a,b,-,-,e,f", "a,c,-,-,e,f",
        lambda m, n: m + 2 * n, 5, 6,
    )
    failures += sweep_binary(
        WitnessClass.RIGHT_IDEAL, "product", "a,b,-,d", "a,b,-,d",
        lambda m, n: m + 2 ** (n - 2), 3, 5,
    )
    failures += sweep_binary(
        WitnessClass.LEFT_IDEAL, "product", "a,-,-,-,e", "a,-,-,-,e",
        lambda m, n: m + n - 1, 4, 5,
    )
    failures += sweep_binary(
        WitnessClass.TWO_SIDED_IDEAL, "product", "a,-,-,-,e,f", "a,-,-,-,e,f",
        lambda m, n: m + n - 1, 5, 6,
    )
    report(5, "ideal products meet their unrestricted and restricted bounds", failures)


def test_criterion_06_ideal_booleans_unrestricted():
    plans = [
        (WitnessClass.RIGHT_IDEAL, "a,b,-,d,e", "e,c,-,d,a", "e,-,-,d,a", "a,-,-,d,e", 3, 5),
        (WitnessClass.LEFT_IDEAL, "a,-,c,d,e", "a,b,e,-,c", "a,-,e,-,c", "a,-,c,-,e", 4, 5),
        (WitnessClass.TWO_SIDED_IDEAL, "a,b,c,-,e,f", "a,e,d,-,b,f", "a,e,-,-,b,f", "a,b,-,-,e,f", 5, 6),
    ]
    failures = []
    for cls, lhs, rhs, rhs_diff_alt, lhs_inter_alt, lo, hi in plans:
        failures += sweep_binary(cls, BooleanOp.UNION, lhs, rhs, lambda m, n: (m + 1) * (n + 1), lo, hi)
        failures += sweep_binary(cls, BooleanOp.SYMDIFF, lhs, rhs, lambda m, n: (m + 1) * (n + 1), lo, hi)
        failures += sweep_binary(cls, BooleanOp.DIFF, lhs, rhs, lambda m, n: m * n + m, lo, hi)
        failures += sweep_binary(cls, BooleanOp.INTER, lhs, rhs, lambda m, n: m * n, lo, hi)
        failures += sweep_binary(cls, BooleanOp.DIFF, lhs, rhs_diff_alt, lambda m, n: m * n + m, lo, hi)
        failures += sweep_binary(cls, BooleanOp.INTER, lhs_inter_alt, rhs_diff_alt, lambda m, n: m * n, lo, hi)
    report(6, "ideal boolean operations over distinct alphabets meet the regular bounds", failures)


def test_criterion_07_restricted_two_sided_booleans():
    failures = []
    for op, formula in [
        (BooleanOp.INTER, lambda m, n: m * n),
        (BooleanOp.SYMDIFF, lambda m, n: m * n),
        (BooleanOp.DIFF, lambda m, n: m * n - (m - 1)),
        (BooleanOp.UNION, lambda m, n: m * n - (m + n - 2)),
    ]:
        failures += sweep_binary(
            WitnessClass.TWO_SIDED_IDEAL, op, "a,b,-,d,e,f", "b,a,-,d,e,f", formula, 5, 6
        )
    report(7, "restricted two-sided boolean operations meet mn / mn-(m-1) / mn-(m+n-2)", failures)


def test_criterion_08_semigroup_sizes():
    plans = [
        (WitnessClass.REGULAR, "a,b,c", lambda n: n**n, range(3, 6)),
        (WitnessClass.RIGHT_IDEAL, "a,b,c,d", lambda n: n ** (n - 1), range(3, 6)),
        (WitnessClass.LEFT_IDEAL, "", lambda n: n ** (n - 1) + n - 1, range(4, 6)),
        (WitnessClass.TWO_SIDED_IDEAL, "", lambda n: n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1, range(5, 7)),
    ]
    failures = []
    for cls, spec, formula, ns in plans:
        for n in ns:
            measured = syntactic_semigroup_size(dialect(cls, n, spec))
            if measured != formula(n):
                failures.append(f"{cls.value} n={n}: {measured} != {formula(n)}")
    report(8, "syntactic semigroup sizes match the four closed forms", failures)


def profile_shape_failures(cls, n, profiles):
    """Profiles that break the shape behind the left and two-sided atom counts.

    Profiles are read in the witness's own numbering: 0 is initial and n-1
    the final sink. A left or two-sided ideal L holds wu for every u in L,
    so L lies inside each of its quotients and a profile holding 0 is all
    of Q_n. The sink of a two-sided ideal accepts every word, so each of
    its profiles holds n-1; together that leaves at most 2^(n-2)+1.
    """
    failures = []
    full = frozenset(range(n))
    for s in profiles:
        if 0 in s and s != full:
            failures.append(f"{cls.value} n={n}: profile {sorted(s)} holds 0 but is not Q_n")
        if cls is WitnessClass.TWO_SIDED_IDEAL and n - 1 not in s:
            failures.append(f"{cls.value} n={n}: profile {sorted(s)} misses the sink {n - 1}")
    return failures


def test_criterion_09_reversal_and_atom_counts():
    plans = [
        (WitnessClass.REGULAR, "a,b,c", lambda n: 2**n, range(3, 6)),
        (WitnessClass.RIGHT_IDEAL, "a,-,-,d", lambda n: 2 ** (n - 1), range(3, 6)),
        (WitnessClass.LEFT_IDEAL, "a,-,c,d,e", lambda n: 2 ** (n - 1) + 1, range(4, 6)),
        (WitnessClass.TWO_SIDED_IDEAL, "a,-,-,d,e,f", lambda n: 2 ** (n - 2) + 1, range(5, 7)),
    ]
    failures = []
    for cls, spec, formula, ns in plans:
        for n in ns:
            witness = dialect(cls, n, spec)
            if cls in (WitnessClass.LEFT_IDEAL, WitnessClass.TWO_SIDED_IDEAL):
                failures += profile_shape_failures(cls, n, atoms(witness))
            d = trim_alphabet(witness)
            rev = reverse(d).kappa
            count = len(atoms(d))
            if rev != formula(n):
                failures.append(f"{cls.value} n={n}: reverse {rev} != {formula(n)}")
            if count != formula(n):
                failures.append(f"{cls.value} n={n}: atoms {count} != {formula(n)}")
            if count != rev:
                failures.append(f"{cls.value} n={n}: atoms {count} != reverse {rev}")
    rng = random.Random(42)
    for _ in range(50):
        d = trim_alphabet(random_dfa(rng, max_states=5, letters="abc"))
        if len(atoms(d)) != reverse(d).kappa:
            failures.append(f"random DFA atom count != reversal complexity: {render_dfa(d)!r}")
    report(9, "reversal complexities equal atom counts and the proven values", failures)


# Atom complexities of each class's witness: the profiles the forms name,
# with their values, and the inner term of the double sum that covers every
# other non-empty profile. The left-ideal inner binomial is taken at y-1. The
# two-sided special value belongs to Q_n minus {0}, the atom of the words
# outside L that lie in every other quotient; no atom has Q_n minus {1}, which
# holds 0 without being Q_n (see profile_shape_failures).
ATOM_FORMS = {
    WitnessClass.REGULAR: (
        lambda n, full: {frozenset(): 2**n - 1, full: 2**n - 1},
        lambda n, x, y: comb(n, x) * comb(n - x, y),
    ),
    WitnessClass.RIGHT_IDEAL: (
        lambda n, full: {full: 2 ** (n - 1)},
        lambda n, x, y: comb(n - 1, x - 1) * comb(n - x, y),
    ),
    WitnessClass.LEFT_IDEAL: (
        lambda n, full: {frozenset(): 2 ** (n - 1), full: n},
        lambda n, x, y: comb(n - 1, x) * comb(n - x - 1, y - 1),
    ),
    WitnessClass.TWO_SIDED_IDEAL: (
        lambda n, full: {full: n, full - {0}: 2 ** (n - 2) + n - 1},
        lambda n, x, y: comb(n - 2, x - 1) * comb(n - x - 1, y - 1),
    ),
}


def named_profiles(cls: WitnessClass, n: int) -> dict[frozenset[int], int]:
    """The profiles the atom forms single out, each with its complexity."""
    return ATOM_FORMS[cls][0](n, frozenset(range(n)))


def atom_form(cls: WitnessClass, n: int, s: frozenset[int]) -> int | None:
    """Complexity of the atom S of the class's n-state witness; None if no form covers S."""
    named = named_profiles(cls, n)
    if s in named:
        return named[s]
    if not s:
        return None  # an empty profile is an atom only where it is named
    inner = ATOM_FORMS[cls][1]
    size = len(s)
    return 1 + sum(
        inner(n, x, y) for x in range(1, size + 1) for y in range(1, n - size + 1)
    )


def test_criterion_10_atom_complexities():
    plans = [
        (WitnessClass.REGULAR, "a,b,c", (3, 4)),
        (WitnessClass.RIGHT_IDEAL, "a,b,c,d", (3, 4)),
        (WitnessClass.LEFT_IDEAL, "", (4,)),
        (WitnessClass.TWO_SIDED_IDEAL, "", (5,)),
    ]
    failures = []
    for cls, spec, ns in plans:
        for n in ns:
            d = dialect(cls, n, spec)
            realized = set(atoms(d))
            for s in sorted(realized | set(named_profiles(cls, n)), key=lambda s: (len(s), sorted(s))):
                name = "{" + ",".join(map(str, sorted(s))) + "}"
                if s not in realized:
                    failures.append(f"{cls.value} n={n} S={name}: named profile has no atom")
                    continue
                expected = atom_form(cls, n, s)
                if expected is None:
                    failures.append(f"{cls.value} n={n} S={name}: realized atom not covered")
                    continue
                measured = atom_dfa(d, s).state_count
                if measured != expected:
                    failures.append(f"{cls.value} n={n} S={name}: {measured} != {expected}")
    report(10, "atom complexities match the closed forms for every listed profile", failures)


def test_criterion_11_star():
    plans = [
        (WitnessClass.REGULAR, "a,b", lambda n: 2 ** (n - 1) + 2 ** (n - 2), range(3, 6)),
        (WitnessClass.RIGHT_IDEAL, "a,-,-,d", lambda n: n + 1, range(3, 6)),
        (WitnessClass.LEFT_IDEAL, "a,-,-,-,e", lambda n: n + 1, range(4, 6)),
        (WitnessClass.TWO_SIDED_IDEAL, "a,-,-,-,e,f", lambda n: n + 1, range(5, 7)),
    ]
    failures = []
    for cls, spec, formula, ns in plans:
        for n in ns:
            measured = star(dialect(cls, n, spec)).kappa
            if measured != formula(n):
                failures.append(f"{cls.value} n={n}: {measured} != {formula(n)}")
    report(11, "star meets 2^(n-1)+2^(n-2) for regular and n+1 for all ideal classes", failures)


def test_criterion_12_property_suite():
    failures = []

    rng = random.Random(31415926)
    for i in range(1000):
        d = random_dfa(rng, max_states=8, letters="abcd")
        if not is_isomorphic(minimize(d), brzozowski_minimize(d)):
            failures.append(f"minimization oracles disagree on sample {i}")
            break

    for i in range(20):
        lhs = random_dfa(rng, max_states=4, letters="ab")
        rhs = random_dfa(rng, max_states=4, letters="bc")
        sigma = union_alphabets(lhs.alphabet, rhs.alphabet)
        if not equivalent(
            complement(boolean(BooleanOp.UNION, lhs, rhs).dfa, sigma).dfa,
            boolean(BooleanOp.NOR, lhs, rhs).dfa,
        ):
            failures.append(f"De Morgan union/nor failed on sample {i}")
        if not equivalent(
            complement(boolean(BooleanOp.INTER, lhs, rhs).dfa, sigma).dfa,
            boolean(BooleanOp.NAND, lhs, rhs).dfa,
        ):
            failures.append(f"De Morgan inter/nand failed on sample {i}")

    for i in range(500):
        lhs = random_dfa(rng, max_states=5, letters="abc")
        rhs = random_dfa(rng, max_states=5, letters="bcd")
        m, n = quotient_complexity(lhs), quotient_complexity(rhs)
        if product(lhs, rhs).kappa > m * 2**n + 2 ** (n - 1):
            failures.append(f"product bound violated on sample {i}")
        for op in BooleanOp:
            if boolean(op, lhs, rhs).kappa > (m + 1) * (n + 1):
                failures.append(f"boolean bound violated on sample {i} ({op.name})")

    for i in range(200):
        d = random_dfa(rng)
        if parse_dfa(render_dfa(d)) != d:
            failures.append(f"file round trip broke on sample {i}")
    canonical = render_dfa(build_regular(4))
    if render_dfa(parse_dfa(canonical)) != canonical:
        failures.append("canonical file text is not a fixed point")

    report(12, "oracle agreement, De Morgan, upper bounds, and file round-trips all hold", failures)
