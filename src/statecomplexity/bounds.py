"""Bound registry and verification sweeps.

Every registered entry pairs a closed-form complexity bound with the
witness recipe that is supposed to attain it. A sweep rebuilds the
witnesses for each (m, n) in range, runs the operation, measures the
quotient complexity of the result, and reports expected versus measured.
Mismatches are reported, never patched: the registry encodes each bound
exactly as documented even where measurement disagrees.
"""

from __future__ import annotations

import concurrent.futures
import functools
import sys
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .algebra import syntactic_semigroup_size
from .atoms import atom_dfa, atom_formula, atoms
from .automata import Dfa, minimize, quotient_complexity, trim_alphabet
from .operations import BooleanOp, boolean, product, reverse, star
from .witnesses import WitnessClass, apply_dialect, parse_dialect

BOOLEAN_BY_NAME = {
    "union": BooleanOp.UNION,
    "symdiff": BooleanOp.SYMDIFF,
    "diff": BooleanOp.DIFF,
    "revdiff": BooleanOp.REVDIFF,
    "inter": BooleanOp.INTER,
    "nor": BooleanOp.NOR,
    "nand": BooleanOp.NAND,
    "xnor": BooleanOp.XNOR,
    "impl": BooleanOp.IMPL,
    "convimpl": BooleanOp.CONVERSE_IMPL,
}

@dataclass(frozen=True)
class WitnessRecipe:
    """A witness class plus the dialect that renames or drops its letters."""

    witness: WitnessClass
    dialect: str = ""  # empty string keeps the full canonical alphabet

    def build(self, n: int) -> Dfa:
        base = self.witness.build(n)
        if not self.dialect:
            return base
        return apply_dialect(base, parse_dialect(self.dialect))

    def __str__(self) -> str:
        inner = self.dialect if self.dialect else ",".join(self.witness.canonical_alphabet)
        return f"{self.witness.value}({inner})"


@dataclass(frozen=True)
class BoundEntry:
    """One verifiable bound: recipes, operation, and the expected formula."""

    entry_id: str
    operation: str
    lhs: WitnessRecipe
    rhs: Optional[WitnessRecipe]
    formula: Callable[..., int]  # (m, n) for binary entries, (n) for unary
    formula_text: str
    min_m: int
    min_n: int
    default_range: tuple[int, int]

    @property
    def is_binary(self) -> bool:
        return self.rhs is not None

    def expected(self, m: Optional[int], n: int) -> int:
        if self.is_binary:
            return self.formula(m, n)
        return self.formula(n)


@dataclass(frozen=True)
class VerificationRow:
    entry_id: str
    m: Optional[int]  # None for unary entries
    n: int
    expected: int
    measured: int
    match: bool
    elapsed_ms: float
    error: str = ""


_DEFAULT_RANGE = {
    WitnessClass.REGULAR: (3, 5),
    WitnessClass.RIGHT_IDEAL: (3, 5),
    WitnessClass.LEFT_IDEAL: (4, 5),
    WitnessClass.TWO_SIDED_IDEAL: (5, 6),
}


def _entries_for_class(
    tag: str,
    cls: WitnessClass,
    unary: list[tuple[str, str, str, Callable[[int], int], str]],
    binary: list[tuple[str, str, str, str, Callable[[int, int], int], str]],
) -> list[BoundEntry]:
    out = []
    lo = cls.min_n
    for suffix, operation, dialect, formula, text in unary:
        out.append(
            BoundEntry(
                entry_id=f"{tag}-{suffix}",
                operation=operation,
                lhs=WitnessRecipe(cls, dialect),
                rhs=None,
                formula=formula,
                formula_text=text,
                min_m=lo,
                min_n=lo,
                default_range=_DEFAULT_RANGE[cls],
            )
        )
    for suffix, operation, lhs_dialect, rhs_dialect, formula, text in binary:
        out.append(
            BoundEntry(
                entry_id=f"{tag}-{suffix}",
                operation=operation,
                lhs=WitnessRecipe(cls, lhs_dialect),
                rhs=WitnessRecipe(cls, rhs_dialect),
                formula=formula,
                formula_text=text,
                min_m=lo,
                min_n=lo,
                default_range=_DEFAULT_RANGE[cls],
            )
        )
    return out


def registry() -> list[BoundEntry]:
    """The full bound registry, in a fixed declaration order."""
    entries: list[BoundEntry] = []

    entries += _entries_for_class(
        "REG",
        WitnessClass.REGULAR,
        unary=[
            ("KAPPA", "complexity", "", lambda n: n, "n"),
            ("SEMIGROUP", "semigroup", "a,b,c", lambda n: n**n, "n^n"),
            ("REVERSE", "reverse", "a,b,c", lambda n: 2**n, "2^n"),
            ("ATOM-COUNT", "atom-count", "a,b,c", lambda n: 2**n, "2^n"),
            ("ATOMS", "atoms", "a,b,c", lambda n: 0, "per-profile closed forms"),
            ("STAR", "star", "a,b", lambda n: 2 ** (n - 1) + 2 ** (n - 2), "2^(n-1) + 2^(n-2)"),
        ],
        binary=[
            ("PROD-R", "product", "a,b,c", "a,b,c", lambda m, n: m * 2**n - 2 ** (n - 1), "m*2^n - 2^(n-1)"),
            ("PROD-U", "product", "a,b,-,c", "b,a,-,d", lambda m, n: m * 2**n + 2 ** (n - 1), "m*2^n + 2^(n-1)"),
            ("BOOL-R-UNION", "union", "a,b", "b,a", lambda m, n: m * n, "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,b", "b,a", lambda m, n: m * n, "m*n"),
            ("BOOL-R-DIFF", "diff", "a,b", "b,a", lambda m, n: m * n, "m*n"),
            ("BOOL-R-INTER", "inter", "a,b", "b,a", lambda m, n: m * n, "m*n"),
            ("BOOL-U-UNION", "union", "a,b,-,c", "b,a,-,d", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,b,-,c", "b,a,-,d", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-NOR", "nor", "a,b,-,c", "b,a,-,d", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-XNOR", "xnor", "a,b,-,c", "b,a,-,d", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-IMPL", "impl", "a,b,-,c", "b,a,-,d", lambda m, n: m * n + m + 1, "m*n + m + 1"),
            ("BOOL-U-CONVIMPL", "convimpl", "a,b,-,c", "b,a,-,d", lambda m, n: m * n + n + 1, "m*n + n + 1"),
            ("BOOL-U-DIFF", "diff", "a,b,-,c", "b,a,-,d", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-REVDIFF", "revdiff", "a,b,-,c", "b,a,-,d", lambda m, n: m * n + n, "m*n + n"),
            ("BOOL-U-NAND", "nand", "a,b,-,c", "b,a,-,d", lambda m, n: m * n + 1, "m*n + 1"),
            ("BOOL-U-INTER", "inter", "a,b,-,c", "b,a,-,d", lambda m, n: m * n, "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,b,-,c", "b,a", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,b", "b,a", lambda m, n: m * n, "m*n"),
        ],
    )

    entries += _entries_for_class(
        "RID",
        WitnessClass.RIGHT_IDEAL,
        unary=[
            ("KAPPA", "complexity", "", lambda n: n, "n"),
            ("SEMIGROUP", "semigroup", "a,b,c,d", lambda n: n ** (n - 1), "n^(n-1)"),
            ("REVERSE", "reverse", "a,-,-,d", lambda n: 2 ** (n - 1), "2^(n-1)"),
            ("ATOM-COUNT", "atom-count", "a,-,-,d", lambda n: 2 ** (n - 1), "2^(n-1)"),
            ("ATOMS", "atoms", "a,b,c,d", lambda n: 0, "per-profile closed forms"),
            ("STAR", "star", "a,-,-,d", lambda n: n + 1, "n + 1"),
        ],
        binary=[
            ("PROD-R", "product", "a,b,-,d", "a,b,-,d", lambda m, n: m + 2 ** (n - 2), "m + 2^(n-2)"),
            ("PROD-U", "product", "a,b,-,d,e", "a,b,-,d,c",
             lambda m, n: m + 2 ** (n - 2) + 2 ** (n - 1) + 1, "m + 2^(n-2) + 2^(n-1) + 1"),
            ("BOOL-R-INTER", "inter", "a,b,-,d", "b,a,-,d", lambda m, n: m * n, "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,b,-,d", "b,a,-,d", lambda m, n: m * n, "m*n"),
            ("BOOL-R-DIFF", "diff", "a,b,-,d", "b,a,-,d", lambda m, n: m * n - (m - 1), "m*n - (m-1)"),
            ("BOOL-R-UNION", "union", "a,b,-,d", "b,a,-,d", lambda m, n: m * n - (m + n - 2), "m*n - (m+n-2)"),
            ("BOOL-U-UNION", "union", "a,b,-,d,e", "e,c,-,d,a", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,b,-,d,e", "e,c,-,d,a", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-DIFF", "diff", "a,b,-,d,e", "e,c,-,d,a", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER", "inter", "a,b,-,d,e", "e,c,-,d,a", lambda m, n: m * n, "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,b,-,d,e", "e,-,-,d,a", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,-,-,d,e", "e,-,-,d,a", lambda m, n: m * n, "m*n"),
        ],
    )

    entries += _entries_for_class(
        "LID",
        WitnessClass.LEFT_IDEAL,
        unary=[
            ("KAPPA", "complexity", "", lambda n: n, "n"),
            ("SEMIGROUP", "semigroup", "", lambda n: n ** (n - 1) + n - 1, "n^(n-1) + n - 1"),
            ("REVERSE", "reverse", "a,-,c,d,e", lambda n: 2 ** (n - 1) + 1, "2^(n-1) + 1"),
            ("ATOM-COUNT", "atom-count", "a,-,c,d,e", lambda n: 2 ** (n - 1) + 1, "2^(n-1) + 1"),
            ("ATOMS", "atoms", "", lambda n: 0, "per-profile closed forms"),
            ("STAR", "star", "a,-,-,-,e", lambda n: n + 1, "n + 1"),
        ],
        binary=[
            ("PROD-R", "product", "a,-,-,-,e", "a,-,-,-,e", lambda m, n: m + n - 1, "m + n - 1"),
            ("PROD-U", "product", "a,b,-,d,e", "a,d,c,-,e", lambda m, n: m * n + m + n, "m*n + m + n"),
            ("BOOL-R-UNION", "union", "a,-,c,-,e", "a,-,e,-,c", lambda m, n: m * n, "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,-,c,-,e", "a,-,e,-,c", lambda m, n: m * n, "m*n"),
            ("BOOL-R-DIFF", "diff", "a,-,c,-,e", "a,-,e,-,c", lambda m, n: m * n, "m*n"),
            ("BOOL-R-INTER", "inter", "a,-,c,-,e", "a,-,e,-,c", lambda m, n: m * n, "m*n"),
            ("BOOL-U-UNION", "union", "a,-,c,d,e", "a,b,e,-,c", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,-,c,d,e", "a,b,e,-,c", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-DIFF", "diff", "a,-,c,d,e", "a,b,e,-,c", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER", "inter", "a,-,c,d,e", "a,b,e,-,c", lambda m, n: m * n, "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,-,c,d,e", "a,-,e,-,c", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,-,c,-,e", "a,-,e,-,c", lambda m, n: m * n, "m*n"),
        ],
    )

    entries += _entries_for_class(
        "TID",
        WitnessClass.TWO_SIDED_IDEAL,
        unary=[
            ("KAPPA", "complexity", "", lambda n: n, "n"),
            ("SEMIGROUP", "semigroup", "",
             lambda n: n ** (n - 2) + (n - 2) * 2 ** (n - 2) + 1, "n^(n-2) + (n-2)*2^(n-2) + 1"),
            ("REVERSE", "reverse", "a,-,-,d,e,f", lambda n: 2 ** (n - 1) + 1, "2^(n-1) + 1"),
            ("ATOM-COUNT", "atom-count", "a,-,-,d,e,f", lambda n: 2 ** (n - 1) + 1, "2^(n-1) + 1"),
            ("ATOMS", "atoms", "", lambda n: 0, "per-profile closed forms"),
            ("STAR", "star", "a,-,-,-,e,f", lambda n: n + 1, "n + 1"),
        ],
        binary=[
            ("PROD-R", "product", "a,-,-,-,e,f", "a,-,-,-,e,f", lambda m, n: m + n - 1, "m + n - 1"),
            ("PROD-U", "product", "a,b,-,-,e,f", "a,c,-,-,e,f", lambda m, n: m + 2 * n, "m + 2n"),
            ("BOOL-R-INTER", "inter", "a,b,-,d,e,f", "b,a,-,d,e,f", lambda m, n: m * n, "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,b,-,d,e,f", "b,a,-,d,e,f", lambda m, n: m * n, "m*n"),
            ("BOOL-R-DIFF", "diff", "a,b,-,d,e,f", "b,a,-,d,e,f", lambda m, n: m * n - (m - 1), "m*n - (m-1)"),
            ("BOOL-R-UNION", "union", "a,b,-,d,e,f", "b,a,-,d,e,f", lambda m, n: m * n - (m + n - 2), "m*n - (m+n-2)"),
            ("BOOL-U-UNION", "union", "a,b,c,-,e,f", "a,e,d,-,b,f", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,b,c,-,e,f", "a,e,d,-,b,f", lambda m, n: (m + 1) * (n + 1), "(m+1)*(n+1)"),
            ("BOOL-U-DIFF", "diff", "a,b,c,-,e,f", "a,e,d,-,b,f", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER", "inter", "a,b,c,-,e,f", "a,e,d,-,b,f", lambda m, n: m * n, "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,b,c,-,e,f", "a,e,-,-,b,f", lambda m, n: m * n + m, "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,b,-,-,e,f", "a,e,-,-,b,f", lambda m, n: m * n, "m*n"),
        ],
    )

    return entries


@functools.cache
def registry_by_id() -> Mapping[str, BoundEntry]:
    """The registry keyed by id; built once per process and read-only."""
    table = {}
    for entry in registry():
        if entry.entry_id in table:
            raise ValueError(f"duplicate registry id {entry.entry_id}")
        table[entry.entry_id] = entry
    return MappingProxyType(table)


def _explicit_profiles(cls: WitnessClass, n: int) -> list[frozenset[int]]:
    """Profiles the closed forms single out by name, checked even if empty.

    Returns the documented table as stated. Its two-sided entry Q_n minus
    {1} is one no atom of the witness has (a profile holding the initial
    state of a two-sided ideal is all of Q_n), and the table's left-ideal
    general branch is likewise not met by the witness; see atom_formula.
    """
    full = frozenset(range(n))
    if cls is WitnessClass.REGULAR:
        return [frozenset(), full]
    if cls is WitnessClass.RIGHT_IDEAL:
        return [full]
    if cls is WitnessClass.LEFT_IDEAL:
        return [frozenset(), full]
    return [full, full - {1}]


def _profile_key(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def _check_atoms(entry: BoundEntry, n: int) -> tuple[int, int]:
    """Verify every realized atom (plus the named profiles) against the forms.

    Returns (number of profiles checked, number that passed). A named
    profile without an atom counts as a failed check; an atom whose
    profile the forms do not cover also counts as failed.
    """
    witness = entry.lhs.build(n)
    if minimize(witness).state_count != witness.state_count:
        raise ValueError(f"witness {entry.lhs} is not minimal at n={n}")
    realized = set(atoms(witness))
    checks = sorted(realized | set(_explicit_profiles(entry.lhs.witness, n)), key=_profile_key)
    passed = 0
    for s in checks:
        if s not in realized:
            continue  # named profile with no atom: check fails
        try:
            expected = atom_formula(entry.lhs.witness, n, s)
        except ValueError:
            continue  # realized atom the closed forms do not cover
        if atom_dfa(witness, s).state_count == expected:
            passed += 1
    return len(checks), passed


def evaluate_cell(entry: BoundEntry, m: Optional[int], n: int) -> VerificationRow:
    """Build the witnesses, run the operation, and compare against the bound."""
    start = time.perf_counter()
    error = ""
    try:
        if entry.operation == "atoms":
            expected, measured = _check_atoms(entry, n)
        else:
            expected = entry.expected(m, n)
            lhs = entry.lhs.build(m if entry.is_binary else n)
            if entry.operation == "product":
                measured = product(lhs, entry.rhs.build(n)).kappa
            elif entry.operation in BOOLEAN_BY_NAME:
                op = BOOLEAN_BY_NAME[entry.operation]
                measured = boolean(op, lhs, entry.rhs.build(n)).kappa
            elif entry.operation == "star":
                measured = star(lhs).kappa
            elif entry.operation == "reverse":
                measured = reverse(lhs).kappa
            elif entry.operation == "complexity":
                measured = quotient_complexity(lhs)
            elif entry.operation == "semigroup":
                measured = syntactic_semigroup_size(lhs)
            elif entry.operation == "atom-count":
                measured = len(atoms(trim_alphabet(lhs)))
            else:
                raise ValueError(f"unknown operation {entry.operation!r}")
    except Exception as exc:  # failed cells become failed rows, not crashes
        try:
            expected = -1 if entry.operation == "atoms" else entry.expected(m, n)
        except Exception:
            expected = -1
        measured = -1
        error = f"{type(exc).__name__}: {exc}"
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationRow(
        entry_id=entry.entry_id,
        m=m,
        n=n,
        expected=expected,
        measured=measured,
        match=(not error) and expected == measured,
        elapsed_ms=elapsed_ms,
        error=error,
    )


def _evaluate_by_id(task: tuple[str, Optional[int], int]) -> VerificationRow:
    entry_id, m, n = task
    return evaluate_cell(registry_by_id()[entry_id], m, n)


def _cells_for(
    entry: BoundEntry,
    m_range: Optional[tuple[int, int]],
    n_range: Optional[tuple[int, int]],
) -> tuple[list[tuple[str, Optional[int], int]], list[str]]:
    notices = []
    lo_m, hi_m = m_range if m_range else entry.default_range
    lo_n, hi_n = n_range if n_range else entry.default_range
    ms = [m for m in range(lo_m, hi_m + 1) if m >= entry.min_m]
    ns = [n for n in range(lo_n, hi_n + 1) if n >= entry.min_n]
    skipped_m = [m for m in range(lo_m, hi_m + 1) if m < entry.min_m]
    skipped_n = [n for n in range(lo_n, hi_n + 1) if n < entry.min_n]
    if entry.is_binary:
        if skipped_m or skipped_n:
            notices.append(
                f"{entry.entry_id}: skipping m<{entry.min_m} or n<{entry.min_n} "
                f"(outside the witness range)"
            )
        cells = [(entry.entry_id, m, n) for m in ms for n in ns]
    else:
        if skipped_n:
            notices.append(
                f"{entry.entry_id}: skipping n<{entry.min_n} (outside the witness range)"
            )
        cells = [(entry.entry_id, None, n) for n in ns]
    if not cells:
        notices.append(f"{entry.entry_id}: requested range is entirely outside validity")
    return cells, notices


def run_sweep(
    ids: Optional[list[str]] = None,
    m_range: Optional[tuple[int, int]] = None,
    n_range: Optional[tuple[int, int]] = None,
    jobs: int = 1,
) -> list[VerificationRow]:
    """Evaluate the selected entries over the grid; rows sorted by (id, m, n).

    Row content is deterministic and independent of the job count. Range
    cells below an entry's validity floor are skipped with a notice on
    stderr.
    """
    table = registry_by_id()
    if ids is None:
        selected = list(table.values())
    else:
        unknown = [i for i in ids if i not in table]
        if unknown:
            raise KeyError(f"unknown registry ids: {', '.join(unknown)}")
        selected = [table[i] for i in ids]
    tasks: list[tuple[str, Optional[int], int]] = []
    for entry in selected:
        cells, notices = _cells_for(entry, m_range, n_range)
        for notice in notices:
            print(f"notice: {notice}", file=sys.stderr)
        tasks.extend(cells)
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_evaluate_by_id, tasks))
    else:
        rows = [_evaluate_by_id(task) for task in tasks]
    rows.sort(key=lambda r: (r.entry_id, r.m if r.m is not None else -1, r.n))
    return rows


def emit_report(rows: list[VerificationRow], fmt: str = "csv") -> str:
    """Render rows as CSV (fixed columns) or as one markdown table per id."""
    if fmt == "csv":
        lines = ["id,m,n,expected,measured,match,elapsed_ms"]
        for r in rows:
            m = "" if r.m is None else str(r.m)
            lines.append(
                f"{r.entry_id},{m},{r.n},{r.expected},{r.measured},"
                f"{'true' if r.match else 'false'},{r.elapsed_ms:.2f}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        chunks = []
        by_id: dict[str, list[VerificationRow]] = {}
        for r in rows:
            by_id.setdefault(r.entry_id, []).append(r)
        for entry_id in sorted(by_id):
            chunks.append(f"## {entry_id}\n")
            chunks.append("| m | n | expected | measured | match | elapsed_ms |")
            chunks.append("|---|---|----------|----------|-------|------------|")
            for r in by_id[entry_id]:
                m = "" if r.m is None else str(r.m)
                mark = "yes" if r.match else "**NO**"
                chunks.append(
                    f"| {m} | {r.n} | {r.expected} | {r.measured} | {mark} | {r.elapsed_ms:.2f} |"
                )
            chunks.append("")
        return "\n".join(chunks)
    raise ValueError(f"unknown report format {fmt!r}")


def all_match(rows: list[VerificationRow]) -> bool:
    return all(r.match for r in rows)
