"""Bound registry and verification sweeps.

Every registered entry pairs a closed-form complexity bound with the
witness recipe that is supposed to attain it. A sweep rebuilds the
witnesses for each (m, n) in range, runs the operation, measures the
quotient complexity of the result, and reports expected versus measured.
Mismatches are reported, never patched: the registry encodes each bound
exactly as documented even where measurement disagrees.
"""

from __future__ import annotations

import ast
import concurrent.futures
import functools
import re
import sys
import time
from dataclasses import dataclass
from types import CodeType, MappingProxyType
from typing import Mapping, Optional

from .algebra import syntactic_semigroup_size
from .atoms import atom_complexities, atom_formula, atoms, explicit_profiles
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

    @functools.cache  # keyed by (recipe, n); a Dfa is frozen, so sharing it is safe
    def build(self, n: int) -> Dfa:
        base = self.witness.build(n)
        if not self.dialect:
            return base
        return apply_dialect(base, parse_dialect(self.dialect))

    def __str__(self) -> str:
        inner = self.dialect if self.dialect else ",".join(self.witness.canonical_alphabet)
        return f"{self.witness.value}({inner})"


def _in_grammar(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("m", "n")
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return isinstance(node, (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.Load))


@functools.cache
def _compile_formula(text: str) -> CodeType:
    """Bytecode of a formula text in integer literals, m, n, + - * ^ and parentheses.

    `^` is power and an integer written before m, n or "(" multiplies it
    (`2n` is `2*n`). Any other name, call, attribute, operator or literal
    raises ValueError, so evaluating the bytecode only does integer
    arithmetic on m and n.
    """
    source = re.sub(r"(?<=\d)(?=[mn(])", "*", text.replace("^", "**"))
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError:
        tree = None
    if tree is None or not all(_in_grammar(node) for node in ast.walk(tree)):
        raise ValueError(f"not a closed form in m and n: {text!r}")
    return compile(tree, text, "eval")


@dataclass(frozen=True)
class BoundEntry:
    """One verifiable bound: recipes, operation, and the formula text that states it."""

    entry_id: str
    operation: str
    lhs: WitnessRecipe
    rhs: Optional[WitnessRecipe]
    formula_text: str  # in m and n; unary entries never mention m

    @property
    def is_binary(self) -> bool:
        return self.rhs is not None

    def expected(self, m: Optional[int], n: int) -> int:
        """The formula text at (m, n); m is ignored by unary entries.

        Cells below the witness floor are refused with ValueError: the
        stream has no witness there, so the text states no bound.
        """
        floor = self.lhs.witness.min_n
        if n < floor or (self.is_binary and (m is None or m < floor)):
            raise ValueError(f"{self.entry_id} is stated for m, n >= {floor}, not m={m}, n={n}")
        return eval(_compile_formula(self.formula_text), {"__builtins__": {}}, {"m": m, "n": n})


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


def _entries_for_class(tag: str, cls: WitnessClass, rows: list[tuple[str, ...]]) -> list[BoundEntry]:
    """Entries from (suffix, operation, lhs dialect[, rhs dialect], formula text) rows."""
    return [
        BoundEntry(
            entry_id=f"{tag}-{suffix}",
            operation=operation,
            lhs=WitnessRecipe(cls, dialects[0]),
            rhs=WitnessRecipe(cls, dialects[1]) if len(dialects) > 1 else None,
            formula_text=text,
        )
        for suffix, operation, *dialects, text in rows
    ]


def registry() -> list[BoundEntry]:
    """The full bound registry, in a fixed declaration order."""
    entries: list[BoundEntry] = []

    entries += _entries_for_class(
        "REG",
        WitnessClass.REGULAR,
        [
            ("KAPPA", "complexity", "", "n"),
            ("SEMIGROUP", "semigroup", "a,b,c", "n^n"),
            ("REVERSE", "reverse", "a,b,c", "2^n"),
            ("ATOM-COUNT", "atom-count", "a,b,c", "2^n"),
            ("ATOMS", "atoms", "a,b,c", "per-profile closed forms"),
            ("STAR", "star", "a,b", "2^(n-1) + 2^(n-2)"),
            ("PROD-R", "product", "a,b,c", "a,b,c", "m*2^n - 2^(n-1)"),
            ("PROD-U", "product", "a,b,-,c", "b,a,-,d", "m*2^n + 2^(n-1)"),
            ("BOOL-R-UNION", "union", "a,b", "b,a", "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,b", "b,a", "m*n"),
            ("BOOL-R-DIFF", "diff", "a,b", "b,a", "m*n"),
            ("BOOL-R-INTER", "inter", "a,b", "b,a", "m*n"),
            ("BOOL-U-UNION", "union", "a,b,-,c", "b,a,-,d", "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,b,-,c", "b,a,-,d", "(m+1)*(n+1)"),
            ("BOOL-U-NOR", "nor", "a,b,-,c", "b,a,-,d", "(m+1)*(n+1)"),
            ("BOOL-U-XNOR", "xnor", "a,b,-,c", "b,a,-,d", "(m+1)*(n+1)"),
            ("BOOL-U-IMPL", "impl", "a,b,-,c", "b,a,-,d", "m*n + m + 1"),
            ("BOOL-U-CONVIMPL", "convimpl", "a,b,-,c", "b,a,-,d", "m*n + n + 1"),
            ("BOOL-U-DIFF", "diff", "a,b,-,c", "b,a,-,d", "m*n + m"),
            ("BOOL-U-REVDIFF", "revdiff", "a,b,-,c", "b,a,-,d", "m*n + n"),
            ("BOOL-U-NAND", "nand", "a,b,-,c", "b,a,-,d", "m*n + 1"),
            ("BOOL-U-INTER", "inter", "a,b,-,c", "b,a,-,d", "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,b,-,c", "b,a", "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,b", "b,a", "m*n"),
        ],
    )

    entries += _entries_for_class(
        "RID",
        WitnessClass.RIGHT_IDEAL,
        [
            ("KAPPA", "complexity", "", "n"),
            ("SEMIGROUP", "semigroup", "a,b,c,d", "n^(n-1)"),
            ("REVERSE", "reverse", "a,-,-,d", "2^(n-1)"),
            ("ATOM-COUNT", "atom-count", "a,-,-,d", "2^(n-1)"),
            ("ATOMS", "atoms", "a,b,c,d", "per-profile closed forms"),
            ("STAR", "star", "a,-,-,d", "n + 1"),
            ("PROD-R", "product", "a,b,-,d", "a,b,-,d", "m + 2^(n-2)"),
            ("PROD-U", "product", "a,b,-,d,e", "a,b,-,d,c", "m + 2^(n-2) + 2^(n-1) + 1"),
            ("BOOL-R-INTER", "inter", "a,b,-,d", "b,a,-,d", "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,b,-,d", "b,a,-,d", "m*n"),
            ("BOOL-R-DIFF", "diff", "a,b,-,d", "b,a,-,d", "m*n - (m-1)"),
            ("BOOL-R-UNION", "union", "a,b,-,d", "b,a,-,d", "m*n - (m+n-2)"),
            ("BOOL-U-UNION", "union", "a,b,-,d,e", "e,c,-,d,a", "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,b,-,d,e", "e,c,-,d,a", "(m+1)*(n+1)"),
            ("BOOL-U-DIFF", "diff", "a,b,-,d,e", "e,c,-,d,a", "m*n + m"),
            ("BOOL-U-INTER", "inter", "a,b,-,d,e", "e,c,-,d,a", "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,b,-,d,e", "e,-,-,d,a", "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,-,-,d,e", "e,-,-,d,a", "m*n"),
        ],
    )

    entries += _entries_for_class(
        "LID",
        WitnessClass.LEFT_IDEAL,
        [
            ("KAPPA", "complexity", "", "n"),
            ("SEMIGROUP", "semigroup", "", "n^(n-1) + n - 1"),
            ("REVERSE", "reverse", "a,-,c,d,e", "2^(n-1) + 1"),
            ("ATOM-COUNT", "atom-count", "a,-,c,d,e", "2^(n-1) + 1"),
            ("ATOMS", "atoms", "", "per-profile closed forms"),
            ("STAR", "star", "a,-,-,-,e", "n + 1"),
            ("PROD-R", "product", "a,-,-,-,e", "a,-,-,-,e", "m + n - 1"),
            ("PROD-U", "product", "a,b,-,d,e", "a,d,c,-,e", "m*n + m + n"),
            ("BOOL-R-UNION", "union", "a,-,c,-,e", "a,-,e,-,c", "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,-,c,-,e", "a,-,e,-,c", "m*n"),
            ("BOOL-R-DIFF", "diff", "a,-,c,-,e", "a,-,e,-,c", "m*n"),
            ("BOOL-R-INTER", "inter", "a,-,c,-,e", "a,-,e,-,c", "m*n"),
            ("BOOL-U-UNION", "union", "a,-,c,d,e", "a,b,e,-,c", "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,-,c,d,e", "a,b,e,-,c", "(m+1)*(n+1)"),
            ("BOOL-U-DIFF", "diff", "a,-,c,d,e", "a,b,e,-,c", "m*n + m"),
            ("BOOL-U-INTER", "inter", "a,-,c,d,e", "a,b,e,-,c", "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,-,c,d,e", "a,-,e,-,c", "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,-,c,-,e", "a,-,e,-,c", "m*n"),
        ],
    )

    entries += _entries_for_class(
        "TID",
        WitnessClass.TWO_SIDED_IDEAL,
        [
            ("KAPPA", "complexity", "", "n"),
            ("SEMIGROUP", "semigroup", "", "n^(n-2) + (n-2)*2^(n-2) + 1"),
            ("REVERSE", "reverse", "a,-,-,d,e,f", "2^(n-1) + 1"),
            ("ATOM-COUNT", "atom-count", "a,-,-,d,e,f", "2^(n-1) + 1"),
            ("ATOMS", "atoms", "", "per-profile closed forms"),
            ("STAR", "star", "a,-,-,-,e,f", "n + 1"),
            ("PROD-R", "product", "a,-,-,-,e,f", "a,-,-,-,e,f", "m + n - 1"),
            ("PROD-U", "product", "a,b,-,-,e,f", "a,c,-,-,e,f", "m + 2n"),
            ("BOOL-R-INTER", "inter", "a,b,-,d,e,f", "b,a,-,d,e,f", "m*n"),
            ("BOOL-R-SYMDIFF", "symdiff", "a,b,-,d,e,f", "b,a,-,d,e,f", "m*n"),
            ("BOOL-R-DIFF", "diff", "a,b,-,d,e,f", "b,a,-,d,e,f", "m*n - (m-1)"),
            ("BOOL-R-UNION", "union", "a,b,-,d,e,f", "b,a,-,d,e,f", "m*n - (m+n-2)"),
            ("BOOL-U-UNION", "union", "a,b,c,-,e,f", "a,e,d,-,b,f", "(m+1)*(n+1)"),
            ("BOOL-U-SYMDIFF", "symdiff", "a,b,c,-,e,f", "a,e,d,-,b,f", "(m+1)*(n+1)"),
            ("BOOL-U-DIFF", "diff", "a,b,c,-,e,f", "a,e,d,-,b,f", "m*n + m"),
            ("BOOL-U-INTER", "inter", "a,b,c,-,e,f", "a,e,d,-,b,f", "m*n"),
            ("BOOL-U-DIFF-MIN", "diff", "a,b,c,-,e,f", "a,e,-,-,b,f", "m*n + m"),
            ("BOOL-U-INTER-MIN", "inter", "a,b,-,-,e,f", "a,e,-,-,b,f", "m*n"),
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


def _check_atoms(entry: BoundEntry, n: int) -> tuple[int, int]:
    """Verify every realized atom (plus the named profiles) against the forms.

    Returns (number of profiles checked, number that passed). A named
    profile without an atom counts as a failed check; an atom whose
    profile the forms do not cover also counts as failed.
    """
    witness = entry.lhs.build(n)
    if minimize(witness).state_count != witness.state_count:
        raise ValueError(f"witness {entry.lhs} is not minimal at n={n}")
    counts = atom_complexities(witness)
    checks = counts.keys() | explicit_profiles(entry.lhs.witness, n)
    # A named profile with no atom, and a realized atom the closed forms
    # do not cover, are never passed.
    passed = 0
    for s, count in counts.items():
        try:
            passed += count == atom_formula(entry.lhs.witness, n, s)
        except ValueError:
            continue
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


# Cells go to the pool in contiguous batches: few enough that the pickle
# round trips stop dominating, many enough that a slow batch leaves no
# worker idle for long.
_BATCHES_PER_WORKER = 8


def _evaluate_by_id(task: tuple[str, Optional[int], int]) -> VerificationRow:
    entry_id, m, n = task
    return evaluate_cell(registry_by_id()[entry_id], m, n)


def _cells_for(
    entry: BoundEntry,
    m_range: Optional[tuple[int, int]],
    n_range: Optional[tuple[int, int]],
) -> tuple[list[tuple[str, Optional[int], int]], list[str]]:
    notices = []
    floor = entry.lhs.witness.min_n
    lo_m, hi_m = m_range if m_range else _DEFAULT_RANGE[entry.lhs.witness]
    lo_n, hi_n = n_range if n_range else _DEFAULT_RANGE[entry.lhs.witness]
    ms = [m for m in range(lo_m, hi_m + 1) if m >= floor]
    ns = [n for n in range(lo_n, hi_n + 1) if n >= floor]
    skipped_m = [m for m in range(lo_m, hi_m + 1) if m < floor]
    skipped_n = [n for n in range(lo_n, hi_n + 1) if n < floor]
    if entry.is_binary:
        if skipped_m or skipped_n:
            notices.append(
                f"{entry.entry_id}: skipping m<{floor} or n<{floor} "
                f"(outside the witness range)"
            )
        cells = [(entry.entry_id, m, n) for m in ms for n in ns]
    else:
        if skipped_n:
            notices.append(
                f"{entry.entry_id}: skipping n<{floor} (outside the witness range)"
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

    Row content is deterministic and independent of the job count. With
    `jobs > 1` the cells go in contiguous batches to at most `jobs` worker
    processes, and to no more processes than there are batches. Range
    cells below an entry's validity floor are skipped with a notice on
    stderr. An unknown id raises `KeyError` and a repeated one
    `ValueError`, each naming the ids.
    """
    table = registry_by_id()
    if ids is None:
        selected = list(table.values())
    else:
        unknown = [i for i in ids if i not in table]
        if unknown:
            raise KeyError(f"unknown registry ids: {', '.join(unknown)}")
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ValueError(f"repeated registry ids: {', '.join(repeated)}")
        selected = [table[i] for i in ids]
    tasks: list[tuple[str, Optional[int], int]] = []
    for entry in selected:
        cells, notices = _cells_for(entry, m_range, n_range)
        for notice in notices:
            print(f"notice: {notice}", file=sys.stderr)
        tasks.extend(cells)
    if jobs > 1 and len(tasks) > 1:
        batch = -(-len(tasks) // (_BATCHES_PER_WORKER * jobs))
        workers = min(jobs, -(-len(tasks) // batch))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_by_id, tasks, chunksize=batch))
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
