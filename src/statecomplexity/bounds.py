"""Bound registry and verification sweeps.

Every registered entry pairs a closed-form complexity bound with the
witness recipe that is supposed to attain it. A sweep rebuilds the
witnesses for each (m, n) in range, runs the operation, measures the
quotient complexity of the result, and reports expected versus measured.
Mismatches are reported, never patched: the registry encodes each bound
exactly as documented even where measurement disagrees.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import namedtuple
from collections.abc import Iterable, Mapping
from math import comb
from types import CodeType, MappingProxyType

from .algebra import syntactic_semigroup_size
from .atoms import _profile, atom_complexities, atoms
from .automata import Dfa, quotient_complexity, trim_alphabet
from .operations import BooleanOp, _pair_walk, boolean, product, reverse, star
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

# The one table of operation names: registry entries and the CLI's `op`
# and `measure` resolve names here. Constructions return an `OpResult`;
# measures return an int.
BINARY_OPS = {
    "product": product,
    **{name: functools.partial(boolean, op) for name, op in BOOLEAN_BY_NAME.items()},
}
UNARY_OPS = {"star": star, "reverse": reverse}
MEASURES = {
    "complexity": quotient_complexity,
    "semigroup": syntactic_semigroup_size,
    "atom-count": lambda d: len(atoms(trim_alphabet(d))),
}

class WitnessRecipe(namedtuple("WitnessRecipe", "witness dialect", defaults=("",))):
    """A witness class plus the dialect that renames or drops its letters.

    The empty dialect, the default, keeps the full canonical alphabet.
    """

    __slots__ = ()

    @functools.lru_cache(maxsize=None, typed=True)  # typed: build(4.0) misses, so it is refused
    def build(self, n: int) -> Dfa:
        base = self.witness.build(n)
        if not self.dialect:
            return base
        return apply_dialect(base, parse_dialect(self.dialect))

    def __str__(self) -> str:
        inner = self.dialect if self.dialect else ",".join(self.witness.canonical_alphabet)
        return f"{self.witness.value}({inner})"


@functools.cache
def _compile_formula(text: str) -> CodeType:
    """Bytecode of a formula text in integer literals, m, n, + - * ^ and parentheses.

    `^` is power and an integer written before m, n or "(" multiplies it
    (`2n` is `2*n`). Any other name, call, attribute, operator or literal
    raises ValueError, so evaluating the bytecode only does integer
    arithmetic on m and n.
    """
    import ast  # only here: importing the package leaves the parser unloaded
    import re

    def in_grammar(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("m", "n")
        if isinstance(node, ast.Constant):
            return type(node.value) is int
        return isinstance(
            node, (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.Load)
        )

    source = re.sub(r"(?<=\d)(?=[mn(])", "*", text.replace("^", "**"))
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError:
        tree = None
    if tree is None or not all(in_grammar(node) for node in ast.walk(tree)):
        raise ValueError(f"not a closed form in m and n: {text!r}")
    return compile(tree, text, "eval")


class BoundEntry(namedtuple("BoundEntry", "entry_id operation lhs rhs formula_text")):
    """One verifiable bound: recipes, operation, and the formula text that states it.

    `rhs` is None for unary entries, and their formula text never mentions m.
    """

    __slots__ = ()

    @property
    def is_binary(self) -> bool:
        return self.rhs is not None

    def expected(self, m: int | None, n: int) -> int:
        """The formula text at (m, n); m is ignored by unary entries.

        A cell below the witness floor or of a non-int size raises
        ValueError: the stream has no witness there, so the text states no bound.
        """
        floor = self.lhs.witness.min_n
        if type(n) is not int or n < floor or (
            self.is_binary and (type(m) is not int or m < floor)
        ):
            raise ValueError(f"{self.entry_id} is stated for int m, n >= {floor}, not m={m}, n={n}")
        return eval(_compile_formula(self.formula_text), {"__builtins__": {}}, {"m": m, "n": n})


class VerificationRow(
    namedtuple(
        "VerificationRow",
        "entry_id m n expected measured match elapsed_ms error",
        defaults=("",),
    )
):
    """One evaluated cell; `m` is None for unary entries, `error` empty unless it failed."""

    __slots__ = ()


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


def _named_values(n: int) -> dict[WitnessClass, dict[frozenset[int], int]]:
    """The closed forms' named profiles at n and their values, in table order."""
    full = frozenset(range(n))
    return {
        WitnessClass.REGULAR: {frozenset(): 2**n - 1, full: 2**n - 1},
        WitnessClass.RIGHT_IDEAL: {full: 2 ** (n - 1)},
        WitnessClass.LEFT_IDEAL: {frozenset(): 2 ** (n - 1), full: n},
        WitnessClass.TWO_SIDED_IDEAL: {full: n, full - {1}: 2 ** (n - 2) + n - 1},
    }


# Inner term of the double sum over (x, y) for the profiles not named above.
_INNER = {
    WitnessClass.REGULAR: lambda n, x, y: comb(n, x) * comb(n - x, y),
    WitnessClass.RIGHT_IDEAL: lambda n, x, y: comb(n - 1, x - 1) * comb(n - x, y),
    WitnessClass.LEFT_IDEAL: lambda n, x, y: comb(n - 1, x) * comb(n - 1 - x, y),
    WitnessClass.TWO_SIDED_IDEAL: lambda n, x, y: comb(n - 2, x - 1) * comb(n - x - 1, y - 1),
}


def atom_formula(witness_class: WitnessClass, n: int, s: Iterable[int]) -> int:
    """Closed-form atom complexity for the witness of the given class.

    Returns the documented table as stated, for the registry rows that
    report it. Defined exactly for the profiles the closed forms cover;
    other profiles (whose atoms the witnesses do not realize) raise
    ValueError. Two entries are ones the witnesses cannot meet: the
    left-ideal general branch, whose inner binomial the witness realizes
    as C(n-x-1, y-1) rather than C(n-1-x, y), and the two-sided special
    value 2^(n-2)+n-1 named at Q_n minus {1}. That profile holds the
    initial state without being Q_n, so no word has it; the value belongs
    to Q_n minus {0}.
    """
    if type(n) is not int:
        raise ValueError(f"{witness_class.value} witness needs an int n, got {n!r}")
    if n < witness_class.min_n:
        raise ValueError(f"{witness_class.value} witness needs n >= {witness_class.min_n}")
    s = _profile(s, n)
    named = _named_values(n)[witness_class]
    if s in named:
        return named[s]
    if not s:
        kind = "right" if witness_class is WitnessClass.RIGHT_IDEAL else "two-sided"
        raise ValueError(f"the empty profile is not an atom of a {kind} ideal")
    inner = _INNER[witness_class]
    size = len(s)
    return 1 + sum(
        inner(n, x, y) for x in range(1, size + 1) for y in range(1, n - size + 1)
    )


def _check_atoms(entry: BoundEntry, n: int) -> tuple[int, int]:
    """Verify every realized atom (plus the named profiles) against the forms.

    Returns (number of profiles checked, number that passed). A named
    profile without an atom counts as a failed check; an atom whose
    profile the forms do not cover also counts as failed.
    """
    counts = atom_complexities(entry.lhs.build(n))
    named = _named_values(n)[entry.lhs.witness]
    # A named profile with no atom, and a realized atom the closed forms
    # do not cover, are never passed.
    passed = 0
    for s, count in counts.items():
        try:
            passed += count == atom_formula(entry.lhs.witness, n, s)
        except ValueError:
            continue
    return len(counts.keys() | named.keys()), passed


def evaluate_cell(entry: BoundEntry, m: int | None, n: int) -> VerificationRow:
    """Build the witnesses, run the operation, and compare against the bound."""
    start = time.perf_counter()
    expected = measured = -1  # a failed cell keeps the expected value it got to
    error = ""
    try:
        if entry.operation == "atoms":
            expected, measured = _check_atoms(entry, n)
        else:
            expected = entry.expected(m, n)
            lhs = entry.lhs.build(m if entry.is_binary else n)
            if entry.is_binary:
                measured = BINARY_OPS[entry.operation](lhs, entry.rhs.build(n)).kappa
            elif entry.operation in UNARY_OPS:
                measured = UNARY_OPS[entry.operation](lhs).kappa
            else:
                measured = MEASURES[entry.operation](lhs)
    except Exception as exc:  # failed cells become failed rows, not crashes
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


def _evaluate_by_id(task: tuple[str, int | None, int]) -> VerificationRow:
    entry_id, m, n = task
    return evaluate_cell(registry_by_id()[entry_id], m, n)


def _cells_for(
    entry: BoundEntry,
    m_range: tuple[int, int] | None,
    n_range: tuple[int, int] | None,
) -> tuple[list[tuple[str, int | None, int]], list[str]]:
    floor = entry.lhs.witness.min_n
    spans = {"n": n_range or _DEFAULT_RANGE[entry.lhs.witness]}
    if entry.is_binary:  # a unary entry is the binary case whose one m is None
        spans["m"] = m_range or _DEFAULT_RANGE[entry.lhs.witness]
    sizes = {name: range(max(lo, floor), hi + 1) for name, (lo, hi) in spans.items()}
    cells = [(entry.entry_id, m, n) for m in sizes.get("m", [None]) for n in sizes["n"]]
    notices = []
    if any(lo < floor for lo, _ in spans.values()):
        cut = " or ".join(f"{name}<{floor}" for name in sorted(spans))
        notices.append(f"{entry.entry_id}: skipping {cut} (outside the witness range)")
    if not cells:
        notices.append(f"{entry.entry_id}: requested range is entirely outside validity")
    return cells, notices


def _check_range(name: str, span: tuple[int, int] | None) -> None:
    if span is not None and not (
        isinstance(span, tuple)
        and len(span) == 2
        and all(type(end) is int for end in span)
        and span[0] <= span[1]
    ):
        raise ValueError(f"{name} must be None or an int pair lo <= hi, not {span!r}")


def run_sweep(
    ids: list[str] | None = None,
    m_range: tuple[int, int] | None = None,
    n_range: tuple[int, int] | None = None,
    jobs: int = 1,
) -> list[VerificationRow]:
    """Evaluate the selected entries over the grid; rows sorted by (id, m, n).

    Row content is deterministic and independent of the job count. The
    binary cells of one operand pair run back to back, and the pair walk
    they share is released when the sweep returns. The sweep uses
    `min(jobs, cells, os.cpu_count())` workers: one runs the cells
    serially in this process, and more get the cells in contiguous
    batches, `_BATCHES_PER_WORKER` per worker. Range cells below an
    entry's validity floor are skipped with a notice on stderr. An
    unknown id raises `KeyError` and a repeated one `ValueError`, each
    naming the ids; malformed arguments raise `ValueError` naming the
    argument.
    """
    if ids is not None and not (
        isinstance(ids, (list, tuple)) and all(isinstance(i, str) for i in ids)
    ):
        raise ValueError(f"ids must be None or a list of registry ids, not {ids!r}")
    _check_range("m_range", m_range)
    _check_range("n_range", n_range)
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, not {jobs!r}")
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
    tasks: list[tuple[str, int | None, int]] = []
    for entry in selected:
        cells, notices = _cells_for(entry, m_range, n_range)
        for notice in notices:
            print(f"notice: {notice}", file=sys.stderr)
        tasks.extend(cells)
    # Binary cells that read the same operands at the same (m, n) run back
    # to back, in the place of the first of them, so the boolean ones share
    # one walk (`operations._pair_walk`); every unary cell keeps its place.
    groups: dict[tuple, list[tuple[str, int | None, int]]] = {}
    for task in tasks:
        entry = table[task[0]]
        key = (entry.lhs, entry.rhs, *task[1:]) if entry.is_binary else task
        groups.setdefault(key, []).append(task)
    tasks = [task for group in groups.values() for task in group]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    try:
        if workers > 1:
            import concurrent.futures  # only here: a serial sweep never loads the pool
            batch = -(-len(tasks) // (_BATCHES_PER_WORKER * workers))
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_evaluate_by_id, tasks, chunksize=batch))
        else:
            rows = [_evaluate_by_id(task) for task in tasks]
    finally:
        _pair_walk.cache_clear()  # the kept walk serves the sweep's cells, not its caller
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
