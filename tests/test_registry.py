from __future__ import annotations

import concurrent.futures
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from statecomplexity import (
    Dfa,
    VerificationRow,
    WitnessClass,
    WitnessRecipe,
    all_match,
    automata,
    bounds,
    emit_report,
    operations,
    registry,
    registry_by_id,
    run_sweep,
)
from statecomplexity.bounds import BOOLEAN_BY_NAME

from conftest import DEFAULT_RANGES, GOLDEN_GRID, golden_within

GRID_3TO7 = dict.fromkeys(DEFAULT_RANGES, (3, 7))


def test_registry_ids_are_unique_and_recipes_build():
    table = registry_by_id()
    assert len(table) == len(registry())
    for entry in registry():
        n = entry.lhs.witness.min_n
        entry.lhs.build(n)
        if entry.rhs is not None:
            entry.rhs.build(n)


def test_registry_by_id_is_built_once_and_read_only():
    table = registry_by_id()
    assert registry_by_id() is table
    with pytest.raises(TypeError):
        table["REG-PROD-U"] = None


def test_expected_values_quoted_in_the_tables():
    table = registry_by_id()
    assert table["REG-PROD-U"].expected(3, 3) == 28
    assert table["TID-PROD-U"].expected(5, 5) == 15
    assert table["LID-PROD-R"].expected(4, 4) == 7
    assert table["RID-PROD-U"].expected(3, 3) == 10
    assert table["LID-BOOL-U-DIFF"].expected(4, 4) == 20


def test_expected_refuses_cells_below_the_witness_floor():
    table = registry_by_id()
    with pytest.raises(ValueError):
        table["REG-STAR"].expected(None, 1)  # the text alone would give 1.5
    with pytest.raises(ValueError):
        table["RID-PROD-U"].expected(1, 1)  # the text alone would give 3.5
    assert table["REG-STAR"].expected(None, 3) == 6


@pytest.mark.parametrize("m, n", [(None, 4.5), (4.0, 4), (4, 4.0)])
def test_expected_refuses_sizes_that_are_not_ints(m, n):
    table = registry_by_id()
    entry = table["REG-KAPPA"] if m is None else table["RID-PROD-U"]
    with pytest.raises(ValueError, match="is stated for int m, n"):
        entry.expected(m, n)


def test_a_recipe_refuses_a_size_that_is_not_an_int_whatever_it_has_built():
    # The cache must not answer build(4.0) with the witness of build(4):
    # the refusal does not depend on what was built before.
    recipe = WitnessRecipe(WitnessClass.REGULAR, "a,b,c")
    recipe.build.cache_clear()
    for warm in (False, True):
        if warm:
            assert recipe.build(4).state_count == 4
        with pytest.raises(ValueError, match="needs an int n, got 4.0"):
            recipe.build(4.0)


# Every distinct formula text of the registry, evaluated by hand at m=5, n=7.
FORMULAS_AT_5_7 = {
    "n": 7,
    "n + 1": 8,
    "n^n": 823543,
    "n^(n-1)": 117649,
    "n^(n-1) + n - 1": 117655,
    "n^(n-2) + (n-2)*2^(n-2) + 1": 16807 + 160 + 1,
    "2^n": 128,
    "2^(n-1)": 64,
    "2^(n-1) + 1": 65,
    "2^(n-1) + 2^(n-2)": 96,
    "m*2^n - 2^(n-1)": 576,
    "m*2^n + 2^(n-1)": 704,
    "m + 2^(n-2)": 37,
    "m + 2^(n-2) + 2^(n-1) + 1": 102,
    "m + n - 1": 11,
    "m + 2n": 19,
    "m*n": 35,
    "m*n + 1": 36,
    "m*n + m": 40,
    "m*n + n": 42,
    "m*n + m + 1": 41,
    "m*n + n + 1": 43,
    "m*n + m + n": 47,
    "m*n - (m-1)": 31,
    "m*n - (m+n-2)": 25,
    "(m+1)*(n+1)": 48,
}


def test_every_formula_text_evaluates_to_its_hand_value():
    entries = [e for e in registry() if e.operation != "atoms"]
    assert {e.formula_text for e in entries} == set(FORMULAS_AT_5_7)
    for entry in entries:
        assert entry.expected(5, 7) == FORMULAS_AT_5_7[entry.formula_text], entry.entry_id


@pytest.mark.parametrize(
    "text", ["__import__('os')", "m/n", "1.5*n", "k + 1", "per-profile closed forms"]
)
def test_expected_rejects_text_outside_the_grammar(text):
    atoms_entry = registry_by_id()["REG-ATOMS"]
    assert atoms_entry.formula_text == "per-profile closed forms"
    entry = atoms_entry._replace(formula_text=text)
    with pytest.raises(ValueError):
        entry.expected(5, 7)


def test_sweep_of_one_boolean_entry():
    rows = run_sweep(ids=["REG-BOOL-U-UNION"], m_range=(3, 5), n_range=(3, 5))
    assert len(rows) == 9
    assert all(r.match for r in rows)
    assert all(r.expected == (r.m + 1) * (r.n + 1) for r in rows)


def test_sweep_of_right_ideal_product_cell():
    rows = run_sweep(ids=["RID-PROD-U"], m_range=(3, 3), n_range=(3, 3))
    assert len(rows) == 1
    assert rows[0].measured == 10 and rows[0].match


def test_unary_rows_have_no_m():
    rows = run_sweep(ids=["REG-STAR"], n_range=(3, 4))
    assert [(r.m, r.n) for r in rows] == [(None, 3), (None, 4)]
    assert [r.measured for r in rows] == [6, 12]


def test_out_of_range_cells_are_skipped_with_notice(capsys):
    # A binary range cut at the floor, a unary one (which ignores the m
    # range, so only n is named) and ranges wholly below it.
    cases = [
        (
            ["TID-PROD-U"], (3, 5), (5, 5), [(5, 5)],
            ["notice: TID-PROD-U: skipping m<5 or n<5 (outside the witness range)"],
        ),
        (
            ["TID-STAR"], (1, 2), (3, 6), [(None, 5), (None, 6)],
            ["notice: TID-STAR: skipping n<5 (outside the witness range)"],
        ),
        (
            ["TID-KAPPA", "TID-PROD-U"], None, (3, 4), [],
            [
                "notice: TID-KAPPA: skipping n<5 (outside the witness range)",
                "notice: TID-KAPPA: requested range is entirely outside validity",
                "notice: TID-PROD-U: skipping m<5 or n<5 (outside the witness range)",
                "notice: TID-PROD-U: requested range is entirely outside validity",
            ],
        ),
    ]
    for ids, m_range, n_range, cells, notices in cases:
        rows = run_sweep(ids=ids, m_range=m_range, n_range=n_range)
        assert [(r.m, r.n) for r in rows] == cells
        assert capsys.readouterr().err.splitlines() == notices


@pytest.mark.parametrize(
    "argument, kwargs",
    [
        ("n_range", {"n_range": (5, 3)}),
        ("ids", {"ids": "REG-KAPPA"}),
        ("ids", {"ids": ["REG-KAPPA", 1]}),
        ("jobs", {"jobs": 0}),
        ("jobs", {"jobs": 2.5}),
        ("n_range", {"n_range": (3.0, 5)}),
    ],
    ids=["reversed-range", "ids-as-str", "int-id", "zero-jobs", "float-jobs", "float-range"],
)
def test_malformed_sweep_arguments_are_refused(capsys, argument, kwargs):
    with pytest.raises(ValueError, match=f"^{argument} "):
        run_sweep(**{"ids": ["REG-KAPPA"], **kwargs})
    assert capsys.readouterr().err == ""


def test_unknown_ids_raise():
    with pytest.raises(KeyError):
        run_sweep(ids=["NO-SUCH-ENTRY"])


def test_repeated_ids_raise_and_name_the_id():
    with pytest.raises(ValueError, match="repeated registry ids: REG-KAPPA$"):
        run_sweep(ids=["REG-KAPPA", "REG-STAR", "REG-KAPPA"], n_range=(3, 3))


def strip(rows: list[VerificationRow]) -> list[tuple]:
    """Every field of each row but elapsed_ms."""
    return [(r.entry_id, r.m, r.n, r.expected, r.measured, r.match, r.error) for r in rows]


def test_rows_sorted_and_independent_of_jobs():
    ids = ["REG-PROD-R", "REG-KAPPA"]
    serial = run_sweep(ids=ids, m_range=(3, 4), n_range=(3, 4))
    parallel = run_sweep(ids=ids, m_range=(3, 4), n_range=(3, 4), jobs=4)
    assert strip(serial) == strip(parallel)
    assert strip(serial) == sorted(strip(serial))


def test_batches_of_uneven_size_give_the_serial_rows(monkeypatch):
    import statecomplexity.bounds as reg_mod

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    workers = 3  # min(--jobs 3, 35 cells, 3 CPUs)
    ids = ["REG-PROD-R", "REG-BOOL-R-INTER", "REG-KAPPA"]
    serial = run_sweep(ids=ids, m_range=(3, 5), n_range=(3, 7))
    batch = -(-len(serial) // (reg_mod._BATCHES_PER_WORKER * workers))
    assert len(serial) % batch  # 15 + 15 + 5 tasks: the last batch is a short one
    rows = run_sweep(ids=ids, m_range=(3, 5), n_range=(3, 7), jobs=workers)
    assert strip(rows) == strip(serial)


class RecordingPool:
    """A process-pool stand-in that records its sizing and batches like the
    real one and runs the batches serially in the calling thread, so it
    starts no process and no thread however many workers it is asked for."""

    made: list[RecordingPool] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.batches: list[list] = []
        RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, tasks, chunksize=1):
        tasks = list(tasks)
        self.batches = [tasks[i : i + chunksize] for i in range(0, len(tasks), chunksize)]
        return [fn(task) for batch in self.batches for task in batch]


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.made


def loaded_in_a_fresh_process(script: str, modules: list[str]) -> list[str]:
    """Those of `modules` that a new `python -S` has loaded after `script`."""
    import statecomplexity

    src = Path(statecomplexity.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"{script}\nimport sys; print(*sys.modules, sep='\\n')"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [name for name in modules if name in proc.stdout.splitlines()]


def test_a_serial_sweep_never_imports_the_process_pool():
    # The pool's module loads only when a sweep sends cells to it, so
    # importing the package and sweeping serially pay nothing for it.
    # Any one-worker sweep is serial: --jobs 4 over one cell, or on one CPU.
    script = (
        "import os, statecomplexity as s; s.registry_by_id();"
        " s.run_sweep(ids=['REG-KAPPA'], n_range=(3, 3));"
        " s.run_sweep(ids=['REG-KAPPA'], n_range=(3, 3), jobs=4);"
        " os.cpu_count = lambda: 1; s.run_sweep(ids=['REG-KAPPA'], n_range=(3, 5), jobs=4)"
    )
    assert loaded_in_a_fresh_process(script, ["concurrent.futures"]) == []


# Modules no process needs before it parses a formula: the records are
# plain classes and namedtuples, and annotations are never evaluated.
DEFERRED = ["dataclasses", "inspect", "ast", "typing", "tokenize"]


def test_importing_the_package_loads_no_avoidable_stdlib_module():
    # Import time is paid by every process: the CLI's parser, the pool,
    # the `string` module (the witnesses spell their letters out) and the
    # formula compiler's `ast` and `re` stay out.
    script = "import statecomplexity as s; s.registry_by_id()"
    modules = ["string", "argparse", "concurrent.futures", "re", *DEFERRED]
    assert loaded_in_a_fresh_process(script, modules) == []


def test_the_cli_loads_no_avoidable_stdlib_module(tmp_path):
    # `registry list` loads the CLI's parser, and with it `re`, but none of
    # the modules a bare import leaves out. `-X importtime` names every
    # module the run imports, on stderr.
    import statecomplexity

    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "statecomplexity", "registry", "list"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(statecomplexity.__file__).parents[1])),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"argparse", "re", "statecomplexity.cli"} <= imported
    assert imported.isdisjoint(DEFERRED), imported & set(DEFERRED)


def test_the_first_formula_of_a_process_compiles_and_refuses_other_text():
    # `ast` and `re` load on the first `expected()`, which still evaluates
    # the grammar's formulas and refuses text outside it.
    script = (
        "import sys, statecomplexity as s\n"
        "entry = s.registry_by_id()['REG-PROD-R']\n"
        "assert 'ast' not in sys.modules and 're' not in sys.modules\n"
        "assert entry.expected(3, 4) == 3 * 2**4 - 2**3\n"
        "try:\n"
        "    entry._replace(formula_text=\"__import__('os')\").expected(3, 4)\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('text outside the grammar was evaluated')"
    )
    assert loaded_in_a_fresh_process(script, ["ast", "re"]) == ["ast", "re"]


def test_a_row_survives_a_pickle_round_trip():
    (row,) = run_sweep(ids=["REG-KAPPA"], n_range=(3, 3))
    back = pickle.loads(pickle.dumps(row))
    assert type(back) is VerificationRow and back == row


def test_pool_is_capped_at_the_number_of_batches(recording_pool, monkeypatch):
    # Two cells at --jobs 64 need two workers, not 64 forked processes.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    serial = run_sweep(ids=["REG-KAPPA"], n_range=(3, 4))
    rows = run_sweep(ids=["REG-KAPPA"], n_range=(3, 4), jobs=64)
    (pool,) = recording_pool
    assert pool.max_workers == 2 and len(pool.batches) == 2
    assert strip(rows) == strip(serial)


@pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1), (1, 1)])
def test_pool_is_capped_at_the_number_of_cpus(recording_pool, monkeypatch, cpus, workers):
    # A CPU-bound sweep asks for no more workers than there are CPUs (one
    # when the count is unknown), however many jobs it is given, and sends
    # each worker _BATCHES_PER_WORKER batches (not 426 one-cell batches).
    # With one worker it makes no pool and runs serially.
    import statecomplexity.bounds as reg_mod

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rows = run_sweep(jobs=500)
    if workers == 1:
        assert recording_pool == []
    else:
        (pool,) = recording_pool
        assert pool.max_workers == workers
        assert len(pool.batches) <= reg_mod._BATCHES_PER_WORKER * workers
    assert golden_columns(rows) == golden_within(DEFAULT_RANGES)


def test_a_failing_cell_leaves_the_rest_of_its_batch_intact(recording_pool, monkeypatch):
    import statecomplexity.bounds as reg_mod

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_sweep(ids=["REG-KAPPA"], n_range=(3, 40))
    real = reg_mod.MEASURES["complexity"]

    def fail_at_seven(dfa):
        if dfa.state_count == 7:
            raise RuntimeError("boom")
        return real(dfa)

    monkeypatch.setitem(reg_mod.MEASURES, "complexity", fail_at_seven)
    rows = run_sweep(ids=["REG-KAPPA"], n_range=(3, 40), jobs=2)
    (pool,) = recording_pool
    (batch,) = [b for b in pool.batches if ("REG-KAPPA", None, 7) in b]
    assert len(batch) > 1
    failed = [r for r in rows if r.error]
    assert [(r.n, r.measured, r.match) for r in failed] == [(7, -1, False)]
    assert "RuntimeError: boom" in failed[0].error
    assert strip([r for r in rows if not r.error]) == strip([r for r in serial if r.n != 7])


def test_csv_report_columns_and_values():
    rows = run_sweep(ids=["REG-PROD-U"], m_range=(3, 3), n_range=(3, 3))
    report = emit_report(rows, "csv")
    lines = report.strip().splitlines()
    assert lines[0] == "id,m,n,expected,measured,match,elapsed_ms"
    assert lines[1].startswith("REG-PROD-U,3,3,28,28,true,")


def test_csv_report_is_deterministic_apart_from_elapsed():
    rows_a = run_sweep(ids=["REG-BOOL-R-INTER"], m_range=(3, 4), n_range=(3, 4))
    rows_b = run_sweep(ids=["REG-BOOL-R-INTER"], m_range=(3, 4), n_range=(3, 4))
    strip_elapsed = lambda text: [
        line.rsplit(",", 1)[0] for line in text.strip().splitlines()
    ]
    assert strip_elapsed(emit_report(rows_a)) == strip_elapsed(emit_report(rows_b))


def test_empty_rows_render_header_only():
    assert emit_report([], "csv") == "id,m,n,expected,measured,match,elapsed_ms\n"


def test_markdown_report_groups_by_id():
    rows = run_sweep(ids=["REG-KAPPA", "REG-STAR"], n_range=(3, 3))
    text = emit_report(rows, "markdown")
    assert "## REG-KAPPA" in text and "## REG-STAR" in text
    assert "| m | n | expected | measured | match | elapsed_ms |" in text


def test_mismatch_and_error_rows_fail_the_gate():
    good = VerificationRow("X", 3, 3, 1, 1, True, 0.0)
    bad = VerificationRow("X", 3, 4, 2, 3, False, 0.0)
    assert all_match([good])
    assert not all_match([good, bad])
    line = emit_report([bad], "csv").strip().splitlines()[1]
    assert line.startswith("X,3,4,2,3,false,")


def test_atoms_rows_count_profiles():
    rows = run_sweep(ids=["REG-ATOMS"], n_range=(3, 3))
    (row,) = rows
    assert row.expected == 8 and row.measured == 8 and row.match


def test_default_sweep_deviations_are_exactly_the_documented_defects():
    # Every registered bound is attained by its witnesses except the
    # documented two-sided reversal/atom values and the atom tables whose
    # closed forms the witnesses provably cannot meet. Pin the exact set
    # so any new deviation (or silent fix) is caught.
    rows = run_sweep()
    deviating = {(r.entry_id, r.m, r.n) for r in rows if not r.match}
    assert deviating == {
        ("LID-ATOMS", None, 4),
        ("LID-ATOMS", None, 5),
        ("TID-ATOM-COUNT", None, 5),
        ("TID-ATOM-COUNT", None, 6),
        ("TID-ATOMS", None, 5),
        ("TID-ATOMS", None, 6),
        ("TID-REVERSE", None, 5),
        ("TID-REVERSE", None, 6),
    }
    assert not any(r.error for r in rows)


def golden_columns(rows: list[VerificationRow]) -> str:
    """Columns 1-6 of the CSV report: everything but elapsed_ms."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in emit_report(rows).splitlines())


def test_default_sweep_reproduces_the_golden_columns():
    # The default grid's rows of the golden grid hold columns 1-6 of
    # `verify`, 8 documented mismatches included. A faster kernel must
    # give these bytes exactly.
    assert golden_columns(run_sweep()) == golden_within(DEFAULT_RANGES)


def boolean_cells(rows: list[VerificationRow]) -> int:
    table = registry_by_id()
    return sum(table[r.entry_id].operation in BOOLEAN_BY_NAME for r in rows)


@pytest.fixture
def pair_walks(monkeypatch) -> list[tuple[Dfa, Dfa]]:
    """The operands of every unlinked `_walk_pair`, the walk boolean cells read."""
    walks = []
    real = operations._walk_pair

    def record(lhs, rhs, link):
        if not link:
            walks.append((lhs, rhs))
        return real(lhs, rhs, link)

    monkeypatch.setattr(operations, "_walk_pair", record)
    operations._pair_walk.cache_clear()  # a walk kept from outside a sweep
    return walks


@pytest.mark.parametrize(
    "span, walks, cells", [(None, 91, 314), ((3, 7), 259, 900)], ids=["default", "3to7"]
)
def test_a_sweep_walks_each_boolean_operand_pair_once(span, walks, cells, pair_walks):
    # The boolean cells that read one pair of witnesses at one (m, n) run
    # back to back and share one walk: one per pair, not one per cell.
    rows = run_sweep(m_range=span, n_range=span)
    assert boolean_cells(rows) == cells
    assert len(pair_walks) == walks


def test_a_sweep_releases_the_pair_walk_it_kept(monkeypatch):
    # The last pair's walk and memo serve the sweep's own cells: none is
    # left alive when the sweep returns, nor when a cell raises past it.
    ids = ["REG-BOOL-R-INTER", "REG-BOOL-R-UNION"]
    rows = run_sweep(ids=ids, m_range=(3, 4), n_range=(3, 4))
    assert boolean_cells(rows) == 8
    assert operations._pair_walk.cache_info().currsize == 0
    real = bounds._evaluate_by_id
    ran = []

    def interrupted(task):
        ran.append(task)
        if len(ran) == 2:
            raise KeyboardInterrupt
        return real(task)

    monkeypatch.setattr(bounds, "_evaluate_by_id", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(ids=ids, m_range=(3, 4), n_range=(3, 4))
    assert len(ran) == 2
    assert operations._pair_walk.cache_info().currsize == 0


def test_a_warm_sweep_refines_each_complementary_pair_of_boolean_cells_once(
    monkeypatch, pair_walks
):
    # Once the witnesses are minimal, a sweep refines only its results.
    # The boolean cells of a pair refine its walk once per complementary
    # pair of operations, and an operation that two ids read on the same
    # pair (REG-BOOL-R-INTER and REG-BOOL-U-INTER-MIN) once: 318
    # refinements, against 376 when each boolean cell refined its own
    # read. Still one walk per pair.
    run_sweep()
    refined = []
    real = automata.nerode_classes

    def record(d):
        refined.append(d)
        return real(d)

    monkeypatch.setattr(automata, "nerode_classes", record)
    pair_walks.clear()
    assert golden_columns(run_sweep()) == golden_within(DEFAULT_RANGES)
    assert len(refined) == 318
    assert len(pair_walks) == 91


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_shuffled_sweep_gives_the_registry_order_rows_and_walks(seed, pair_walks):
    # REG-PROD-U reads the pair of the ten REG-BOOL-U rows, so each seed
    # puts its cells at another place inside their groups: a product walk
    # never evicts the kept boolean walk.
    ids = list(registry_by_id())
    random.Random(seed).shuffle(ids)
    rows = run_sweep(ids=ids)
    assert len(pair_walks) == 91
    assert golden_columns(rows) == golden_within(DEFAULT_RANGES)


KNOWN_DEFECT_IDS = {"LID-ATOMS", "TID-ATOM-COUNT", "TID-ATOMS", "TID-REVERSE"}


def _sound_ids():
    return [e.entry_id for e in registry() if e.entry_id not in KNOWN_DEFECT_IDS]


def test_bounds_hold_one_size_beyond_the_default_grid():
    rows = run_sweep(ids=_sound_ids(), m_range=(3, 6), n_range=(3, 6))
    assert all(r.match for r in rows), [r for r in rows if not r.match]


@pytest.mark.slow
def test_bounds_hold_on_the_extended_grid():
    # One sweep of every id over 3..7: the sound ids must match, and all
    # rows, 13 documented mismatches included, must give the columns 1-6
    # of `verify --m 3..7 --n 3..7`: the golden grid's rows within 3..7.
    rows = run_sweep(m_range=(3, 7), n_range=(3, 7))
    sound = [r for r in rows if r.entry_id not in KNOWN_DEFECT_IDS]
    assert all(r.match for r in sound), [r for r in sound if not r.match]
    assert golden_columns(rows) == golden_within(GRID_3TO7)


@pytest.mark.slow
def test_batched_pool_reproduces_the_extended_grid():
    # The same 1,152 cells at --jobs 2 go to the pool in contiguous batches.
    rows = run_sweep(m_range=(3, 7), n_range=(3, 7), jobs=2)
    assert golden_columns(rows) == golden_within(GRID_3TO7)


@pytest.mark.slow
def test_batched_pool_reproduces_the_3to8_grid():
    # The golden grid holds columns 1-6 of `verify --m 3..8 --n 3..8`,
    # 17 documented mismatches included; it pins the atom kernel at n=8.
    rows = run_sweep(m_range=(3, 8), n_range=(3, 8), jobs=2)
    assert golden_columns(rows) == GOLDEN_GRID.read_text()


def test_construction_failures_become_failed_rows(monkeypatch):
    import statecomplexity.bounds as reg_mod

    table = registry_by_id()
    entry = table["REG-KAPPA"]
    monkeypatch.setitem(
        reg_mod.MEASURES, "complexity", lambda d: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    row = reg_mod.evaluate_cell(entry, None, 3)
    assert not row.match and row.measured == -1 and "boom" in row.error


@pytest.mark.parametrize("fails", ["measure", "bound"])
def test_a_failing_cell_evaluates_its_bound_once(monkeypatch, fails):
    import statecomplexity.bounds as reg_mod

    calls = []
    real = reg_mod.BoundEntry.expected

    def counted(entry, m, n):
        calls.append((m, n))
        if fails == "bound":
            raise ValueError("no bound")
        return real(entry, m, n)

    monkeypatch.setattr(reg_mod.BoundEntry, "expected", counted)
    monkeypatch.setitem(
        reg_mod.MEASURES, "complexity", lambda d: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    row = reg_mod.evaluate_cell(registry_by_id()["REG-KAPPA"], None, 3)
    assert calls == [(None, 3)]
    assert (row.expected, row.measured, row.match) == (3 if fails == "measure" else -1, -1, False)
