"""Benchmark of the statecomplexity library: three sweep workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from `src/` next to this
directory. Each workload is a closed loop with a single caller: the next
sweep (or, for large-ops, the next cell) starts only after the previous one
returned. Every measured integer is checked against `reference.py`.

With `--trace 0` the command measures end-to-end metrics for `--seconds`
seconds (at least three passes). With `--trace 1` it alternates untraced and
traced passes and reports per-layer self times and counts from spans
recorded around the library's module boundaries (see `spans.py`); the
spans are written to `bench/traces/<workload>.jsonl`.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. See
README.md in this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (lives next to this file)
import spans  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 7
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import statecomplexity as sc\n"
    "sc.registry_by_id()\n"
    "print(time.perf_counter() - t, sc.__file__)\n"
)


def _band(m: int, n: int, k: int, coupled: bool) -> list:
    """Sizes m-k..m+k; a coupled band moves n the other way, keeping m+n fixed."""
    return [(m + d, n - d if coupled else n) for d in range(-k, k + 1)]


# Ten large single cells, each with the band its sizes are drawn from.
# Seed 0 takes the middle of each band; other seeds draw from it. Bands
# keep the cost of a pass level, so the seed moves the inputs and not the
# work. Along m+n = const the boolean results, (m+1)(n+1), mn or mn+m, and
# LID-PROD-U's mn+m+n move by under 0.5%. REG-PROD-U and REG-PROD-R cost
# grows linearly in m and as 2^n, RID-PROD-U's is set by n, and REG-REVERSE
# and REG-STAR grow as 2^n, so those keep n fixed.
LARGE_OPS = [
    ("REG-PROD-U", _band(9, 9, 1, coupled=False)),
    ("REG-PROD-R", _band(9, 9, 1, coupled=False)),
    ("RID-PROD-U", _band(12, 12, 2, coupled=False)),
    ("LID-PROD-U", _band(40, 40, 2, coupled=True)),
    ("REG-REVERSE", [(None, 13)]),
    ("REG-STAR", [(None, 13)]),
    ("REG-BOOL-U-UNION", _band(60, 60, 2, coupled=True)),
    ("REG-BOOL-U-SYMDIFF", _band(60, 60, 2, coupled=True)),
    ("REG-BOOL-R-UNION", _band(60, 60, 2, coupled=True)),
    ("RID-BOOL-U-DIFF", _band(40, 40, 2, coupled=True)),
]


@dataclass
class Cell:
    key: tuple  # (id, m, n)
    elapsed_ms: float
    ok: bool
    outcome: tuple  # everything but the time; traced and untraced must agree


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # worker processes of a measured pass
    plan: Callable[[int], object]  # seed -> inputs
    run: Callable[..., list]  # (sc, inputs, jobs) -> list[Cell]
    # Why it was chosen, which layers it loads and which it leaves idle.
    why: str


def _sweep_plan(lo: Optional[int], hi: Optional[int], permute: bool):
    def plan(seed: int):
        ids = list(reference.TRUE_VALUE)  # registry declaration order
        if permute and seed != 0:
            random.Random(seed).shuffle(ids)
        cells = {c for entry_id in ids for c in reference.grid_cells(entry_id, lo, hi)}
        return ids, lo, hi, cells

    return plan


def _run_sweep(sc, inputs, jobs: int) -> list:
    ids, lo, hi, expected_cells = inputs
    span = None if lo is None else (lo, hi)
    # run_sweep prints one notice per skipped range to stderr, as verify does.
    with contextlib.redirect_stderr(io.StringIO()):
        rows = sc.run_sweep(ids=ids, m_range=span, n_range=span, jobs=jobs)
    cells = []
    for r in rows:
        key = (r.entry_id, r.m, r.n)
        ok = (
            not r.error
            and key in expected_cells
            and reference.check_row(r.entry_id, r.m, r.n, r.expected, r.measured)
        )
        cells.append(Cell(key, r.elapsed_ms, ok, (r.expected, r.measured, r.match, r.error)))
    missing = expected_cells - {c.key for c in cells}
    cells.extend(Cell(key, 0.0, False, ("missing",)) for key in sorted(missing, key=str))
    return cells


def _large_ops_plan(seed: int):
    if seed == 0:
        return [(entry_id, *band[len(band) // 2]) for entry_id, band in LARGE_OPS]
    rng = random.Random(seed)
    cells = [(entry_id, *rng.choice(band)) for entry_id, band in LARGE_OPS]
    rng.shuffle(cells)
    return cells


def _run_large_ops(sc, inputs, jobs: int) -> list:
    table = sc.registry_by_id()
    cells = []
    for entry_id, m, n in inputs:
        start = time.perf_counter()
        entry = table[entry_id]
        lhs = entry.lhs.build(n if m is None else m)
        if entry.operation == "product":
            result = sc.product(lhs, entry.rhs.build(n))
        elif entry.operation == "star":
            result = sc.star(lhs)
        elif entry.operation == "reverse":
            result = sc.reverse(lhs)
        else:
            result = sc.boolean(sc.bounds.BOOLEAN_BY_NAME[entry.operation], lhs, entry.rhs.build(n))
        back = sc.parse_dfa(sc.render_dfa(result.dfa))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        ok = (
            result.kappa == reference.TRUE_VALUE[entry_id](m, n)
            and result.dfa.state_count == result.kappa
            and back == result.dfa
        )
        cells.append(Cell((entry_id, m, n), elapsed_ms, ok, (result.kappa, result.dfa)))
    return cells


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-default",
            1,
            _sweep_plan(None, None, permute=True),
            _run_sweep,
            "Many tiny automata: the default verify grid (78 ids, 426 cells), run "
            "serially. Loads every library layer a little; minimize and the "
            "per-cell registry rebuild dominate. Leaves dfafile idle.",
        ),
        Workload(
            "large-ops",
            1,
            _large_ops_plan,
            _run_large_ops,
            "Few huge automata: ten large single cells (41k result states per "
            "pass), each followed by a render/parse round trip. Loads minimize, "
            "determinize, construction and dfafile. Leaves algebra and atoms "
            "idle; the registry is read once per pass.",
        ),
        Workload(
            "grid-3to7-jobs2",
            2,
            # The id order stays the CLI's for every seed: the pool's wall time
            # depends on when the 13 s REG-SEMIGROUP n=7 cell starts (13 s to
            # 20 s), so a permuted order would measure the seed, not the code.
            _sweep_plan(3, 7, permute=False),
            _run_sweep,
            "The extended verify --m 3..7 --n 3..7 --jobs 2 sweep (1152 cells). "
            "Loads the semigroup closure, atom_dfa and the process pool, whose "
            "wall time is bound by one cell. Leaves dfafile idle.",
        ),
    )
}


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _timed_pass(sc, workload, inputs, jobs):
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    cells = workload.run(sc, inputs, jobs)
    return time.perf_counter() - wall0, _cpu_seconds() - cpu0, cells


def _setup_seconds() -> float:
    """Median time of a fresh process to import the package and build the registry."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one may compile bytecode
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: imported statecomplexity from {out[1]}, not {SRC}")
        if i:
            samples.append(float(out[0]))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(sc, workload, inputs, seconds, report):
    setup_s = _setup_seconds()
    walls, cpus, times = [], [], []
    failed = 0
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, cpu, cells = _timed_pass(sc, workload, inputs, workload.jobs)
        walls.append(wall)
        cpus.append(cpu)
        times.extend(c.elapsed_ms for c in cells)
        failed += sum(not c.ok for c in cells)
    p97 = _percentile(times, 97)
    report(f"passes {len(walls)}, cells {len(times)}, failed {failed}")
    report("pass walls " + " ".join(f"{w:.3f}" for w in walls))
    report(f"fail_ratio {failed / len(times)} ({failed} of {len(times)} cells)")
    report(f"cell_ms samples {len(times)}, beyond p97 {sum(t > p97 for t in times)}")
    metrics = {
        "setup_s": (setup_s, "s"),
        # Means, not medians: on a shared host the CPU speed can switch
        # between states that last tens of seconds. A run's median then
        # jumps from one state to the other, while the mean moves in
        # proportion to the time spent in each.
        "wall_s": (statistics.mean(walls), "s"),
        "cpu_s": (statistics.mean(cpus), "s"),
        "cell_ms_p50": (_percentile(times, 50), "ms"),
        "cell_ms_p97": (p97, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - failed / len(times), "ratio"),
    }
    return len(times), failed, metrics


def _outcomes(cells):
    return [(c.key, c.outcome) for c in cells]


def _bounds_metrics(walls_and_cells, jobs):
    """Cell overhead, parallel efficiency and critical cell of untraced passes."""
    overhead, efficiency, critical = [], [], []
    for wall, cells in walls_and_cells:
        cell_s = sum(c.elapsed_ms for c in cells) / 1000.0
        overhead.append(wall - cell_s)
        efficiency.append(cell_s / (jobs * wall))
        critical.append(max(c.elapsed_ms for c in cells))
    return statistics.median(overhead), statistics.median(efficiency), statistics.median(critical)


LAYER_TIMES = [
    ("automata.minimize.self_s", "automata.minimize"),
    ("automata.determinize.self_s", "automata.determinize"),
    ("automata.trim.self_s", "automata.trim"),
    ("witnesses.build.self_s", "witnesses.build"),
    ("operations.construct.self_s", "operations.construct"),
    ("algebra.semigroup.self_s", "algebra.semigroup"),
    ("atoms.enumerate.self_s", "atoms.enumerate"),
    ("atoms.atom_dfa.self_s", "atoms.atom_dfa"),
    ("bounds.registry_build.self_s", "bounds.registry_build"),
    ("bounds.sweep.self_s", "bounds.sweep"),
    ("bounds.cell.self_s", "bounds.cell"),
    ("dfafile.render_s", "dfafile.render"),
    ("dfafile.parse_s", "dfafile.parse"),
    ("bench.self_s", "bench.pass"),
]

LAYER_COUNTS = [
    ("automata.minimize.calls", "automata.minimize", "calls"),
    ("automata.minimize.states_in", "automata.minimize", "states_in"),
    ("automata.minimize.states_out", "automata.minimize", "states_out"),
    ("automata.determinize.states_out", "automata.determinize", "states_out"),
    ("witnesses.build.calls", "witnesses.build", "calls"),
    ("algebra.semigroup.elements", "algebra.semigroup", "elements"),
    ("atoms.pair_states", "atoms.pair_states", "count"),
    ("bounds.registry_build.calls", "bounds.registry_build", "calls"),
    ("dfafile.bytes", "dfafile.render", "bytes"),
]


def _traced(sc, workload, inputs, seconds, report):
    """Per-layer metrics: untraced and traced passes, serial, alternating."""
    tracer = spans.Tracer()
    untraced, traced_walls, tables = [], [], []
    attempted = failed = 0
    pairs, budget = MIN_PASSES, seconds
    if workload.jobs > 1:
        # One pass as measured, for the pool's efficiency and critical cell.
        wall, _, cells = _timed_pass(sc, workload, inputs, workload.jobs)
        pool = [(wall, cells)]
        attempted += len(cells)
        failed += sum(not c.ok for c in cells)
        # A serial pass here costs as much as a whole untraced run: one pair.
        pairs, budget = 1, 0
    start = time.perf_counter()
    while len(traced_walls) < pairs or time.perf_counter() - start < budget:
        wall, _, cells = _timed_pass(sc, workload, inputs, 1)
        untraced.append((wall, cells))
        first = len(tracer.spans)
        tracer.install()
        try:
            wall0 = time.perf_counter()
            traced_cells = tracer.run("bench.pass", workload.run, sc, inputs, 1)
            traced_walls.append(time.perf_counter() - wall0)
        finally:
            tracer.uninstall()
        tables.append(spans.summarize(tracer.spans, first))
        tracer.pass_id += 1
        for pass_cells in (cells, traced_cells):
            attempted += len(pass_cells)
            failed += sum(not c.ok for c in pass_cells)
        if _outcomes(traced_cells) != _outcomes(cells):
            report("traced pass gave different rows than the untraced pass")
            failed += 1
    if workload.jobs == 1:
        pool = untraced
        for _, cells in pool[1:]:
            if _outcomes(cells) != _outcomes(pool[0][1]):
                report("untraced passes disagree")
                failed += 1
    elif _outcomes(pool[0][1]) != _outcomes(untraced[0][1]):
        report(f"rows at --jobs {workload.jobs} differ from rows at --jobs 1")
        failed += 1

    counts = [{name: t[span][field] for name, span, field in LAYER_COUNTS} for t in tables]
    if any(c != counts[0] for c in counts[1:]):
        report("counted per-layer metrics differ between traced passes")
        failed += 1

    metrics = {}
    for name, span in LAYER_TIMES:
        metrics[name] = (statistics.median(t[span]["self_s"] for t in tables), "s")
    for name, span, field in LAYER_COUNTS:
        metrics[name] = (int(tables[0][span][field]), "bytes" if field == "bytes" else "count")
    _, efficiency, critical_ms = _bounds_metrics(pool, workload.jobs)
    serial_overhead_s = _bounds_metrics(untraced, 1)[0]
    untraced_wall = statistics.median(w for w, _ in untraced)
    traced_wall = statistics.median(traced_walls)
    self_sum = statistics.median(sum(row["self_s"] for row in t.values()) for t in tables)
    trace_overhead = traced_wall - untraced_wall
    metrics.update(
        {
            "bounds.cell_overhead_s": (serial_overhead_s, "s"),
            "bounds.parallel_efficiency": (efficiency, "ratio"),
            "bounds.critical_cell_ms": (critical_ms, "ms"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (trace_overhead, "s"),
            "trace.self_sum_s": (self_sum, "s"),
        }
    )
    if abs(self_sum - traced_wall) > max(trace_overhead, 0.0) + 1e-3:
        report("per-layer self times do not add up to the traced wall time")
        failed += 1
    report(
        f"passes {len(untraced)} untraced + {len(traced_walls)} traced at --jobs 1"
        + (f", 1 at --jobs {workload.jobs}" if workload.jobs > 1 else "")
        + f"; {len(tracer.spans)} spans"
    )
    out_dir = BENCH / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload.name}.jsonl")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "statecomplexity" / "__init__.py").is_file():
        print(f"error: no statecomplexity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import statecomplexity as sc

    if not Path(sc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported statecomplexity from {sc.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs = workload.plan(args.seed)

    def report(line: str) -> None:
        print(f"[{workload.name} seed={args.seed}] {line}", flush=True)

    report(workload.why)

    measure = _traced if args.trace else _end_to_end
    attempted, failed, metrics = measure(sc, workload, inputs, args.seconds, report)
    for name, (value, unit) in metrics.items():
        report(f"{name:32s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
