from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


_SPANS = _load_spans()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for _, module, attr, _ in _SPANS.TRACED_FUNCTIONS],
    ids=lambda value: value,
)
def test_benchmark_traced_function_exists(module, attr):
    # bench/spans.py patches these by name; a missing one crashes --trace 1.
    holder = importlib.import_module(f"{_SPANS.PACKAGE}.{module}")
    assert callable(getattr(holder, attr))


@pytest.mark.parametrize(
    "module, cls, method",
    [(module, cls, method) for _, module, cls, method in _SPANS.TRACED_METHODS],
    ids=lambda value: value,
)
def test_benchmark_traced_method_exists(module, cls, method):
    holder = importlib.import_module(f"{_SPANS.PACKAGE}.{module}")
    assert callable(getattr(getattr(holder, cls), method))


def test_benchmark_tracer_counts_the_traced_results():
    # bench/spans.py reads its counts off the traced calls' results, and no
    # benchmark workload calls transition_semigroup. Calls go through the
    # package namespace, which install() patches.
    import statecomplexity

    tracer = _SPANS.Tracer()
    tracer.install()
    try:
        d = statecomplexity.build_regular(4)
        closure = statecomplexity.transition_semigroup(d)
        statecomplexity.atom_dfa(d, statecomplexity.atoms(d)[0])
    finally:
        tracer.uninstall()
    table = _SPANS.summarize(tracer.spans, 0)
    assert table["algebra.semigroup"]["elements"] == len(closure) == 4**4
    for name in ("algebra.semigroup", "atoms.enumerate", "atoms.atom_dfa"):
        assert table[name]["calls"] == 1, name


def test_readme_library_examples_print_their_comments():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library in one look", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed += out.getvalue().split()
    assert printed == ["28", "16", "2"]
