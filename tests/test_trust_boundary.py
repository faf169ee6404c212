"""A DFA is checked once, where it enters the library.

`Dfa(...)` in user code and `parse_dfa` check every field; everything
the library derives from checked parts is built by `_unchecked_dfa`.
These tests pin that rule: the library runs no check of its own, every
DFA it builds would pass the public check, and the inputs the derived
builders take themselves (a witness's n, a state number) are still
refused when malformed. The measurement modules also know no witness
class: only the registry states what a witness is expected to give.
"""

from __future__ import annotations

import ast
from pathlib import Path
from string import ascii_lowercase

import pytest

from statecomplexity import (
    DialectSpec,
    Dfa,
    WitnessClass,
    apply_dialect,
    quotient_complexity,
    quotient_complexity_of_state,
    run_sweep,
)
from statecomplexity.automata import restrict_alphabet

from conftest import random_dfa

SOURCES = Path(__file__).resolve().parents[1] / "src" / "statecomplexity"


def rebuilt(d: Dfa) -> Dfa:
    """`d` built again through the public, checked constructor."""
    return Dfa(d.state_count, d.alphabet, d.delta, d.initial, d.finals)


def test_a_cold_default_sweep_checks_no_dfa(dfa_checks):
    rows = run_sweep()
    assert len(rows) == 426
    assert dfa_checks == []


def test_a_warm_default_sweep_checks_no_alphabet(alphabet_checks):
    run_sweep()  # fills the witness cache
    alphabet_checks.clear()
    assert len(run_sweep()) == 426
    assert alphabet_checks == []


def test_derived_dfas_pass_the_public_check(rng):
    for _ in range(500):
        d = random_dfa(rng, max_states=6, letters="abcdef")
        letters = rng.sample("abcdefg", rng.randint(0, 7))
        restricted = restrict_alphabet(d, letters)
        assert rebuilt(restricted) == restricted
        names = rng.sample(ascii_lowercase, rng.randint(0, len(d.alphabet)))
        spec = DialectSpec(tuple(None if rng.random() < 0.3 else a for a in names))
        renamed = apply_dialect(d, spec)
        assert rebuilt(renamed) == renamed
        q = rng.randrange(d.state_count)
        expected = quotient_complexity(Dfa(d.state_count, d.alphabet, d.delta, q, d.finals))
        assert quotient_complexity_of_state(d, q) == expected


@pytest.mark.parametrize("cls", list(WitnessClass), ids=lambda c: c.value)
def test_witnesses_pass_the_public_check(cls):
    for n in range(cls.min_n, 13):
        d = cls.build(n)
        assert rebuilt(d) == d


@pytest.mark.parametrize("cls", list(WitnessClass), ids=lambda c: c.value)
@pytest.mark.parametrize("n", [5.0, True], ids=repr)
def test_witness_size_must_be_an_int(cls, n):
    with pytest.raises(ValueError, match="int n"):
        cls.build(n)


@pytest.mark.parametrize("q", [True, 1.0, -1, 3], ids=repr)
def test_state_of_quotient_complexity_must_be_a_state(q):
    d = WitnessClass.REGULAR.build(3)
    with pytest.raises(ValueError, match="out of range"):
        quotient_complexity_of_state(d, q)


def _checked_builds(tree: ast.AST) -> list[str]:
    """The `Dfa(...)` calls, `dataclasses` imports and record shortcuts in `tree`.

    A record shortcut is a `._replace(...)` or `._make(...)` call: both
    build a namedtuple record without its `__new__`, and so without the
    check that `DialectSpec` runs there.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Dfa":
                found.append(f"line {node.lineno}: Dfa(...)")
            elif name in ("_replace", "_make") and isinstance(f, ast.Attribute):
                found.append(f"line {node.lineno}: {name}(...)")
        elif isinstance(node, ast.Import):
            if any(alias.name == "dataclasses" for alias in node.names):
                found.append(f"line {node.lineno}: import dataclasses")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(f"line {node.lineno}: from dataclasses import ...")
    return found


def test_source_check_finds_each_checked_build():
    source = (
        "from dataclasses import dataclass\n"
        "import os, dataclasses\n"
        "a = Dfa(1, (), (), 0, frozenset())\n"
        "b = automata.Dfa(1, (), (), 0, frozenset())\n"
        "c = spec._replace(targets=('a',))\n"
        "d = DialectSpec._make([('a',)])\n"
        "e = 'x'.replace('x', 'y')\n"
        "f = _make(1)\n"
    )
    assert _checked_builds(ast.parse(source)) == [
        "line 1: from dataclasses import ...",
        "line 2: import dataclasses",
        "line 3: Dfa(...)",
        "line 4: Dfa(...)",
        "line 5: _replace(...)",
        "line 6: _make(...)",
    ]


def test_the_library_builds_no_dfa_through_the_checked_path():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths, SOURCES
    found = [
        f"{path.name} {hit}"
        for path in paths
        for hit in _checked_builds(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == [], (
        "build derived DFAs with automata._unchecked_dfa and records through their constructors"
    )


# The measurement modules, and the modules only the registry side may use.
MEASUREMENT_MODULES = ["automata.py", "operations.py", "algebra.py", "atoms.py", "dfafile.py"]
REGISTRY_MODULES = {"witnesses", "bounds", "cli"}


def _imported_modules(tree: ast.AST) -> list[str]:
    """The last dotted part of every module that `tree` imports.

    A name imported from the package itself (`from . import x`) counts as
    the module x.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "statecomplexity"):
                found += [alias.name for alias in node.names]
            else:
                found.append(node.module.rsplit(".", 1)[-1])
    return found


def test_import_scan_finds_each_form():
    source = (
        "from .witnesses import WitnessClass\n"
        "from . import bounds\n"
        "from statecomplexity.cli import main\n"
        "import statecomplexity.witnesses\n"
        "from .automata import Dfa\n"
    )
    found = _imported_modules(ast.parse(source))
    assert found == ["witnesses", "bounds", "cli", "witnesses", "automata"]


@pytest.mark.parametrize("name", MEASUREMENT_MODULES)
def test_measurement_modules_import_no_registry_module(name):
    path = SOURCES / name
    imported = _imported_modules(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert REGISTRY_MODULES.isdisjoint(imported), imported
