"""Span recording around the library's module boundaries, from outside it.

`Tracer.install()` replaces each traced function, wherever a module of the
package holds it (the defining module, every module that imported it by
name, and the package namespace), with a wrapper that records a span:
name, start, end, the index of the enclosing span, and a few counts read
from the arguments and the result. `uninstall()` puts the originals back,
so untraced passes run the library unchanged. Spans stay in memory until
`write()`.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the durations of the
top-level spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _minimize_counts(args, result):
    return {"states_in": args[0].state_count, "states_out": result.state_count}


def _states_out(args, result):
    return {"states_out": result.state_count}


def _elements(args, result):
    return {"elements": len(result)}


def _text_bytes(args, result):
    return {"bytes": len(result)}


def _parsed_bytes(args, result):
    return {"bytes": len(args[0])}


PACKAGE = "statecomplexity"

# (span name, defining module, function name, counts). The module names
# are relative to the package.
TRACED_FUNCTIONS = [
    ("automata.minimize", "automata", "minimize", _minimize_counts),
    ("automata.determinize", "automata", "determinize", _states_out),
    ("automata.trim", "automata", "language_alphabet", None),
    ("automata.trim", "automata", "restrict_alphabet", None),
    ("witnesses.build", "witnesses", "parse_dialect", None),
    ("witnesses.build", "witnesses", "apply_dialect", None),
    ("operations.construct", "operations", "product", None),
    ("operations.construct", "operations", "boolean", None),
    ("operations.construct", "operations", "star", None),
    ("operations.construct", "operations", "reverse", None),
    ("algebra.semigroup", "algebra", "transition_semigroup", _elements),
    ("atoms.enumerate", "atoms", "atoms", None),
    ("atoms.atom_dfa", "atoms", "atom_dfa", None),
    ("bounds.registry_build", "bounds", "registry_by_id", None),
    ("bounds.sweep", "bounds", "run_sweep", None),
    ("bounds.cell", "bounds", "evaluate_cell", None),
    ("dfafile.render", "dfafile", "render_dfa", _text_bytes),
    ("dfafile.parse", "dfafile", "parse_dfa", _parsed_bytes),
]

# Methods are patched on their class: (span name, module, class, method).
TRACED_METHODS = [
    ("witnesses.build", "witnesses", "WitnessClass", "build"),
]


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [pass, name, start, end, parent, counts]
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [self.pass_id, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counts is not None:
                record[5] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run(self, name, fn, *args):
        """Call fn(*args) inside a span of the benchmark's own."""
        return self._wrap(name, fn, None)(*args)

    def _modules(self):
        return [
            module
            for key, module in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for name, module_name, attr, counts in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, module_name, class_name, method in TRACED_METHODS:
            owner = getattr(sys.modules[f"{PACKAGE}.{module_name}"], class_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, self._wrap(name, original, None))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line: id, pass, name, times, parent, counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (pass_id, name, start, end, parent, counts) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "pass": pass_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            **(counts or {}),
                        }
                    )
                    + "\n"
                )


def summarize(spans: list[list], first: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time and summed counts of spans[first:].

    Also returns, under "atoms.pair_states", the states of every pair
    automaton, read as the input size of each minimize that atom_dfa calls.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    pair_states = 0
    for index in range(first, len(spans)):
        _, name, start, end, parent, counts = spans[index]
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        for key, value in (counts or {}).items():
            row[key] += value
        if name == "automata.minimize" and parent >= 0 and spans[parent][1] == "atoms.atom_dfa":
            pair_states += counts["states_in"]
    table["atoms.pair_states"]["count"] = pair_states
    return table
