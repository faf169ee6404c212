"""Command-line front end.

Subcommands:

    witness gen <regular|right|left|twosided> <n> [--dialect SPEC] [-o FILE]
    op <product|union|symdiff|diff|revdiff|inter|nor|nand|xnor|impl|convimpl
        |star|reverse|complement> LHS.dfa [RHS.dfa] [--universe LETTERS] [--emit FILE]
    measure <kappa|semigroup|atoms|atom-complexities|quotients> FILE.dfa
    verify [--ids ID,ID,...] [--m A..B] [--n A..B]
           [--format csv|markdown] [--jobs K]
    registry list

Exit codes: 0 on success (and when every verified row matches), 1 when a
verification row mismatches, 2 on usage errors, unreadable files or
file-parse errors, 3 when a construction exceeds its state or element
budget (CapacityError).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .algebra import syntactic_semigroup_size
from .atoms import atom_complexities, atoms
from .automata import (
    CapacityError,
    Dfa,
    quotient_complexity,
    quotient_complexity_of_state,
    trim_alphabet,
)
from .dfafile import parse_dfa, render_dfa
from .operations import boolean, complement, product, reverse, star
from .bounds import BOOLEAN_BY_NAME, WitnessRecipe, all_match, emit_report, registry, run_sweep
from .witnesses import WitnessClass

_BINARY_OPS = ("product", *BOOLEAN_BY_NAME)
_OP_NAMES = (*_BINARY_OPS, "star", "reverse", "complement")


def _load_dfa(path: str) -> Dfa:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dfa(handle.read())


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_witness(args: argparse.Namespace) -> int:
    d = WitnessRecipe(WitnessClass(args.witness_class), args.dialect).build(args.n)
    _write_text(args.output, render_dfa(d))
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    lhs = _load_dfa(args.lhs)
    name = args.op_name
    if name in _BINARY_OPS:
        if args.rhs is None:
            raise UsageError(f"operation {name!r} needs a right operand file")
        rhs = _load_dfa(args.rhs)
        if name == "product":
            result = product(lhs, rhs)
        else:
            result = boolean(BOOLEAN_BY_NAME[name], lhs, rhs)
    elif name == "star":
        result = star(lhs)
    elif name == "reverse":
        result = reverse(lhs)
    else:  # complement
        universe = tuple(args.universe) if args.universe else lhs.alphabet
        result = complement(lhs, universe)
    print(f"kappa={result.kappa}")
    if args.emit:
        _write_text(args.emit, render_dfa(result.dfa))
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    d = _load_dfa(args.dfa_file)
    what = args.quantity
    if what == "kappa":
        print(f"kappa={quotient_complexity(d)}")
        return 0
    if what == "semigroup":
        print(f"semigroup={syntactic_semigroup_size(d)}")
        return 0
    minimal = trim_alphabet(d)
    if what == "quotients":
        for q in range(minimal.state_count):
            print(f"state {q}: kappa={quotient_complexity_of_state(minimal, q)}")
        return 0
    if what == "atoms":
        print(f"atoms={len(atoms(minimal))}")
        return 0
    # atom-complexities: one line per realized profile of the minimal DFA
    for s, kappa in atom_complexities(minimal).items():
        label = "{" + ",".join(str(q) for q in sorted(s)) + "}"
        print(f"S={label}: kappa={kappa}")
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        return lo, hi
    value = int(text)
    return value, value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _cmd_verify(args: argparse.Namespace) -> int:
    ids = args.ids.split(",") if args.ids else None
    m_range = _parse_range(args.m) if args.m else None
    n_range = _parse_range(args.n) if args.n else None
    rows = run_sweep(ids=ids, m_range=m_range, n_range=n_range, jobs=args.jobs)
    sys.stdout.write(emit_report(rows, args.format))
    for row in rows:
        if row.error:
            print(f"error in {row.entry_id} (m={row.m}, n={row.n}): {row.error}", file=sys.stderr)
    return 0 if all_match(rows) else 1


def _cmd_registry(args: argparse.Namespace) -> int:
    for entry in registry():
        if entry.is_binary:
            recipe = f"{entry.lhs} {entry.operation} {entry.rhs}"
        else:
            recipe = f"{entry.operation} {entry.lhs}"
        print(f"{entry.entry_id:24s} {recipe:64s} = {entry.formula_text}")
    return 0


class UsageError(Exception):
    """Usage error detected after argparse; exits with status 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecomplexity",
        description="Measure quotient complexity of operations on regular and ideal languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witness = sub.add_parser("witness", help="generate witness DFAs")
    witness_sub = witness.add_subparsers(dest="witness_command", required=True)
    gen = witness_sub.add_parser("gen", help="write a witness DFA file")
    gen.add_argument("witness_class", choices=sorted(c.value for c in WitnessClass))
    gen.add_argument("n", type=int)
    gen.add_argument("--dialect", default="", help='partial permutation such as "a,b,-,c"')
    gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    gen.set_defaults(handler=_cmd_witness)

    op = sub.add_parser("op", help="apply an operation to DFA files")
    op.add_argument("op_name", choices=_OP_NAMES)
    op.add_argument("lhs", metavar="LHS.dfa")
    op.add_argument("rhs", metavar="RHS.dfa", nargs="?", default=None)
    op.add_argument("--universe", default=None, help="universe letters for complement, e.g. abc")
    op.add_argument("--emit", default=None, help="write the result DFA to this file")
    op.set_defaults(handler=_cmd_op)

    measure = sub.add_parser("measure", help="measure a quantity of a DFA file")
    measure.add_argument(
        "quantity",
        choices=("kappa", "semigroup", "atoms", "atom-complexities", "quotients"),
    )
    measure.add_argument("dfa_file", metavar="FILE.dfa")
    measure.set_defaults(handler=_cmd_measure)

    verify = sub.add_parser("verify", help="sweep registered bounds and report")
    verify.add_argument("--ids", default=None, help="comma-separated registry ids")
    verify.add_argument("--m", default=None, help="range A..B for the left parameter")
    verify.add_argument("--n", default=None, help="range A..B for the right parameter")
    verify.add_argument("--format", choices=("csv", "markdown"), default="csv")
    verify.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (K >= 1)")
    verify.set_defaults(handler=_cmd_verify)

    reg = sub.add_parser("registry", help="inspect the bound registry")
    reg_sub = reg.add_subparsers(dest="registry_command", required=True)
    lst = reg_sub.add_parser("list", help="list all registered bounds")
    lst.set_defaults(handler=_cmd_registry)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyError as exc:  # str() of a KeyError quotes its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
