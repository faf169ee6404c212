from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from statecomplexity import (
    Dfa,
    atom_dfa,
    atoms,
    automata,
    boolean,
    build_regular,
    parse_dfa,
    render_dfa,
    trim_alphabet,
)
from statecomplexity.bounds import BOOLEAN_BY_NAME
from statecomplexity.cli import main

from conftest import DEFAULT_RANGES, fig_ends_in_b, fig_ends_in_c, golden_within, random_dfa


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_gen_round_trips(tmp_path, capsys):
    out = tmp_path / "w.dfa"
    code, _, _ = run_cli(capsys, "witness", "gen", "regular", "4", "-o", str(out))
    assert code == 0
    assert parse_dfa(out.read_text()) == build_regular(4)


def test_witness_gen_with_dialect_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "witness", "gen", "regular", "3", "--dialect", "a,b,-,c")
    assert code == 0
    assert parse_dfa(stdout).alphabet == ("a", "b", "c")


def test_witness_gen_out_of_range(capsys):
    code, _, stderr = run_cli(capsys, "witness", "gen", "twosided", "4")
    assert code == 2
    assert "n >= 5" in stderr


def test_op_union_on_the_worked_example(tmp_path, capsys):
    lhs = tmp_path / "lhs.dfa"
    rhs = tmp_path / "rhs.dfa"
    lhs.write_text(render_dfa(fig_ends_in_b()))
    rhs.write_text(render_dfa(fig_ends_in_c()))
    emitted = tmp_path / "union.dfa"
    code, stdout, _ = run_cli(
        capsys, "op", "union", str(lhs), str(rhs), "--emit", str(emitted)
    )
    assert code == 0
    assert stdout.strip() == "kappa=6"
    assert parse_dfa(emitted.read_text()).state_count == 6


@pytest.mark.parametrize(
    "emit",
    [
        pytest.param(lambda tmp: str(tmp / "no-such-dir" / "x.dfa"), id="missing-directory"),
        pytest.param(str, id="directory"),
        pytest.param(lambda tmp: "", id="empty"),
    ],
)
def test_op_emit_that_cannot_be_written_prints_no_kappa(tmp_path, capsys, emit):
    lhs = tmp_path / "r3.dfa"
    lhs.write_text(render_dfa(build_regular(3)))
    code, stdout, stderr = run_cli(capsys, "op", "star", str(lhs), "--emit", emit(tmp_path))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1


@pytest.mark.parametrize("name", sorted(BOOLEAN_BY_NAME))
def test_op_offers_every_boolean_operation(tmp_path, capsys, name):
    lhs = tmp_path / "lhs.dfa"
    rhs = tmp_path / "rhs.dfa"
    lhs.write_text(render_dfa(fig_ends_in_b()))
    rhs.write_text(render_dfa(fig_ends_in_c()))
    emitted = tmp_path / "out.dfa"
    code, stdout, _ = run_cli(capsys, "op", name, str(lhs), str(rhs), "--emit", str(emitted))
    expected = boolean(BOOLEAN_BY_NAME[name], fig_ends_in_b(), fig_ends_in_c())
    assert code == 0
    assert stdout.strip() == f"kappa={expected.kappa}"
    assert parse_dfa(emitted.read_text()) == expected.dfa


def test_op_star_and_reverse(tmp_path, capsys):
    path = tmp_path / "w.dfa"
    run_cli(capsys, "witness", "gen", "regular", "4", "--dialect", "a,b", "-o", str(path))
    code, stdout, _ = run_cli(capsys, "op", "star", str(path))
    assert code == 0 and stdout.strip() == "kappa=12"
    path2 = tmp_path / "w3.dfa"
    run_cli(capsys, "witness", "gen", "regular", "3", "--dialect", "a,b,c", "-o", str(path2))
    code, stdout, _ = run_cli(capsys, "op", "reverse", str(path2))
    assert code == 0 and stdout.strip() == "kappa=8"


def test_op_complement_with_universe(tmp_path, capsys):
    path = tmp_path / "astar.dfa"
    path.write_text("states 1\nalphabet a\ninitial 0\nfinal 0\nrow a 0\n")
    code, stdout, _ = run_cli(capsys, "op", "complement", str(path), "--universe", "ab")
    assert code == 0
    assert stdout.strip() == "kappa=2"  # words over {a,b} containing a b


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("union", "w.dfa"), "needs a right operand", id="union-no-rhs"),
        pytest.param(("star", "w.dfa", "w.dfa"), "takes no right operand", id="star-rhs"),
        pytest.param(("reverse", "w.dfa", "w.dfa"), "takes no right operand", id="reverse-rhs"),
        pytest.param(
            ("complement", "w.dfa", "w.dfa"), "takes no right operand", id="complement-rhs"
        ),
        pytest.param(
            ("union", "w.dfa", "w.dfa", "--universe", "xyz"), "--universe", id="union-universe"
        ),
        pytest.param(("star", "w.dfa", "--universe", "xyz"), "--universe", id="star-universe"),
    ],
)
def test_op_missing_rhs_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    """A missing or unusable operand is one `error:` line and exit 2."""
    (tmp_path / "w.dfa").write_text(render_dfa(fig_ends_in_b()))
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, "op", *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1 and message in stderr


def test_measure_quantities(tmp_path, capsys):
    path = tmp_path / "w.dfa"
    run_cli(capsys, "witness", "gen", "regular", "3", "--dialect", "a,b,c", "-o", str(path))
    code, stdout, _ = run_cli(capsys, "measure", "kappa", str(path))
    assert code == 0 and stdout.strip() == "kappa=3"
    code, stdout, _ = run_cli(capsys, "measure", "semigroup", str(path))
    assert code == 0 and stdout.strip() == "semigroup=27"
    code, stdout, _ = run_cli(capsys, "measure", "atoms", str(path))
    assert code == 0 and stdout.strip() == "atoms=8"
    code, stdout, _ = run_cli(capsys, "measure", "atom-complexities", str(path))
    assert code == 0
    assert "S={}: kappa=7" in stdout and "S={0,1,2}: kappa=7" in stdout
    code, stdout, _ = run_cli(capsys, "measure", "quotients", str(path))
    assert code == 0
    assert stdout.count("kappa=3") == 3


def test_measure_quotients_refines_the_file_once(tmp_path, capsys, monkeypatch):
    # The trim refines the parsed witness; each state's quotient then
    # re-roots the minimal DFA without refining it again.
    path = tmp_path / "r12.dfa"
    path.write_text(render_dfa(build_regular(12)))
    refined = []
    real = automata.nerode_classes

    def record(d):
        refined.append(d)
        return real(d)

    monkeypatch.setattr(automata, "nerode_classes", record)
    code, stdout, _ = run_cli(capsys, "measure", "quotients", str(path))
    assert code == 0 and stdout.count("kappa=12") == 12
    assert len(refined) == 1


def test_measure_quotients_refines_once_after_the_trim_drops_a_letter(
    tmp_path, capsys, monkeypatch
):
    # `z` only leads to a new dead state, so the trim drops it and the
    # dead state; the renumbered DFA is still minimal and is not refined
    # again per state.
    witness = build_regular(12)
    dead = witness.state_count
    padded = Dfa(
        dead + 1,
        witness.alphabet + ("z",),
        tuple(row + (dead,) for row in witness.delta) + ((dead,) * (dead + 1),),
        witness.initial,
        witness.finals,
    )
    plain_path, padded_path = tmp_path / "r12.dfa", tmp_path / "r12z.dfa"
    plain_path.write_text(render_dfa(witness))
    padded_path.write_text(render_dfa(padded))
    _, expected, _ = run_cli(capsys, "measure", "quotients", str(plain_path))
    refined = []
    real = automata.nerode_classes

    def record(d):
        refined.append(d)
        return real(d)

    monkeypatch.setattr(automata, "nerode_classes", record)
    code, stdout, _ = run_cli(capsys, "measure", "quotients", str(padded_path))
    assert code == 0 and stdout == expected
    assert len(refined) == 1


def test_measure_atom_complexities_matches_per_profile_atom_dfa(tmp_path, capsys):
    reg4 = tmp_path / "reg4.dfa"
    run_cli(capsys, "witness", "gen", "regular", "4", "--dialect", "a,b,c", "-o", str(reg4))
    rand = tmp_path / "random.dfa"
    rand.write_text(render_dfa(random_dfa(random.Random(9), max_states=6, letters="abc")))
    for path in (reg4, rand):
        minimal = trim_alphabet(parse_dfa(path.read_text()))
        expected = [
            "S={" + ",".join(map(str, sorted(s))) + "}: kappa="
            + str(atom_dfa(minimal, s).state_count)
            for s in atoms(minimal)
        ]
        code, stdout, _ = run_cli(capsys, "measure", "atom-complexities", str(path))
        assert code == 0 and stdout.splitlines() == expected


def test_bad_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.dfa"
    path.write_text("states 2\nalphabet a\ninitial 0\nfinal 1\nrow a 0\n")
    code, _, stderr = run_cli(capsys, "measure", "kappa", str(path))
    assert code == 2 and "line" in stderr


def test_capacity_error_is_exit_3(tmp_path, capsys, monkeypatch):
    from statecomplexity import algebra

    path = tmp_path / "w9.dfa"
    run_cli(capsys, "witness", "gen", "regular", "9", "-o", str(path))
    monkeypatch.setattr(algebra, "MAX_SEMIGROUP_ELEMENTS", 1000)
    code, stdout, stderr = run_cli(capsys, "measure", "semigroup", str(path))
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("error: ") and "1000" in stderr
    assert len(stderr.splitlines()) == 1


def test_semigroup_of_257_states_is_exit_3(tmp_path, capsys):
    # A one-letter cycle with one final state is minimal, so all 257 states
    # reach the closure, which holds at most 256.
    cycle = Dfa(257, ("a",), (tuple((q + 1) % 257 for q in range(257)),), 0, frozenset({0}))
    path = tmp_path / "cycle257.dfa"
    path.write_text(render_dfa(cycle))
    code, stdout, stderr = run_cli(capsys, "measure", "semigroup", str(path))
    assert code == 3
    assert stdout == ""
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1


def test_huge_state_count_needs_no_memory_per_state(tmp_path):
    # A file may declare any number of states; with an empty alphabet only
    # the initial state is reachable, so the measurement must not allocate
    # per declared state. Capping the address space at 1 GiB turns such an
    # allocation into a failure instead of exhausting the machine.
    import resource

    path = tmp_path / "huge.dfa"
    path.write_text("states 100000000000\nalphabet\ninitial 0\nfinal 0\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "statecomplexity", "measure", "kappa", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=cap_memory,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "kappa=1"


def test_memory_error_is_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    import statecomplexity.bounds as reg_mod

    def exhaust(d):
        raise MemoryError

    path = tmp_path / "w.dfa"
    path.write_text(render_dfa(fig_ends_in_b()))
    monkeypatch.setitem(reg_mod.MEASURES, "semigroup", exhaust)
    code, stdout, stderr = run_cli(capsys, "measure", "semigroup", str(path))
    assert code == 3 and stdout == ""
    assert stderr.splitlines() == ["error: out of memory"]


def test_out_of_memory_line_is_printed_once_the_memory_is_released(tmp_path, monkeypatch):
    # The frames of a failed construction hold its memory for as long as the
    # MemoryError is being handled, so the line is written after that.
    import weakref

    import statecomplexity.bounds as reg_mod

    class Hoard:
        pass

    held: list[weakref.ref] = []
    released: list[bool] = []

    def exhaust(d):
        hoard = Hoard()
        held.append(weakref.ref(hoard))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            released.append(held[0]() is None)
            return super().write(text)

    path = tmp_path / "w.dfa"
    path.write_text(render_dfa(fig_ends_in_b()))
    monkeypatch.setitem(reg_mod.MEASURES, "complexity", exhaust)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["measure", "kappa", str(path)]) == 3
    assert sys.stderr.getvalue() == "error: out of memory\n"
    assert released and all(released)


# The address-space cap of the memory-limit tests: enough for the
# interpreter and the package (under 20 MiB), too little for the largest
# constructions of the 14-state regular witness.
MEMORY_CAP_MIB = 96


def run_capped(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh process whose address space is capped."""
    resource = pytest.importorskip("resource")  # POSIX only
    import statecomplexity

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_MIB << 20,) * 2)

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(Path(statecomplexity.__file__).parents[1])),
        preexec_fn=cap_memory,
        timeout=60,
    )


# Fills the address space with ever smaller blocks from inside a measure and
# keeps them in its frame, so the MemoryError reaches `main` with (nearly)
# nothing left to allocate.
HOARD = """
import sys
from statecomplexity import bounds
from statecomplexity.cli import main

def hoard(dfa):
    held, size = None, 1 << 16
    while size:
        try:
            held = (held, bytearray(size))
        except MemoryError:
            size //= 2
    raise MemoryError

bounds.MEASURES["complexity"] = hoard
sys.exit(main(["measure", "kappa", sys.argv[1]]))
"""


def test_running_out_of_memory_is_exit_3_with_one_line_under_a_real_limit(tmp_path):
    (tmp_path / "w.dfa").write_text(render_dfa(fig_ends_in_b()))
    proc = run_capped("-c", HOARD, "w.dfa", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (3, "error: out of memory\n")


@pytest.fixture(scope="module")
def witness_files(tmp_path_factory):
    """The 14-state regular witness, and one over other letters, as files."""
    folder = tmp_path_factory.mktemp("witness14")
    for name, dialect in (("lhs.dfa", ""), ("rhs.dfa", "b,a,-,d")):
        argv = ["witness", "gen", "regular", "14", "--dialect", dialect, "-o", str(folder / name)]
        assert main(argv) == 0
    return folder


@pytest.mark.parametrize(
    "argv",
    [
        *(("measure", quantity, "lhs.dfa") for quantity in
          ("kappa", "semigroup", "atoms", "atom-complexities", "quotients")),
        *(("op", name, "lhs.dfa", "rhs.dfa") for name in ("product", "union")),
        *(("op", name, "lhs.dfa") for name in ("star", "reverse", "complement")),
    ],
    ids=" ".join,
)
def test_every_command_under_a_memory_limit_exits_0_or_3_with_at_most_one_line(
    witness_files, argv
):
    # Under the cap, product, semigroup and atom-complexities run out of
    # memory at this size; each command must still end cleanly.
    proc = run_capped("-m", "statecomplexity", *argv, cwd=witness_files)
    assert proc.returncode in (0, 3), proc.stderr
    assert len(proc.stderr.splitlines()) <= 1, proc.stderr
    if proc.returncode == 3:
        assert proc.stderr.startswith("error: ") and proc.stdout == ""


def test_missing_file_is_exit_2(capsys):
    code, _, stderr = run_cli(capsys, "measure", "kappa", "no-such-file.dfa")
    assert code == 2


@pytest.mark.parametrize(
    "argv", [("measure", "kappa", "{dir}"), ("op", "union", "{dir}", "{dir}")]
)
def test_directory_instead_of_file_is_exit_2(tmp_path, capsys, argv):
    code, stdout, stderr = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1


def test_verify_empty_range_is_exit_2(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "--ids", "REG-KAPPA", "--n", "5..3")
    assert code == 2
    assert stdout == ""
    assert "empty range '5..3'" in stderr


def test_verify_matching_subset_exits_zero(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "--ids", "REG-PROD-U,REG-KAPPA", "--m", "3..4", "--n", "3..4"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "id,m,n,expected,measured,match,elapsed_ms"
    assert any(line.startswith("REG-PROD-U,3,3,28,28,true,") for line in lines)
    assert any(line.startswith("REG-KAPPA,,3,3,3,true,") for line in lines)


def test_verify_mismatch_exits_one(capsys):
    # The two-sided reversal bound is documented above what the witness
    # can reach, so its rows report false and the exit code is 1.
    code, stdout, _ = run_cli(capsys, "verify", "--ids", "TID-REVERSE", "--n", "5..5")
    assert code == 1
    assert "TID-REVERSE,,5,17,9,false," in stdout


def test_verify_markdown_format(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "--ids", "REG-STAR", "--n", "3..4", "--format", "markdown"
    )
    assert code == 0
    assert "## REG-STAR" in stdout


def test_verify_with_jobs(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "--ids", "REG-BOOL-R-INTER", "--m", "3..4", "--n", "3..4", "--jobs", "2"
    )
    assert code == 0
    assert stdout.count("true") == 4


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--ids", "REG-KAPPA", "--n", "3", "--jobs", jobs])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--jobs" in captured.err


def test_verify_unknown_id(capsys):
    code, _, stderr = run_cli(capsys, "verify", "--ids", "BOGUS")
    assert code == 2 and stderr == "error: unknown registry ids: BOGUS\n"


def test_verify_repeated_id(capsys):
    code, stdout, stderr = run_cli(capsys, "verify", "--ids", "REG-KAPPA,REG-KAPPA")
    assert code == 2 and stdout == ""
    assert stderr == "error: repeated registry ids: REG-KAPPA\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        pytest.param(
            ("--m", "1..2", "--n", "1..2"),
            "error: no cell to verify: the ranges lie outside every selected entry",
            id="ranges-below-every-floor",
        ),
        pytest.param(("--ids", ""), "error: --ids '' has an empty id", id="empty-ids"),
        pytest.param(
            ("--ids", "REG-KAPPA,"),
            "error: --ids 'REG-KAPPA,' has an empty id",
            id="trailing-comma",
        ),
    ],
)
def test_verify_that_checks_nothing_is_usage_error(capsys, argv, error):
    """A sweep with no cell is exit 2 and one `error:` line after any notices."""
    code, stdout, stderr = run_cli(capsys, "verify", *argv)
    assert code == 2 and stdout == ""
    lines = stderr.splitlines()
    assert lines[-1] == error
    assert all(line.startswith("notice: ") for line in lines[:-1])


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("op", "complement", "w.dfa", "--universe", ""), "missing letters", id="op-universe"
        ),
        pytest.param(("op", "star", "w.dfa", "--emit", ""), "''", id="op-emit"),
        pytest.param(("verify", "--m", ""), "--m ''", id="verify-m"),
        pytest.param(("verify", "--n", ""), "--n ''", id="verify-n"),
        pytest.param(("verify", "--n", "x"), "--n 'x' is not an int", id="verify-n-not-an-int"),
        pytest.param(("verify", "--n", "3.."), "--n '3..' is not an int", id="verify-n-open-range"),
    ],
)
def test_empty_or_malformed_option_value_is_usage_error(
    tmp_path, capsys, monkeypatch, argv, message
):
    """An empty value is refused, not read as the option left out, and a
    range that is not a number names its option and value."""
    (tmp_path / "w.dfa").write_text(render_dfa(build_regular(3)))
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1 and message in stderr


def test_default_verify_prints_the_golden_grid(capsys):
    code, stdout, stderr = run_cli(capsys, "verify")
    assert code == 1 and stderr == ""
    lines = stdout.splitlines()
    columns = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    assert columns == golden_within(DEFAULT_RANGES)
    false_ids = [line.split(",")[0] for line in lines if line.split(",")[5] == "false"]
    assert len(false_ids) == 8
    assert set(false_ids) <= {"LID-ATOMS", "TID-ATOMS", "TID-ATOM-COUNT", "TID-REVERSE"}


def test_registry_list(capsys):
    code, stdout, _ = run_cli(capsys, "registry", "list")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == len(__import__("statecomplexity").registry())
    assert any(line.startswith("REG-PROD-U") and "m*2^n + 2^(n-1)" in line for line in lines)


def test_registry_list_keeps_every_documented_row(capsys):
    # A documented row is never edited; new rows may be added.
    documented = (Path(__file__).parent / "registry_list.txt").read_text().splitlines()
    _, stdout, _ = run_cli(capsys, "registry", "list")
    listed = set(stdout.splitlines())
    assert [line for line in documented if line not in listed] == []


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["op", "frobnicate", "x.dfa"])
    assert err.value.code == 2


def test_full_pipeline_witness_op_measure(tmp_path, capsys):
    # Generate dialect witnesses, concatenate them, re-measure the emitted
    # result: kappa, semigroup, and atom count must agree with the library.
    lhs = tmp_path / "lhs.dfa"
    rhs = tmp_path / "rhs.dfa"
    out = tmp_path / "prod.dfa"
    run_cli(capsys, "witness", "gen", "regular", "3", "--dialect", "a,b,-,c", "-o", str(lhs))
    run_cli(capsys, "witness", "gen", "regular", "3", "--dialect", "b,a,-,d", "-o", str(rhs))
    code, stdout, _ = run_cli(capsys, "op", "product", str(lhs), str(rhs), "--emit", str(out))
    assert code == 0 and stdout.strip() == "kappa=28"
    code, stdout, _ = run_cli(capsys, "measure", "kappa", str(out))
    assert code == 0 and stdout.strip() == "kappa=28"

    from statecomplexity import atoms, parse_dfa, reverse, trim_alphabet

    emitted = parse_dfa(out.read_text())
    assert emitted.state_count == 28
    code, stdout, _ = run_cli(capsys, "measure", "atoms", str(out))
    assert int(stdout.strip().split("=")[1]) == reverse(trim_alphabet(emitted)).kappa


GOLDEN = Path(__file__).parent / "cli_golden"

# Per witness class at n=5: the dialects of the left and right operands,
# the registry's unrestricted-product dialects, so the alphabets differ.
GOLDEN_OPERANDS = {
    "regular": ("a,b,-,c", "b,a,-,d"),
    "right": ("a,b,-,d,e", "a,b,-,d,c"),
    "left": ("a,b,-,d,e", "a,d,c,-,e"),
    "twosided": ("a,b,-,-,e,f", "a,c,-,-,e,f"),
}


@pytest.mark.parametrize("witness_class", sorted(GOLDEN_OPERANDS))
def test_cli_writes_the_golden_bytes(tmp_path, capsys, dfa_checks, witness_class):
    # tests/cli_golden holds the files these commands wrote before the
    # subset walk and minimize's renumbering were rewritten: the rewrite
    # must not change a byte of the CLI's output.
    def golden(name: str) -> bytes:
        return (GOLDEN / f"{witness_class}-{name}.dfa").read_bytes()

    lhs, rhs = tmp_path / "lhs.dfa", tmp_path / "rhs.dfa"
    for path, dialect in zip((lhs, rhs), GOLDEN_OPERANDS[witness_class]):
        code, _, _ = run_cli(
            capsys, "witness", "gen", witness_class, "5", "--dialect", dialect, "-o", str(path)
        )
        assert code == 0
    assert lhs.read_bytes() == golden("lhs")
    assert rhs.read_bytes() == golden("rhs")
    for name, operands in [
        ("product", [lhs, rhs]),
        ("union", [lhs, rhs]),
        ("star", [lhs]),
        ("reverse", [lhs]),
        ("complement", [lhs, "--universe", "abcdefg"]),
    ]:
        out = tmp_path / f"{name}.dfa"
        code, stdout, _ = run_cli(capsys, "op", name, *map(str, operands), "--emit", str(out))
        expected = golden(name)
        assert code == 0
        assert out.read_bytes() == expected, name
        assert stdout == f"kappa={int(expected.split()[1])}\n"
    assert dfa_checks == []  # each file is checked by `parse_dfa`, nothing twice


@pytest.mark.parametrize("name", ["regular", "right", "left", "twosided", "random"])
def test_measure_writes_the_golden_bytes(tmp_path, capsys, dfa_checks, name):
    # measure-NAME.txt holds what `measure atoms`, `measure
    # atom-complexities` and `measure semigroup` printed, in that order, on
    # the default witness at n=6 or on random-7.dfa, a seeded random
    # 7-state DFA over three letters, before the atom and semigroup paths
    # were rewritten: the rewrite must not change a byte of that output.
    if name == "random":
        path = GOLDEN / "random-7.dfa"
    else:
        path = tmp_path / "witness.dfa"
        code, _, _ = run_cli(capsys, "witness", "gen", name, "6", "-o", str(path))
        assert code == 0
    stdout = ""
    for quantity in ("atoms", "atom-complexities", "semigroup"):
        code, out, _ = run_cli(capsys, "measure", quantity, str(path))
        assert code == 0
        stdout += out
    assert stdout.encode() == (GOLDEN / f"measure-{name}.txt").read_bytes()
    assert dfa_checks == []


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "statecomplexity", "witness", "gen", "regular", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("states 3")


@pytest.mark.skipif(os.name != "posix", reason="a closed pipe raises EPIPE on POSIX")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [("registry", "list"), ("verify", "--ids", "REG-KAPPA")], ids=" ".join
)
def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr(argv, buffered):
    # The reader of stdout has gone before the run starts, so the first
    # write fails (unbuffered) or the flush after the command (buffered).
    # Either way the run ends as a writer killed by SIGPIPE is reported,
    # 128 + 13, and the interpreter's exit flush prints nothing.
    import statecomplexity

    env = dict(os.environ, PYTHONPATH=str(Path(statecomplexity.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "statecomplexity", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_a_byte_order_mark_before_a_dfa_file_is_ignored(tmp_path, capsys):
    # An operand saved with a UTF-8 byte-order mark reads as the plain file.
    def with_bom(name):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / name).read_bytes())
        return str(path)

    plain = [str(GOLDEN / name) for name in ("regular-lhs.dfa", "regular-rhs.dfa")]
    marked = [with_bom(name) for name in ("regular-lhs.dfa", "regular-rhs.dfa")]
    outputs = []
    for lhs, rhs in (plain, marked):
        emitted = tmp_path / "product.dfa"
        runs = [
            run_cli(capsys, "measure", "kappa", lhs),
            run_cli(capsys, "measure", "quotients", rhs),
            run_cli(capsys, "op", "product", lhs, rhs, "--emit", str(emitted)),
            run_cli(capsys, "op", "star", rhs),
        ]
        outputs.append((runs, emitted.read_bytes()))
    assert outputs[0] == outputs[1]
    assert all(code == 0 for code, _, _ in outputs[0][0])
    assert outputs[0][1] == (GOLDEN / "regular-product.dfa").read_bytes()
