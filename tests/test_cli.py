"""The command-line front end: output bytes and exit codes.

Everything runs through :func:`slsolve.cli.run` in-process with
``capsys``, so the assertions cover exactly what a shell user sees.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_forward import spliced_chain

import slsolve
from slsolve.cli import main, run

SQUARE_UNSAT = """\
alphabet "ab"
str y x
x = y . y
regc (and (in y /a*|b*/) (in x /ab/))
"""

CHAR_SAT = """\
alphabet "ab"
str x
int u
regc (in x /ab/)
charc (= x[u] 'b')
"""

CYCLE = """\
alphabet "ab"
str x y
x = y
y = identity(x)
"""

UNBOUNDED = """\
alphabet "ab"
int u
intc (<= (* -1 u) -9)
"""


@pytest.fixture
def slp(tmp_path):
    def write(text: str, name: str = "problem.slp") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_solve_sat_prints_sat_and_exits_zero(slp, capsys):
    assert run(["solve", slp(CHAR_SAT)]) == 0
    assert capsys.readouterr().out == "sat\n"


def test_solve_model_lines_follow_declaration_order(slp, capsys):
    assert run(["solve", slp(CHAR_SAT), "--model"]) == 0
    assert capsys.readouterr().out == 'sat\nmodel x = "ab"\nmodel u = 2\n'


def test_solve_unsat_prints_unsat_and_exits_one(slp, capsys):
    assert run(["solve", slp(SQUARE_UNSAT)]) == 1
    assert capsys.readouterr().out == "unsat\n"


def test_solve_within_bounds_reports_the_bound(slp, capsys):
    assert run(["solve", slp(UNBOUNDED), "--int-bound", "8"]) == 3
    assert capsys.readouterr().out == "unsat-within-bounds int-bound=8\n"


def test_solve_resource_limit(slp, capsys):
    path = slp(
        'alphabet "ab"\nstr y x\nint u\nx = y . y\n'
        'u = indexof("b", x, first)\nintc (<= (* -1 u) -3)\n'
    )
    assert run(["solve", path, "--resource-limit", "20"]) == 3
    assert capsys.readouterr().out == "resource-limit\n"


def test_string_only_solve_stops_at_the_resource_limit(slp, capsys):
    path = slp(
        'alphabet "ab"\nstr x0 x1 x2\nx1 = x0 . x0\nx2 = x1 . x1\n'
        "regc (in x2 /a(ba)*/)\n"
    )
    assert run(["solve", path, "--resource-limit", "2", "--stats"]) == 3
    assert capsys.readouterr().out == (
        "resource-limit\ncut-placements=3\nfeasible-forests=0\nforests=0\n"
        "membership-branches=1\n"
    )


def test_solve_stats_are_sorted_key_value_lines(slp, capsys):
    assert run(["solve", slp(SQUARE_UNSAT), "--stats"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "unsat"
    stats = lines[1:]
    assert stats == sorted(stats)
    assert all("=" in line for line in stats)
    assert any(line.startswith("membership-branches=") for line in stats)


def test_model_quoting_escapes_quote_and_backslash(slp, capsys):
    path = slp('alphabet "\\"\\\\a"\nstr x\nregc (in x /"\\\\/)\n')
    assert run(["solve", path, "--model"]) == 0
    assert capsys.readouterr().out == 'sat\nmodel x = "\\"\\\\"\n'


def test_output_is_byte_stable_across_runs(slp, capsys):
    path = slp(CHAR_SAT)
    run(["solve", path, "--model", "--stats"])
    first = capsys.readouterr()
    run(["solve", path, "--model", "--stats"])
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err == second.err == ""
    lines = first.out.splitlines()
    assert "walks=1" in lines and "scenarios-refuted=0" in lines


def test_solve_long_spliced_chain(slp, capsys):
    assert run(["solve", slp(spliced_chain(2_000))]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sat"


# ---------------------------------------------------------------------------
# check / dimension / oracle


def test_check_straightline(slp, capsys):
    assert run(["check", slp(SQUARE_UNSAT)]) == 0
    assert capsys.readouterr().out == "straight-line\n"


def test_check_reports_the_cycle(slp, capsys):
    assert run(["check", slp(CYCLE)]) == 2
    out = capsys.readouterr().out
    assert "cycle" in out and "x -> y -> x" in out


def test_dimension_prints_the_number(slp, capsys):
    assert run(["dimension", slp(SQUARE_UNSAT)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_dimension_count_constants_flag(slp, capsys):
    path = slp('alphabet "ab"\nstr y x\nx = y . "ab" . y\n')
    run(["dimension", path])
    assert capsys.readouterr().out == "2\n"
    run(["dimension", path, "--count-constants"])
    assert capsys.readouterr().out == "3\n"


def test_dimension_counts_a_variable_free_equation_as_a_source(slp, capsys):
    path = slp('alphabet "ab"\nstr x y\nx = "ab"\ny = x . x\n')
    assert run(["dimension", path]) == 0
    assert capsys.readouterr().out == "2\n"
    assert run(["dimension", path, "--count-constants"]) == 0
    assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "--int-bound", "-1"], "int_bound must be at least 0"),
        (["solve", "--resource-limit", "-1"], "resource_limit must be at least 0"),
        (["oracle", "--max-len", "-1"], "max_len must be at least 0"),
        (["oracle", "--max-int", "-1"], "max_int must be at least 0"),
    ],
    ids=["int-bound", "resource-limit", "max-len", "max-int"],
)
def test_negative_bounds_exit_two(slp, capsys, args, message):
    assert run([args[0], slp(CHAR_SAT), *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}, not -1\n"


def test_oracle_sat_with_model(slp, capsys):
    assert run(["oracle", slp(CHAR_SAT), "--model"]) == 0
    assert capsys.readouterr().out == 'sat\nmodel x = "ab"\nmodel u = 2\n'


def test_oracle_exhausted_exit_code(slp, capsys):
    path = slp('alphabet "ab"\nstr x\nregc (in x /aaaaa/)\n')
    assert run(["oracle", path, "--max-len", "4"]) == 3
    assert capsys.readouterr().out == "exhausted\n"
    assert run(["oracle", path, "--max-len", "5"]) == 0


# ---------------------------------------------------------------------------
# bench


def test_bench_solves_by_name(capsys):
    assert run(["bench", "ex_corrected"]) == 1
    assert capsys.readouterr().out == "unsat\n"


def test_bench_model_replays_an_attack(capsys):
    assert run(["bench", "ex_cacm", "--model"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert any(line.startswith("model cat = ") for line in lines)
    assert any(line.startswith("model ci = ") for line in lines)


def test_bench_stops_at_the_resource_limit(capsys):
    assert run(["bench", "ex_cacm", "--resource-limit", "1", "--stats"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "resource-limit"
    assert "cut-placements=2" in lines


@pytest.mark.parametrize(
    "name, limit, reached",
    [("ex_cacm", 112, "feasible-forests=1"), ("ex_iframe", 1218, "ranges=4")],
)
def test_bench_stops_inside_the_extraction_search(capsys, name, limit, reached):
    """One unit short of the model, each path stops in its last search:
    ``ex_cacm`` on the cut path, ``ex_iframe`` on the forward path."""
    assert run(["bench", name, "--resource-limit", str(limit), "--stats"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "resource-limit"
    assert reached in lines
    assert run(["bench", name, "--resource-limit", str(limit + 1)]) == 0


def test_bench_unknown_name(capsys):
    assert run(["bench", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown benchmark 'nope'" in captured.err
    assert "ex_cacm" in captured.err


# ---------------------------------------------------------------------------
# Errors


def test_parse_error_location_format(slp, capsys):
    path = slp('alphabet "ab"\nstr x\nx = )oops\n', name="bad.slp")
    assert run(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:3:1: error: ")
    assert "cannot parse right-hand side" in captured.err


def test_oversized_integer_literal_is_a_parse_error(slp, capsys):
    path = slp('alphabet "ab"\nstr x\nintc (<= (len x) ' + "9" * 5_000 + ")\n")
    assert run(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:3:1: error: bad integer literal 999")


def test_character_outside_the_alphabet_is_a_parse_error(slp, capsys):
    path = slp('alphabet "ab"\nstr x\ncharc (= x[1] \'c\')\n')
    assert run(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:3:1: error: character 'c' not in alphabet\n"


def test_double_definition_through_a_literal_fails_cleanly(slp, capsys):
    path = slp('alphabet "ab"\nstr y x\nx = "a"\nx = y . "b"\n')
    assert run(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "not straight-line: variable 'x' has more than one defining equation\n"
    )


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    path = str(tmp_path / "absent.slp")
    assert run(["solve", path]) == 2
    err = capsys.readouterr().err
    assert path in err and "No such file" in err


def test_solving_outside_the_fragment_fails_cleanly(slp, capsys):
    assert run(["solve", slp(CYCLE)]) == 2
    err = capsys.readouterr().err
    assert err == "not straight-line: definitions form a cycle: x -> y -> x\n"


def test_internal_error_exits_four_not_the_unsat_code(slp, monkeypatch, capsys):
    """A fault inside the solver is reported as such, never as ``unsat``."""

    def broken(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("slsolve.cli.solve", broken)
    for argv in (["solve", slp(CHAR_SAT)], ["bench", "ex_cacm"]):
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["solve"]) == 2
    assert run(["solve", "--bogus-flag", "x.slp"]) == 2
    capsys.readouterr()  # argparse noise, not part of the contract


def test_main_uses_process_argv(slp, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["slsolve", "dimension", slp(SQUARE_UNSAT)])
    assert main() == 0
    assert capsys.readouterr().out == "2\n"


def test_too_deeply_nested_file_is_a_parse_error(slp):
    depth = 10_000
    tree = "(not " * depth + "(in x /a/)" + ")" * depth
    path = slp('alphabet "ab"\nstr x\nregc ' + tree + "\n")
    src = Path(slsolve.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "slsolve.cli", "solve", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"{path}:3:1: error: regc constraint nested too deeply\n"
