"""Command-line front end for the solver.

Five subcommands, all reading the ``.slp`` problem format:

``solve FILE``
    Decide the problem; print ``sat``, ``unsat``,
    ``unsat-within-bounds int-bound=N``, or ``resource-limit``.
``check FILE``
    Print ``straight-line`` or the reason the problem is not.
``dimension FILE``
    Print the split dimension (an integer).
``oracle FILE``
    Brute-force the problem within given bounds; print ``sat`` or
    ``exhausted``.
``bench NAME``
    Solve one of the bundled web-sanitizer benchmarks by name.

Exit codes: 0 satisfiable (or a successful check/dimension report),
1 unsatisfiable, 2 usage, parse, or fragment errors, 3 bound-limited
negatives (``unsat-within-bounds``, ``resource-limit``, oracle
``exhausted``), 4 internal errors (any other exception, reported as
``internal error: <type>: <message>`` on stderr), so that a crash never
reads as ``unsat``.

Output is byte-stable for fixed inputs and flags: model strings are
quoted with backslash escapes for ``"`` and ``\\`` only (alphabets are
printable by construction), statistics are deterministic counters
printed as sorted ``key=value`` lines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .constraints import Problem
from .oracle import OracleConfig, brute_force_solve
from .parser import ParseError, parse_problem, quote_word
from .solver import Verdict, solve
from .straightline import NotStraightLine, check_straightline, dimension
from .websec import benchmark_names, load_benchmark


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slsolve",
        description="Satisfiability solver for straight-line string constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--int-bound",
            type=int,
            metavar="N",
            default=None,
            help="cap on integer search (default derived from machine sizes)",
        )
        p.add_argument(
            "--resource-limit",
            type=int,
            metavar="N",
            default=2_000_000,
            help=(
                "work budget: one unit per cut or boundary placement, per walk "
                "state found and per free-integer combination an acceptance "
                "check tries; a sharing-free string-only problem, solved by "
                "forward ranges, is charged one unit per state of each range "
                "product it builds; reading a model through a transducer "
                "costs one unit per product state the search visits; a charge "
                "that needs more than is left spends the budget "
                "(budget-left=-1 in the --stats of an extension problem)"
            ),
        )
        p.add_argument(
            "--model", action="store_true", help="print the satisfying assignment"
        )
        p.add_argument(
            "--stats", action="store_true", help="print search counters"
        )

    p_solve = sub.add_parser("solve", help="decide a problem file")
    p_solve.add_argument("file")
    add_solver_flags(p_solve)

    p_check = sub.add_parser("check", help="report straight-line conformance")
    p_check.add_argument("file")

    p_dim = sub.add_parser("dimension", help="report the split dimension")
    p_dim.add_argument("file")
    p_dim.add_argument(
        "--count-constants",
        action="store_true",
        help="count splits of constant-defined variables too",
    )

    p_oracle = sub.add_parser("oracle", help="brute-force within bounds")
    p_oracle.add_argument("file")
    p_oracle.add_argument(
        "--max-len", type=int, metavar="L", default=4, help="string length bound"
    )
    p_oracle.add_argument(
        "--max-int", type=int, metavar="N", default=4, help="integer value bound"
    )
    p_oracle.add_argument(
        "--model", action="store_true", help="print the satisfying assignment"
    )

    p_bench = sub.add_parser("bench", help="solve a bundled benchmark")
    p_bench.add_argument("name")
    add_solver_flags(p_bench)

    return parser


def _read_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _model_lines(problem: Problem, model: dict) -> list[str]:
    lines = []
    for var in problem.str_vars:
        lines.append(f"model {var} = {quote_word(model[var])}")
    for var in problem.int_vars:
        lines.append(f"model {var} = {model[var]}")
    return lines


def _report(
    problem: Problem, verdict: Verdict, emit_model: bool, stats: Optional[dict]
) -> int:
    if verdict.status == "sat":
        print("sat")
        if emit_model:
            assert verdict.model is not None
            for line in _model_lines(problem, verdict.model):
                print(line)
        code = 0
    elif verdict.status == "unsat":
        print("unsat")
        code = 1
    elif verdict.status == "unsat-within-bounds":
        print(f"unsat-within-bounds int-bound={verdict.int_bound}")
        code = 3
    else:
        print("resource-limit")
        code = 3
    if stats is not None:
        for key in sorted(stats):
            print(f"{key}={stats[key]}")
    return code


def _cmd_solve(args: argparse.Namespace, problem: Problem) -> int:
    stats: Optional[dict] = {} if args.stats else None
    verdict = solve(
        problem,
        int_bound=args.int_bound,
        resource_limit=args.resource_limit,
        stats=stats,
    )
    return _report(problem, verdict, args.model, stats)


def _cmd_check(problem: Problem) -> int:
    try:
        check_straightline(problem)
    except NotStraightLine as exc:
        print(str(exc))
        return 2
    print("straight-line")
    return 0


def _cmd_dimension(args: argparse.Namespace, problem: Problem) -> int:
    print(dimension(problem, count_constants=args.count_constants))
    return 0


def _cmd_oracle(args: argparse.Namespace, problem: Problem) -> int:
    config = OracleConfig(max_len=args.max_len, max_int=args.max_int)
    model = brute_force_solve(problem, config)
    if model is None:
        print("exhausted")
        return 3
    print("sat")
    if args.model:
        for line in _model_lines(problem, model):
            print(line)
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one command line; never raises on bad input.

    Only ``KeyboardInterrupt`` and ``SystemExit`` escape: any other
    exception is a fault of the solver, and returns 4.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "bench":
            try:
                case = load_benchmark(args.name)
            except KeyError:
                names = " ".join(benchmark_names())
                print(
                    f"unknown benchmark {args.name!r} (available: {names})",
                    file=sys.stderr,
                )
                return 2
            return _cmd_solve(args, case.problem)

        try:
            problem = _read_problem(args.file)
        except OSError as exc:
            print(f"{args.file}: {exc.strerror}", file=sys.stderr)
            return 2
        except ParseError as exc:
            line = exc.line_no if exc.line_no is not None else 0
            message = str(exc)
            prefix = f"line {line}: "
            if message.startswith(prefix):
                message = message[len(prefix) :]
            print(f"{args.file}:{line}:1: error: {message}", file=sys.stderr)
            return 2

        if args.command == "solve":
            return _cmd_solve(args, problem)
        if args.command == "check":
            return _cmd_check(problem)
        if args.command == "dimension":
            return _cmd_dimension(args, problem)
        assert args.command == "oracle"
        return _cmd_oracle(args, problem)
    except NotStraightLine as exc:
        print(f"not straight-line: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
