"""Command-line interface: solve, verify, reference, and benchmark subcommands.

Exit codes: 0 on success, 2 when a solver or a verification check failed,
3 on configuration errors, command-line usage errors included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .accelerated import ParameterError
from .harness import (
    ReferenceNotConvergedError,
    RunConfigError,
    load_config,
    run_benchmark,
    run_reference,
    run_solve,
    run_verify,
    validate_suite,
)

EXIT_OK = 0
EXIT_FAILURE = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """Exits `EXIT_CONFIG` on a usage error, where argparse exits 2, the
    solver-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the problem seed")
    # each command takes only the flags it acts on: a flag it would ignore
    # is a usage error
    if command == "benchmark":
        parser.add_argument("--jobs", type=int, default=1, help="parallel benchmark cells")
    if command in ("solve", "benchmark"):
        parser.add_argument(
            "--strict",
            action="store_true",
            help="turn parameter precondition violations into hard errors",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qscnewton",
        description="Newton solvers with gradient regularization for "
        "quasi-self-concordant composite problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("solve", "run a solver and write trace + report"),
        ("verify", "run the oracle verification suite on an instance"),
        ("reference", "compute and cache a high-accuracy reference solution"),
        ("benchmark", "run an instances x solvers grid and write a table"),
    ):
        _add_common(sub.add_parser(name, help=doc), name)
    return parser


def _apply_seed(config: dict, seed: int | None) -> dict:
    if seed is None:
        return config
    config = json.loads(json.dumps(config))
    if "problem" in config:
        config["problem"]["seed"] = seed
    if "problems" in config:
        for problem in config["problems"]:
            problem["seed"] = seed
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "benchmark":
            with open(args.config, "r", encoding="utf-8") as handle:
                suite = json.load(handle)
            validate_suite(suite)  # before the seed goes into its problems
            suite = _apply_seed(suite, args.seed)
            outcome = run_benchmark(suite, args.out, jobs=args.jobs, strict=args.strict)
            print(
                f"benchmark: {outcome['completed']}/{outcome['cells']} cells reported",
                file=sys.stderr,
            )
            return EXIT_OK if outcome["all_reported"] else EXIT_FAILURE

        config = _apply_seed(load_config(args.config), args.seed)
        if args.command == "solve":
            report = run_solve(config, args.out, strict=args.strict)
            print(
                f"solve: status={report['status']} iterations={report['iterations']}",
                file=sys.stderr,
            )
            return EXIT_OK if report["success"] else EXIT_FAILURE
        if args.command == "verify":
            report = run_verify(config, args.out)
            if report["all_passed"]:
                print("verify: all checks passed", file=sys.stderr)
                return EXIT_OK
            for name in report["failing"]:
                detail = report["checks"][name]
                print(f"verify: FAILED {name}: {detail}", file=sys.stderr)
            return EXIT_FAILURE
        if args.command == "reference":
            report = run_reference(config, args.out)
            print(
                f"reference: F*={report['f_star']:.12g} "
                f"(grad norm {report['grad_norm']:.2e}, cached={report['from_cache']})",
                file=sys.stderr,
            )
            return EXIT_OK
    except RunConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReferenceNotConvergedError, ParameterError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_CONFIG  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
