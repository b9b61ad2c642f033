"""Command-line front end.

Subcommands: `verify` runs registered inequality checks and emits a JSON
report, `reproduce-example` recomputes the exact sharpness fixture, and
`list-checks` prints the registry. Exit codes: 0 success, 1 violations or
fixture mismatch, 2 configuration or IO errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import OpDivError, UnknownCheck
from .funcatalog import from_spec
from .hermitian import ToleranceConfig
from .lab import GenConfig, check_description, check_ids, reproduce_example, run_suite


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it, and each `main` call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="opdiv",
        description="Verify operator perspective and matrix divergence inequalities "
        "on exact fixtures and randomized instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a suite of inequality checks")
    verify.add_argument(
        "--suite",
        default="all",
        help="comma-separated check ids, or 'all' (default)",
    )
    verify.add_argument("--dim", type=int, default=3, help="matrix dimension (2..8)")
    verify.add_argument("--trials", type=int, default=100, help="trials per check")
    verify.add_argument("--seed", type=int, default=42, help="master RNG seed")
    verify.add_argument("--tol-abs", type=float, default=1e-8, help="absolute tolerance")
    verify.add_argument("--tol-rel", type=float, default=1e-8, help="relative tolerance")
    verify.add_argument("--out", default=None, help="write the JSON report to this path")
    verify.add_argument(
        "--function",
        default=None,
        help='function spec JSON, e.g. \'{"id": "power", "params": [2]}\'; '
        "substitutes the sampled function in generic checks",
    )

    repro = sub.add_parser(
        "reproduce-example", help="recompute the exact sharpness fixture"
    )
    repro.add_argument("--json", action="store_true", help="machine-readable output")

    sub.add_parser("list-checks", help="list registered check ids")
    return parser


def cmd_verify(args) -> int:
    try:
        if args.suite.strip() == "all":
            ids = check_ids()
        else:
            ids = [s.strip() for s in args.suite.split(",") if s.strip()]
            if not ids:
                raise UnknownCheck(f"--suite {args.suite!r} names no check")
        function = None
        if args.function is not None:
            function = from_spec(json.loads(args.function))
        gen = GenConfig(dim=args.dim, seed=args.seed, trials=args.trials)
        tol = ToleranceConfig(abs=args.tol_abs, rel=args.tol_rel)
        report = run_suite(ids, gen, tol, function)
    except (OpDivError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report.to_json_dict(), indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if report.total_violations == 0 else 1


def cmd_reproduce_example(args, perturbation: float = 0.0) -> int:
    result = reproduce_example(perturbation)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
        return 0 if result.ok else 1
    for label, got, want, dev in zip(
        result.labels, result.computed, result.expected, result.max_devs
    ):
        print(f"{label}:")
        got_rows = np.asarray(got.entries.real, dtype=float)
        want_rows = np.asarray(want.entries.real, dtype=float)
        for crow, erow in zip(got_rows, want_rows):
            comp = " ".join(f"{v:9.5f}" for v in crow)
            expd = " ".join(f"{v:9.5f}" for v in erow)
            print(f"  computed [{comp}]   expected [{expd}]")
        print(f"  max abs deviation: {dev:.3e}")
    print("strict chain gaps (smallest eigenvalue of each step):")
    for i, gap in enumerate(result.gaps, start=1):
        print(f"  step {i}: {gap:.6f}")
    print("ok" if result.ok else "MISMATCH")
    return 0 if result.ok else 1


def cmd_list_checks() -> int:
    for cid in check_ids():
        print(f"{cid:16s} {check_description(cid)}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "reproduce-example":
        return cmd_reproduce_example(args)
    return cmd_list_checks()


if __name__ == "__main__":
    raise SystemExit(main())
