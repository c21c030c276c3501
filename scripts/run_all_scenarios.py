#!/usr/bin/env python3
"""Sweep every builtin algebra through the applicable CLI scenarios and
summarize the results.  Nonzero exit status iff anything failed.

Usage: python3 scripts/run_all_scenarios.py [--truncation W]
"""

import argparse
import sys

from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra
from bardual.cli import SCENARIOS, main as cli_main
from bardual.morita import OrdinaryAlgebra, RefusedInput


def is_ordinary(name):
    try:
        OrdinaryAlgebra(builtin_algebra(name))
    except RefusedInput:
        return False
    return True


def scenario_runs(W):
    """The CLI argument lists of the sweep at truncation W, in run order:
    every scenario but `ext` on every builtin it takes, with the default
    module.  `ext` has no check that can fail; its tables are pinned by
    tests/test_ordinary_reports.py."""
    runs = []
    for name in sorted(BUILTIN_ALGEBRAS):
        for scenario, (_, reads, needs_ordinary) in SCENARIOS.items():
            if scenario == "ext" or needs_ordinary and not is_ordinary(name):
                continue
            argv = [scenario, "--algebra", name]
            if "truncation" in reads:
                argv += ["--truncation", str(W)]
            if "seed" in reads:
                argv += ["--seed", "1"]
            runs.append(argv)
    return runs


def run(argv):
    print("$ bardual " + " ".join(argv))
    code = cli_main(argv)
    print()
    return code


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--truncation", type=int, default=3)
    args = ap.parse_args()

    failures = sum(run(argv) for argv in scenario_runs(args.truncation))
    print(f"total failing scenario runs: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
