#!/usr/bin/env python3
"""Sweep every builtin algebra through the applicable CLI scenarios and
summarize the results.  Nonzero exit status iff anything failed.

Usage: python3 scripts/run_all_scenarios.py [--truncation W]
"""

import argparse
import sys

from bardual.catalog import BUILTIN_ALGEBRAS
from bardual.cli import main as cli_main

ORDINARY = ("k", "kxk", "dual_numbers", "upper_tri_2", "mat2")


def scenario_runs(W):
    """The CLI argument lists of the sweep at truncation W, in run order."""
    W = str(W)
    runs = []
    for name in sorted(BUILTIN_ALGEBRAS):
        runs.append(["verify", "--algebra", name])
        runs.append(["hochschild", "--algebra", name, "--truncation", W])
        if name in ORDINARY:
            runs.append(["simples", "--algebra", name])
            runs.append(["morita", "--algebra", name, "--seed", "1"])
            if name != "mat2":
                runs.append(["koszul-check", "--algebra", name,
                             "--truncation", W])
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
