#!/usr/bin/env python3
"""Checks that two damlab-bench-v1 documents report the same results.

Usage:

    python3 tools/same_outputs.py A.json B.json [--ignore KEY ...]

Engine-time fields of each sweep (TIMING_KEYS) vary from run to run and are
dropped before the comparison; --ignore drops further sweep keys, such as
the knob whose independence is being asserted (jobs, threads). Everything
else must match exactly. Exits 1 and prints the first JSON path that
differs, or prints "same outputs" and exits 0.
"""

import argparse
import json
import sys

TIMING_KEYS = ("wall_seconds", "table_build_seconds", "dissemination_seconds",
               "runs_per_sec", "events_per_sec")


def strip(document, ignored):
    sweeps = [{k: v for k, v in sweep.items() if k not in ignored}
              for sweep in document["sweeps"]]
    return {**document, "sweeps": sweeps}


def first_difference(a, b, path="$"):
    """The path of the first value that differs, or None."""
    if a == b:
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return f"{path}[{min(len(a), len(b))}]"
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--ignore", nargs="*", default=[], metavar="KEY",
                        help="further sweep keys to drop")
    args = parser.parse_args()
    ignored = set(TIMING_KEYS) | set(args.ignore)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = strip(json.load(fa), ignored), strip(json.load(fb), ignored)
    path = first_difference(a, b)
    if path is not None:
        print(f"{args.a} and {args.b} differ at {path}", file=sys.stderr)
        return 1
    print(f"same outputs: {args.a} {args.b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
