#!/usr/bin/env python3
"""Self-test of tools/same_outputs.py on tiny damlab-bench-v1 documents.

Usage: python3 tests/tools/same_outputs_test.py tools/same_outputs.py

Runs the script on pairs of documents and checks its exit code and the
JSON path it reports. Exits 0 when every case passes.
"""

import json
import os
import subprocess
import sys
import tempfile


def document(**point):
    sweep = {"scenario": "fig9", "wall_seconds": 1.5, "runs": 3,
             "points": [{"alive": 1, **point}]}
    return {"schema": "damlab-bench-v1", "sweeps": [sweep]}


def run(script, a, b, directory):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    done = subprocess.run([sys.executable, script, *paths],
                          capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main():
    script = sys.argv[1]
    timing_only = document(count=2)
    timing_only["sweeps"][0]["wall_seconds"] = 9.25
    cases = [
        # (name, a, b, expected exit code, path the report must name)
        ("timing-only difference", document(count=2), timing_only, 0, None),
        ("nested deterministic field",
         document(groups=[{"intra_sent": {"mean": 4}}]),
         document(groups=[{"intra_sent": {"mean": 5}}]), 1,
         "$.sweeps[0].points[0].groups[0].intra_sent.mean"),
        ("list length", document(series=[1, 2, 0]), document(series=[1, 2]),
         1, "$.sweeps[0].points[0].series[2]"),
        ("bool vs int", document(flag=True), document(flag=1), 1,
         "$.sweeps[0].points[0].flag"),
        ("int vs float", document(count=3), document(count=3.0), 1,
         "$.sweeps[0].points[0].count"),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, a, b, expected_code, expected_path in cases:
            code, output = run(script, a, b, directory)
            ok = code == expected_code and (
                expected_path is None or f"differ at {expected_path}\n"
                in output)
            if not ok:
                failures += 1
                print(f"FAIL {name}: exit {code}, output: {output.strip()}")
            else:
                print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
