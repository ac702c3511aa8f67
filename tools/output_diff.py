"""Column-level difference between the CSVs of two checkouts.

Runs the desk-scale cases of ``tools/output_digest.py``, the failing ones
included, with this checkout's ``src/`` and with the one of PARENT_CHECKOUT,
each checkout in its own subprocess (the two run side by side, one sweep
worker each), checks every exit code against the case's, and prints,
for every column of every CSV, the maximum relative difference
|a - b| / max(|a|, |b|) and the maximum absolute difference |a - b| over the
rows:

    python3 tools/output_diff.py ../parent

A column whose cells are equal as text prints 0; a non-numeric cell that
differs prints ``differs``.  The two sides take about 8 minutes on a 2-core
machine.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from output_digest import CASES, ROOT

# Runs in the subprocess: argv = checkout root, output directory, JSON cases.
RUNNER = """
import json, sys
from pathlib import Path
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))
from sav_nls import cli
for name, expected, command, config, *flags in json.loads(sys.argv[3]):
    code = cli.main([command, "--config", str(root / config),
                     "--out-dir", str(out / name), *flags])
    if code != expected:
        sys.exit(f"{name} exited with {code}, expected {expected}")
"""


def run_cases(roots, out_dirs):
    env = dict(os.environ, SAV_NLS_THREADS="1")
    procs = [subprocess.Popen([sys.executable, "-c", RUNNER, str(root), str(out),
                               json.dumps(CASES)], env=env)
             for root, out in zip(roots, out_dirs)]
    for root, proc in zip(roots, procs):
        if proc.wait() != 0:
            sys.exit(f"the cases failed in {root}")


def _difference(a, b):
    """(relative, absolute) difference of two cells; None if they differ as text."""
    if a == b:
        return 0.0, 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) and math.isnan(y):
        return 0.0, 0.0
    return abs(x - y) / max(abs(x), abs(y)), abs(x - y)


def column_differences(old_path, new_path):
    """[(column, (max relative, max absolute difference), or None for a text difference)]."""
    with open(old_path, newline="") as fh:
        old = list(csv.reader(fh))
    with open(new_path, newline="") as fh:
        new = list(csv.reader(fh))
    if old[0] != new[0] or len(old) != len(new):
        raise SystemExit(f"{new_path}: header or row count differs from the parent")
    out = []
    for col, name in enumerate(new[0]):
        diffs = [_difference(a[col], b[col]) for a, b in zip(old[1:], new[1:])]
        out.append((name, None if None in diffs else
                    tuple(max(d) for d in zip((0.0, 0.0), *diffs))))
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/output_diff.py PARENT_CHECKOUT")
    parent = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        outs = (Path(tmp) / "parent", Path(tmp) / "change")
        run_cases((parent, ROOT), outs)
        for old_csv in sorted(outs[0].glob("*/*.csv")):
            rel = old_csv.relative_to(outs[0])
            new_csv = outs[1] / rel
            same = old_csv.read_bytes() == new_csv.read_bytes()
            print(f"{rel}: {'identical bytes' if same else 'differs'}")
            print(f"  {'column':22s} {'max rel':>10s} {'max abs':>10s}")
            for name, diff in column_differences(old_csv, new_csv):
                cells = "differs" if diff is None else f"{diff[0]:10.3e} {diff[1]:10.3e}"
                print(f"  {name:22s} {cells}")


if __name__ == "__main__":
    main()
