"""SHA-256 of every CSV that the desk-scale command-line cases write.

Runs each case in-process through ``sav_nls.cli.main`` from this checkout's
``src/`` and prints one ``<sha256>  <case>/<file>`` line per CSV.  Two
checkouts give the same output bytes exactly when the printed lines are the
same, so comparing two commits is one ``diff`` of this script's output:

    python3 tools/output_digest.py > new.txt
    (cd ../parent && python3 tools/output_digest.py) > old.txt
    diff old.txt new.txt

The two sweep-time cases take a few minutes on a 2-core machine.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sav_nls import cli  # noqa: E402

CASES = (
    ("run", "configs/soliton_conservation.cfg"),
    ("run", "perfbench/cases/soliton_long.cfg", "--T", "0.2"),
    ("run", "perfbench/cases/planewave_linear.cfg", "--T", "0.01"),
    ("sweep-time", "configs/time_sweep_k2.cfg"),
    ("sweep-time", "configs/time_sweep_k3.cfg"),
    ("sweep-space", "configs/space_sweep_p1.cfg"),
    ("sweep-space", "configs/space_sweep_p2.cfg"),
    ("sweep-space", "configs/space_sweep_p3.cfg"),
)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for command, config, *flags in CASES:
            name = f"{command}:{Path(config).stem}"
            out = Path(tmp) / name
            code = cli.main([command, "--config", str(ROOT / config),
                             "--out-dir", str(out), *flags])
            if code != cli.EXIT_OK:
                sys.exit(f"{name} exited with {code}")
            for csv in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{csv.name}", flush=True)


if __name__ == "__main__":
    main()
