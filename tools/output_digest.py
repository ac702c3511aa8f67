"""SHA-256 of every CSV that the desk-scale command-line cases write.

Runs each case in-process through ``sav_nls.cli.main`` from this checkout's
``src/``, checks its exit code and prints one ``<sha256>  <case>/<file>`` line
per CSV.  The two ``power_law`` runs pin a non-cubic power law and the
``q < 3`` branch of the nonlinearity, the ``k1`` and ``k4`` runs the
nonlinear solve at one and at four stages, the ``p4`` run the quartic
space with its 7-point error rule, and the ``nq4`` run a non-default
4-point quadrature of the nonlinearity.  The last four cases are runs that
fail (exit 3), a sweep whose every entry fails, and a ``--check`` run whose
mass drift exceeds its bound (exit 3, converged but not conserving), so the
CSVs of failed runs are pinned too.  Two checkouts give the same output
bytes exactly when the printed lines are the same, so comparing two commits
is one ``diff`` of this script's output:

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

# (output directory name, expected exit code, command, config, *flags)
CASES = (
    ("run:soliton_conservation", 0, "run", "configs/soliton_conservation.cfg"),
    ("run:soliton_long", 0, "run", "perfbench/cases/soliton_long.cfg", "--T", "0.2"),
    ("run:planewave_linear", 0, "run", "perfbench/cases/planewave_linear.cfg", "--T", "0.01"),
    ("run:power_law_q5", 0, "run", "configs/soliton_conservation.cfg",
     "--q", "5", "--kappa", "1"),
    ("run:power_law_q2_dirichlet", 0, "run", "configs/soliton_conservation.cfg",
     "--q", "2", "--kappa", "-1", "--bc", "dirichlet"),
    ("run:k1", 0, "run", "configs/soliton_conservation.cfg", "--k", "1", "--T", "1"),
    ("run:k4_p2_dirichlet", 0, "run", "configs/soliton_conservation.cfg",
     "--k", "4", "--p", "2", "--bc", "dirichlet", "--T", "1"),
    ("run:p4", 0, "run", "configs/soliton_conservation.cfg", "--p", "4", "--T", "1"),
    ("run:nq4", 0, "run", "configs/soliton_conservation.cfg", "--nq", "4"),
    ("sweep-time:time_sweep_k2", 0, "sweep-time", "configs/time_sweep_k2.cfg"),
    ("sweep-time:time_sweep_k3", 0, "sweep-time", "configs/time_sweep_k3.cfg"),
    ("sweep-space:space_sweep_p1", 0, "sweep-space", "configs/space_sweep_p1.cfg"),
    ("sweep-space:space_sweep_p2", 0, "sweep-space", "configs/space_sweep_p2.cfg"),
    ("sweep-space:space_sweep_p3", 0, "sweep-space", "configs/space_sweep_p3.cfg"),
    ("run:r_init_fails", 3, "run", "configs/soliton_conservation.cfg",
     "--kappa", "-100", "--T", "0.2"),
    ("run:newton_fails", 3, "run", "configs/soliton_conservation.cfg",
     "--T", "0.4", "--max-newton-iters", "2"),
    ("sweep-time:newton_fails", 0, "sweep-time", "configs/time_sweep_k2.cfg",
     "--max-newton-iters", "1"),
    ("run:check_fails", 3, "run", "configs/soliton_conservation.cfg",
     "--T", "0.4", "--newton-tol", "1e-2", "--check"),
)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, expected, command, config, *flags in CASES:
            out = Path(tmp) / name
            code = cli.main([command, "--config", str(ROOT / config),
                             "--out-dir", str(out), *flags])
            if code != expected:
                sys.exit(f"{name} exited with {code}, expected {expected}")
            for csv in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{csv.name}", flush=True)


if __name__ == "__main__":
    main()
