"""Record the accuracy reference the benchmark checks every run against.

    python3 perfbench/calibrate.py [--seeds 7]

For each workload it integrates seeds 0 .. N-1 (seed 0 is the configured
case; the others translate it by x0 in [-1, 1] and rotate its phase) and
writes to ``perfbench/reference.json``:

* ``linf_h1_error_seed0``: seed 0's L-inf(0,T;H1) error to 4 significant
  digits, which a run at seed 0 must reproduce;
* ``linf_h1_error_band``: the range over the seeds, widened by ``MARGIN``
  on each side, which a run at any seed must stay inside.

Rerun it only when the program's accuracy is meant to change.
"""

import argparse
import json
from dataclasses import replace

import run

MARGIN = 0.01


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=7)
    args = parser.parse_args(argv)
    reference = {}
    for name, case in run.WORKLOADS.items():
        case = replace(case, check_reference=False)
        errors = []
        for seed in range(args.seeds):
            result = run.integrate_case(case, seed)
            if result.failures:
                raise SystemExit(f"{name} seed {seed}: {result.failures}")
            errors.append(result.linf_h1)
            print(name, seed, f"{result.linf_h1:.6e}", flush=True)
        reference[name] = {
            "linf_h1_error_seed0": f"{errors[0]:.3e}",
            "linf_h1_error_band": [min(errors) * (1 - MARGIN), max(errors) * (1 + MARGIN)],
            "seeds": args.seeds,
        }
    with open(run.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
