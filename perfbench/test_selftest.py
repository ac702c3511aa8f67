"""Fast self-test of the benchmark: tiny variants of every workload.

    python3 -m pytest -q perfbench

Each workload runs at a tiny size through the untraced and the traced mode;
the result line must carry exactly the metrics BENCHMARK.json names, each
with its unit and a finite value, and every output check must pass.
"""

import json
import math
from dataclasses import replace

import pytest

import run

TINY = {
    "soliton_fine": {"M": "200", "T": "1/10"},
    "soliton_long": {"M": "40", "T": "1/20"},
    "planewave_linear": {"M": "50", "T": "1/400"},
}

with open(run.ROOT / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_emits_every_metric(workload, trace):
    case = replace(run.WORKLOADS[workload], overrides=TINY[workload],
                   check_reference=False)
    result, report, tracers = run.measure(case, seed=7, seconds=0, trace=trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["attempted"] == (2 if trace else 1) and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert len(tracers) == (1 if trace else 0)
    json.dumps(result)
    json.dumps(report)


def test_linear_workload_never_enters_the_newton_layers():
    case = replace(run.WORKLOADS["planewave_linear"], overrides=TINY["planewave_linear"],
                   check_reference=False)
    result, _, _ = run.measure(case, seed=7, seconds=0, trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["stepper.newton_iters"] == 0
    assert metrics["fem.scatter_matrix.calls"] == 0
    assert metrics["linsolve.factor.calls"] == 1


def test_seed_zero_is_the_configured_case():
    cfg = run.cli.parse_config(run.WORKLOADS["soliton_fine"].config_path)
    prob, _ = run.seeded_problem(cfg, 0)
    base, _ = run.cli.build_problem(cfg)
    assert prob.u0(0.3) == base.u0(0.3)
    shifted, _ = run.seeded_problem(cfg, 1)
    assert shifted.u0(0.3) != base.u0(0.3)
    assert abs(shifted.exact(0.3, 0.0) - shifted.u0(0.3)) < 1e-15
