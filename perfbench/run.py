"""sav-nls benchmark: fixed slab-solve workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload soliton_fine --seed 1 --seconds 30 --trace 0

The solver is imported from the checkout's own ``src/`` and runs in this one
process, on one thread (BLAS pinned to 1 thread before numpy loads).  Each
integration goes through the library API the ``sav-nls`` CLI uses:
``cli.parse_config`` reads the case file, the benchmark builds the seeded
``problems.Problem``, then ``fem.build_space`` and ``stepper.integrate`` run
with the CLI's own observers.  Every integration's output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced integrations and prints the per-layer metrics, taken
from spans recorded around the stepper's calls into each layer (see
``tracing.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
JSON report with the environment, sample counts and check results, also
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import scipy

    import sav_nls
    from sav_nls import cli, problems
    from sav_nls.diagnostics import (InternalMassObserver, RunRecorder,
                                     TrajectoryErrorObserver,
                                     internal_mass_check, mass, sav_energy)
    from sav_nls.errors import InputError, ModelError, SolverError, StepError
    from sav_nls.fem import build_space
    from sav_nls.linsolve import RESIDUAL_TOL
    from sav_nls.stepper import StepperConfig, integrate, num_slabs
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the solver from {SRC}: {exc}")
if Path(sav_nls.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: sav_nls was imported from {sav_nls.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracing  # noqa: E402  (needs sav_nls on the path)

SOLVER_ERRORS = (StepError, SolverError, ModelError, InputError)
SETUP_REPS = 7                   # set-up-only integrations (T = 0) per untraced run
SLAB_ATTRIBUTION_TOL = 0.01      # unattributed share of a slab's wall, plus ...
SLAB_ATTRIBUTION_SLACK_NS = 200_000  # ... this absolute slack per slab
REFERENCE_FILE = BENCH_DIR / "reference.json"
# Layers the linear (kappa = 0) path must never call.
NONLINEAR_LAYERS = ("stepper.newton_step", "linsolve.solve_bordered",
                    "fem.scatter_matrix", "fem.scatter_vector", "model.g_derivatives")


@dataclass(frozen=True)
class Case:
    """A workload: a config file, the observers the CLI would attach, overrides."""

    name: str
    config: str
    observers: str               # "sweep" (one sweep entry) or "run" (sav-nls run)
    overrides: dict = field(default_factory=dict)
    check_reference: bool = True

    @property
    def config_path(self):
        return str(BENCH_DIR / "cases" / self.config)


WORKLOADS = {
    "soliton_fine": Case("soliton_fine", "soliton_fine.cfg", "sweep"),
    "soliton_long": Case("soliton_long", "soliton_long.cfg", "run"),
    "planewave_linear": Case("planewave_linear", "planewave_linear.cfg", "run"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "slab_ms_p50": "ms",
                    "slab_ms_p90": "ms", "peak_rss_mb": "MB",
                    "linf_h1_error": "H1"}


def seeded_problem(cfg, seed):
    """The config's problem translated by x0 in [-1, 1] and rotated by a phase.

    Seed 0 is the configured case itself (x0 = 0, no phase), so its error
    can be compared with ``sav-nls run`` on the same config.
    """
    base, nl = cli.build_problem(cfg)
    if seed == 0:
        x0, phase = 0.0, 1.0
    else:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 1.0)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

    def u0(x):
        return phase * base.u0(x - x0)

    def exact(x, t):
        return phase * base.exact(x - x0, t)

    def exact_grad(x, t):
        return phase * base.exact_grad(x - x0, t)

    prob = problems.Problem(name=base.name, a=base.a, b=base.b, kappa=base.kappa,
                            q=base.q, u0=u0, exact=exact, exact_grad=exact_grad)
    return prob, nl


def cli_observers(kind, prob):
    """The observers ``sav-nls sweep-*`` ("sweep") or ``sav-nls run`` attach."""
    if kind == "sweep":
        return [TrajectoryErrorObserver(prob.exact, prob.exact_grad)]
    return [RunRecorder(exact=prob.exact, exact_grad=prob.exact_grad),
            InternalMassObserver()]


def linf_h1_error(kind, observers):
    if kind == "sweep":
        return observers[0].linf_h1
    return max(r.h1_error for r in observers[0].records)


class Clock:
    """Observer that notes when set-up and each slab end.

    Placed first, its ``start`` ends set-up.  Placed last (with a probe),
    each ``after_slab`` ends a slab (solve plus every observer) and then
    samples the speed probe; the next slab is timed from the end of the
    probe.  It also switches the tracer's root spans.
    """

    def __init__(self, tracer, probe=None, num_slabs=0):
        self.slab_ns = []
        self.started = None
        self._tracer = tracer
        self._probe = probe
        self._num_slabs = num_slabs
        self._resumed = None

    def start(self, state0, asm, scheme, nl):
        self.started = self._resumed = perf_counter_ns()
        if self._probe is None:
            self._tracer.root("start")
        elif self._num_slabs:
            self._tracer.root("slab", 1)

    def after_slab(self, n, prev_state, new_state, report):
        if self._probe is None:
            return
        self.slab_ns.append(perf_counter_ns() - self._resumed)
        self._tracer.root("probe")
        self._probe.sample()
        self._resumed = perf_counter_ns()
        if n < self._num_slabs:
            self._tracer.root("slab", n + 1)
        else:
            self._tracer.root("finish")


@dataclass
class Integration:
    """Raw timings, speed factors, output checks and trace of one integration.

    ``factors[0]`` scales set-up and ``factors[n]`` slab n (see ``speed``).
    """

    setup_ns: int
    start_ns: int
    factors: list
    slab_ns: list = field(default_factory=list)
    linf_h1: float = None
    retained_mb: float = 0.0
    failures: list = field(default_factory=list)
    tracer: object = None

    def setup_time(self, scaled=True):
        """Config in hand to the first observer start (ns)."""
        return self.setup_ns * (self.factors[0] if scaled else 1.0)

    def slab_times(self, scaled=True):
        factors = self.factors[1:] if scaled else [1.0] * len(self.slab_ns)
        return [ns * f for ns, f in zip(self.slab_ns, factors)]

    def wall_time(self, scaled=True):
        """Config in hand to the last slab observed, without probe samples (ns)."""
        return (self.start_ns * (self.factors[0] if scaled else 1.0)
                + sum(self.slab_times(scaled)))


def integrate_case(case, seed, tracer=None, setup_only=False):
    """One integration of ``case`` (or only its set-up, with T = 0)."""
    tracer = tracer or tracing.NullTracer()
    probe = speed.SpeedProbe()
    gc.collect()
    for _ in range(speed.PRE_SAMPLES):
        probe.sample()
    t0 = perf_counter_ns()
    tracer.root("setup")
    with tracer.span("cli.parse_config"):
        cfg = cli.parse_config(case.config_path, case.overrides)
    prob, nl = seeded_problem(cfg, seed)
    with tracer.span("fem.build_space"):
        space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    T = 0.0 if setup_only else cfg.T
    head = Clock(tracer)
    tail = Clock(tracer, probe, num_slabs(T, cfg.tau))
    observers = cli_observers(case.observers, prob)
    step_cfg = StepperConfig(tau=cfg.tau, k=cfg.k, newton_tol=cfg.newton_tol,
                             max_newton_iters=cfg.max_newton_iters)
    with tracer.patched():
        try:
            summary = integrate(prob.u0, step_cfg, space, nl, T,
                                observers=(head, *map(tracer.observer, observers), tail),
                                nq=cfg.nq or None)
        finally:
            tracer.end()
    setup_factor, slab_factors = probe.factors()
    run = Integration(setup_ns=head.started - t0, start_ns=tail.started - t0,
                      factors=[setup_factor, *slab_factors], slab_ns=tail.slab_ns,
                      tracer=tracer)
    if setup_only:
        return run
    run.linf_h1 = linf_h1_error(case.observers, observers)
    run.retained_mb = retained_mb(summary)
    run.failures = check_outputs(case, seed, summary, run, nl)
    return run


def retained_mb(summary):
    """Bytes the returned TrajectorySummary keeps: states plus stage values."""
    total = sum(s.u.nbytes for s in summary.states)
    total += sum(r.stages.u_stages.nbytes + r.stages.r_stages.nbytes
                 for r in summary.reports if r.stages is not None)
    return total / 2 ** 20


def load_reference(name):
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[name]


def check_outputs(case, seed, summary, run, nl):
    """Conservation, stage-mass, accuracy and (traced) layer checks; failures."""
    failures = []
    asm, scheme = summary.assemblies, summary.scheme
    if summary.num_slabs != len(summary.reports) or len(run.slab_ns) != summary.num_slabs:
        failures.append("slab count mismatch")
    masses = np.array([mass(asm, s.u) for s in summary.states])
    energies = np.array([sav_energy(asm, s) for s in summary.states])
    mass_drift = float(np.max(np.abs(masses - masses[0])))
    energy_drift = float(np.max(np.abs(energies - energies[0])))
    if not mass_drift <= cli.MASS_DRIFT_REL * abs(masses[0]):
        failures.append(f"mass drift {mass_drift:.3e}")
    if not energy_drift <= cli.SAV_ENERGY_DRIFT_ABS:
        failures.append(f"SAV energy drift {energy_drift:.3e}")
    for n, report in enumerate(summary.reports, start=1):
        _, ok = internal_mass_check(asm, report.stages.u_stages, scheme.rule.weights,
                                    masses[0])
        if not ok:
            failures.append(f"internal-stage mass bound broken on slab {n}")
            break
    if case.check_reference:
        ref = load_reference(case.name)
        if seed == 0 and f"{run.linf_h1:.3e}" != ref["linf_h1_error_seed0"]:
            failures.append(f"linf_h1_error {run.linf_h1:.4e} != reference "
                            f"{ref['linf_h1_error_seed0']} at seed 0")
        lo, hi = ref["linf_h1_error_band"]
        if not lo <= run.linf_h1 <= hi:
            failures.append(f"linf_h1_error {run.linf_h1:.4e} outside [{lo:.4e}, {hi:.4e}]")
    if isinstance(run.tracer, tracing.Tracer):
        failures += check_trace(run, summary, nl)
    return failures


def check_trace(run, summary, nl):
    """Span bookkeeping and the layer facts the trace can confirm."""
    failures = []
    tracer = run.tracer
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    if min(selfs) < 0:
        failures.append("a span is shorter than its children")
    for span, own in zip(spans, selfs):
        name, start, end, _, slab = span
        if name == "slab" and own > SLAB_ATTRIBUTION_TOL * (end - start) + SLAB_ATTRIBUTION_SLACK_NS:
            failures.append(f"slab {slab}: {own / 1e6:.3f} ms of {(end - start) / 1e6:.3f} ms "
                            "not attributed to any layer")
            break
    if tracer.residual_max > RESIDUAL_TOL:
        failures.append(f"bordered residual {tracer.residual_max:.3e}")
    totals = tracing.layer_totals(spans, run.factors)
    if nl.is_linear:
        called = [name for name in NONLINEAR_LAYERS if totals.get(name, [0])[0]]
        if called:
            failures.append(f"linear path called {called}")
    elif totals["stepper.newton_step"][0] != sum(r.iterations for r in summary.reports):
        failures.append("newton_step spans disagree with StepReport.iterations")
    return failures


def measure(case, seed, seconds, trace):
    """Integrate ``case`` until ``seconds`` are used.

    Returns (result, report, tracers): the result line, the report and the
    tracers of the traced integrations.
    """
    deadline = perf_counter_ns() + seconds * 1e9
    setups, untraced, traced, errors = [], [], [], []
    if not trace:
        setups = [integrate_case(case, seed, setup_only=True) for _ in range(SETUP_REPS)]
    # A traced run pairs each traced integration with an untraced one, so the
    # tracing overhead is measured in the same process.
    modes = (False, True) if trace else (False,)
    while True:
        began = perf_counter_ns()
        for traced_mode in modes:
            try:
                run = integrate_case(case, seed, tracing.Tracer() if traced_mode else None)
            except SOLVER_ERRORS as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            (traced if traced_mode else untraced).append(run)
        now = perf_counter_ns()
        if now + (now - began) > deadline:
            break

    runs = untraced + traced
    failures = errors + [f for r in runs for f in r.failures]
    attempted = len(runs) + len(errors)
    failed = len(errors) + sum(1 for r in runs if r.failures)
    if not untraced or (trace and not traced):
        raise SystemExit(f"perfbench: no integration of {case.name} completed: {errors[:3]}")
    if trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, setups)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {
        "workload": case.name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "environment": environment(seed),
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "samples": {"untraced_integrations": len(untraced),
                    "traced_integrations": len(traced),
                    "slabs_per_integration": len(untraced[0].slab_ns),
                    "setup_samples": len(setups) + len(untraced)},
        "speed_factor_median": _median([f for r in setups + runs for f in r.factors]),
        "raw": end_to_end_metrics(untraced, setups, scaled=False),
        "metrics": metrics,
    }
    return result, report, [r.tracer for r in traced]


def _median(values):
    return float(statistics.median(values))


def end_to_end_metrics(runs, setups, scaled=True):
    """End-to-end metrics at reference speed (``scaled``) or as timed."""
    slabs = [ns for r in runs for ns in r.slab_times(scaled)]
    values = {
        "wall_s": _median([r.wall_time(scaled) for r in runs]) / 1e9,
        "setup_s": _median([r.setup_time(scaled) for r in setups + runs]) / 1e9,
        "slab_ms_p50": _median(slabs) / 1e6,
        "slab_ms_p90": float(np.percentile(slabs, 90)) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "linf_h1_error": runs[0].linf_h1,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def layer_metrics(untraced, traced):
    """Per-layer metrics of the traced integrations, at reference speed.

    Times are per slab (setup layers: per integration); counts are per slab
    unless the unit says ``count``.
    """
    n_slabs = sum(len(r.slab_ns) for r in traced)
    n_runs = len(traced)
    slab_totals, setup_totals = {}, {}
    iters_max = clamped = 0
    residual_max = 0.0
    slab_wall = slab_self = slab_wall_ref = 0
    for run in traced:
        spans = run.tracer.spans
        _accumulate(slab_totals, tracing.layer_totals(spans, run.factors))
        _accumulate(setup_totals, tracing.layer_totals(spans, run.factors, in_slabs=False))
        iters = Counter(s[tracing.SLAB] for s in spans if s[tracing.NAME] == "stepper.newton_step")
        iters_max = max(iters_max, max(iters.values(), default=0))
        clamped += run.tracer.clamped_points
        residual_max = max(residual_max, run.tracer.residual_max)
        for span, own in zip(spans, tracing.self_times(spans)):
            if span[tracing.NAME] == "slab":
                duration = span[tracing.END] - span[tracing.START]
                slab_wall += duration
                slab_self += own
                slab_wall_ref += duration * run.factors[span[tracing.SLAB]]

    def slab(name, kind):
        calls, inclusive, own = slab_totals.get(name, (0, 0, 0))
        return {"calls": calls, "ms": inclusive / 1e6, "self_ms": own / 1e6}[kind] / n_slabs

    def setup(name):
        return setup_totals.get(name, (0, 0, 0))[1] / 1e6 / n_runs

    def wall(runs):
        return _median([r.wall_time() for r in runs])

    ms, calls = "ms/slab", "calls/slab"
    values = {
        "linsolve.factor.ms": (slab("linsolve.factor", "ms"), ms),
        "linsolve.factor.calls": (slab("linsolve.factor", "calls"), calls),
        "linsolve.solve_bordered.self_ms": (slab("linsolve.solve_bordered", "self_ms"), ms),
        "linsolve.bordered_residual_max": (residual_max, "rel"),
        "stepper.newton_step.self_ms": (slab("stepper.newton_step", "self_ms"), ms),
        "stepper.advance.self_ms": (slab("stepper.advance", "self_ms"), ms),
        "stepper.newton_iters": (slab("stepper.newton_step", "calls"), "iters/slab"),
        "stepper.newton_iters_max": (iters_max, "count"),
        "stepper.retained_mb": (traced[0].retained_mb, "MB"),
        "fem.scatter_matrix.ms": (slab("fem.scatter_matrix", "ms"), ms),
        "fem.scatter_matrix.calls": (slab("fem.scatter_matrix", "calls"), calls),
        "fem.scatter_vector.ms": (slab("fem.scatter_vector", "ms"), ms),
        "model.g_derivatives.ms": (slab("model.g_derivatives", "ms"), ms),
        "model.clamped_points": (clamped, "count"),
        "diagnostics.observe.ms": (slab("diagnostics.observe", "ms"), ms),
        "fem.error_norms.ms": (slab("fem.error_norms", "ms"), ms),
        "fem.assemble.ms": (setup("fem.assemble"), "ms"),
        "collocation.scheme.ms": (setup("collocation.scheme"), "ms"),
        "model.r_init.ms": (setup("model.r_init"), "ms"),
        "fem.interpolate.ms": (setup("fem.interpolate"), "ms"),
        "cli.parse_config.ms": (setup("cli.parse_config"), "ms"),
        "trace.slab_ms": (slab_wall_ref / 1e6 / n_slabs, ms),
        "trace.attributed_pct": (100.0 * (slab_wall - slab_self) / slab_wall, "%"),
        "trace.overhead": (wall(traced) / wall(untraced), "ratio"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def _accumulate(into, totals):
    for name, values in totals.items():
        entry = into.setdefault(name, [0, 0.0, 0.0])
        for i, value in enumerate(values):
            entry[i] += value


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "sav_nls").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, report, tracers = measure(WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if tracers:
        spans_path = stem.with_name(stem.name + "-spans.jsonl")
        spans_path.unlink(missing_ok=True)
        for index, tracer in enumerate(tracers):
            tracer.write(spans_path, index)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
