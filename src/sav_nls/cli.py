"""Command-line driver: single runs, time/space convergence sweeps, CSV output.

Configuration is a flat ``key = value`` text file with ``#`` comments;
command-line flags override file values.  All floats are emitted in
scientific notation with 10 significant digits so identical configurations
produce identical CSV bytes.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin

import numpy as np

from . import problems
from .diagnostics import (ConvergenceTable, InternalMassObserver, RunRecorder,
                          TrajectoryErrorObserver)
from .errors import ConfigurationError, NumericalError, UsageError
from .fem import PERIODIC, build_space, reference_quadrature
from .model import power_law
from .stepper import StepperConfig, integrate, num_slabs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

MASS_DRIFT_REL = 1e-10
SAV_ENERGY_DRIFT_ABS = 1e-9

_PROBLEMS = {problems.SOLITON: problems.soliton, problems.PLANE_WAVE: problems.plane_wave}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = problems.SOLITON
    a: float = None
    b: float = None
    M: int = None
    p: int = None
    k: int = None
    tau: float = None
    T: float = None
    kappa: float = None
    q: float = 3.0
    c0: float = 1.0
    bc: str = PERIODIC
    newton_tol: float = StepperConfig.newton_tol
    max_newton_iters: int = StepperConfig.max_newton_iters
    nq: int = None
    tau_list: tuple[float, ...] = ()
    M_list: tuple[int, ...] = ()


_REQUIRED = ("M", "p", "k", "tau", "T")


def _parse_float(raw):
    """Finite float literal, also accepting simple fractions like '1/60'."""
    raw = str(raw).strip()
    if "/" in raw:
        num, den = raw.split("/", 1)
        value = float(num) / float(den)
    else:
        value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _parser(annotation):
    """Value parser for an ExperimentConfig field annotation."""
    scalar = {float: _parse_float, int: int, str: str}
    if get_origin(annotation) is tuple:
        item = scalar[get_args(annotation)[0]]
        return lambda raw: tuple(item(v) for v in str(raw).replace(",", " ").split())
    return scalar[annotation]


_PARSERS = {f.name: _parser(f.type) for f in fields(ExperimentConfig)}


def _parse_value(key, raw):
    try:
        return _PARSERS[key](raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad value for config key '{key}': {raw!r}") from exc


def read_config_file(path):
    """Flat 'key = value' lines; '#' starts a comment."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: "
                         f"{getattr(exc, 'strerror', exc)}") from exc
    values, seen = {}, {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: config key '{key}' repeats line {seen[key]}")
        values[key], seen[key] = raw, lineno
    return values


def parse_config(path=None, overrides=None):
    """Merge defaults, config file and flag overrides into a validated config."""
    raw = {}
    if path is not None:
        raw.update(read_config_file(path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _PARSERS:
            raise UsageError(f"unknown config key '{key}'")
        raw[key] = value

    values = {k: _parse_value(k, v) for k, v in raw.items()}
    problem = values.get("problem", ExperimentConfig.problem)
    if problem not in _PROBLEMS:
        raise UsageError(f"unknown problem '{problem}': the CLI runs {' or '.join(_PROBLEMS)}; "
                         "custom problems need the library API")
    default = _PROBLEMS[problem]()
    cfg = ExperimentConfig(**{"a": default.a, "b": default.b, "kappa": default.kappa, **values})

    for key in _REQUIRED:
        if getattr(cfg, key) is None:
            raise UsageError(f"missing required config key '{key}'")
    try:
        num_slabs(cfg.T, cfg.tau)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def build_problem(cfg):
    """(Problem, Nonlinearity) for a config; exact solution only when valid."""
    prob = _PROBLEMS[cfg.problem](a=cfg.a, b=cfg.b, kappa=cfg.kappa, q=cfg.q)
    return prob, power_law(cfg.kappa, cfg.q, cfg.c0)


def _prepare(cfg):
    """(problem, run) of a config, with the space, slab count, k and nq checked
    so that a rejected configuration raises before any output exists;
    run(observers) returns the NumericalError that ended the run, or None."""
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    prob, nl = build_problem(cfg)
    stepper_cfg = StepperConfig(tau=cfg.tau, k=cfg.k, newton_tol=cfg.newton_tol,
                                max_newton_iters=cfg.max_newton_iters)
    num_slabs(cfg.T, cfg.tau)
    if cfg.nq is not None:
        reference_quadrature(cfg.nq)

    def run(observers):
        try:
            integrate(prob.u0, stepper_cfg, space, nl, cfg.T, observers=observers, nq=cfg.nq)
        except NumericalError as exc:
            return exc
        return None
    return prob, run


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if not np.isfinite(x):
        return ""
    return f"{x:.10e}"


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc.strerror}") from exc


def _write_csv(path, header, rows):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def run_single(cfg, out_dir, check=False):
    """One integration; writes timeseries.csv and summary.csv.

    Returns an exit code: 0 when every slab converged (and, with check=True,
    every conservation assertion passed), 3 on numerical failure.
    """
    prob, run = _prepare(cfg)
    _make_out_dir(out_dir)
    recorder = RunRecorder(exact=prob.exact, exact_grad=prob.exact_grad)
    internal = InternalMassObserver()
    failure = run((recorder, internal))
    records = recorder.records

    rows = [[_fmt(rec.t), _fmt(rec.mass), _fmt(rec.mass - records[0].mass),
             _fmt(rec.sav_energy), _fmt(rec.sav_energy - records[0].sav_energy),
             _fmt(rec.original_energy), _fmt(rec.h1_error), str(rec.newton_iters)]
            for rec in records]
    if failure is not None:
        failed_t = (records[-1].t if records else 0.0) + cfg.tau
        rows.append([_fmt(failed_t), "", "", "", "", "", "", "-1"])
    _write_csv(os.path.join(out_dir, "timeseries.csv"),
               ["t", "mass", "mass_drift", "sav_energy", "sav_energy_drift",
                "original_energy", "h1_error", "newton_iters"], rows)

    conservation_ok, values = False, [""] * 7   # a run that failed before its first record
    if records:
        last = records[-1]
        mass_drift, energy_drift = recorder.max_mass_drift, recorder.max_sav_energy_drift
        conservation_ok = (mass_drift <= MASS_DRIFT_REL * abs(records[0].mass)
                           and energy_drift <= SAV_ENERGY_DRIFT_ABS)
        errors = [r.h1_error for r in records if r.h1_error is not None]
        linf_h1 = np.max(errors) if errors else None   # NaN propagates; max() would drop it
        values = [_fmt(last.t), _fmt(last.l2_error), _fmt(last.h1_error), _fmt(linf_h1),
                  _fmt(mass_drift), _fmt(energy_drift), str(recorder.max_newton_iters)]
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["T", "l2_error", "h1_error", "linf_h1_error", "max_mass_drift",
                "max_sav_energy_drift", "max_newton_iters", "conservation_ok",
                "internal_mass_ok", "converged"],
               [values + [str(int(ok)) for ok in (conservation_ok, internal.all_ok,
                                                   failure is None)]])

    if failure is not None:
        print(f"run failed: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    if check and not (conservation_ok and internal.all_ok):
        print("conservation/internal-mass assertion failed "
              f"(mass drift {mass_drift:.3e}, energy drift {energy_drift:.3e}, "
              f"internal mass ok={internal.all_ok})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _sweep_entry(cfg):
    """One sweep run (executed possibly in a worker process)."""
    prob, run = _prepare(cfg)
    observer = TrajectoryErrorObserver(prob.exact, prob.exact_grad)
    failure = run((observer,))
    return (observer.linf_h1, "") if failure is None else (np.nan, str(failure))


# Sweep key -> (study name, fixed-degree column, EOC parameter, swept-value cell).
# Space EOCs are taken against h ~ 1/M, so that orders come out positive.
_SWEEPS = {
    "tau": ("time", "k", lambda tau: tau, _fmt),
    "M": ("space", "p", lambda M: 1.0 / M, lambda M: str(int(M))),
}


def run_sweep(cfg, key, out_dir):
    """Convergence study over cfg.tau_list (key "tau") or cfg.M_list (key "M");
    writes time_convergence.csv or space_convergence.csv."""
    study, fixed, eoc_param, cell = _SWEEPS[key]
    values = getattr(cfg, f"{key}_list")
    if not values:
        raise UsageError(f"sweep-{study} needs a nonempty {key}_list")
    runs = [replace(cfg, **{key: value}) for value in values]
    if any(prob.exact is None for prob, _ in map(_prepare, runs)):
        raise UsageError("convergence sweeps need a problem with an exact solution")
    env = os.environ.get("SAV_NLS_THREADS")
    try:
        workers = max(1, min(int(env) if env else (os.cpu_count() or 1), len(runs)))
    except ValueError as exc:
        raise UsageError(f"SAV_NLS_THREADS must be an integer, got {env!r}") from exc
    _make_out_dir(out_dir)
    if workers == 1:
        results = [_sweep_entry(run) for run in runs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, runs))
    table = ConvergenceTable.from_errors([eoc_param(v) for v in values], [r[0] for r in results])
    rows = [[str(getattr(cfg, fixed)), cell(value), _fmt(err) if not msg else f"failed: {msg}",
             _fmt(order)]
            for value, err, order, (_, msg) in zip(values, table.errors, table.orders, results)]
    _write_csv(os.path.join(out_dir, f"{study}_convergence.csv"),
               [fixed, key, "linf_h1_error", "eoc"], rows)
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sav-nls",
        description="Conserving SAV Gauss collocation FEM solver for the 1D "
                    "nonlinear Schrodinger equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, sweep_key, help_text in (("run", None, "single integration with diagnostics"),
                                       ("sweep-time", "tau", "temporal convergence study"),
                                       ("sweep-space", "M", "spatial convergence study")):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(sweep_key=sweep_key)
        sp.add_argument("--config", default=None, help="flat key = value config file")
        sp.add_argument("--out-dir", default=".", help="output directory for CSVs")
        if sweep_key is None:
            sp.add_argument("--check", action="store_true",
                            help="turn conservation assertions into hard failures")
        for key in _PARSERS:
            sp.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}", default=None,
                            metavar="V", help=f"override config key '{key}'")

    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.config, {key: getattr(args, f"cfg_{key}") for key in _PARSERS})
        if args.sweep_key is None:
            return run_single(cfg, out_dir=args.out_dir, check=args.check)
        run_sweep(cfg, args.sweep_key, out_dir=args.out_dir)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
