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
from .errors import (ConfigurationError, InputError, ModelError, SolverError,
                     StepError, UsageError)
from .fem import DIRICHLET, PERIODIC, build_space
from .model import power_law
from .stepper import StepperConfig, integrate, num_slabs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

MASS_DRIFT_REL = 1e-10
SAV_ENERGY_DRIFT_ABS = 1e-9

_PROBLEM_DOMAINS = {
    problems.SOLITON: (-20.0, 20.0),
    problems.PLANE_WAVE: (0.0, 1.0),
}


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
    newton_tol: float = 1e-10
    max_newton_iters: int = 25
    nq: int = 0                  # 0 = default p+2
    tau_list: tuple[float, ...] = ()
    M_list: tuple[int, ...] = ()


_REQUIRED = ("M", "p", "k", "tau", "T")


def _parse_float(raw):
    """Float literal, also accepting simple fractions like '1/60'."""
    raw = str(raw).strip()
    if "/" in raw:
        num, den = raw.split("/", 1)
        return float(num) / float(den)
    return float(raw)


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
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
            values[key] = raw
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
    if problem not in (problems.SOLITON, problems.PLANE_WAVE, problems.CUSTOM):
        raise UsageError(f"unknown problem '{problem}'")
    cfg = ExperimentConfig(**values)

    defaults = {}
    dom = _PROBLEM_DOMAINS.get(problem, (0.0, 1.0))
    if cfg.a is None:
        defaults["a"] = dom[0]
    if cfg.b is None:
        defaults["b"] = dom[1]
    if cfg.kappa is None:
        defaults["kappa"] = 2.0 if problem == problems.SOLITON else 0.0
    if defaults:
        cfg = replace(cfg, **defaults)

    for key in _REQUIRED:
        if getattr(cfg, key) is None:
            raise UsageError(f"missing required config key '{key}'")
    if cfg.bc not in (PERIODIC, DIRICHLET):
        raise UsageError(f"bc must be '{PERIODIC}' or '{DIRICHLET}', got '{cfg.bc}'")
    try:
        num_slabs(cfg.T, cfg.tau)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def build_problem(cfg):
    """(Problem, Nonlinearity) for a config; exact solution only when valid."""
    if cfg.problem == problems.SOLITON:
        prob = problems.soliton(a=cfg.a, b=cfg.b)
        if (cfg.kappa, cfg.q) != (2.0, 3.0):
            prob = problems.Problem(name=prob.name, a=prob.a, b=prob.b,
                                    kappa=cfg.kappa, q=cfg.q, u0=prob.u0)
    elif cfg.problem == problems.PLANE_WAVE:
        prob = problems.plane_wave(kappa=cfg.kappa, q=cfg.q, a=cfg.a, b=cfg.b)
    else:
        raise UsageError("problem 'custom' requires the library API (see README)")
    nl = power_law(cfg.kappa, cfg.q, cfg.c0)
    return prob, nl


def _stepper_config(cfg, tau=None):
    return StepperConfig(tau=cfg.tau if tau is None else tau, k=cfg.k,
                         newton_tol=cfg.newton_tol,
                         max_newton_iters=cfg.max_newton_iters)


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if not np.isfinite(x):
        return ""
    return f"{x:.10e}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def run_single(cfg, out_dir=".", check=False):
    """One integration; writes timeseries.csv and summary.csv.

    Returns an exit code: 0 when every slab converged (and, with check=True,
    every conservation assertion passed), 3 on numerical failure.
    """
    os.makedirs(out_dir, exist_ok=True)
    prob, nl = build_problem(cfg)
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    recorder = RunRecorder(exact=prob.exact, exact_grad=prob.exact_grad)
    internal = InternalMassObserver()
    failure = None
    try:
        integrate(prob.u0, _stepper_config(cfg), space, nl, cfg.T,
                  observers=(recorder, internal), nq=cfg.nq or None)
    except (StepError, SolverError, ModelError, InputError) as exc:
        failure = exc

    rows = []
    ref = recorder.records[0] if recorder.records else None
    for rec in recorder.records:
        rows.append([
            _fmt(rec.t), _fmt(rec.mass), _fmt(rec.mass - ref.mass),
            _fmt(rec.sav_energy), _fmt(rec.sav_energy - ref.sav_energy),
            _fmt(rec.original_energy), _fmt(rec.h1_error), str(rec.newton_iters),
        ])
    if failure is not None:
        failed_t = (recorder.records[-1].t + cfg.tau) if recorder.records else cfg.tau
        rows.append([_fmt(failed_t), "", "", "", "", "", "", "-1"])
    _write_csv(os.path.join(out_dir, "timeseries.csv"),
               ["t", "mass", "mass_drift", "sav_energy", "sav_energy_drift",
                "original_energy", "h1_error", "newton_iters"], rows)

    conservation_ok = (recorder.records
                       and recorder.max_mass_drift <= MASS_DRIFT_REL * abs(ref.mass)
                       and recorder.max_sav_energy_drift <= SAV_ENERGY_DRIFT_ABS)
    last = recorder.records[-1] if recorder.records else None
    linf_h1 = max((r.h1_error for r in recorder.records if r.h1_error is not None),
                  default=None)
    _write_csv(os.path.join(out_dir, "summary.csv"),
               ["T", "l2_error", "h1_error", "linf_h1_error", "max_mass_drift",
                "max_sav_energy_drift", "max_newton_iters", "conservation_ok",
                "internal_mass_ok", "converged"],
               [[_fmt(last.t if last else None), _fmt(last.l2_error if last else None),
                 _fmt(last.h1_error if last else None), _fmt(linf_h1),
                 _fmt(recorder.max_mass_drift if recorder.records else None),
                 _fmt(recorder.max_sav_energy_drift if recorder.records else None),
                 str(recorder.max_newton_iters if recorder.records else ""),
                 str(int(bool(conservation_ok))), str(int(internal.all_ok)),
                 str(int(failure is None))]])

    if failure is not None:
        print(f"run failed: {failure}", file=sys.stderr)
        return EXIT_NUMERICAL
    if check and not (conservation_ok and internal.all_ok):
        print("conservation/internal-mass assertion failed "
              f"(mass drift {recorder.max_mass_drift:.3e}, "
              f"energy drift {recorder.max_sav_energy_drift:.3e}, "
              f"internal mass ok={internal.all_ok})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _sweep_entry(args):
    """One sweep run (executed possibly in a worker process)."""
    cfg, tau, M = args
    if tau is not None:
        cfg = replace(cfg, tau=tau)
    if M is not None:
        cfg = replace(cfg, M=M)
    prob, nl = build_problem(cfg)
    if prob.exact is None:
        raise UsageError("convergence sweeps need a problem with an exact solution")
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    observer = TrajectoryErrorObserver(prob.exact, prob.exact_grad)
    try:
        integrate(prob.u0, _stepper_config(cfg), space, nl, cfg.T,
                  observers=(observer,), nq=cfg.nq or None)
    except (StepError, SolverError, ModelError, InputError) as exc:
        return np.nan, str(exc)
    return observer.linf_h1, ""


def _sweep_workers(n_entries):
    env = os.environ.get("SAV_NLS_THREADS")
    try:
        limit = int(env) if env else (os.cpu_count() or 1)
    except ValueError as exc:
        raise UsageError(f"SAV_NLS_THREADS must be an integer, got {env!r}") from exc
    return max(1, min(limit, n_entries))


def _run_sweep(jobs):
    workers = _sweep_workers(len(jobs))
    if workers == 1:
        return [_sweep_entry(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_entry, jobs))


def run_time_sweep(cfg, out_dir="."):
    """Temporal convergence study over cfg.tau_list; writes time_convergence.csv."""
    if not cfg.tau_list:
        raise UsageError("sweep-time needs a nonempty tau_list")
    for tau in cfg.tau_list:
        num_slabs(cfg.T, tau)
    os.makedirs(out_dir, exist_ok=True)
    results = _run_sweep([(cfg, tau, None) for tau in cfg.tau_list])
    errors = [r[0] for r in results]
    table = ConvergenceTable.from_errors(cfg.tau_list, errors)
    rows = []
    for tau, err, order, (_, msg) in zip(table.params, table.errors, table.orders, results):
        rows.append([str(cfg.k), _fmt(tau), _fmt(err) if not msg else f"failed: {msg}",
                     _fmt(order)])
    _write_csv(os.path.join(out_dir, "time_convergence.csv"),
               ["k", "tau", "linf_h1_error", "eoc"], rows)
    return table


def run_space_sweep(cfg, out_dir="."):
    """Spatial convergence study over cfg.M_list; writes space_convergence.csv."""
    if not cfg.M_list:
        raise UsageError("sweep-space needs a nonempty M_list")
    num_slabs(cfg.T, cfg.tau)
    os.makedirs(out_dir, exist_ok=True)
    results = _run_sweep([(cfg, None, M) for M in cfg.M_list])
    errors = [r[0] for r in results]
    # EOC against the mesh size h = L/M, so orders come out positive
    table = ConvergenceTable.from_errors([1.0 / M for M in cfg.M_list], errors)
    rows = []
    for M, err, order, (_, msg) in zip(cfg.M_list, table.errors, table.orders, results):
        rows.append([str(cfg.p), str(int(M)), _fmt(err) if not msg else f"failed: {msg}",
                     _fmt(order)])
    _write_csv(os.path.join(out_dir, "space_convergence.csv"),
               ["p", "M", "linf_h1_error", "eoc"], rows)
    return table


def _add_config_options(parser):
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--out-dir", default=".", help="output directory for CSVs")
    parser.add_argument("--check", action="store_true",
                        help="turn conservation assertions into hard failures")
    for key in _PARSERS:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{key}", default=None, metavar="V",
                            help=f"override config key '{key}'")


def _overrides_from_args(args):
    return {key: getattr(args, f"cfg_{key}") for key in _PARSERS
            if getattr(args, f"cfg_{key}", None) is not None}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sav-nls",
        description="Conserving SAV Gauss collocation FEM solver for the 1D "
                    "nonlinear Schrodinger equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "single integration with diagnostics"),
                            ("sweep-time", "temporal convergence study"),
                            ("sweep-space", "spatial convergence study")):
        sp = sub.add_parser(name, help=help_text)
        _add_config_options(sp)

    try:
        args = parser.parse_args(argv)
        cfg = parse_config(args.config, _overrides_from_args(args))
        if args.command == "run":
            return run_single(cfg, out_dir=args.out_dir, check=args.check)
        if args.command == "sweep-time":
            run_time_sweep(cfg, out_dir=args.out_dir)
            return EXIT_OK
        run_space_sweep(cfg, out_dir=args.out_dir)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StepError, SolverError, ModelError, InputError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
