import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sav_nls import cli
from sav_nls.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_problem,
                         main, parse_config, run_single, run_sweep)
from sav_nls.collocation import gauss_rule
from sav_nls.errors import (InputError, ModelError, NumericalError, SolverError,
                            StepError, UsageError)

CONSERVATION_CFG = str(Path(__file__).resolve().parents[1] / "configs"
                       / "soliton_conservation.cfg")


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
# soliton benchmark
problem = soliton
M = 2000
p = 3
k = 3
tau = 0.05
T = 1
"""


def test_parse_minimal_config_applies_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.c0 == 1.0
    assert cfg.newton_tol == 1e-10
    assert cfg.kappa == 2.0
    assert (cfg.a, cfg.b) == (-20.0, 20.0)
    assert cfg.bc == "periodic"


def test_plane_wave_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL.replace("soliton", "planewave", 2)))
    assert (cfg.a, cfg.b, cfg.kappa) == (0.0, 1.0, 0.0)


def test_flag_overrides_file(tmp_path):
    path = _write(tmp_path, MINIMAL)
    cfg = parse_config(path, {"tau": "0.1"})
    assert cfg.tau == 0.1


def test_fraction_literals(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("tau = 0.05", "tau = 1/20"))
    cfg = parse_config(path, {"tau_list": "1/20, 1/40"})
    assert cfg.tau == 0.05
    assert cfg.tau_list == (0.05, 0.025)


def test_non_integral_step_count_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("tau = 0.05", "tau = 0.3"))
    with pytest.raises(UsageError, match="integer multiple"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "\nwhatever = 3\n")
    with pytest.raises(UsageError, match="whatever"):
        parse_config(path)


def test_repeated_key_is_usage_error(tmp_path, capsys):
    # lines 7 and 9 both set tau
    path = _write(tmp_path, MINIMAL + "tau = 0.1\n")
    with pytest.raises(UsageError, match=r"run.cfg:9: config key 'tau' repeats line 7$"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out-dir", str(out)]) == EXIT_USAGE
    assert "config key 'tau' repeats line 7" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_key(tmp_path):
    path = _write(tmp_path, "problem = soliton\nM = 100\n")
    with pytest.raises(UsageError, match="required"):
        parse_config(path)


def test_bad_value_type(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("M = 2000", "M = many"))
    with pytest.raises(UsageError, match="'M'"):
        parse_config(path)


@pytest.mark.parametrize("overrides,has_exact", [
    pytest.param({"kappa": "1.0"}, False, id="kappa-1"),
    pytest.param({"q": "5", "kappa": "1.0"}, False, id="q-5"),
    pytest.param({"kappa": "2", "q": "3"}, True, id="cubic"),
])
def test_build_problem_drops_exact_for_modified_kappa(tmp_path, overrides, has_exact):
    cfg = parse_config(_write(tmp_path, MINIMAL), overrides)
    prob, nl = build_problem(cfg)
    assert (prob.exact is not None) == has_exact
    assert (prob.exact_grad is not None) == has_exact
    assert (nl.kappa, nl.q) == (prob.kappa, prob.q) == (cfg.kappa, cfg.q)


TINY_RUN = """
problem = soliton
M = 60
p = 2
k = 2
tau = 0.1
T = 0.3
"""


def test_run_single_outputs(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN))
    out = tmp_path / "out"
    assert run_single(cfg, out_dir=str(out), check=True) == EXIT_OK

    ts = (out / "timeseries.csv").read_text().splitlines()
    assert ts[0] == ("t,mass,mass_drift,sav_energy,sav_energy_drift,"
                     "original_energy,h1_error,newton_iters")
    assert len(ts) == 1 + 4  # header + t=0 + three slabs
    first = ts[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.0  # zero drift at t=0
    drifts = [abs(float(line.split(",")[2])) for line in ts[1:]]
    assert max(drifts) <= 1e-10

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("T,l2_error,h1_error,linf_h1_error")
    fields = summary[1].split(",")
    assert fields[-1] == "1"  # converged


def test_nan_error_sample_leaves_linf_h1_empty(tmp_path, monkeypatch):
    # an exact solution that is NaN at t = 0.2 only: the summary's
    # linf_h1_error is non-finite (written empty), not the maximum of the
    # other samples, which Python's max would give
    soliton = cli._PROBLEMS["soliton"]

    def nan_at_t02(**kwargs):
        prob = soliton(**kwargs)
        def nan_at(fn):
            return lambda x, t: fn(x, t) * (np.nan if abs(t - 0.2) < 1e-12 else 1.0)
        return replace(prob, exact=nan_at(prob.exact), exact_grad=nan_at(prob.exact_grad))

    monkeypatch.setitem(cli._PROBLEMS, "soliton", nan_at_t02)
    out = tmp_path / "out"
    assert run_single(parse_config(_write(tmp_path, TINY_RUN)), out_dir=str(out)) == EXIT_OK
    h1 = [line.split(",")[6] for line in (out / "timeseries.csv").read_text().splitlines()[1:]]
    assert [v == "" for v in h1] == [False, False, True, False]
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[3] == ""


def test_run_single_reproducible_bytes(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_single(cfg, out_dir=str(out1))
    run_single(cfg, out_dir=str(out2))
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_failure_before_first_slab(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", CONSERVATION_CFG, "--kappa", "-100", "--T", "0.2",
                 "--out-dir", str(out)]) == EXIT_NUMERICAL  # r_init radicand < 0
    assert (out / "summary.csv").read_text().splitlines()[1] == ",,,,,,,0,1,0"
    assert (out / "timeseries.csv").read_text().splitlines()[1:] == [
        "2.0000000000e-01,,,,,,,-1"]


def test_run_single_failure_row_and_exit_code(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN), {"max_newton_iters": "1"})
    out = tmp_path / "fail"
    assert run_single(cfg, out_dir=str(out)) == EXIT_NUMERICAL
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[-1].split(",")[-1] == "-1"  # failure marker row


def test_failure_after_the_initial_record_summary(tmp_path):
    # slab 1 fails: the summary describes the one recorded (initial) state
    out = tmp_path / "out"
    assert main(["run", "--config", CONSERVATION_CFG, "--T", "0.4", "--max-newton-iters", "2",
                 "--out-dir", str(out)]) == EXIT_NUMERICAL
    header, row = (line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    summary = dict(zip(header, row))
    assert [summary[key] for key in ("T", "max_mass_drift", "max_sav_energy_drift",
                                     "max_newton_iters")] == ["0.0000000000e+00"] * 3 + ["0"]
    assert row[-3:] == ["1", "1", "0"]


def test_check_failure_exit_code_and_flags(tmp_path, capsys):
    # a loose Newton tolerance converges every slab but drifts the mass by 1.2e-10 and
    # the SAV energy by 4.1e-9, above its bound of 1e-9
    out = tmp_path / "out"
    assert main(["run", "--config", CONSERVATION_CFG, "--T", "0.4", "--newton-tol", "1e-2",
                 "--check", "--out-dir", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "conservation/internal-mass assertion failed (mass drift 1.240e-10, energy drift "
        "4.055e-09, ")
    assert (out / "summary.csv").read_text().splitlines()[1].split(",")[-3:] == ["0", "1", "1"]


def test_zero_initial_data_run(tmp_path, capsys):
    # sech underflows to 0 at every dof of [800, 840], so the initial mass is 0
    out = tmp_path / "out"
    assert main(["run", "--config", CONSERVATION_CFG, "--a", "800", "--b", "840", "--T", "0.4",
                 "--out-dir", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "timeseries.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3 and {cell for row in rows for cell in row[1:3]} == {"0.0000000000e+00"}
    assert (out / "summary.csv").read_text().splitlines()[1].split(",")[-3:] == ["1", "1", "1"]


def test_zero_initial_data_run_prints_no_warning(tmp_path):
    # cosh overflows for |x| > ~710; sech's 1/inf = 0 is right and must not warn
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "default", "-m", "sav_nls.cli", "run", "--config",
                           CONSERVATION_CFG, "--a", "800", "--b", "840", "--T", "0.4",
                           "--out-dir", str(tmp_path)], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK
    assert done.stderr == ""


SWEEP = """
problem = soliton
M = 50
p = 1
k = 1
tau = 0.1
T = 0.2
tau_list = 0.1, 0.05
"""


def test_time_sweep_csv(tmp_path):
    cfg = parse_config(_write(tmp_path, SWEEP))
    out = tmp_path / "sweep"
    table = run_sweep(cfg, "tau", out_dir=str(out))
    lines = (out / "time_convergence.csv").read_text().splitlines()
    assert lines[0] == "k,tau,linf_h1_error,eoc"
    assert len(lines) == 3
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "1.0000000000e-01"],
                                                           ["1", "5.0000000000e-02"]]
    assert lines[1].split(",")[3] == ""  # first row has no EOC
    assert lines[2].split(",")[3] != ""
    assert np.all(np.isfinite(table.errors))


def test_failed_sweep_entries(tmp_path, monkeypatch):
    monkeypatch.setenv("SAV_NLS_THREADS", "1")
    out = tmp_path / "out"
    assert main(["sweep-time", "--config", _write(tmp_path, SWEEP), "--max-newton-iters", "1",
                 "--out-dir", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in
            (out / "time_convergence.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[2].startswith("failed: slab 1 (t=0): Newton did not converge "
                                 "in 1 iterations (")
        assert row[3] == ""


def test_time_sweep_single_entry(tmp_path):
    cfg = parse_config(_write(tmp_path, SWEEP), {"tau_list": "0.1"})
    out = tmp_path / "one"
    run_sweep(cfg, "tau", out_dir=str(out))
    lines = (out / "time_convergence.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == ""


def test_space_sweep_csv(tmp_path):
    overrides = {"M_list": "20,40", "k": "2", "tau": "0.05", "T": "0.1"}
    cfg_path = _write(tmp_path, SWEEP)
    cfg = parse_config(cfg_path, overrides)
    out = tmp_path / "space"
    table = run_sweep(cfg, "M", out_dir=str(out))
    lines = (out / "space_convergence.csv").read_text().splitlines()
    assert lines[0] == "p,M,linf_h1_error,eoc"
    assert len(lines) == 3
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "20"], ["1", "40"]]
    flags = [arg for key, value in overrides.items()
             for arg in ("--" + key.replace("_", "-"), value)]
    assert main(["sweep-space", "--config", cfg_path, "--out-dir", str(tmp_path / "cli"),
                 *flags]) == EXIT_OK
    assert ((tmp_path / "cli" / "space_convergence.csv").read_bytes()
            == (out / "space_convergence.csv").read_bytes())
    # refinement reduces the error and the order is positive
    assert table.errors[1] < table.errors[0]
    assert table.orders[1] > 0


def test_main_exit_codes(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE
    cfg_path = _write(tmp_path, TINY_RUN)
    assert main(["run", "--config", cfg_path, "--T", "0.25"]) == EXIT_USAGE
    out = tmp_path / "cli_out"
    assert main(["run", "--config", cfg_path, "--out-dir", str(out),
                 "--T", "0.1"]) == EXIT_OK
    assert (out / "timeseries.csv").exists()


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8",
                                  "run_out_dir_is_file", "sweep_out_dir_is_file",
                                  "run_csv_is_directory", "sweep_csv_is_directory"])
def test_io_failure_is_usage_error(tmp_path, capsys, case):
    cfg_path = _write(tmp_path, SWEEP)
    afile = _write(tmp_path, "", name="afile")
    (tmp_path / "bad.cfg").write_bytes(b"problem = soliton\n\xff\n")
    csv_dir = tmp_path / "csv"   # each CSV the runs write is a directory here
    for name in ("timeseries.csv", "time_convergence.csv"):
        (csv_dir / name).mkdir(parents=True)
    command, config, out = {
        "config_is_directory": ("run", str(tmp_path), str(tmp_path / "out")),
        "config_not_utf8": ("run", str(tmp_path / "bad.cfg"), str(tmp_path / "out")),
        "run_out_dir_is_file": ("run", cfg_path, afile),
        "sweep_out_dir_is_file": ("sweep-time", cfg_path, afile),
        "run_csv_is_directory": ("run", cfg_path, str(csv_dir)),
        "sweep_csv_is_directory": ("sweep-time", cfg_path, str(csv_dir)),
    }[case]
    assert main([command, "--config", config, "--out-dir", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (config if case.startswith("config") else out) in err
    if case.endswith("csv_is_directory"):
        csv = "timeseries.csv" if command == "run" else "time_convergence.csv"
        assert f"cannot write {os.path.join(out, csv)}: Is a directory" in err


@pytest.mark.parametrize("problem", ["custom", "bogus"])
def test_unknown_problem_rejected_before_output(tmp_path, capsys, problem):
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, TINY_RUN), "--problem", problem,
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: unknown problem '{problem}'")
    assert not out.exists()


def test_check_is_a_run_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-time", "--config", _write(tmp_path, SWEEP), "--check",
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_a_second_run_builds_no_gauss_rule(tmp_path):
    """Every Gauss rule of a run (the config checks, the collocation scheme, the FE
    operators and the error norms) comes from the one cache entry per order."""
    argv = ["run", "--config", CONSERVATION_CFG, "--p", "4", "--T", "0.2"]
    assert main(argv + ["--out-dir", str(tmp_path / "first")]) == EXIT_OK
    misses = gauss_rule.cache_info().misses
    assert main(argv + ["--out-dir", str(tmp_path / "second")]) == EXIT_OK
    assert gauss_rule.cache_info().misses == misses


@pytest.mark.parametrize("error", [InputError, ModelError, SolverError, StepError])
def test_numerical_errors_share_one_base(error):
    assert issubclass(error, NumericalError)


def test_non_integer_thread_count_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("SAV_NLS_THREADS", "two")
    cfg_path = _write(tmp_path, SWEEP)
    assert main(["sweep-time", "--config", cfg_path,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE


def test_zero_newton_iterations_is_usage_error(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_RUN)
    assert main(["run", "--config", cfg_path, "--max-newton-iters", "0",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert "max_newton_iters=0" in capsys.readouterr().err


@pytest.mark.parametrize("threads,argv,message", [
    ("1", ["run", "--max-newton-iters", "0"], "configuration error: max_newton_iters=0"),
    ("1", ["run", "--newton-tol", "0"], "configuration error: newton_tol=0.0"),
    ("1", ["run", "--k", "9"], "configuration error: gauss rule order k=9"),
    ("1", ["run", "--p", "7"], "configuration error: degree=7"),
    ("1", ["run", "--a", "5", "--b", "1"], "configuration error: domain endpoints invalid"),
    ("1", ["run", "--problem", "planewave", "--a", "1", "--b", "1"],
     "configuration error: domain endpoints invalid"),
    ("1", ["run", "--q", "0.5"], "configuration error: power-law exponent q=0.5"),
    ("1", ["run", "--c0", "-1"], "configuration error: c0=-1.0"),
    ("1", ["run", "--nq", "-1"], "configuration error: quadrature point count nq=-1"),
    ("1", ["run", "--bc", "neumann"], "configuration error: bc='neumann'"),
    ("1", ["sweep-space", "--M-list", "1,40"], "configuration error: num_elements=1"),
    ("1", ["sweep-time", "--tau-list", "0.1,0.3"], "configuration error: T=0.2 is not"),
    ("1", ["sweep-time", "--kappa", "1"], "usage error: convergence sweeps need"),
    ("two", ["sweep-time"], "usage error: SAV_NLS_THREADS"),
    # last, so that the ids of the cases above keep their index
    ("1", ["run", "--nq", "9"], "configuration error: quadrature point count nq=9 outside"),
    ("1", ["run", "--T", "1e300", "--tau", "1e-300"],
     "usage error: T=1e+300 / tau=1e-300 is not a finite slab count"),
    ("1", ["run", "--nq", "0"], "configuration error: quadrature point count nq=0 outside"),
])
def test_rejected_configuration_writes_nothing(tmp_path, capsys, monkeypatch, threads, argv,
                                               message):
    monkeypatch.setenv("SAV_NLS_THREADS", threads)
    command, *flags = argv
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, SWEEP), "--out-dir", str(out),
                 *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--tau", "nan", "config key 'tau'"),
    ("--tau", "inf", "config key 'tau'"),
    ("--T", "inf", "config key 'T'"),
    ("--T", "1e999", "config key 'T'"),
    ("--newton-tol", "nan", "config key 'newton_tol'"),
    ("--tau-list", "0.1, nan", "config key 'tau_list'"),
    ("--tau", "0", "tau=0.0"),
])
def test_non_finite_value_is_usage_error(tmp_path, capsys, flag, value, message):
    cfg_path = _write(tmp_path, TINY_RUN)
    assert main(["run", "--config", cfg_path, flag, value,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_requires_list(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN))
    with pytest.raises(UsageError, match="tau_list"):
        run_sweep(cfg, "tau", out_dir=str(tmp_path))
    with pytest.raises(UsageError, match="M_list"):
        run_sweep(cfg, "M", out_dir=str(tmp_path))
