import os

import numpy as np
import pytest

from sav_nls.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_problem,
                         main, parse_config, run_single, run_space_sweep,
                         run_time_sweep)
from sav_nls.errors import UsageError


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


def test_missing_required_key(tmp_path):
    path = _write(tmp_path, "problem = soliton\nM = 100\n")
    with pytest.raises(UsageError, match="required"):
        parse_config(path)


def test_bad_value_type(tmp_path):
    path = _write(tmp_path, MINIMAL.replace("M = 2000", "M = many"))
    with pytest.raises(UsageError, match="'M'"):
        parse_config(path)


def test_build_problem_drops_exact_for_modified_kappa(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL), {"kappa": "1.0"})
    prob, nl = build_problem(cfg)
    assert prob.exact is None
    assert nl.kappa == 1.0


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


def test_run_single_reproducible_bytes(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_single(cfg, out_dir=str(out1))
    run_single(cfg, out_dir=str(out2))
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_run_single_failure_row_and_exit_code(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN), {"max_newton_iters": "1"})
    out = tmp_path / "fail"
    assert run_single(cfg, out_dir=str(out)) == EXIT_NUMERICAL
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[-1].split(",")[-1] == "-1"  # failure marker row


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
    table = run_time_sweep(cfg, out_dir=str(out))
    lines = (out / "time_convergence.csv").read_text().splitlines()
    assert lines[0] == "k,tau,linf_h1_error,eoc"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == ""  # first row has no EOC
    assert lines[2].split(",")[3] != ""
    assert np.all(np.isfinite(table.errors))


def test_time_sweep_single_entry(tmp_path):
    cfg = parse_config(_write(tmp_path, SWEEP), {"tau_list": "0.1"})
    out = tmp_path / "one"
    run_time_sweep(cfg, out_dir=str(out))
    lines = (out / "time_convergence.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == ""


def test_space_sweep_csv(tmp_path):
    cfg = parse_config(_write(tmp_path, SWEEP), {"M_list": "20,40", "k": "2",
                                                 "tau": "0.05", "T": "0.1"})
    out = tmp_path / "space"
    table = run_space_sweep(cfg, out_dir=str(out))
    lines = (out / "space_convergence.csv").read_text().splitlines()
    assert lines[0] == "p,M,linf_h1_error,eoc"
    assert len(lines) == 3
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


def test_non_integer_thread_count_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("SAV_NLS_THREADS", "two")
    cfg_path = _write(tmp_path, SWEEP)
    assert main(["sweep-time", "--config", cfg_path,
                 "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE


def test_sweep_requires_list(tmp_path):
    cfg = parse_config(_write(tmp_path, TINY_RUN))
    with pytest.raises(UsageError, match="tau_list"):
        run_time_sweep(cfg, out_dir=str(tmp_path))
    with pytest.raises(UsageError, match="M_list"):
        run_space_sweep(cfg, out_dir=str(tmp_path))
