import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sav_nls import diagnostics, fem, linsolve, stepper
from sav_nls.cli import _prepare, build_problem, parse_config
from sav_nls.collocation import (SlabPolynomial, collocation_scheme, lagrange_basis,
                                 temporal_l2_project)
from sav_nls.diagnostics import InternalMassObserver, RunRecorder
from sav_nls.errors import ConfigurationError, SolverError, StepError
from sav_nls.fem import (DIRICHLET, PERIODIC, build_space, element_coefficients, element_matrices,
                         interpolate)
from sav_nls.model import Nonlinearity, SavState, power_law, r_init
from sav_nls.problems import soliton
from sav_nls.stepper import (Assemblies, Carry, Slab, SlabUnknowns, StepperConfig,
                             _assemble_newton_system, _integrals, _real_unknowns, _stage_data,
                             _stage_vectors, advance, integrate, newton_step, num_slabs,
                             residual)

from newton_matrix import (apply_g, make_slab, newton_rhs, real_form_matrix, real_parts,
                           stage_element_matrices, stage_loads, stage_matrices, stage_order,
                           to_stage_order)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _zeros_state(space, r):
    return SavState(u=np.zeros(space.num_dofs, dtype=complex), r=r, t=0.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        StepperConfig(tau=0.0, k=2)
    with pytest.raises(ConfigurationError):
        StepperConfig(tau=0.1, k=2, newton_tol=0.0)
    with pytest.raises(ConfigurationError, match="max_newton_iters"):
        StepperConfig(tau=0.1, k=2, max_newton_iters=0)
    for bad in ({"tau": np.nan}, {"tau": np.inf}, {"tau": -np.inf},
                {"newton_tol": np.nan}, {"newton_tol": np.inf}):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            StepperConfig(**{"tau": 0.1, "k": 2, **bad})
    with pytest.raises(ConfigurationError):
        num_slabs(1.0, 0.3)
    for T, tau in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf), (1.0, 0.0)):
        with pytest.raises(ConfigurationError, match="finite"):
            num_slabs(T, tau)
    with pytest.raises(ConfigurationError, match="not a finite slab count"):
        num_slabs(2.0, 5e-324)   # T / tau overflows to inf
    assert num_slabs(1.0, 0.05) == 20
    assert num_slabs(0.0, 0.1) == 0
    for bad in ({"k": 2.5}, {"k": 2.0}, {"max_newton_iters": 2.5}):
        key = next(iter(bad))
        with pytest.raises(ConfigurationError, match=f"{key}={bad[key]} must be an integer"):
            StepperConfig(**{"tau": 0.1, "k": 2, **bad})
    assert StepperConfig(tau=0.1, k=np.int64(2), max_newton_iters=np.int32(3)).k == 2
    for k in (0, 9):
        with pytest.raises(ConfigurationError, match=rf"gauss rule order k={k} outside \[1, 8\]"):
            StepperConfig(tau=0.1, k=k)


def test_slab_rejects_a_scheme_of_another_order():
    # a scheme whose order is not cfg.k is a ConfigurationError when the Slab is built,
    # not a numpy shape error inside the first slab's matmul
    space = build_space(-20.0, 20.0, 20, 1, PERIODIC)
    asm, nl = Assemblies.build(space), power_law(2.0, 3.0, c0=1.0)
    with pytest.raises(ConfigurationError, match="collocation scheme of order 2 for k=3"):
        Slab(StepperConfig(tau=0.1, k=3), asm, collocation_scheme(2), nl)
    slab = Slab(StepperConfig(tau=0.1, k=2), asm, collocation_scheme(2), nl)
    u0 = interpolate(space, soliton().u0)
    advance(slab, SavState(u=u0, r=r_init(asm, u0, nl), t=0.0))


def test_residual_zero_state_is_zero():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(1.5, 3.0, c0=1.0)
    k = 3
    scheme = collocation_scheme(k)
    r0 = np.sqrt(nl.c0)
    state = _zeros_state(space, r0)
    unknowns = SlabUnknowns(np.zeros((k, space.num_dofs), dtype=complex),
                            np.full(k, r0))
    res_u, res_r = residual(make_slab(asm, scheme, nl, 0.1), state, unknowns)
    np.testing.assert_array_equal(res_u, 0.0)
    np.testing.assert_allclose(res_r, 0.0, atol=1e-13)


def test_residual_matches_dense_gauss_irk_oracle():
    # kappa = 0 reduces to the implicit-RK residual for i M u' + A u = 0;
    # solve the k=2 Gauss IRK stage system densely from its Butcher tableau
    space = build_space(-20.0, 20.0, 8, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(0.0, 3.0, c0=1.0)
    n = space.num_dofs
    tau = 0.17
    s3 = np.sqrt(3.0)
    butcher = np.array([[0.25, 0.25 - s3 / 6.0], [0.25 + s3 / 6.0, 0.25]])
    G = 1j * np.linalg.solve(asm.mass.toarray(), asm.stiff.toarray())  # u' = G u
    rng = np.random.default_rng(8)
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    big = np.eye(2 * n, dtype=complex) - tau * np.kron(butcher, G)
    stages = np.linalg.solve(big, np.concatenate([u0, u0])).reshape(2, n)

    scheme = collocation_scheme(2)
    state = SavState(u=u0, r=1.0, t=0.0)
    unknowns = SlabUnknowns(stages, np.full(2, 1.0))
    res_u, res_r = residual(make_slab(asm, scheme, nl, tau), state, unknowns)
    scale = max(1.0, np.linalg.norm(u0))
    assert np.linalg.norm(res_u) <= 1e-11 * scale
    np.testing.assert_allclose(res_r, 0.0, atol=1e-12)


def test_residual_matches_scalar_oracle():
    # M=2 Dirichlet p=1 has a single dof: re-derive the residual from scratch
    space = build_space(0.0, 1.0, 2, 1, DIRICHLET)
    asm = Assemblies.build(space)
    nl = power_law(2.0, 3.0, c0=1.0)
    k = 2
    scheme = collocation_scheme(k)
    tau = 0.21
    rng = np.random.default_rng(9)
    u0 = complex(rng.standard_normal(), rng.standard_normal())
    U = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    R = 1.0 + 0.2 * rng.standard_normal(k)
    state = SavState(u=np.array([u0]), r=1.1, t=0.0)
    unknowns = SlabUnknowns(U[:, None].astype(complex), R)
    res_u, res_r = residual(make_slab(asm, scheme, nl, tau), state, unknowns)

    # independent rebuild: hat function peaked at x=0.5, h = 1/2
    h = 0.5
    m_coef = 2 * h / 3.0
    a_coef = 2.0 / h
    xq, wq = np.polynomial.legendre.leggauss(3)  # p+2 points as in the solver
    xi = 0.5 * (xq + 1.0)
    w01 = 0.5 * wq

    def hat_left(xi):   # basis on [0, 0.5], rising
        return xi

    def nonlinear_load(u_val):
        # two mirror elements; by symmetry integrate the rising edge twice
        phi = hat_left(xi)
        uu = u_val * phi
        radicand = 2 * 0.5 * h * np.sum(w01 * nl.F(np.abs(uu) ** 2)) + nl.c0
        denom = np.sqrt(radicand)
        return 2 * h * np.sum(w01 * nl.f(np.abs(uu) ** 2) * uu * phi) / denom

    # temporal derivative by differentiating the nodal interpolant directly
    nodes = scheme.nodes
    for j in range(k):
        vals = np.concatenate([[u0], U])
        poly_re = np.polynomial.Polynomial.fit(nodes, vals.real, k).deriv()
        poly_im = np.polynomial.Polynomial.fit(nodes, vals.imag, k).deriv()
        du = (poly_re(scheme.rule.nodes[j])
              + 1j * poly_im(scheme.rule.nodes[j])) * 2.0 / tau
        rvals = np.concatenate([[state.r], R])
        dr = np.polynomial.Polynomial.fit(nodes, rvals, k).deriv()(
            scheme.rule.nodes[j]) * 2.0 / tau
        Nj = nonlinear_load(U[j])
        exp_u = 1j * m_coef * du + a_coef * U[j] - R[j] * Nj
        exp_r = dr - 0.5 * np.real(Nj * np.conj(du))
        np.testing.assert_allclose(res_u[j, 0], exp_u, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(res_r[j], exp_r, rtol=1e-12, atol=1e-13)


def _soliton_setup(M=40, p=2, k=2):
    prob = soliton()
    nl = power_law(2.0, 3.0, c0=1.0)
    space = build_space(prob.a, prob.b, M, p, PERIODIC)
    asm = Assemblies.build(space)
    u0 = interpolate(space, prob.u0)
    state = SavState(u=u0, r=r_init(asm, u0, nl), t=0.0)
    return space, asm, nl, state, collocation_scheme(k)


def test_newton_fixed_point():
    space, asm, nl, state, scheme = _soliton_setup()
    slab = make_slab(asm, scheme, nl, 0.1)
    new_state, report = advance(slab, state)
    solved = report.stages
    _, inc, _, _ = newton_step(slab, state, solved)
    assert inc <= 1e-12


def test_linear_problem_single_iteration():
    space = build_space(0.0, 1.0, 16, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(0.0, 3.0, c0=1.0)
    u0 = interpolate(space, lambda x: np.exp(2j * np.pi * x))
    state = SavState(u=u0, r=1.0, t=0.0)
    _, report = advance(make_slab(asm, collocation_scheme(2), nl, 0.05), state)
    assert report.iterations == 1
    assert report.residual_final <= 1e-10


def test_advance_zero_data():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(1.0, 3.0, c0=1.0)
    state = _zeros_state(space, np.sqrt(nl.c0))
    new_state, report = advance(make_slab(asm, collocation_scheme(2), nl, 0.2), state)
    np.testing.assert_allclose(new_state.u, 0.0, atol=1e-14)
    np.testing.assert_allclose(new_state.r, np.sqrt(nl.c0), rtol=1e-14)
    assert report.iterations == 1


def test_single_slab_mass_conservation():
    space, asm, nl, state, scheme = _soliton_setup(M=60, p=2, k=3)
    new_state, _ = advance(make_slab(asm, scheme, nl, 0.1), state)
    m0 = np.real(np.vdot(state.u, asm.mass @ state.u))
    m1 = np.real(np.vdot(new_state.u, asm.mass @ new_state.u))
    assert abs(m1 - m0) <= 1e-11 * m0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_linear_time_reversibility(k):
    space = build_space(-20.0, 20.0, 16, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(0.0, 3.0, c0=1.0)
    rng = np.random.default_rng(10)
    u0 = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
    state = SavState(u=u0, r=1.0, t=0.0)
    scheme = collocation_scheme(k)
    fwd, _ = advance(make_slab(asm, scheme, nl, 0.2), state)
    back, _ = advance(make_slab(asm, scheme, nl, -0.2), fwd)
    assert np.linalg.norm(back.u - u0) <= 1e-10 * np.linalg.norm(u0)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_nonlinear_time_reversibility_and_phase_invariance(k, bc):
    # Gauss collocation is symmetric, and the SAV system is invariant under a
    # global phase, under complex conjugation with time reversal and, on the
    # periodic mesh, under a shift by one element: all hold to roundoff for
    # kappa != 0, not only at kappa = 0
    prob = soliton()
    nl = power_law(prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 60, 2, bc)
    asm = Assemblies.build(space)
    scheme = collocation_scheme(k)
    u0 = interpolate(space, prob.u0)
    state = SavState(u=u0, r=r_init(asm, u0, nl), t=0.0)
    forward, backward = make_slab(asm, scheme, nl, 0.1), make_slab(asm, scheme, nl, -0.1)
    fwd, _ = advance(forward, state)
    back, _ = advance(backward, fwd)
    assert np.linalg.norm(back.u - u0) <= 1e-12 * np.linalg.norm(u0)
    assert abs(back.r - state.r) <= 1e-12 * abs(state.r)

    phase = np.exp(0.7j)
    rotated, _ = advance(forward, SavState(u=phase * u0, r=state.r, t=0.0))
    assert np.linalg.norm(rotated.u - phase * fwd.u) <= 1e-12 * np.linalg.norm(fwd.u)
    assert abs(rotated.r - fwd.r) <= 1e-12 * abs(fwd.r)

    conj_back, _ = advance(backward, SavState(u=u0.conj(), r=state.r, t=0.0))
    assert np.linalg.norm(conj_back.u - fwd.u.conj()) <= 1e-12 * np.linalg.norm(fwd.u)
    assert abs(conj_back.r - fwd.r) <= 1e-12 * abs(fwd.r)

    if bc == PERIODIC:
        p = space.degree
        shifted, _ = advance(forward, SavState(u=np.roll(u0, p), r=state.r, t=0.0))
        assert np.linalg.norm(shifted.u - np.roll(fwd.u, p)) <= 1e-12 * np.linalg.norm(fwd.u)
        assert abs(shifted.r - fwd.r) <= 1e-12 * abs(fwd.r)


class _SlabLog:
    def __init__(self):
        self.slabs = []

    def after_slab(self, n, prev_state, new_state, report):
        self.slabs.append((prev_state, new_state, report))


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_predictor_matches_cold_start(k, bc, monkeypatch):
    # integrate starts Newton on every slab after the first from the previous
    # slab's polynomial, with the linearization that slab kept: advance with the
    # same Carry gives each slab bit for bit, and a cold start from the constant
    # value with the same kept linearization reaches the same solution with at least
    # as many factorizations, and all of them together with more (its start is too
    # far for chord steps).  With no linearization kept or reused, every step exact,
    # a warm start takes no more Newton iterations than a cold one, and all together
    # fewer.  The warm side's exact steps leave the kept linearization that the cold
    # side is handed intact, as each factorization owns its storage, so no cold chord
    # step fails.  At k = 1 the linear extrapolation of the rotating phase misses the
    # stage mass by 14% (the constant start by 3.5%); the Newton Jacobian carries the
    # derivative of the SAV denominator, so that error still contracts quadratically.
    # At k = 2 and tau = 0.1 the warm start's chord steps contract by about 0.38, far
    # above THETA_MAX, and either start factors on every slab; at tau = 1/80 the warm
    # start keeps the linearization on most slabs
    prob = soliton()
    nl = power_law(prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 60, 2, bc)
    cfg = StepperConfig(tau=0.0125 if k == 2 else 0.1, k=k)
    log = _SlabLog()
    summary = integrate(prob.u0, cfg, space, nl, 0.5, observers=(log,))
    warm_slab, cold_slab = (Slab(cfg, summary.assemblies, summary.scheme, nl) for _ in "wc")
    carry, counts = Carry(), np.zeros((2, 2), dtype=int)   # [reuse off, on] x [warm, cold]

    def compare(state, previous, cold_previous, reuse):
        warm, warm_report = advance(warm_slab, state, previous)
        cold, cold_report = advance(cold_slab, state, cold_previous)
        assert np.linalg.norm(warm.u - cold.u) <= 1e-9 * np.linalg.norm(cold.u)
        assert abs(warm.r - cold.r) <= 1e-9 * abs(cold.r)
        assert np.inf not in cold_report.increment_history
        work = [(r.factorizations if reuse else r.iterations) for r in (warm_report, cold_report)]
        assert work[0] <= work[1]
        counts[int(reuse)] += work
        return warm, warm_report

    for n, (state, new, report) in enumerate(log.slabs, start=1):
        if n == 1:   # nothing kept yet: the same run on either side
            warm, warm_report = advance(warm_slab, state, carry)
            assert np.array_equal(new.u, advance(cold_slab, state)[0].u)
        else:
            warm, warm_report = compare(state, carry, Carry(lin=carry.lin), True)
        assert np.array_equal(new.u, warm.u) and new.r == warm.r
        assert report.increment_history == warm_report.increment_history
    step = stepper.newton_step   # no linearization kept or reused: every step exact
    monkeypatch.setattr(stepper, "newton_step", lambda *args: (*step(*args[:3])[:3], None))
    for (prev_state, _, prev_report), (state, _, _) in zip(log.slabs, log.slabs[1:]):
        compare(state, Carry(prev_state, prev_report.stages), None, False)
    assert np.all(counts[:, 0] < counts[:, 1]), counts


@pytest.mark.parametrize("config,overrides", [
    ("configs/soliton_conservation.cfg", {}),
    ("configs/soliton_conservation.cfg", {"q": "2", "kappa": "-1", "bc": "dirichlet"}),
    ("perfbench/cases/planewave_linear.cfg", {"T": "0.01"}),
])
def test_every_slab_meets_the_residual_gate(config, overrides):
    """The final collocation residual of every slab is at most 10 newton_tol
    (worst slabs 3.6e-14, 3.5e-14 and 2.4e-11 against 1e-9)."""
    cfg = parse_config(str(ROOT / config), overrides)
    log = _SlabLog()
    _, run = _prepare(cfg)
    assert run((log,)) is None
    assert len(log.slabs) == num_slabs(cfg.T, cfg.tau) > 0
    worst = max(report.residual_final for _, _, report in log.slabs)
    assert worst <= 10 * cfg.newton_tol


@pytest.mark.parametrize("config,overrides", [
    ("configs/soliton_conservation.cfg", {"T": "0.6"}),
    ("perfbench/cases/planewave_linear.cfg", {"T": "0.005"}),
])
def test_residual_final_is_the_residual_of_the_returned_stages(config, overrides):
    # StepReport.residual_final of every slab, recomputed from the slab's start state
    # and returned stages, on the nonlinear and the kappa = 0 path (whose r is held
    # constant, so its SAV rows, roundoff of D applied to a constant, do not count;
    # its norms run over a transposed array, in another summation order)
    cfg = parse_config(str(ROOT / config), overrides)
    prob, nl = build_problem(cfg)
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    scfg = StepperConfig(tau=cfg.tau, k=cfg.k, newton_tol=cfg.newton_tol)
    log = _SlabLog()
    summary = integrate(prob.u0, scfg, space, nl, cfg.T, observers=(log,))
    slab = Slab(scfg, summary.assemblies, summary.scheme, nl)
    assert len(log.slabs) == num_slabs(cfg.T, cfg.tau) > 0
    for state, _, report in log.slabs:
        res_u, res_r = residual(slab, state, report.stages)
        recomputed = max(np.linalg.norm(res_u, axis=1).max(),
                         0.0 if nl.is_linear else np.abs(res_r).max())
        assert abs(report.residual_final - recomputed) <= 1e-12 * recomputed


def test_newton_converges_quadratically(monkeypatch):
    # the first 3 slabs of configs/soliton_conservation.cfg (M = 200, p = 3,
    # k = 3, tau = 0.2), every step exact: once an increment e_n is below 1e-2, the
    # next exact one is at most C e_n^2, plus 1e-12 for roundoff.  Measured
    # e_{n+1} / e_n^2 there: 0.30, 0.49 and 0.50 (e.g. slab 2: 1.2e-5 -> 7.2e-11); with
    # the denominator frozen in the Jacobian it was 2.8 to 1e7 (slab 2: 7.2e-5 ->
    # 3.0e-7, ratio 57).  newton_step is called without the linearization it is
    # handed, so advance's chord steps are exact too
    step = stepper.newton_step
    monkeypatch.setattr(stepper, "newton_step",
                        lambda slab, state, unknowns, lin=None: step(slab, state, unknowns))
    cfg = parse_config(str(CONFIGS / "soliton_conservation.cfg"))
    prob, nl = build_problem(cfg)
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    scfg = StepperConfig(tau=cfg.tau, k=cfg.k, newton_tol=cfg.newton_tol)
    summary = integrate(prob.u0, scfg, space, nl, 3 * cfg.tau)
    C, pairs = 2.0, 0
    for report in summary.reports:
        e = report.increment_history
        for prev, nxt in zip(e, e[1:]):
            if prev < 1e-2:
                assert nxt <= C * prev ** 2 + 1e-12, e
                pairs += 1
    assert pairs >= len(summary.reports)


def _stops(e, e_last, chord, tol):
    """Whether advance's stopping rule ends a chord sequence, or Newton, at increment e."""
    if not chord:
        return e <= tol
    theta = e / e_last if e_last else None
    return e <= stepper.KAPPA * tol or (
        theta is not None and theta < 1 and theta / (1 - theta) * e <= stepper.KAPPA * tol)


def test_chord_steps_stop_on_the_contraction_estimate(monkeypatch):
    # the first 3 slabs of configs/soliton_conservation.cfg: each exact step's
    # linearization serves the chord steps after it, also on the next slab, and Newton
    # stops at the first exact increment e <= newton_tol or chord estimate
    # theta / (1 - theta) e <= KAPPA newton_tol (e <= KAPPA newton_tol with no theta).
    # StepReport.factorizations counts the real ones
    log = _log_bordered_solves(monkeypatch)
    cfg = parse_config(str(CONFIGS / "soliton_conservation.cfg"))
    prob, nl = build_problem(cfg)
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    scfg = StepperConfig(tau=cfg.tau, k=cfg.k, newton_tol=cfg.newton_tol)
    summary = integrate(prob.u0, scfg, space, nl, 3 * cfg.tau)
    pos = 0
    for report in summary.reports:
        steps = log[pos:pos + report.iterations]
        pos += report.iterations
        assert report.factorizations == sum(not chord for chord, _ in steps)
        e = report.increment_history
        stops = [_stops(e[i], e[i - 1] if i else None, steps[i][0], scfg.newton_tol)
                 for i in range(len(e))]
        assert stops[-1] and not any(stops[:-1]), e
    assert pos == len(log) == sum(r.iterations for r in summary.reports)
    assert log[-1][1] == sum(r.factorizations for r in summary.reports)
    assert summary.reports[1].factorizations < summary.reports[1].iterations
    assert log[summary.reports[0].iterations][0]   # slab 2 starts with slab 1's linearization


def _log_bordered_solves(monkeypatch, fail_chord=False):
    """Route stepper.solve_bordered through a wrapper; returns the log of
    (chord step?, factorizations so far) per solve, a chord step's solve being one
    with no factorization since the solve before it (or since the wrapper was put
    in).  With fail_chord the first chord solve raises SolverError."""
    log, calls, fail = [], [], [True] if fail_chord else []
    factor, solve = linsolve.factor, stepper.solve_bordered

    def counted_factor(K):
        calls.append(1)
        return factor(K)

    def logged_solve(factors, rhs_main, rhs_border):
        chord = len(calls) == (log[-1][1] if log else 0)
        if chord and fail:
            fail.clear()
            raise SolverError("chord solve failed")
        solution = solve(factors, rhs_main, rhs_border)
        log.append((chord, len(calls)))
        return solution

    monkeypatch.setattr(linsolve, "factor", counted_factor)
    monkeypatch.setattr(stepper, "solve_bordered", logged_solve)
    return log


def test_chord_step_that_does_not_converge_is_followed_by_an_exact_step(monkeypatch):
    # coarse defocusing data at k = 1 with newton_tol = 1e-3: a chord step whose
    # contraction theta = e_n / e_{n-1} exceeds THETA_MAX drops its linearization,
    # and the next step assembles and factors again; one with theta <= THETA_MAX is
    # followed by another chord step.  Slab 1: 1.2e-1 exact, 1.3e-2 (theta 0.11),
    # 1.4e-4 exact; slab 2, from slab 1's linearization: 2.7e-2, 1.2e-3 (theta 0.04),
    # 1.4e-4 (theta 0.12), 7.0e-7 exact
    log = _log_bordered_solves(monkeypatch)
    prob = soliton()
    nl = power_law(-prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 16, 1, PERIODIC)
    cfg = StepperConfig(tau=0.1, k=1, newton_tol=1e-3)
    summary = integrate(prob.u0, cfg, space, nl, 0.2)
    pos, dropped = 0, []
    for report in summary.reports:
        steps = log[pos:pos + report.iterations]
        pos += report.iterations
        assert report.factorizations == sum(not chord for chord, _ in steps)
        e = report.increment_history
        for i in range(1, len(e) - 1):
            if steps[i][0]:
                theta = e[i] / e[i - 1]
                assert steps[i + 1][0] == (theta <= stepper.THETA_MAX), (e, steps)
                dropped += [theta] if theta > stepper.THETA_MAX else []
    assert pos == len(log) and len(dropped) == 2
    assert log[summary.reports[0].iterations][0]   # slab 2 starts with slab 1's linearization


class _Factorization:
    """A SuperLU factorization that a weakref can track (SuperLU cannot)."""

    def __init__(self, lu):
        self.solve = lu.solve


def _count_live_factorizations(monkeypatch):
    """Route linsolve.factor through weakref-tracked factorizations; returns the
    number of earlier factorizations still alive at each call, and the weakrefs."""
    live, refs, factor = [], [], linsolve.factor

    def tracked_factor(K):
        live.append(sum(ref() is not None for ref in refs))
        lu = _Factorization(factor(K))
        refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(linsolve, "factor", tracked_factor)
    return live, refs


def test_no_factorization_outlives_its_use(monkeypatch):
    # 5 slabs of configs/soliton_conservation.cfg, chord steps on kept linearizations
    # included: at most one factorization is alive at any time, none when the next one
    # is made (a live one pins SuperLU's workspace, or W and the band's factors, and
    # raises peak RSS), and none once integrate has returned
    live, refs = _count_live_factorizations(monkeypatch)
    cfg = parse_config(str(CONFIGS / "soliton_conservation.cfg"))
    prob, nl = build_problem(cfg)
    space = build_space(cfg.a, cfg.b, cfg.M, cfg.p, cfg.bc)
    scfg = StepperConfig(tau=cfg.tau, k=cfg.k, newton_tol=cfg.newton_tol)
    summary = integrate(prob.u0, scfg, space, nl, 5 * cfg.tau)
    assert len(live) == sum(r.factorizations for r in summary.reports) == 6
    assert live == [0] * len(live)
    assert [ref() for ref in refs] == [None] * len(refs)


def test_chord_step_solver_error_refreshes_the_linearization(monkeypatch):
    # slab 2 starts with a chord step on slab 1's linearization; a SolverError in
    # that chord solve drops the linearization and the slab goes on from the same
    # iterate with an exact step, bit for bit as a slab with no kept linearization,
    # without a restart from the constant value; the kept linearization is freed
    # before the refresh factors
    prob = soliton()
    nl = power_law(prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 60, 2, PERIODIC)
    cfg = StepperConfig(tau=0.1, k=2)
    log = _SlabLog()
    summary = integrate(prob.u0, cfg, space, nl, 0.2, observers=(log,))
    (state0, state1, report1), _ = log.slabs
    slab = Slab(cfg, summary.assemblies, summary.scheme, nl)
    fresh, fresh_report = advance(slab, state1, Carry(state0, report1.stages))
    carry = Carry()
    advance(slab, state0, carry)
    assert carry.lin is not None
    live, _ = _count_live_factorizations(monkeypatch)
    solves = _log_bordered_solves(monkeypatch, fail_chord=True)
    new, report = advance(slab, state1, carry)
    assert live == [0] * report.factorizations
    assert not solves[0][0]   # the failed chord solve is not logged; the next step is exact
    assert np.array_equal(new.u, fresh.u) and new.r == fresh.r
    assert report.increment_history == [np.inf] + fresh_report.increment_history
    assert report.factorizations == fresh_report.factorizations
    assert report.warnings == fresh_report.warnings == []


def test_kept_linearization_whose_contraction_exceeds_the_bound_is_dropped(monkeypatch):
    # a linearization kept on the soliton's first slab, reused for the same data turned
    # by a global phase of 0.7 (which turns the g2 part of the Jacobian by 1.4): the
    # second chord step contracts by theta = 0.26 > THETA_MAX, so the next step is exact,
    # and the slab converges to the cold-start solution and keeps the new linearization
    prob = soliton()
    nl = power_law(prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 60, 2, PERIODIC)
    asm = Assemblies.build(space)
    slab = make_slab(asm, collocation_scheme(2), nl, 0.1)
    u0 = interpolate(space, prob.u0)
    state = SavState(u=u0, r=r_init(asm, u0, nl), t=0.0)
    turned = SavState(u=np.exp(0.7j) * u0, r=state.r, t=0.0)
    cold, _ = advance(slab, turned)
    carry = Carry()
    advance(slab, state, carry)
    kept, log = carry.lin, _log_bordered_solves(monkeypatch)
    turned_carry = Carry(lin=kept)
    new, report = advance(slab, turned, turned_carry)
    e = report.increment_history
    assert [chord for chord, _ in log[:3]] == [True, True, False]
    assert e[1] / e[0] > stepper.THETA_MAX and report.factorizations >= 1
    assert np.linalg.norm(new.u - cold.u) <= 1e-9 * np.linalg.norm(cold.u)
    assert turned_carry.lin is not None and turned_carry.lin is not kept


def test_newton_step_calls_equal_report_iterations(monkeypatch):
    # every Newton step goes through stepper.newton_step and counts in its slab's
    # StepReport.iterations: exact and chord steps, chord steps dropped for their
    # contraction, and a chord step whose solve raised
    step, calls = stepper.newton_step, []
    monkeypatch.setattr(stepper, "newton_step", lambda *args: calls.append(1) or step(*args))
    _log_bordered_solves(monkeypatch, fail_chord=True)

    class Counter:
        def __init__(self):
            self.per_slab, self.seen = [], 0

        def after_slab(self, n, prev_state, new_state, report):
            self.per_slab.append((len(calls) - self.seen, report))
            self.seen = len(calls)

    prob = soliton()
    counter = Counter()
    integrate(prob.u0, StepperConfig(tau=0.1, k=2), build_space(prob.a, prob.b, 60, 2, PERIODIC),
              power_law(prob.kappa, prob.q, c0=1.0), 0.3, observers=(counter,))
    assert [n for n, _ in counter.per_slab] == [r.iterations for _, r in counter.per_slab]
    assert np.inf in counter.per_slab[0][1].increment_history   # the rejected chord step


def _run_digest(tau):
    """SHA-256 of the states and increment histories of a short soliton run with tau."""
    prob = soliton()
    summary = integrate(prob.u0, StepperConfig(tau=tau, k=2),
                        build_space(prob.a, prob.b, 40, 2, PERIODIC),
                        power_law(prob.kappa, prob.q, c0=1.0), 0.4)
    parts = [s.u.tobytes() + np.float64(s.r).tobytes() for s in summary.states]
    parts += [np.array(r.increment_history).tobytes() for r in summary.reports]
    return hashlib.sha256(b"".join(parts)).hexdigest()


def test_runs_with_another_tau_in_one_process_give_the_bits_of_fresh_processes():
    # nothing a run keeps, its linearization included, reaches another run: two runs
    # with different tau, one after the other in this process, give the bits of each
    # run alone in a fresh process
    here = [_run_digest(tau) for tau in (0.1, 0.05)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    fresh = [subprocess.run([sys.executable, "-c", "import sys; from test_stepper import "
                             f"_run_digest; print(_run_digest({tau}))"], env=env, check=True,
                            capture_output=True, text=True).stdout.strip() for tau in (0.1, 0.05)]
    assert here == fresh and here[0] != here[1]


def test_failed_predictor_restarts_from_constant_value():
    # under-resolved defocusing data (h = 1.25 against wave number 2): the
    # extrapolated start of slab 2 has a nonpositive SAV radicand in its chord step on
    # slab 1's linearization.  The iterate, not the linearization, is at fault, so
    # advance goes straight to the restart without an exact step from the same iterate,
    # solves the slab from the constant value, bit for bit as a cold start, and counts
    # the failed step
    prob = soliton(-10.0, 10.0)
    nl = power_law(-prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 16, 3, PERIODIC)
    cfg = StepperConfig(tau=0.1, k=1)
    log = _SlabLog()
    summary = integrate(prob.u0, cfg, space, nl, 0.2, observers=(log,))
    state, new, report = log.slabs[1]
    cold, cold_report = advance(Slab(cfg, summary.assemblies, summary.scheme, nl), state)
    assert np.array_equal(new.u, cold.u) and new.r == cold.r
    assert report.increment_history == [np.inf] + cold_report.increment_history
    assert report.warnings[0].startswith("restarted Newton from the constant value; the start "
                                         "from the previous slab's polynomial failed at step 1")
    assert "nonpositive" in report.warnings[0]


def test_start_that_does_not_converge_restarts_from_constant_value(monkeypatch):
    # slab 2's start from the previous slab's polynomial reports increments 0.05^i,
    # i = 0..5, for its max_newton_iters = 6 steps: one exact step, then chord steps
    # whose theta = 0.05 keeps the linearization but never meets the stopping rule.
    # advance then drops it and solves the slab from the constant value, bit for bit
    # as a cold start, and keeps the failed start's steps in the slab's history and
    # factorization count
    prob = soliton()
    nl = power_law(prob.kappa, prob.q, c0=1.0)
    space = build_space(prob.a, prob.b, 60, 2, PERIODIC)
    cfg = StepperConfig(tau=0.1, k=2, max_newton_iters=6)
    log = _SlabLog()
    summary = integrate(prob.u0, cfg, space, nl, 0.2, observers=(log,))
    (state0, state1, report1), _ = log.slabs
    slab = Slab(cfg, summary.assemblies, summary.scheme, nl)
    cold, cold_report = advance(slab, state1)
    step, steps = stepper.newton_step, []

    def stalled(*args, **kwargs):
        unknowns, inc, clamped, lin = step(*args, **kwargs)
        steps.append(inc)
        return unknowns, 0.05 ** (len(steps) - 1) if len(steps) <= 6 else inc, clamped, lin

    monkeypatch.setattr(stepper, "newton_step", stalled)
    new, report = advance(slab, state1, previous=Carry(state0, report1.stages))
    assert np.array_equal(new.u, cold.u) and new.r == cold.r
    assert report.increment_history == [0.05 ** i for i in range(6)] + cold_report.increment_history
    assert report.factorizations == 1 + cold_report.factorizations
    assert "did not converge in 6 iterations" in report.warnings[0]


def _count_builds(monkeypatch, name):
    """Route the body of the cached property Slab.<name> through a counter, under
    the property's own caching; returns the list of the Slabs it was built for."""
    prop, built = vars(Slab)[name], []
    build = prop.func

    def counted(slab):
        built.append(slab)
        return build(slab)

    monkeypatch.setattr(prop, "func", counted)
    return built


def test_per_run_data_is_built_once(monkeypatch):
    # a 3-slab nonlinear run reads the element layout and the linear part of the element
    # blocks at every exact step and a 3-slab kappa = 0 run factors its stage matrix on
    # every slab: each run builds them once.  Two Slabs on one Assemblies with different
    # tau build their own blocks
    slots, blocks = (_count_builds(monkeypatch, name) for name in ("elements", "linear_block"))
    prob = soliton()
    space = build_space(prob.a, prob.b, 30, 1, PERIODIC)
    summary = integrate(prob.u0, StepperConfig(tau=0.1, k=2), space,
                        power_law(2.0, 3.0, c0=1.0), 0.3)
    assert len(slots) == 1 and blocks == []
    assert sum(r.factorizations for r in summary.reports) >= 2
    linear = power_law(0.0, 3.0, c0=1.0)
    summary = integrate(prob.u0, StepperConfig(tau=0.1, k=2), space, linear, 0.3)
    assert summary.num_slabs == 3 and len(slots) == 1 and len(blocks) == 1
    asm, scheme, state = summary.assemblies, summary.scheme, summary.final_state
    short, long = make_slab(asm, scheme, linear, 0.1), make_slab(asm, scheme, linear, 0.2)
    for slab in (short, long, short, long):
        advance(slab, state)
    assert len(blocks) == 3 and blocks[1] is short and blocks[2] is long
    assert (short.linear_block != long.linear_block).nnz > 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 4), k=st.integers(1, 4), bc=st.sampled_from([PERIODIC, DIRICHLET]),
       sign=st.sampled_from([1.0, -1.0]), q=st.sampled_from([3.0, 5.0]),
       c0=st.floats(1.0, 10.0))
def test_random_sweep_conserves_mass_energy_and_stage_mass(p, k, bc, sign, q, c0):
    # criterion 3's drift bounds and the internal-stage mass bound hold for
    # every degree pair, boundary condition, sign of kappa, power and c0
    prob = soliton(-10.0, 10.0)
    nl = power_law(sign * prob.kappa, q, c0=c0)
    space = build_space(prob.a, prob.b, 16, p, bc)
    recorder = RunRecorder()
    internal = InternalMassObserver()
    integrate(prob.u0, StepperConfig(tau=0.1, k=k), space, nl, 0.3,
              observers=(recorder, internal))
    mass0 = recorder.records[0].mass
    assert recorder.max_mass_drift <= 1e-10 * mass0
    assert recorder.max_sav_energy_drift <= 1e-9
    assert internal.all_ok, internal.worst_ratio


def test_integral_reformulation_identity():
    # the converged slab satisfies the integral form of the stage equations
    # against arbitrary space-time test functions
    space, asm, nl, state, scheme = _soliton_setup(M=40, p=2, k=3)
    k, tau = 3, 0.1
    slab = make_slab(asm, scheme, nl, tau)
    new_state, report = advance(slab, state)
    U, R = report.stages.u_stages, report.stages.r_stages
    nodal_u = np.vstack([state.u[None, :], U])
    interval = (0.0, tau)
    u_poly = SlabPolynomial(values=nodal_u, slab=interval, nodes=scheme.nodes)
    pu_poly = temporal_l2_project(u_poly)

    data = _stage_data(slab, state, report.stages, need_jacobian=False)
    N = data["N"]

    tq, wq = np.polynomial.legendre.leggauss(k + 2)
    t_quad = 0.5 * tau * (1.0 + tq)
    rng = np.random.default_rng(12)
    for _ in range(5):
        v_nodal = rng.standard_normal((k + 1, space.num_dofs)) \
            + 1j * rng.standard_normal((k + 1, space.num_dofs))
        v_nodal /= np.linalg.norm(v_nodal)
        v_poly = SlabPolynomial(values=v_nodal, slab=interval, nodes=scheme.nodes)

        term_dt = 0.0
        term_grad = 0.0
        for t, w in zip(t_quad, wq):
            du = u_poly.derivative(t)
            v = v_poly.evaluate(t)
            pu = pu_poly.evaluate(t)
            term_dt += 0.5 * tau * w * 1j * np.vdot(v, asm.mass @ du)
            term_grad += 0.5 * tau * w * np.vdot(v, asm.stiff @ pu)
        term_nl = 0.0
        for j in range(k):
            t_j = 0.5 * tau * (1.0 + scheme.rule.nodes[j])
            v_j = v_poly.evaluate(t_j)
            term_nl += 0.5 * tau * scheme.rule.weights[j] * R[j] * np.vdot(v_j, N[j])
        total = term_dt + term_grad - term_nl
        assert abs(total) <= 1e-9


def test_newton_non_convergence_raises():
    space, asm, nl, state, scheme = _soliton_setup(M=30, p=1, k=2)
    with pytest.raises(StepError) as err:
        advance(make_slab(asm, scheme, nl, 0.2, max_newton_iters=1), state)
    assert len(err.value.increment_history) == 1


def test_integrate_zero_slabs_returns_initial():
    prob = soliton()
    nl = power_law(2.0, 3.0, c0=1.0)
    space = build_space(prob.a, prob.b, 30, 1, PERIODIC)
    cfg = StepperConfig(tau=0.1, k=1)
    summary = integrate(prob.u0, cfg, space, nl, T=0.0)
    assert summary.num_slabs == 0
    np.testing.assert_array_equal(summary.final_state.u,
                                  interpolate(space, prob.u0))


def test_integrate_reports_failing_slab():
    prob = soliton()
    nl = power_law(2.0, 3.0, c0=1.0)
    space = build_space(prob.a, prob.b, 30, 1, PERIODIC)
    cfg = StepperConfig(tau=0.25, k=2, max_newton_iters=2)  # too few iterations
    with pytest.raises(StepError) as err:
        integrate(prob.u0, cfg, space, nl, T=1.0)
    assert err.value.failed_slab == 1
    assert "slab 1" in str(err.value)


def test_integrate_non_finite_g_derivatives_is_step_error():
    prob = soliton()
    nl = Nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 2, fp=lambda s: np.inf + 0 * s)
    space = build_space(prob.a, prob.b, 30, 1, PERIODIC)
    with pytest.raises(StepError, match="not finite") as err:
        integrate(prob.u0, StepperConfig(tau=0.1, k=2), space, nl, T=0.2)
    assert err.value.failed_slab == 1
    assert err.value.increment_history == [np.inf]   # the one step, which raised


def _loop_layout_reference(N, du, G1, X2, Y2, alpha, R, denoms, k, n):
    """Border blocks B, C written out stage by stage, re/im block by block.  Row j
    of C carries the denominator's derivative lift[j, m] Re<N_m, dU_m>, from
    d(alpha dR)_j = sum_m alpha[j, m] (z_m + R_m sigma_m / (2 d_m)) and from
    d(-Re<N_j, du_j> / 2) = Re<N_j, du_j> sigma_j / (4 d_j)."""
    B = np.zeros((2 * k * n, k))
    for m in range(k):
        B[2 * m * n:(2 * m + 1) * n, m] = -N[m].real
        B[(2 * m + 1) * n:(2 * m + 2) * n, m] = -N[m].imag
    C = np.zeros((k, 2 * k * n))
    for j in range(k):
        load_rate = np.real(np.einsum("i,i->", N[j], du[j].conj()))
        for m in range(k):
            lift = alpha[j, m] * (R[m] / (2.0 * denoms[m]))
            if j == m:
                lift += 0.25 * load_rate / denoms[j]
            C[j, 2 * m * n:(2 * m + 1) * n] += -0.5 * alpha[j, m] * N[j].real
            C[j, (2 * m + 1) * n:(2 * m + 2) * n] += -0.5 * alpha[j, m] * N[j].imag
            C[j, 2 * m * n:(2 * m + 1) * n] += lift * N[m].real
            C[j, (2 * m + 1) * n:(2 * m + 2) * n] += lift * N[m].imag
        re_du, im_du = du[j].real, du[j].imag
        C[j, 2 * j * n:(2 * j + 1) * n] += -0.5 * (G1[j] @ re_du + X2[j] @ re_du + Y2[j] @ im_du)
        C[j, (2 * j + 1) * n:(2 * j + 2) * n] += -0.5 * (G1[j] @ im_du + Y2[j] @ re_du - X2[j] @ im_du)
    return B, C


def _assert_same_border_rows(got, want, k, n):
    """C of the stage-major real form, against the loop reference: equal bit for bit but in
    its G-part blocks (row j, stage j's 2n columns), where the quadrature kernel applies
    G1_j + (X2_j + i Y2_j) conj to du_j and the reference multiplies CSR matrices; there
    within 1e-13 of the block's largest entry."""
    g_part = np.zeros(want.shape, dtype=bool)
    for j in range(k):
        g_part[j, 2 * j * n:2 * (j + 1) * n] = True
        diff, block = got[j] - want[j], want[j, 2 * j * n:2 * (j + 1) * n]
        assert np.abs(diff[2 * j * n:2 * (j + 1) * n]).max() <= 1e-13 * np.abs(block).max()
    assert np.array_equal(got[~g_part], want[~g_part])


def _loop_real_parts(vectors):
    k, n = vectors.shape
    out = np.empty(2 * k * n)
    for j in range(k):
        out[2 * j * n:(2 * j + 1) * n] = vectors[j].real
        out[(2 * j + 1) * n:(2 * j + 2) * n] = vectors[j].imag
    return out


def _loop_complex_parts(x, k, n):
    out = np.empty((k, n), dtype=np.complex128)
    for m in range(k):
        out[m] = x[2 * m * n:(2 * m + 1) * n] + 1j * x[(2 * m + 1) * n:(2 * m + 2) * n]
    return out


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_real_form_layout_matches_blockwise_loops(k, bc):
    space = build_space(-3.0, 3.0, 7, 2, bc)
    asm = Assemblies.build(space)
    nl = power_law(2.0, 3.0, c0=1.0)
    tau = 0.17
    scheme = collocation_scheme(k)
    n = space.num_dofs
    rng = np.random.default_rng(10 * k + (bc == DIRICHLET))
    state = SavState(u=rng.standard_normal(n) + 1j * rng.standard_normal(n), r=1.3, t=0.0)
    unk = SlabUnknowns(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)),
                       1.0 + 0.2 * rng.standard_normal(k))
    slab = make_slab(asm, scheme, nl, tau)
    data = _stage_data(slab, state, unk, need_jacobian=True)
    system = _assemble_newton_system(slab, unk, data)
    res_u = data["res_u"]
    alpha = (2.0 / tau) * scheme.diff_matrix[:, 1:]
    B, C = _loop_layout_reference(data["N"], data["du"], *stage_matrices(asm, data["g"]),
                                  alpha, unk.r_stages, data["denoms"], k, n)
    full = real_form_matrix(system)
    assert np.array_equal(full[:2 * k * n, 2 * k * n:], B)
    _assert_same_border_rows(full[2 * k * n:, :2 * k * n], C, k, n)
    assert np.array_equal(to_stage_order(*newton_rhs(data)),
                          np.concatenate([-_loop_real_parts(res_u), -data["res_r"]]))
    v = unk.u_stages
    assert np.array_equal(real_parts(v), _loop_real_parts(v))
    x = _loop_real_parts(v)
    assert np.array_equal(_real_unknowns(v), x[stage_order(n, k)[:2 * k * n]])
    assert np.array_equal(_stage_vectors(_real_unknowns(v), k), _loop_complex_parts(x, k, n))
    assert np.array_equal(_stage_vectors(_real_unknowns(v), k), v)


def _coo_scatter_reference(space, local):
    """Global CSR through COO -> CSR conversion, as assembled before MatrixPattern."""
    dm = space.dof_map
    M, nloc = dm.shape
    rows = np.broadcast_to(dm[:, :, None], (M, nloc, nloc)).ravel()
    cols = np.broadcast_to(dm[:, None, :], (M, nloc, nloc)).ravel()
    data = np.broadcast_to(local, (M, nloc, nloc)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix((data[keep], (rows[keep], cols[keep])),
                        shape=(space.num_dofs, space.num_dofs))
    return mat.tocsr()


def _bmat_reference(Mr, Ar, G1, X2, Y2, R, alpha, k):
    """Real-form main block built from sparse block operations and sp.bmat."""
    grid = [[None] * (2 * k) for _ in range(2 * k)]
    for j in range(k):
        for m in range(k):
            a = alpha[j, m]
            top_right = -a * Mr
            bottom_left = a * Mr
            if j == m:
                grid[2 * j][2 * m] = Ar - R[j] * (G1[j] + X2[j])
                grid[2 * j + 1][2 * m + 1] = Ar - R[j] * (G1[j] - X2[j])
                top_right = top_right - R[j] * Y2[j]
                bottom_left = bottom_left - R[j] * Y2[j]
            grid[2 * j][2 * m + 1] = top_right
            grid[2 * j + 1][2 * m] = bottom_left
    return sp.bmat(grid, format="csc")


def _element_loop_reference(space, G1, X2, Y2, R, alpha, k):
    """Real-form main block, dense and stage-major like _bmat_reference, summed element by
    element, in element order, from each element's real-form entries written out block by
    block: (M_e (alpha[j, m] (x) [[0, -1], [1, 0]]) + A_e (x) I) - R_j (G_j's 2 x 2 block),
    with the element matrices G1, X2, Y2 (k, M, p+1, p+1) of the quadrature kernel."""
    n, dm = space.num_dofs, space.dof_map
    mass, stiff = element_matrices(space)
    rot, keep = [[0, -1], [1, 0]], (dm[:, :, None] >= 0) & (dm[:, None, :] >= 0)
    K = np.zeros((2 * k * n, 2 * k * n))
    for j, s, m, t in np.ndindex(k, 2, k, 2):
        local = np.broadcast_to(mass * (alpha[j, m] * rot[s][t]) + stiff * float(
            (j, s) == (m, t)), dm.shape + dm.shape[1:])
        if j == m:
            G = (G1[j] + X2[j], Y2[j], Y2[j], G1[j] - X2[j])[2 * s + t]
            local = local - R[j] * G
        rows, cols = (2 * j + s) * n + dm[:, :, None], (2 * m + t) * n + dm[:, None, :]
        np.add.at(K, (np.broadcast_to(rows, keep.shape)[keep],
                      np.broadcast_to(cols, keep.shape)[keep]), local[keep])
    return K


def _assert_same_sparse(a, b):
    assert a.format == b.format and a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@pytest.mark.parametrize("M", [2, 5])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_fixed_layout_assembly_matches_coo_and_bmat(p, k, bc, M, monkeypatch):
    scatter = fem.scatter_matrix
    scattered = []   # (local, assembled) of every scatter_matrix call, in call order

    def recording(pattern, local):
        scattered.append((np.array(local), scatter(pattern, local)))
        return scattered[-1][1]

    integrals, kernel = stepper._integrals, []   # the kernel's element matrices G1, X2, Y2

    def recording_kernel(asm, values, matrices=False):
        out = integrals(asm, values, matrices)
        if matrices:
            kernel.append(out)
        return out

    monkeypatch.setattr(fem, "scatter_matrix", recording)
    monkeypatch.setattr(stepper, "scatter_matrix", recording)
    monkeypatch.setattr(stepper, "_integrals", recording_kernel)
    space = build_space(-3.0, 3.0, M, p, bc)
    asm = Assemblies.build(space)
    nl = power_law(2.0, 3.0, c0=1.0)
    tau = 0.17
    scheme = collocation_scheme(k)
    n = space.num_dofs
    rng = np.random.default_rng(100 * p + 10 * k + M + (bc == DIRICHLET))
    state = SavState(u=rng.standard_normal(n) + 1j * rng.standard_normal(n), r=1.3, t=0.0)
    unk = SlabUnknowns(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)),
                       1.0 + 0.2 * rng.standard_normal(k))
    slab = make_slab(asm, scheme, nl, tau)
    data = _stage_data(slab, state, unk, need_jacobian=True)
    system = _assemble_newton_system(slab, unk, data)

    assert len(scattered) == 2   # mass and stiffness; the Jacobian is kept as element blocks
    ref = [_coo_scatter_reference(space, local) for local, _ in scattered]
    for r, (_, assembled) in zip(ref, scattered):
        _assert_same_sparse(assembled, r)
    mass, stiff = ref   # real: _assert_same_sparse compares dtypes too
    _assert_same_sparse(asm.mass, mass)
    _assert_same_sparse(asm.stiff, stiff)
    locals_ = stage_element_matrices(asm, data["g"])   # the per-stage einsums, as COO
    G1, X2, Y2 = ([_coo_scatter_reference(space, local) for local in part] for part in locals_)

    alpha = (2.0 / tau) * scheme.diff_matrix[:, 1:]
    full = real_form_matrix(system)   # summed from the element blocks, and the border
    # an entry shared by two elements sums their blocks: bit for bit against the element
    # loops, and within roundoff of sp.bmat, which sums the operators' entries first
    assert np.array_equal(full[:2 * k * n, :2 * k * n],
                          _element_loop_reference(space, *kernel, unk.r_stages, alpha, k))
    K = _bmat_reference(mass, stiff, G1, X2, Y2, unk.r_stages, alpha, k).toarray()
    assert np.abs(full[:2 * k * n, :2 * k * n] - K).max() <= 1e-14 * np.abs(K).max()
    B, C = _loop_layout_reference(data["N"], data["du"], G1, X2, Y2, alpha,
                                  unk.r_stages, data["denoms"], k, n)
    assert np.array_equal(full[:2 * k * n, 2 * k * n:], B)
    _assert_same_border_rows(full[2 * k * n:, :2 * k * n], C, k, n)
    assert np.array_equal(full[2 * k * n:, 2 * k * n:], alpha)
    assert np.array_equal(to_stage_order(*newton_rhs(data)),
                          np.concatenate([-_loop_real_parts(data["res_u"]), -data["res_r"]]))


@pytest.mark.parametrize("M", [2, 5])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p, q", [(1, 3.0), (2, 3.0), (3, 3.0), (4, 3.0), (2, 2.0)])
def test_quadrature_kernel_matches_the_per_stage_einsums_and_matvecs(p, q, k, bc, M):
    # the element data, the loads N and the pointwise apply of stepper._integrals against
    # the per-stage einsums and CSR matvecs they replaced; q = 2 on a zero element clamps
    space = build_space(-3.0, 3.0, M, p, bc)
    asm = Assemblies.build(space)
    nl = power_law(2.0, q, c0=1.0)
    n = space.num_dofs
    rng = np.random.default_rng(100 * p + 10 * k + M + (bc == DIRICHLET) + (q == 2.0))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    unk = SlabUnknowns(cplx(k, n), 1.0 + 0.2 * rng.standard_normal(k))
    if q == 2.0:
        unk.u_stages[:, :p + 1] = 0.0   # all of element 0's coefficients, either bc
    data = _stage_data(make_slab(asm, collocation_scheme(k), nl, 0.17),
                       SavState(u=cplx(n), r=1.3, t=0.0), unk, need_jacobian=True)
    assert (data["clamped"] >= k * (p + 2)) == (q == 2.0)   # nq = p + 2 points per element

    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    assert_close(data["N"], stage_loads(asm, nl, unk.u_stages, data["denoms"]))
    g1, g2 = data["g"]
    G = stage_matrices(asm, data["g"])
    for part, ref in zip((g1, g2.real, g2.imag), stage_element_matrices(asm, data["g"])):
        assert_close(_integrals(asm, part, True), ref)
    v = cplx(k, n)
    v_q = element_coefficients(space, v) @ asm.phi.T
    assert_close(_integrals(asm, g1 * v_q + g2 * v_q.conj()), apply_g(*G, v))


def _integrate_density_reference(space, v, F, nq):
    """int F(|v|^2) dx as fem.integrate_density computed it, with basis tables of
    its own."""
    pts, wts = fem.reference_quadrature(nq)
    phi = lagrange_basis(fem.reference_nodes(space.degree), pts)
    u = fem.element_coefficients(space, v) @ phi.T
    return float(space.mesh.h * np.sum(wts[None, :] * F(np.abs(u) ** 2)))


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_real_operators_give_the_bits_of_complex_copies(p, bc):
    """Complex products with the real mass and stiffness, and the one F-quadrature,
    equal the former forms: complex astype copies of both operators, their real
    parts, and integrate_density."""
    space = build_space(-3.0, 3.0, 7, p, bc)
    asm = Assemblies.build(space)
    assert asm.mass.dtype == asm.stiff.dtype == np.float64
    mass_c, stiff_c = (a.astype(np.complex128) for a in (asm.mass, asm.stiff))
    mass_real = mass_c.real.tocsr()
    n, k, tau = space.num_dofs, 3, 0.17
    scheme = collocation_scheme(k)
    nl = power_law(2.0, 3.0, c0=1.0)
    rng = np.random.default_rng(10 * p + (bc == DIRICHLET))

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, u_stages = cplx(n), cplx(k, n)
    state = SavState(u=u, r=1.3, t=0.0)
    assert np.array_equal(diagnostics.mass(asm, u), float(np.real(np.vdot(u, mass_c @ u))))
    assert np.array_equal(diagnostics.sav_energy(asm, state),
                          float(0.5 * np.real(np.vdot(u, stiff_c @ u)) - state.r ** 2))

    slab = make_slab(asm, scheme, nl, tau)
    du, lin = stepper._linear_residual(slab, state, u_stages)
    assert np.array_equal(lin, (1j * (mass_c @ du.T) + stiff_c @ u_stages.T).T)

    alpha = (2.0 / tau) * scheme.diff_matrix[:, 1:]
    block = sp.bmat([[1j * alpha[j, m] * mass_c + stiff_c if j == m
                      else 1j * alpha[j, m] * mass_c for m in range(k)] for j in range(k)],
                    format="csc")
    _assert_same_sparse(slab.linear_block, block)

    delta_u, delta_r = cplx(k, n), rng.standard_normal(k)
    l2 = [np.sqrt(d.real @ (mass_real @ d.real) + d.imag @ (mass_real @ d.imag))
          for d in delta_u]
    assert np.array_equal(stepper._increment_norm(asm, delta_u, delta_r),
                          float(max(max(l2), np.abs(delta_r).max())))

    bulk = _integrate_density_reference(space, u, nl.F, space.degree + 2)
    assert np.array_equal(r_init(asm, u, nl), float(np.sqrt(0.5 * bulk + nl.c0)))
    assert np.array_equal(diagnostics.original_energy(asm, u, nl),
                          float(0.5 * np.real(np.vdot(u, stiff_c @ u)) - 0.5 * bulk))
