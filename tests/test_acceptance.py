"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one `[criterion N] PASS/FAIL` line (visible with `pytest -s` or on
failure).  The temporal/spatial sweeps take a few minutes; set
SAV_NLS_THREADS to control their process-level parallelism.
"""

import numpy as np
import pytest

from sav_nls.cli import parse_config, run_sweep
from sav_nls.collocation import collocation_scheme, gauss_rule, temporal_ritz_project
from sav_nls.diagnostics import InternalMassObserver, RunRecorder, eoc
from sav_nls.fem import PERIODIC, build_space, interpolate
from sav_nls.model import SavState, power_law, r_init
from sav_nls.problems import soliton
from sav_nls.stepper import (Assemblies, SlabUnknowns, StepperConfig,
                             _assemble_newton_system, _stage_data, advance, integrate,
                             residual)

from newton_matrix import make_slab, real_form_matrix, real_parts

TABLE_TIME_K2 = {  # reference L-infinity H1 errors for the p=3 benchmark
    1 / 60: 3.7964e-05, 1 / 70: 2.3429e-05, 1 / 80: 1.5460e-05,
    1 / 90: 1.0733e-05, 1 / 100: 7.7542e-06,
}
TABLE_TIME_K3 = {
    1 / 20: 3.4019e-05, 1 / 25: 1.3821e-05, 1 / 30: 6.6322e-06,
    1 / 35: 3.5689e-06, 1 / 40: 2.0886e-06,
}


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _time_sweep(k, tau_list, tmp_path):
    cfg = parse_config(None, {
        "problem": "soliton", "M": "2000", "p": "3", "k": str(k), "T": "1",
        "tau": str(tau_list[0]),
        "tau_list": ",".join(repr(t) for t in tau_list),
    })
    return run_sweep(cfg, "tau", out_dir=str(tmp_path))


@pytest.mark.parametrize("k,denoms,window,table", [
    (2, (60, 70, 80, 90, 100), (2.8, 3.3), TABLE_TIME_K2),
    (3, (20, 25, 30, 35, 40), (3.8, 4.2), TABLE_TIME_K3),
])
def test_criterion_1_temporal_order(k, denoms, window, table, tmp_path):
    tau_list = [1.0 / d for d in denoms]
    result = _time_sweep(k, tau_list, tmp_path)
    orders = result.orders[1:]
    in_window = np.all((orders >= window[0]) & (orders <= window[1]))
    within_factor = all(ref / 3.0 <= err <= 3.0 * ref
                        for err, ref in zip(result.errors, table.values()))
    detail = (f"k={k} errors={np.array2string(result.errors, precision=3)} "
              f"EOC={np.array2string(orders, precision=3)} "
              f"window={window} factor3={within_factor}")
    _report(1, in_window and within_factor, detail)
    assert within_factor, detail
    assert in_window, detail


@pytest.mark.parametrize("p,M_list,window", [
    (1, (200, 400, 800), (0.9, 1.1)),
    (2, (120, 160, 200), (1.9, 2.1)),
    (3, (45, 60, 80), (2.8, 3.2)),
])
def test_criterion_2_spatial_order(p, M_list, window, tmp_path):
    cfg = parse_config(None, {
        "problem": "soliton", "M": str(M_list[0]), "p": str(p), "k": "3",
        "tau": repr(1 / 200), "T": "1",
        "M_list": ",".join(str(m) for m in M_list),
    })
    result = run_sweep(cfg, "M", out_dir=str(tmp_path))
    orders = result.orders[1:]
    ok = np.all((orders >= window[0]) & (orders <= window[1]))
    detail = (f"p={p} errors={np.array2string(result.errors, precision=3)} "
              f"EOC={np.array2string(orders, precision=3)} window={window}")
    _report(2, ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def conservation_run():
    # tau = h = 0.2, p = 3, T = 2, Newton tolerance 1e-10
    prob = soliton()
    nl = power_law(2.0, 3.0, c0=1.0)
    space = build_space(prob.a, prob.b, 200, 3, PERIODIC)
    cfg = StepperConfig(tau=0.2, k=3, newton_tol=1e-10)
    recorder = RunRecorder(exact=prob.exact, exact_grad=prob.exact_grad)
    internal = InternalMassObserver()
    summary = integrate(prob.u0, cfg, space, nl, 2.0,
                        observers=(recorder, internal))
    return recorder, internal, summary


def test_criterion_3_conservation(conservation_run):
    recorder, _, _ = conservation_run
    mass0 = recorder.records[0].mass
    mass_ok = recorder.max_mass_drift <= 1e-10 * mass0
    energy_ok = recorder.max_sav_energy_drift <= 1e-9
    detail = (f"max mass drift {recorder.max_mass_drift:.3e} "
              f"(bound {1e-10 * mass0:.3e}), "
              f"max SAV energy drift {recorder.max_sav_energy_drift:.3e} (bound 1e-09)")
    _report(3, mass_ok and energy_ok, detail)
    assert mass_ok and energy_ok, detail


def test_criterion_4_internal_stage_mass(conservation_run):
    _, internal, summary = conservation_run
    ok = internal.all_ok and len(summary.reports) == 10
    detail = f"all slabs ok={internal.all_ok}, worst ratio {internal.worst_ratio:.12f}"
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5_newton_iterations(conservation_run):
    recorder, _, summary = conservation_run
    worst = max(r.iterations for r in summary.reports)
    ok = worst <= 10
    detail = f"max Newton iterations per slab {worst} (bound 10)"
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_6_linear_propagator_oracle():
    # kappa = 0, M = 16, p = 1: one collocation step against the dense
    # eigendecomposition propagator of i M u' + A u = 0
    space = build_space(-20.0, 20.0, 16, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(0.0, 3.0, c0=1.0)
    G = 1j * np.linalg.solve(asm.mass.toarray(), asm.stiff.toarray())
    evals, V = np.linalg.eig(G)
    rng = np.random.default_rng(7)
    u0 = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
    state = SavState(u=u0, r=1.0, t=0.0)

    def dense_propagate(tau):
        return V @ (np.exp(evals * tau) * np.linalg.solve(V, u0))

    all_ok = True
    details = []
    for k in (1, 2, 3):
        scheme = collocation_scheme(k)
        errs = []
        for tau in (0.2, 0.1, 0.05):
            new, _ = advance(make_slab(asm, scheme, nl, tau), state)
            errs.append(np.linalg.norm(new.u - dense_propagate(tau)))
        orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
        ok = np.all(orders >= k + 1)
        all_ok = all_ok and ok
        details.append(f"k={k} orders={np.array2string(orders, precision=2)}")
    detail = "; ".join(details) + " (required >= k+1)"
    _report(6, all_ok, detail)
    assert all_ok, detail


def test_criterion_7_temporal_machinery():
    checks = []

    # Gauss rules exact on monomials of degree <= 2k-1, k <= 5
    quad_ok = True
    for k in range(1, 6):
        rule = gauss_rule(k)
        for m in range(2 * k):
            exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            val = np.sum(rule.weights * rule.nodes ** m)
            quad_ok &= abs(val - exact) <= 1e-13 * max(1.0, abs(exact))
    checks.append(("gauss exactness", quad_ok))

    # temporal L2 projection preserves Gauss-point values of degree-k input
    from sav_nls.collocation import SlabPolynomial, temporal_l2_project
    proj_ok = True
    rng = np.random.default_rng(1)
    for k in (1, 2, 3, 4):
        scheme = collocation_scheme(k)
        poly = np.polynomial.Polynomial(rng.standard_normal(k + 1))
        slab_poly = SlabPolynomial(values=poly(scheme.nodes), slab=(0.0, 1.0),
                                   nodes=scheme.nodes)
        proj = temporal_l2_project(slab_poly)
        proj_ok &= np.max(np.abs(proj.values[1:] - slab_poly.values[1:])) <= 1e-13
    checks.append(("L2 projection gauss values", proj_ok))

    # Ritz projection EOC k+1 (+-0.2) on sin over a generic slab
    ritz_ok = True
    for k in (1, 2, 3):
        errs = []
        for tau in (0.2, 0.1, 0.05):
            proj = temporal_ritz_project(np.sin, k, (0.7, 0.7 + tau), dfn=np.cos)
            t = np.linspace(0.7, 0.7 + tau, 40)
            errs.append(np.max(np.abs(proj.evaluate(t) - np.sin(t))))
        orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
        ritz_ok &= np.all(np.abs(orders - (k + 1)) <= 0.2)
    checks.append(("ritz EOC k+1", ritz_ok))

    # super-approximation: projection defect of cos(t) * v decays linearly
    from sav_nls.collocation import legendre_value
    nodes12, weights12 = np.polynomial.legendre.leggauss(12)
    super_ok = True
    for k in (2, 3):
        v_ref = np.polynomial.Polynomial(rng.standard_normal(k))
        ratios = []
        for tau in (0.2, 0.1, 0.05):
            t0 = 1.0
            t = t0 + 0.5 * tau * (1.0 + nodes12)
            sigma = (2.0 * t - 2.0 * t0 - tau) / tau
            vals = np.cos(t) * v_ref(sigma)
            coeffs = [(2 * j + 1) / 2.0
                      * np.sum(weights12 * legendre_value(j, nodes12) * vals)
                      for j in range(k)]
            pvals = sum(c * legendre_value(j, nodes12) for j, c in enumerate(coeffs))
            num = np.sqrt(0.5 * tau * np.sum(weights12 * (vals - pvals) ** 2))
            den = np.sqrt(0.5 * tau * np.sum(weights12 * v_ref(sigma) ** 2))
            ratios.append(num / den)
        orders = np.log(np.array(ratios[:-1]) / ratios[1:]) / np.log(2.0)
        super_ok &= np.all(np.abs(orders - 1.0) <= 0.2)
    checks.append(("super-approximation linear", super_ok))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}={flag}" for name, flag in checks)
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_8_jacobian_directional_derivative():
    # FD check of the full slab residual against the bordered Jacobian at
    # 5 random states, in 10 random directions each.  The Jacobian's border
    # unknowns are z = dR - R sigma / (2 d), with sigma_j = Re<N_j, dU_j> and d
    # the stage SAV denominators, so each direction (dU, dR) is mapped to
    # (dU, z) before J is applied
    space = build_space(-20.0, 20.0, 8, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(2.0, 3.0, c0=1.0)
    k, tau = 2, 0.13
    scheme = collocation_scheme(k)
    n = space.num_dofs
    rng = np.random.default_rng(3)
    slab = make_slab(asm, scheme, nl, tau)

    def res_vec(state, unk):
        ru, rr = residual(slab, state, unk)
        return np.concatenate([real_parts(ru), rr])

    worst = 0.0
    for _ in range(5):
        state = SavState(u=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         r=1.2, t=0.0)
        unk = SlabUnknowns(rng.standard_normal((k, n))
                           + 1j * rng.standard_normal((k, n)),
                           1.0 + 0.3 * rng.standard_normal(k))
        data = _stage_data(slab, state, unk, need_jacobian=True)
        system = _assemble_newton_system(slab, unk, data)
        J = real_form_matrix(system)
        for _ in range(10):
            d = rng.standard_normal(2 * k * n + k)
            d /= np.linalg.norm(d)

            def displaced(vec):
                du = np.empty((k, n), dtype=complex)
                for m in range(k):
                    du[m] = (vec[2 * m * n:(2 * m + 1) * n]
                             + 1j * vec[(2 * m + 1) * n:(2 * m + 2) * n])
                return SlabUnknowns(unk.u_stages + du, unk.r_stages + vec[2 * k * n:])

            eps = 1e-6
            fd = (res_vec(state, displaced(eps * d))
                  - res_vec(state, displaced(-eps * d))) / (2.0 * eps)
            sigma = np.array([d[2 * m * n:(2 * m + 1) * n] @ data["N"][m].real
                              + d[(2 * m + 1) * n:(2 * m + 2) * n] @ data["N"][m].imag
                              for m in range(k)])
            z = d[2 * k * n:] - unk.r_stages * sigma / (2.0 * data["denoms"])
            Jd = J @ np.concatenate([d[:2 * k * n], z])
            rel = np.linalg.norm(fd - Jd) / max(np.linalg.norm(Jd), 1e-14)
            worst = max(worst, rel)
    ok = worst <= 1e-5
    detail = f"worst relative directional-derivative error {worst:.3e} (bound 1e-05)"
    _report(8, ok, detail)
    assert ok, detail
