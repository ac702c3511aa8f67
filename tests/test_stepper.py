import numpy as np
import pytest

from sav_nls.collocation import SlabPolynomial, collocation_scheme, temporal_l2_project
from sav_nls.errors import ConfigurationError, StepError
from sav_nls.fem import DIRICHLET, PERIODIC, build_space, interpolate
from sav_nls.model import SavState, custom_nonlinearity, power_law, r_init
from sav_nls.problems import soliton
from sav_nls.stepper import (Assemblies, SlabUnknowns, StepperConfig,
                             _assemble_newton_system, _complex_parts,
                             _real_parts, _stage_data, advance, integrate,
                             newton_step, num_slabs, residual)


def _zeros_state(space, r):
    return SavState(u=np.zeros(space.num_dofs, dtype=complex), r=r, t=0.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        StepperConfig(tau=0.0, k=2)
    with pytest.raises(ConfigurationError):
        StepperConfig(tau=0.1, k=2, newton_tol=0.0)
    with pytest.raises(ConfigurationError):
        num_slabs(1.0, 0.3)
    assert num_slabs(1.0, 0.05) == 20
    assert num_slabs(0.0, 0.1) == 0


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
    res_u, res_r = residual(state, unknowns, asm, scheme, nl, tau=0.1)
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
    res_u, res_r = residual(state, unknowns, asm, scheme, nl, tau)
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
    res_u, res_r = residual(state, unknowns, asm, scheme, nl, tau)

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
    state = SavState(u=u0, r=r_init(space, u0, nl, asm.nq), t=0.0)
    return space, asm, nl, state, collocation_scheme(k)


def test_newton_fixed_point():
    space, asm, nl, state, scheme = _soliton_setup()
    cfg = StepperConfig(tau=0.1, k=2)
    new_state, report = advance(state, cfg, asm, scheme, nl)
    solved = report.stages
    _, inc, _ = newton_step(state, solved, asm, scheme, nl, cfg.tau)
    assert inc <= 1e-12


def test_linear_problem_single_iteration():
    space = build_space(0.0, 1.0, 16, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(0.0, 3.0, c0=1.0)
    u0 = interpolate(space, lambda x: np.exp(2j * np.pi * x))
    state = SavState(u=u0, r=1.0, t=0.0)
    cfg = StepperConfig(tau=0.05, k=2)
    _, report = advance(state, cfg, asm, collocation_scheme(2), nl)
    assert report.iterations == 1
    assert report.residual_final <= 1e-10


def test_advance_zero_data():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    asm = Assemblies.build(space)
    nl = power_law(1.0, 3.0, c0=1.0)
    state = _zeros_state(space, np.sqrt(nl.c0))
    cfg = StepperConfig(tau=0.2, k=2)
    new_state, report = advance(state, cfg, asm, collocation_scheme(2), nl)
    np.testing.assert_allclose(new_state.u, 0.0, atol=1e-14)
    np.testing.assert_allclose(new_state.r, np.sqrt(nl.c0), rtol=1e-14)
    assert report.iterations == 1


def test_single_slab_mass_conservation():
    space, asm, nl, state, scheme = _soliton_setup(M=60, p=2, k=3)
    cfg = StepperConfig(tau=0.1, k=3)
    new_state, _ = advance(state, cfg, asm, scheme, nl)
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
    fwd, _ = advance(state, StepperConfig(tau=0.2, k=k), asm, scheme, nl)
    back, _ = advance(fwd, StepperConfig(tau=-0.2, k=k), asm, scheme, nl)
    assert np.linalg.norm(back.u - u0) <= 1e-10 * np.linalg.norm(u0)


def test_integral_reformulation_identity():
    # the converged slab satisfies the integral form of the stage equations
    # against arbitrary space-time test functions
    space, asm, nl, state, scheme = _soliton_setup(M=40, p=2, k=3)
    k, tau = 3, 0.1
    cfg = StepperConfig(tau=tau, k=k)
    new_state, report = advance(state, cfg, asm, scheme, nl)
    U, R = report.stages.u_stages, report.stages.r_stages
    nodal_u = np.vstack([state.u[None, :], U])
    slab = (0.0, tau)
    u_poly = SlabPolynomial(values=nodal_u, slab=slab, nodes=scheme.nodes)
    pu_poly = temporal_l2_project(u_poly)

    from sav_nls.stepper import _stage_data
    data = _stage_data(state, report.stages, asm, scheme, nl, tau,
                       need_jacobian=False)
    N = data["N"]

    tq, wq = np.polynomial.legendre.leggauss(k + 2)
    t_quad = 0.5 * tau * (1.0 + tq)
    rng = np.random.default_rng(12)
    for _ in range(5):
        v_nodal = rng.standard_normal((k + 1, space.num_dofs)) \
            + 1j * rng.standard_normal((k + 1, space.num_dofs))
        v_nodal /= np.linalg.norm(v_nodal)
        v_poly = SlabPolynomial(values=v_nodal, slab=slab, nodes=scheme.nodes)

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
    cfg = StepperConfig(tau=0.2, k=2, max_newton_iters=1)
    with pytest.raises(StepError) as err:
        advance(state, cfg, asm, scheme, nl)
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
    nl = custom_nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 2,
                             fp=lambda s: np.inf + 0 * s)
    space = build_space(prob.a, prob.b, 30, 1, PERIODIC)
    with pytest.raises(StepError, match="not finite") as err:
        integrate(prob.u0, StepperConfig(tau=0.1, k=2), space, nl, T=0.2)
    assert err.value.failed_slab == 1


def _loop_layout_reference(N, du, G1, X2, Y2, alpha, k, n):
    """Border blocks B, C written out stage by stage, re/im block by block."""
    B = np.zeros((2 * k * n, k))
    for m in range(k):
        B[2 * m * n:(2 * m + 1) * n, m] = -N[m].real
        B[(2 * m + 1) * n:(2 * m + 2) * n, m] = -N[m].imag
    C = np.zeros((k, 2 * k * n))
    for j in range(k):
        for m in range(k):
            C[j, 2 * m * n:(2 * m + 1) * n] += -0.5 * alpha[j, m] * N[j].real
            C[j, (2 * m + 1) * n:(2 * m + 2) * n] += -0.5 * alpha[j, m] * N[j].imag
        re_du, im_du = du[j].real, du[j].imag
        C[j, 2 * j * n:(2 * j + 1) * n] += -0.5 * (G1[j] @ re_du + X2[j] @ re_du + Y2[j] @ im_du)
        C[j, (2 * j + 1) * n:(2 * j + 2) * n] += -0.5 * (G1[j] @ im_du + Y2[j] @ re_du - X2[j] @ im_du)
    return B, C


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
    data = _stage_data(state, unk, asm, scheme, nl, tau, need_jacobian=True)
    system, (res_u, _) = _assemble_newton_system(state, unk, asm, scheme, nl, tau, data)
    alpha = (2.0 / tau) * scheme.diff_matrix[:, 1:]
    B, C = _loop_layout_reference(data["N"], data["du"], data["G1"], data["X2"],
                                  data["Y2"], alpha, k, n)
    assert np.array_equal(system.B, B)
    assert np.array_equal(system.C, C)
    assert np.array_equal(system.rhs_main, -_loop_real_parts(res_u))
    v = unk.u_stages
    assert np.array_equal(_real_parts(v), _loop_real_parts(v))
    x = _loop_real_parts(v)
    assert np.array_equal(_complex_parts(_real_parts(v), k), _loop_complex_parts(x, k, n))
    assert np.array_equal(_complex_parts(x, k), v)
