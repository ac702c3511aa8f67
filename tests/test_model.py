import numpy as np
import pytest

from sav_nls.errors import ConfigurationError, ModelError
from sav_nls.fem import PERIODIC, build_space, interpolate
from sav_nls.model import (Nonlinearity, g_derivatives, g_times_u, integral_F,
                           power_law, r_init)
from sav_nls.stepper import Assemblies


def sech(x):
    return 1.0 / np.cosh(x)


def test_power_law_validation():
    with pytest.raises(ConfigurationError):
        power_law(1.0, 0.5)
    with pytest.raises(ConfigurationError):
        power_law(1.0, 3.0, c0=0.0)
    for kappa, q, c0 in [(2, 3, np.nan), (2, 3, np.inf), (np.nan, 3, 1), (np.inf, 3, 1),
                         (2, np.nan, 1), (2, np.inf, 1)]:
        with pytest.raises(ConfigurationError):
            power_law(kappa, q, c0=c0)


def test_custom_antiderivative_check():
    nl = Nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 2, fp=lambda s: 2.0 + 0 * s)
    assert nl.f(1.5) == 3.0
    with pytest.raises(ConfigurationError, match="F'"):
        Nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 3, fp=lambda s: 2.0 + 0 * s)
    for F in (lambda s: np.nan * s, lambda s: np.inf * s):
        with pytest.raises(ConfigurationError, match="F'"):
            Nonlinearity(f=lambda s: 2 * s, F=F, fp=lambda s: 2.0 + 0 * s)


def test_custom_nonlinearity_needs_callables():
    with pytest.raises(ConfigurationError, match="needs f, F and f'"):
        Nonlinearity(f=None, F=lambda s: s ** 2, fp=lambda s: 2.0 + 0 * s)


def _assemblies(a, b, M, p):
    return Assemblies.build(build_space(a, b, M, p, PERIODIC))


# F(s) = s, so that integral_F is the L2 norm squared
MASS_DENSITY = Nonlinearity(f=lambda s: 1.0 + 0.0 * s, F=lambda s: s, fp=lambda s: 0.0 * s)


def test_integral_F_of_constant_is_domain_length():
    asm = _assemblies(0.0, 1.0, 6, 2)
    v = interpolate(asm.space, lambda x: 1.0)
    np.testing.assert_allclose(integral_F(asm, v, MASS_DENSITY), 1.0, rtol=1e-13)


def test_integral_F_sech_fourth_power():
    # F(s) = s^2 for kappa=2, q=3 and int sech(x)^4 dx = 4/3; tails beyond
    # [-20, 20] are ~1e-17
    asm = _assemblies(-20.0, 20.0, 2000, 3)
    v = interpolate(asm.space, sech)
    np.testing.assert_allclose(integral_F(asm, v, power_law(2.0, 3.0)), 4.0 / 3.0, atol=1e-6)


def test_integral_F_matches_mass_quadratic_form():
    asm = _assemblies(-2.0, 3.0, 9, 3)
    M = asm.mass
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(asm.space.num_dofs) + 1j * rng.standard_normal(asm.space.num_dofs)
        np.testing.assert_allclose(integral_F(asm, v, MASS_DENSITY),
                                   np.real(np.vdot(v, M @ v)), rtol=1e-12)


def test_r_init_zero_data():
    asm = _assemblies(0.0, 1.0, 4, 1)
    nl = power_law(1.0, 3.0, c0=1.0)
    u0 = np.zeros(asm.space.num_dofs, dtype=complex)
    np.testing.assert_allclose(r_init(asm, u0, nl), 1.0, rtol=1e-14)


def test_r_init_constant_one():
    # F(s) = s^2/2 for kappa=1, q=3: int F(1)/2 = 1/4 on the unit domain
    asm = _assemblies(0.0, 1.0, 8, 2)
    nl = power_law(1.0, 3.0, c0=1.0)
    u0 = interpolate(asm.space, lambda x: 1.0)
    np.testing.assert_allclose(r_init(asm, u0, nl), np.sqrt(1.25), rtol=1e-13)


def test_r_init_soliton_profile():
    # F(s) = s^2 for kappa=2, q=3: int F(sech^2)/2 = (1/2) * 4/3 = 2/3
    asm = _assemblies(-20.0, 20.0, 1000, 3)
    nl = power_law(2.0, 3.0, c0=1.0)
    u0 = interpolate(asm.space, sech)
    np.testing.assert_allclose(r_init(asm, u0, nl), np.sqrt(5.0 / 3.0), atol=1e-5)


def test_r_init_nonpositive_radicand():
    asm = _assemblies(0.0, 1.0, 4, 1)
    nl = power_law(-1.0, 3.0, c0=1.0)  # F(s) = -s^2/2
    u0 = interpolate(asm.space, lambda x: 2.0)
    with pytest.raises(ModelError, match="radicand"):
        r_init(asm, u0, nl)
    # |u0|^2 overflows, so the radicand is infinite
    huge = interpolate(asm.space, lambda x: 1e160)
    with np.errstate(over="ignore"), pytest.raises(ModelError, match="radicand inf"):
        r_init(asm, huge, MASS_DENSITY)


def test_denominator_phase_invariance():
    asm = _assemblies(-5.0, 5.0, 20, 2)
    nl = power_law(2.0, 3.0, c0=1.0)
    u = interpolate(asm.space, lambda x: sech(x) * (1.0 + 0.5j))
    np.testing.assert_allclose(r_init(asm, u, nl), r_init(asm, u * np.exp(0.7j), nl),
                               rtol=1e-13)


def test_g_times_u_values():
    nl = power_law(1.0, 3.0)
    assert g_times_u(0.0, 2.0, nl) == 0.0
    np.testing.assert_allclose(g_times_u(1.0, 1.1180339887, nl), 0.8944271910,
                               rtol=1e-9)
    # phase equivariance
    u = 0.8 - 0.4j
    theta = np.exp(0.7j)
    np.testing.assert_allclose(g_times_u(theta * u, 1.3, nl),
                               theta * g_times_u(u, 1.3, nl), rtol=1e-14)


def test_g_derivatives_closed_form():
    nl = power_law(1.0, 3.0)
    g1, g2, clamped = g_derivatives(1.0 + 0j, 1.0, nl)
    np.testing.assert_allclose(g1, 2.0, rtol=1e-14)
    np.testing.assert_allclose(g2, 1.0, rtol=1e-14)
    assert clamped == 0
    g1, g2, clamped = g_derivatives(0.0 + 0j, 1.0, nl)
    assert g1 == 0.0 and g2 == 0.0 and clamped == 0


def test_g_derivatives_first_order_taylor():
    nl = power_law(1.0, 3.0)
    u = 0.8 + 0.3j
    denom = 1.7
    g1, g2, _ = g_derivatives(u, denom, nl)
    delta = 1e-6 * (1.0 + 1.0j)
    fd = g_times_u(u + delta, denom, nl) - g_times_u(u, denom, nl)
    lin = g1 * delta + g2 * np.conj(delta)
    assert abs(fd - lin) <= 1e-10


@pytest.mark.parametrize("nl", [power_law(2.0, 3.0), power_law(-0.5, 5.0),
                                Nonlinearity(f=lambda s: np.sin(s),
                                             F=lambda s: 1.0 - np.cos(s),
                                             fp=lambda s: np.cos(s))])
def test_wirtinger_consistency_random(nl):
    # FD Jacobian of g(u)u as a map R^2 -> R^2 matches (g1, g2) in real form
    rng = np.random.default_rng(23)
    denom = 1.4
    eps = 1e-7
    for _ in range(20):
        u = complex(rng.standard_normal(), rng.standard_normal())
        g1, g2, _ = g_derivatives(u, denom, nl)
        # real 2x2 from Wirtinger pair: columns d/dx, d/dy
        J = np.array([[np.real(g1 + g2), np.real(1j * (g1 - g2))],
                      [np.imag(g1 + g2), np.imag(1j * (g1 - g2))]])
        fd = np.empty((2, 2))
        for col, dz in enumerate((eps, 1j * eps)):
            diff = (g_times_u(u + dz, denom, nl) - g_times_u(u - dz, denom, nl)) / (2 * eps)
            fd[:, col] = [diff.real, diff.imag]
        np.testing.assert_allclose(fd, J, rtol=1e-6, atol=1e-8)


def test_g_derivatives_clamps_singular_origin():
    nl = power_law(1.0, 2.0)  # q < 3: derivative singular at 0
    g1, g2, clamped = g_derivatives(np.array([0.0 + 0j, 1.0 + 0j]), 1.0, nl)
    assert g1[0] == 0.0 and g2[0] == 0.0
    assert clamped == 1
    assert g1[1] != 0.0


@pytest.mark.parametrize("q", [3.0, 2.0])
def test_g_derivatives_of_a_stage_stack_equal_per_stage_calls(q):
    """One call on (k, M, nq) stage values with (k, 1, 1) denominators gives the
    bits and the clamp count of k calls, one per stage."""
    nl = power_law(-1.5, q)
    rng = np.random.default_rng(7)
    k, M, nq = 3, 11, 4
    u = rng.standard_normal((k, M, nq)) + 1j * rng.standard_normal((k, M, nq))
    if q < 3:
        u[0, 2, 1] = u[2, 5, :2] = u[2, 10, 3] = 0.0   # clamped singular points
    denoms = rng.uniform(0.5, 2.0, k)
    g1, g2, clamped = g_derivatives(u, denoms[:, None, None], nl)
    per_stage = [g_derivatives(u[j], denoms[j], nl) for j in range(k)]
    assert np.array_equal(g1, np.stack([g[0] for g in per_stage]))
    assert np.array_equal(g2, np.stack([g[1] for g in per_stage]))
    assert clamped == sum(g[2] for g in per_stage) == (4 if q < 3 else 0)


def test_g_derivatives_non_finite_raises():
    nl = Nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 2,
                      fp=lambda s: np.inf + 0 * s)
    with pytest.raises(ModelError, match="not finite at 2 points"):
        g_derivatives(np.array([0.5 + 0j, 1.0 + 0j]), 1.0, nl)
