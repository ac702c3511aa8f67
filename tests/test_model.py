import numpy as np
import pytest

from sav_nls.errors import ConfigurationError, ModelError
from sav_nls.fem import PERIODIC, build_space, interpolate
from sav_nls.model import (custom_nonlinearity, g_derivatives, g_times_u,
                           power_law, r_init)


def sech(x):
    return 1.0 / np.cosh(x)


def test_power_law_validation():
    with pytest.raises(ConfigurationError):
        power_law(1.0, 0.5)
    with pytest.raises(ConfigurationError):
        power_law(1.0, 3.0, c0=0.0)


def test_custom_antiderivative_check():
    nl = custom_nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 2,
                             fp=lambda s: 2.0 + 0 * s)
    assert nl.f(1.5) == 3.0
    with pytest.raises(ConfigurationError, match="F'"):
        custom_nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 3,
                            fp=lambda s: 2.0 + 0 * s)


def test_r_init_zero_data():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    nl = power_law(1.0, 3.0, c0=1.0)
    u0 = np.zeros(space.num_dofs, dtype=complex)
    np.testing.assert_allclose(r_init(space, u0, nl), 1.0, rtol=1e-14)


def test_r_init_constant_one():
    # F(s) = s^2/2 for kappa=1, q=3: int F(1)/2 = 1/4 on the unit domain
    space = build_space(0.0, 1.0, 8, 2, PERIODIC)
    nl = power_law(1.0, 3.0, c0=1.0)
    u0 = interpolate(space, lambda x: 1.0)
    np.testing.assert_allclose(r_init(space, u0, nl), np.sqrt(1.25), rtol=1e-13)


def test_r_init_soliton_profile():
    # F(s) = s^2 for kappa=2, q=3: int F(sech^2)/2 = (1/2) * 4/3 = 2/3
    space = build_space(-20.0, 20.0, 1000, 3, PERIODIC)
    nl = power_law(2.0, 3.0, c0=1.0)
    u0 = interpolate(space, sech)
    np.testing.assert_allclose(r_init(space, u0, nl), np.sqrt(5.0 / 3.0), atol=1e-5)


def test_r_init_nonpositive_radicand():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    nl = power_law(-1.0, 3.0, c0=1.0)  # F(s) = -s^2/2
    u0 = interpolate(space, lambda x: 2.0)
    with pytest.raises(ModelError, match="radicand"):
        r_init(space, u0, nl)


def test_denominator_phase_invariance():
    space = build_space(-5.0, 5.0, 20, 2, PERIODIC)
    nl = power_law(2.0, 3.0, c0=1.0)
    u = interpolate(space, lambda x: sech(x) * (1.0 + 0.5j))
    d1 = r_init(space, u, nl)
    d2 = r_init(space, u * np.exp(0.7j), nl)
    np.testing.assert_allclose(d1, d2, rtol=1e-13)


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
    g1, g2 = g_derivatives(1.0 + 0j, 1.0, nl)
    np.testing.assert_allclose(g1, 2.0, rtol=1e-14)
    np.testing.assert_allclose(g2, 1.0, rtol=1e-14)
    g1, g2 = g_derivatives(0.0 + 0j, 1.0, nl)
    assert g1 == 0.0 and g2 == 0.0


def test_g_derivatives_first_order_taylor():
    nl = power_law(1.0, 3.0)
    u = 0.8 + 0.3j
    denom = 1.7
    g1, g2 = g_derivatives(u, denom, nl)
    delta = 1e-6 * (1.0 + 1.0j)
    fd = g_times_u(u + delta, denom, nl) - g_times_u(u, denom, nl)
    lin = g1 * delta + g2 * np.conj(delta)
    assert abs(fd - lin) <= 1e-10


@pytest.mark.parametrize("nl", [power_law(2.0, 3.0), power_law(-0.5, 5.0),
                                custom_nonlinearity(f=lambda s: np.sin(s),
                                                    F=lambda s: 1.0 - np.cos(s),
                                                    fp=lambda s: np.cos(s))])
def test_wirtinger_consistency_random(nl):
    # FD Jacobian of g(u)u as a map R^2 -> R^2 matches (g1, g2) in real form
    rng = np.random.default_rng(23)
    denom = 1.4
    eps = 1e-7
    for _ in range(20):
        u = complex(rng.standard_normal(), rng.standard_normal())
        g1, g2 = g_derivatives(u, denom, nl)
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
    counter = [0]
    g1, g2 = g_derivatives(np.array([0.0 + 0j, 1.0 + 0j]), 1.0, nl,
                           clamp_counter=counter)
    assert g1[0] == 0.0 and g2[0] == 0.0
    assert counter[0] == 1
    assert g1[1] != 0.0


def test_g_derivatives_non_finite_raises():
    nl = custom_nonlinearity(f=lambda s: 2 * s, F=lambda s: s ** 2,
                             fp=lambda s: np.inf + 0 * s)
    with pytest.raises(ModelError, match="not finite at 2 points"):
        g_derivatives(np.array([0.5 + 0j, 1.0 + 0j]), 1.0, nl, clamp_counter=[0])
