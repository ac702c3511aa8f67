import numpy as np
import pytest

from sav_nls.collocation import (MAX_ORDER, SlabPolynomial, collocation_scheme, gauss_rule,
                                 legendre_value, shifted_legendre,
                                 temporal_l2_project, temporal_ritz_project)
from sav_nls.errors import ConfigurationError


def test_gauss_rule_closed_forms():
    r1 = gauss_rule(1)
    np.testing.assert_allclose(r1.nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(r1.weights, [2.0], rtol=1e-15)

    r2 = gauss_rule(2)
    np.testing.assert_allclose(r2.nodes, [-0.5773502691896258, 0.5773502691896258],
                               atol=1e-15)
    np.testing.assert_allclose(r2.weights, [1.0, 1.0], rtol=1e-14)

    r3 = gauss_rule(3)
    c = np.sqrt(3.0 / 5.0)
    np.testing.assert_allclose(r3.nodes, [-c, 0.0, c], atol=1e-15)
    np.testing.assert_allclose(r3.weights, [5 / 9, 8 / 9, 5 / 9], rtol=1e-14)


@pytest.mark.parametrize("k", range(1, 6))
def test_gauss_rule_monomial_exactness(k):
    # independent oracle: int_{-1}^{1} t^m = 2/(m+1) for even m, 0 for odd m
    rule = gauss_rule(k)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-16)
    for m in range(2 * k):
        quad = np.sum(rule.weights * rule.nodes ** m)
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(quad - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("k", range(1, 9))
def test_gauss_rule_matches_numpy(k):
    rule = gauss_rule(k)
    nodes, weights = np.polynomial.legendre.leggauss(k)
    np.testing.assert_allclose(rule.nodes, nodes, atol=1e-14)
    np.testing.assert_allclose(rule.weights, weights, atol=1e-14)


@pytest.mark.parametrize("k", range(1, 9))
def test_gauss_rule_is_built_once_and_read_only(k):
    rule = gauss_rule(k)
    assert gauss_rule(k) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0


def test_gauss_rule_rejects_bad_order():
    with pytest.raises(ConfigurationError):
        gauss_rule(0)
    with pytest.raises(ConfigurationError):
        gauss_rule(9)
    gauss_rule(3)
    for bad in (2.5, 3.0):   # 3.0 also after gauss_rule(3) is cached
        with pytest.raises(ConfigurationError, match=f"k={bad} must be an integer"):
            gauss_rule(bad)
    np.testing.assert_array_equal(gauss_rule(np.int64(3)).nodes, gauss_rule(3).nodes)


def test_shifted_legendre_endpoints_and_orthogonality():
    slab = (0.3, 0.7)
    assert shifted_legendre(0, 0.456, slab) == 1.0
    for k in range(5):
        np.testing.assert_allclose(shifted_legendre(k, slab[1], slab), 1.0, atol=1e-14)
        np.testing.assert_allclose(shifted_legendre(k, slab[0], slab), (-1.0) ** k,
                                   atol=1e-14)
    # orthogonality via 4-point Gauss (exact for the degree <= 6 products)
    rule = gauss_rule(4)
    t = 0.5 * (slab[0] + slab[1]) + 0.5 * (slab[1] - slab[0]) * rule.nodes
    for j in range(4):
        for m in range(4):
            if j == m:
                continue
            val = np.sum(rule.weights * shifted_legendre(j, t, slab)
                         * shifted_legendre(m, t, slab))
            assert abs(val) <= 1e-13


def test_shifted_legendre_degenerate_slab():
    with pytest.raises(ConfigurationError):
        shifted_legendre(2, 0.0, (1.0, 1.0))


def test_collocation_scheme_k1_closed_form():
    scheme = collocation_scheme(1)
    # derivative of the linear interpolant through t_{n-1} and the midpoint
    np.testing.assert_allclose(scheme.diff_matrix, [[-1.0, 1.0]], atol=1e-14)
    # extrapolation u(t_n) = 2 u_G - u_0
    np.testing.assert_allclose(scheme.endpoint_weights, [-1.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("k", range(1, 7))
def test_collocation_scheme_exactness(k):
    scheme = collocation_scheme(k)
    # derivative of constants vanishes, endpoint weights reproduce constants
    np.testing.assert_allclose(scheme.diff_matrix @ np.ones(k + 1), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(scheme.endpoint_weights), 1.0, rtol=1e-13)
    # exact on u(t) = t in the reference coordinate
    np.testing.assert_allclose(scheme.diff_matrix @ scheme.nodes, 1.0, rtol=1e-12)
    # exact on a random degree-k polynomial sampled at the k+1 nodes
    rng = np.random.default_rng(k)
    coeffs = rng.standard_normal(k + 1)
    poly = np.polynomial.Polynomial(coeffs)
    vals = poly(scheme.nodes)
    np.testing.assert_allclose(scheme.diff_matrix @ vals,
                               poly.deriv()(scheme.rule.nodes), rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(scheme.endpoint_weights @ vals, poly(1.0),
                               rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_extrapolation_matrix_continues_the_slab_polynomial(k):
    # a degree-k polynomial's nodal values on [-1, 1] give its values at the
    # next slab's Gauss points 2 + c_j exactly
    scheme = collocation_scheme(k)
    assert scheme.extrapolation_matrix.shape == (k, k + 1)
    poly = np.polynomial.Polynomial(np.random.default_rng(k).standard_normal(k + 1))
    np.testing.assert_allclose(scheme.extrapolation_matrix @ poly(scheme.nodes),
                               poly(2.0 + scheme.rule.nodes), rtol=1e-11, atol=1e-11)


def _slab_poly_from_callable(fn, k, slab):
    scheme = collocation_scheme(k)
    t0, t1 = slab
    t_nodes = t0 + 0.5 * (t1 - t0) * (1.0 + scheme.nodes)
    return SlabPolynomial(values=np.array([fn(t) for t in t_nodes]),
                          slab=slab, nodes=scheme.nodes)


def test_slab_polynomial_initial_value_exact():
    poly = _slab_poly_from_callable(lambda t: 1.7 * t ** 2 - 0.3j * t, 3, (0.2, 0.5))
    assert poly.evaluate(0.2) == poly.values[0]


def test_l2_projection_identity_on_lower_degree():
    k, slab = 3, (0.0, 0.4)
    poly = _slab_poly_from_callable(lambda t: (1.0 + 2j) * t ** 2 + t - 0.5, k, slab)
    proj = temporal_l2_project(poly)
    np.testing.assert_allclose(proj.values, poly.values, rtol=0, atol=1e-13)


def test_l2_projection_kills_top_legendre_mode():
    k, slab = 3, (1.0, 1.5)
    poly = _slab_poly_from_callable(lambda t: shifted_legendre(k, t, slab), k, slab)
    proj = temporal_l2_project(poly)
    np.testing.assert_allclose(proj.values, 0.0, atol=1e-13)


def test_l2_projection_preserves_gauss_values_and_orthogonality():
    k, slab = 4, (0.0, 0.3)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
    poly = _slab_poly_from_callable(np.polynomial.Polynomial(coeffs), k, slab)
    proj = temporal_l2_project(poly)
    np.testing.assert_array_equal(proj.values[1:], poly.values[1:])
    # residual u - Pu orthogonal to all lower-degree monomials (degree sum <= 2k-1,
    # integrated exactly by a (k+3)-point rule)
    rule = gauss_rule(k + 3)
    t = 0.5 * (slab[0] + slab[1]) + 0.5 * (slab[1] - slab[0]) * rule.nodes
    diff = poly.evaluate(t) - proj.evaluate(t)
    for m in range(k):
        val = np.sum(rule.weights * diff * t ** m)
        assert abs(val) <= 1e-13


@pytest.mark.parametrize("k", range(1, 9))
def test_ritz_projection_reproduces_polynomials(k):
    slab = (0.1, 0.45)
    rng = np.random.default_rng(k + 5)
    poly = np.polynomial.Polynomial(rng.standard_normal(k + 1))
    proj = temporal_ritz_project(poly, k, slab, dfn=poly.deriv())
    t = np.linspace(*slab, 13)
    np.testing.assert_allclose(proj.evaluate(t), poly(t), rtol=0, atol=1e-12)


def test_ritz_projection_constant_and_endpoint():
    proj = temporal_ritz_project(lambda t: 2.5, 2, (0.0, 0.3), dfn=lambda t: 0.0)
    np.testing.assert_allclose(proj.evaluate(np.linspace(0, 0.3, 7)), 2.5, atol=1e-12)
    # left endpoint is matched exactly by construction
    fn = np.sin
    proj = temporal_ritz_project(fn, 3, (0.7, 0.9), dfn=np.cos)
    assert proj.values[0] == fn(0.7)


def _per_point_ritz_reference(fn, k, slab, dfn):
    """temporal_ritz_project as it sampled before: dfn and the nodal sums one point at a time."""
    t0, t1 = slab
    tau = t1 - t0
    quad = gauss_rule(min(k + 2, MAX_ORDER))
    du = np.array([dfn(t) for t in t0 + 0.5 * tau * (1.0 + quad.nodes)])
    coeffs = [(2 * j + 1) / 2.0 * np.sum(quad.weights * legendre_value(j, quad.nodes) * du)
              for j in range(k)]

    def antideriv(j, sigma):
        if j == 0:
            return sigma + 1.0
        return (legendre_value(j + 1, sigma) - legendre_value(j - 1, sigma)) / (2 * j + 1)

    u0 = fn(t0)
    return np.array([u0 + 0.5 * tau * sum(a * antideriv(j, s) for j, a in enumerate(coeffs))
                     for s in collocation_scheme(k).nodes])


@pytest.mark.parametrize("k", range(1, 9))
def test_ritz_projection_samples_once_with_the_bits_of_per_point_calls(k):
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.1])
    for fn, dfn in ((np.sin, np.cos), (np.exp, np.exp), (poly, poly.deriv())):
        calls = []

        def counted(t):
            calls.append(t)
            return dfn(t)

        slab = (0.7, 0.83)
        proj = temporal_ritz_project(fn, k, slab, dfn=counted)
        assert len(calls) == 1 and np.shape(calls[0]) == (min(k + 2, MAX_ORDER),)
        assert np.array_equal(proj.values, _per_point_ritz_reference(fn, k, slab, dfn))


def test_ritz_projection_defining_orthogonality():
    # d/dt of the projection is the L2 projection of fn' onto degree k-1
    k, slab = 3, (0.2, 0.5)
    proj = temporal_ritz_project(np.sin, k, slab, dfn=np.cos)
    rule = gauss_rule(k + 4)
    t = 0.5 * (slab[0] + slab[1]) + 0.5 * (slab[1] - slab[0]) * rule.nodes
    resid = np.cos(t) - proj.derivative(t)
    for m in range(k):
        val = np.sum(rule.weights * resid * t ** m)
        assert abs(val) <= 1e-10


def test_ritz_projection_order_documented_case():
    # fn = sin on [0, tau], k = 2: measured EOC in [2.8, 3.2]
    errs = []
    for tau in (0.2, 0.1, 0.05):
        proj = temporal_ritz_project(np.sin, 2, (0.0, tau), dfn=np.cos)
        t = np.linspace(0.0, tau, 40)
        errs.append(np.max(np.abs(proj.evaluate(t) - np.sin(t))))
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
    assert np.all(orders >= 2.8)
    assert np.all(orders <= 3.2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ritz_projection_order_generic_slab(k):
    # order k+1 on slabs where sin has no special symmetry
    errs = []
    for tau in (0.2, 0.1, 0.05):
        proj = temporal_ritz_project(np.sin, k, (0.7, 0.7 + tau), dfn=np.cos)
        t = np.linspace(0.7, 0.7 + tau, 40)
        errs.append(np.max(np.abs(proj.evaluate(t) - np.sin(t))))
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
    assert np.all(orders >= k + 1 - 0.2)
    assert np.all(orders <= k + 1 + 0.2)


def _project_onto_lower_degree(fn, k, slab, nq=12):
    """L2 projection of a general function onto degree k-1, by Legendre series."""
    nodes, weights = np.polynomial.legendre.leggauss(nq)
    t0, t1 = slab
    t = t0 + 0.5 * (t1 - t0) * (1.0 + nodes)
    vals = fn(t)
    coeffs = [(2 * j + 1) / 2.0 * np.sum(weights * legendre_value(j, nodes) * vals)
              for j in range(k)]

    def proj(tt):
        sigma = (2.0 * tt - t0 - t1) / (t1 - t0)
        return sum(c * legendre_value(j, sigma) for j, c in enumerate(coeffs))

    return proj


@pytest.mark.parametrize("k", [2, 3])
def test_super_approximation_ratio_linear_in_tau(k):
    # || w v - P(w v) ||_{L2} <= C tau ||v||_{L2} for w = cos and degree-(k-1) v.
    # v has fixed shape in the slab reference coordinate (a fixed t-polynomial
    # degenerates to a constant as tau -> 0 and overshoots the rate).
    rng = np.random.default_rng(17)
    v_ref = np.polynomial.Polynomial(rng.standard_normal(k))
    nodes, weights = np.polynomial.legendre.leggauss(12)
    ratios = []
    for tau in (0.2, 0.1, 0.05):
        slab = (1.0, 1.0 + tau)
        t0, t1 = slab

        def v(t):
            return v_ref((2.0 * t - t0 - t1) / tau)

        fn = lambda t: np.cos(t) * v(t)
        proj = _project_onto_lower_degree(fn, k, slab)
        t = t0 + 0.5 * tau * (1.0 + nodes)
        num = np.sqrt(0.5 * tau * np.sum(weights * (fn(t) - proj(t)) ** 2))
        den = np.sqrt(0.5 * tau * np.sum(weights * v(t) ** 2))
        ratios.append(num / den)
    orders = np.log(np.array(ratios[:-1]) / ratios[1:]) / np.log(2.0)
    assert np.all(orders >= 0.8)
    assert np.all(orders <= 1.2)
