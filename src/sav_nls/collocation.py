"""Gauss-Legendre rules and degree-k slab polynomials in time.

Everything lives on the reference slab [-1, 1]; physical scaling (the 2/tau
chain-rule factor) is applied by callers.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

MAX_ORDER = 8


def legendre_value(k, x):
    """Value of the Legendre polynomial P_k at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    pm, p = np.ones_like(x), x.copy()
    for n in range(1, k):
        pm, p = p, ((2 * n + 1) * x * p - n * pm) / (n + 1)
    return p


def legendre_deriv(k, x):
    """Derivative of P_k at x, via (1-x^2) P_k' = k (P_{k-1} - x P_k)."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.zeros_like(x)
    return k * (legendre_value(k - 1, x) - x * legendre_value(k, x)) / (1.0 - x * x)


def lagrange_basis(nodes, pts):
    """Values of the Lagrange basis on `nodes` at `pts`; shape (npts, nnodes)."""
    nodes = np.asarray(nodes, dtype=float)
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    n = len(nodes)
    out = np.ones((len(pts), n))
    for m in range(n):
        for j in range(n):
            if j != m:
                out[:, m] *= (pts - nodes[j]) / (nodes[m] - nodes[j])
    return out


def lagrange_basis_deriv(nodes, pts):
    """Derivatives of the Lagrange basis on `nodes` at `pts`; shape (npts, nnodes)."""
    nodes = np.asarray(nodes, dtype=float)
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    n = len(nodes)
    out = np.zeros((len(pts), n))
    for m in range(n):
        for i in range(n):
            if i == m:
                continue
            term = np.ones(len(pts)) / (nodes[m] - nodes[i])
            for j in range(n):
                if j != m and j != i:
                    term *= (pts - nodes[j]) / (nodes[m] - nodes[j])
            out[:, m] += term
    return out


@dataclass(frozen=True)
class GaussRule:
    """len(nodes)-point Gauss-Legendre rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=MAX_ORDER, typed=True)   # typed: 3.0 is not a cache hit for 3
def gauss_rule(k):
    """Gauss-Legendre nodes/weights of order k on [-1, 1], built once per order;
    the arrays are read-only, since every caller shares them.

    Nodes are the roots of P_k, found by Newton iteration from Chebyshev
    initial guesses; weights are 2 / ((1 - c^2) P_k'(c)^2).
    """
    if not isinstance(k, numbers.Integral):   # numpy integers pass
        raise ConfigurationError(f"gauss rule order k={k!r} must be an integer")
    if not 1 <= k <= MAX_ORDER:
        raise ConfigurationError(f"gauss rule order k={k} outside [1, {MAX_ORDER}]")
    i = np.arange(1, k + 1)
    x = -np.cos((2 * i - 1) * np.pi / (2 * k))
    for _ in range(50):
        dx = legendre_value(k, x) / legendre_deriv(k, x)
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce symmetry about 0 exactly
    dp = legendre_deriv(k, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return GaussRule(nodes=x, weights=w)


def shifted_legendre(k, t, slab):
    """L_k(t): Legendre P_k composed with the affine map of `slab` onto [-1, 1]."""
    t0, t1 = slab
    tau = t1 - t0
    if tau <= 0:
        raise ConfigurationError(f"degenerate slab [{t0}, {t1}]")
    return legendre_value(k, (2.0 * np.asarray(t, dtype=float) - t0 - t1) / tau)


@dataclass(frozen=True)
class CollocationScheme:
    """Differentiation/evaluation data for degree-k polynomials on one slab.

    Nodal values are ordered [initial, gauss_1, ..., gauss_k] on the reference
    slab nodes {-1} + Gauss points.  `diff_matrix` maps nodal values to the
    reference-coordinate derivative at the Gauss points (callers multiply by
    2/tau); `endpoint_weights` evaluates the polynomial at +1.
    """

    rule: GaussRule
    nodes: np.ndarray          # k+1 reference nodes, including -1
    diff_matrix: np.ndarray    # (k, k+1)
    endpoint_weights: np.ndarray  # (k+1,)
    extrapolation_matrix: np.ndarray  # (k, k+1), values at the next slab's Gauss points 2 + c_j


def collocation_scheme(k):
    """Build the degree-k collocation scheme on the reference slab."""
    rule = gauss_rule(k)
    nodes = np.concatenate(([-1.0], rule.nodes))
    diff = lagrange_basis_deriv(nodes, rule.nodes)
    endpoint = lagrange_basis(nodes, np.array([1.0]))[0]
    return CollocationScheme(rule=rule, nodes=nodes, diff_matrix=diff,
                             endpoint_weights=endpoint,
                             extrapolation_matrix=lagrange_basis(nodes, 2.0 + rule.nodes))


@dataclass(frozen=True)
class SlabPolynomial:
    """Polynomial on a slab, stored by nodal values at {-1} + Gauss points.

    `values` has shape (k+1,) for a scalar quantity or (k+1, n) for n spatial
    dofs; `values[0]` is the initial value at the left slab endpoint.
    """

    values: np.ndarray
    slab: tuple
    nodes: np.ndarray

    def _sigma(self, t):
        t0, t1 = self.slab
        return (2.0 * np.asarray(t, dtype=float) - t0 - t1) / (t1 - t0)

    def evaluate(self, t):
        """Value at time(s) t; exact at the stored nodes."""
        basis = lagrange_basis(self.nodes, self._sigma(t))
        out = basis @ self.values
        return out[0] if np.isscalar(t) else out

    def derivative(self, t):
        """Time derivative at time(s) t."""
        t0, t1 = self.slab
        basis = lagrange_basis_deriv(self.nodes, self._sigma(t))
        out = (basis @ self.values) * (2.0 / (t1 - t0))
        return out[0] if np.isscalar(t) else out


def temporal_l2_project(poly):
    """L2-project a degree-k slab polynomial onto degree k-1 in time.

    The result keeps the values at the Gauss points (they are the roots of
    the shifted Legendre polynomial L_k, so only the L_k component changes)
    and gets a new initial value from the degree-(k-1) interpolant.
    """
    gauss_nodes = poly.nodes[1:]
    gauss_vals = poly.values[1:]
    left = lagrange_basis(gauss_nodes, np.array([-1.0]))[0] @ gauss_vals
    values = np.concatenate(([left], gauss_vals))
    return SlabPolynomial(values=values, slab=poly.slab, nodes=poly.nodes)


def temporal_ritz_project(fn, k, slab, dfn):
    """Temporal Ritz projection of `fn` onto degree-k polynomials on `slab`.

    Matches fn at the left endpoint and makes the time derivative of the
    projection the L2 projection of fn' = `dfn` onto degree k-1, via the
    explicit Legendre-coefficient formula.  Inner integrals use a
    min(k+2, MAX_ORDER)-point Gauss rule, exact for the degree-(2k-2)
    products of a degree-k fn for every k <= MAX_ORDER.
    """
    t0, t1 = slab
    tau = t1 - t0
    if tau <= 0:
        raise ConfigurationError(f"degenerate slab [{t0}, {t1}]")
    quad = gauss_rule(min(k + 2, MAX_ORDER))
    t_quad = t0 + 0.5 * tau * (1.0 + quad.nodes)
    du = dfn(t_quad)
    # a_j = int L_j fn' dt / int L_j^2 dt, with int L_j^2 dt = tau / (2j+1)
    coeffs = [(2 * j + 1) / 2.0 * np.sum(quad.weights * legendre_value(j, quad.nodes) * du)
              for j in range(k)]

    scheme_nodes = collocation_scheme(k).nodes

    def antideriv(j, sigma):
        # int_{-1}^{sigma} P_j
        if j == 0:
            return sigma + 1.0
        return (legendre_value(j + 1, sigma) - legendre_value(j - 1, sigma)) / (2 * j + 1)

    values = fn(t0) + 0.5 * tau * sum(a * antideriv(j, scheme_nodes) for j, a in enumerate(coeffs))
    return SlabPolynomial(values=values, slab=slab, nodes=scheme_nodes)
