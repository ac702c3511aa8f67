"""Nonlinearity (f, F) and the scalar auxiliary variable machinery.

The auxiliary scalar is r = sqrt(int F(|u|^2)/2 dx + c0); the modified
nonlinear term is r * g(u) * u with g(u) = f(|u|^2) / denom, where denom is
that same square root evaluated at the current u.  g1/g2 are the Wirtinger
derivatives of g(u)u with the denominator held fixed: the pointwise part of
the Newton linearization, to which the stepper adds the denominator's
derivative.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelError
from .fem import element_coefficients

_FPRIME_CHECK_POINTS = (0.1, 0.5, 1.0, 2.0)   # where F' = f is checked
_FPRIME_STEP = _FPRIME_RTOL = 1e-6   # central-difference step and relative tolerance there
_CLAMP_RADIUS = 1e-14


@dataclass(frozen=True)
class Nonlinearity:
    """f, its antiderivative F (F' = f) and its derivative fp = f', as
    callables of s = |u|^2, plus the SAV constant c0 > 0.

    `power_law` also records its kappa and q; they are None otherwise.
    """

    f: callable
    F: callable
    fp: callable
    c0: float = 1.0
    kappa: float = None
    q: float = None

    def __post_init__(self):
        if not 0 < self.c0 < np.inf:
            raise ConfigurationError(f"c0={self.c0} must be positive and finite")
        if not all(callable(fn) for fn in (self.f, self.F, self.fp)):
            raise ConfigurationError("custom nonlinearity needs f, F and f'")
        _check_antiderivative(self)

    @property
    def is_linear(self):
        return self.kappa == 0.0


def _check_antiderivative(nl):
    """Verify F' = f by central differences at a few sample points; a NaN or
    infinite F or f fails."""
    for s in _FPRIME_CHECK_POINTS:
        fd = (nl.F(s + _FPRIME_STEP) - nl.F(s - _FPRIME_STEP)) / (2.0 * _FPRIME_STEP)
        f = nl.f(s)
        if not abs(fd - f) <= _FPRIME_RTOL * max(1.0, abs(f)):
            raise ConfigurationError(
                f"F' != f at s={s}: finite difference {fd}, f(s)={f}")


def power_law(kappa, q, c0=1.0):
    """f(s) = kappa * s^((q-1)/2), F(s) = kappa * 2/(q+1) * s^((q+1)/2); kappa
    carries the sign (kappa > 0 "focusing-style" forcing term in this sign
    convention, kappa = 0 the free Schrodinger equation)."""
    kappa, q = float(kappa), float(q)
    if not np.isfinite(kappa):
        raise ConfigurationError(f"power-law coefficient kappa={kappa} must be finite")
    if not 1 < q < np.inf:
        raise ConfigurationError(f"power-law exponent q={q} must be > 1 and finite")
    return Nonlinearity(
        f=lambda s: kappa * np.power(s, (q - 1.0) / 2.0),
        F=lambda s: kappa * (2.0 / (q + 1.0)) * np.power(s, (q + 1.0) / 2.0),
        fp=lambda s: kappa * ((q - 1.0) / 2.0) * np.power(s, (q - 3.0) / 2.0),
        c0=float(c0), kappa=kappa, q=q)


@dataclass(frozen=True)
class SavState:
    """FE coefficients u, auxiliary scalar r and current time."""

    u: np.ndarray
    r: float
    t: float


def integral_F(asm, u, nl):
    """int F(|u|^2) dx on the quadrature of `asm` (stepper.Assemblies)."""
    u_q = element_coefficients(asm.space, u) @ asm.phi.T
    return float(asm.space.mesh.h * np.sum(asm.quad_wts[None, :] * nl.F(np.abs(u_q) ** 2)))


def r_init(asm, u0, nl):
    """Initial auxiliary scalar r0 = sqrt(int F(|u0|^2)/2 dx + c0); the same
    functional is the denominator of g(u)."""
    radicand = 0.5 * integral_F(asm, u0, nl) + nl.c0
    if not 0 < radicand < np.inf:
        raise ModelError(f"SAV radicand {radicand} is "
                         f"{'nonpositive' if radicand <= 0 else 'not finite'}")
    return float(np.sqrt(radicand))


def g_times_u(u_val, denom, nl):
    """Pointwise g(u) * u = f(|u|^2) * u / denom."""
    return nl.f(np.abs(u_val) ** 2) * u_val / denom


def g_derivatives(u_val, denom, nl):
    """Wirtinger derivatives (g1, g2) of g(u)u with the denominator frozen, and the
    number of clamped points: the pointwise part of the Jacobian; the stepper adds
    the denominator's rank-one term per stage.  `denom` broadcasts against `u_val`,
    so one call covers a (k, M, nq) stack of stages with (k, 1, 1) denominators.

    With s = |u|^2: g1 = (f(s) + f'(s) s) / denom and g2 = f'(s) u^2 / denom.
    For power laws with q < 3 the derivative is singular at u = 0; such
    points are clamped to zero and counted.  Any other non-finite value
    raises ModelError.
    """
    u_val = np.asarray(u_val, dtype=np.complex128)
    s = np.abs(u_val) ** 2
    mask = s < _CLAMP_RADIUS ** 2 if nl.q is not None and nl.q < 3 else None
    clamped = 0 if mask is None else int(np.count_nonzero(mask))
    if clamped:
        s = np.where(mask, 1.0, s)  # placeholder, overwritten below
    fs = nl.f(s)
    fps = nl.fp(s)
    g1 = (fs + fps * s) / denom
    g2 = fps * u_val ** 2 / denom
    if clamped:
        g1 = np.where(mask, 0.0, g1)
        g2 = np.where(mask, 0.0, g2)
    bad = ~(np.isfinite(g1) & np.isfinite(g2))
    if np.any(bad):
        raise ModelError(f"g derivatives are not finite at {int(np.count_nonzero(bad))} points")
    return g1, g2, clamped
