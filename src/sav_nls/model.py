"""Nonlinearity (f, F) and the scalar auxiliary variable machinery.

The auxiliary scalar is r = sqrt(int F(|u|^2)/2 dx + c0); the modified
nonlinear term is r * g(u) * u with g(u) = f(|u|^2) / denom, where denom is
that same square root evaluated at the current u.  g1/g2 are the Wirtinger
derivatives of g(u)u with the denominator held fixed, as used by the Newton
linearization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ModelError
from .fem import integrate_density

POWER = "power"
CUSTOM = "custom"

_FPRIME_CHECK_POINTS = (0.1, 0.5, 1.0, 2.0)
_CLAMP_RADIUS = 1e-14


@dataclass(frozen=True)
class Nonlinearity:
    """Pair (f, F) with F' = f, plus the SAV constant c0 > 0.

    Power-law kind: f(s) = kappa * s^((q-1)/2), F(s) = kappa * 2/(q+1) *
    s^((q+1)/2); the sign/strength of the model is folded into kappa
    (kappa > 0 "focusing-style" forcing term in this sign convention,
    kappa = 0 the free Schrodinger equation).
    """

    kind: str
    c0: float = 1.0
    kappa: float = 0.0
    q: float = 3.0
    f_fn: callable = None
    F_fn: callable = None
    fp_fn: callable = None

    def __post_init__(self):
        if self.c0 <= 0:
            raise ConfigurationError(f"c0={self.c0} must be positive")
        if self.kind == POWER:
            if self.q <= 1:
                raise ConfigurationError(f"power-law exponent q={self.q} must be > 1")
        elif self.kind == CUSTOM:
            if self.f_fn is None or self.F_fn is None or self.fp_fn is None:
                raise ConfigurationError("custom nonlinearity needs f, F and f'")
        else:
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}")
        _check_antiderivative(self)

    @property
    def is_linear(self):
        return self.kind == POWER and self.kappa == 0.0

    def f(self, s):
        if self.kind == POWER:
            return self.kappa * np.power(s, (self.q - 1.0) / 2.0)
        return self.f_fn(s)

    def F(self, s):
        if self.kind == POWER:
            return self.kappa * (2.0 / (self.q + 1.0)) * np.power(s, (self.q + 1.0) / 2.0)
        return self.F_fn(s)

    def fp(self, s):
        if self.kind == POWER:
            return self.kappa * ((self.q - 1.0) / 2.0) * np.power(s, (self.q - 3.0) / 2.0)
        return self.fp_fn(s)


def _check_antiderivative(nl, step=1e-6, rtol=1e-6):
    """Verify F' = f by central differences at a few sample points."""
    for s in _FPRIME_CHECK_POINTS:
        fd = (nl.F(s + step) - nl.F(s - step)) / (2.0 * step)
        f = nl.f(s)
        if abs(fd - f) > rtol * max(1.0, abs(f)):
            raise ConfigurationError(
                f"F' != f at s={s}: finite difference {fd}, f(s)={f}")


def power_law(kappa, q, c0=1.0):
    return Nonlinearity(kind=POWER, kappa=float(kappa), q=float(q), c0=float(c0))


def custom_nonlinearity(f, F, fp, c0=1.0):
    return Nonlinearity(kind=CUSTOM, f_fn=f, F_fn=F, fp_fn=fp, c0=float(c0))


@dataclass(frozen=True)
class SavState:
    """FE coefficients u, auxiliary scalar r and current time."""

    u: np.ndarray
    r: float
    t: float


def r_init(space, u0, nl, nq=None):
    """Initial auxiliary scalar r0 = sqrt(int F(|u0|^2)/2 dx + c0), with nq
    Gauss points per element (default p+2); the same functional is the
    denominator of g(u)."""
    nq = space.degree + 2 if nq is None else nq
    integral = integrate_density(space, u0, lambda uu, du, x: nl.F(np.abs(uu) ** 2), nq)
    radicand = 0.5 * integral + nl.c0
    if radicand <= 0:
        raise ModelError(f"SAV radicand {radicand} is nonpositive")
    return float(np.sqrt(radicand))


def g_times_u(u_val, denom, nl):
    """Pointwise g(u) * u = f(|u|^2) * u / denom."""
    return nl.f(np.abs(u_val) ** 2) * u_val / denom


def g_derivatives(u_val, denom, nl, clamp_counter=None):
    """Wirtinger derivatives (g1, g2) of g(u)u with the denominator frozen.

    With s = |u|^2: g1 = (f(s) + f'(s) s) / denom and g2 = f'(s) u^2 / denom.
    For power laws with q < 3 the derivative is singular at u = 0; such
    points are clamped to zero and counted in `clamp_counter` (a list whose
    first entry is incremented) when supplied.  Any other non-finite value
    raises ModelError.
    """
    u_val = np.asarray(u_val, dtype=np.complex128)
    s = np.abs(u_val) ** 2
    singular = nl.kind == POWER and nl.q < 3
    mask = s < _CLAMP_RADIUS ** 2 if singular else None
    if mask is not None and np.any(mask):
        s = np.where(mask, 1.0, s)  # placeholder, overwritten below
    fs = nl.f(s)
    fps = nl.fp(s)
    g1 = (fs + fps * s) / denom
    g2 = fps * u_val ** 2 / denom
    if mask is not None and np.any(mask):
        g1 = np.where(mask, 0.0, g1)
        g2 = np.where(mask, 0.0, g2)
        if clamp_counter is not None:
            clamp_counter[0] += int(np.count_nonzero(mask))
    bad = ~(np.isfinite(g1) & np.isfinite(g2))
    if np.any(bad):
        raise ModelError(f"g derivatives are not finite at {int(np.count_nonzero(bad))} points")
    if u_val.ndim == 0:
        return complex(g1), complex(g2)
    return g1, g2
