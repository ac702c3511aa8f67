"""Conserved quantities, runtime checks, error observers and convergence orders."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fem import error_norms, integrate_density

INTERNAL_MASS_SLACK = 1e-10


def mass(asm, u):
    """Discrete mass Re(u^H M u)."""
    return float(np.real(np.vdot(u, asm.mass @ u)))


def sav_energy(asm, state):
    """Auxiliary-variable energy 0.5 |grad u|^2 - r^2 (conserved by the scheme)."""
    return float(0.5 * np.real(np.vdot(state.u, asm.stiff @ state.u)) - state.r ** 2)


def original_energy(asm, u, nl):
    """Physical energy 0.5 |grad u|^2 - 0.5 int F(|u|^2)."""
    grad = 0.5 * np.real(np.vdot(u, asm.stiff @ u))
    bulk = integrate_density(asm.space, u, lambda uu, du, x: nl.F(np.abs(uu) ** 2), asm.nq)
    return float(grad - 0.5 * bulk)


def internal_mass_check(asm, stage_values, weights, u0_mass):
    """Gauss-weighted average stage mass and its unconditional upper bound.

    value = (1/2) sum_j w_j ||u_h(t_nj)||^2, which by Gauss exactness equals
    the slab average of ||P_tau u_h||^2; the scheme guarantees
    value <= ||u_h(0)||^2.
    """
    stage_mass = np.array([mass(asm, v) for v in stage_values])
    value = float(0.5 * np.sum(weights * stage_mass))
    return value, value <= u0_mass * (1.0 + INTERNAL_MASS_SLACK)


def _pairwise_orders(params, errors):
    """log(e_{i-1}/e_i) / log(p_{i-1}/p_i) for i >= 1; NaN unless both errors
    are finite and positive and the two parameters differ."""
    valid = np.isfinite(errors) & (errors > 0)
    out = np.full(max(len(errors) - 1, 0), np.nan)
    for i in range(1, len(errors)):
        if valid[i - 1] and valid[i] and params[i - 1] != params[i]:
            out[i - 1] = np.log(errors[i - 1] / errors[i]) / np.log(params[i - 1] / params[i])
    return out


def eoc(errors, params):
    """Empirical orders log(e_{i-1}/e_i) / log(p_{i-1}/p_i); NaN where undefined."""
    errors = np.asarray(errors, dtype=float)
    params = np.asarray(params, dtype=float)
    if len(errors) != len(params) or len(errors) < 2:
        raise ConfigurationError("eoc needs matching arrays of length >= 2")
    d = np.diff(params)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ConfigurationError("eoc parameters must be strictly monotone")
    return _pairwise_orders(params, errors)


@dataclass
class ObservationRecord:
    t: float
    mass: float
    sav_energy: float
    original_energy: float
    h1_error: float = None
    l2_error: float = None
    newton_iters: int = 0


@dataclass
class ConvergenceTable:
    """Rows of (resolution parameter, error, EOC); first EOC is undefined."""

    params: np.ndarray
    errors: np.ndarray
    orders: np.ndarray

    @classmethod
    def from_errors(cls, params, errors):
        params = np.asarray(params, dtype=float)
        errors = np.asarray(errors, dtype=float)
        orders = np.full(len(errors), np.nan)
        orders[1:] = _pairwise_orders(params, errors)
        return cls(params=params, errors=errors, orders=orders)


class RunRecorder:
    """Per-slab conservation/iteration records for a single integration."""

    def __init__(self, exact=None, exact_grad=None, nl=None):
        self.exact = exact
        self.exact_grad = exact_grad
        self.nl = nl
        self.records = []
        self._asm = None
        self._ref = None

    def _observe_state(self, state, iters):
        asm = self._asm
        m = mass(asm, state.u)
        es = sav_energy(asm, state)
        eo = original_energy(asm, state.u, self.nl)
        rec = ObservationRecord(t=state.t, mass=m, sav_energy=es,
                                original_energy=eo, newton_iters=iters)
        if self.exact is not None:
            l2, h1 = error_norms(asm.space, state.u,
                                 lambda x: self.exact(x, state.t),
                                 lambda x: self.exact_grad(x, state.t))
            rec.l2_error, rec.h1_error = l2, h1
        self.records.append(rec)

    def start(self, state0, asm, scheme, nl):
        self._asm = asm
        if self.nl is None:
            self.nl = nl
        self._observe_state(state0, 0)
        self._ref = self.records[0]

    def after_slab(self, n, prev_state, new_state, report):
        self._observe_state(new_state, report.iterations)

    @property
    def max_mass_drift(self):
        return max(abs(r.mass - self._ref.mass) for r in self.records)

    @property
    def max_sav_energy_drift(self):
        return max(abs(r.sav_energy - self._ref.sav_energy) for r in self.records)

    @property
    def max_newton_iters(self):
        return max(r.newton_iters for r in self.records)


class TrajectoryErrorObserver:
    """L-infinity-in-time H1 error, sampled at slab endpoints and Gauss stages."""

    def __init__(self, exact, exact_grad):
        self.exact = exact
        self.exact_grad = exact_grad
        self.linf_h1 = 0.0
        self.linf_l2 = 0.0
        self._asm = None
        self._nodes = None

    def _sample(self, u, t):
        l2, h1 = error_norms(self._asm.space, u,
                             lambda x: self.exact(x, t),
                             lambda x: self.exact_grad(x, t))
        self.linf_h1 = max(self.linf_h1, h1)
        self.linf_l2 = max(self.linf_l2, l2)

    def start(self, state0, asm, scheme, nl):
        self._asm = asm
        self._nodes = scheme.rule.nodes
        self._sample(state0.u, state0.t)

    def after_slab(self, n, prev_state, new_state, report):
        tau = new_state.t - prev_state.t
        for c, u in zip(self._nodes, report.stages.u_stages):
            self._sample(u, prev_state.t + 0.5 * (1.0 + c) * tau)
        self._sample(new_state.u, new_state.t)


class InternalMassObserver:
    """Checks the internal-stage mass bound on every slab."""

    def __init__(self):
        self.all_ok = True
        self.worst_ratio = 0.0
        self._asm = None
        self._weights = None
        self._u0_mass = None

    def start(self, state0, asm, scheme, nl):
        self._asm = asm
        self._weights = scheme.rule.weights
        self._u0_mass = mass(asm, state0.u)

    def after_slab(self, n, prev_state, new_state, report):
        value, ok = internal_mass_check(self._asm, report.stages.u_stages,
                                        self._weights, self._u0_mass)
        self.all_ok = self.all_ok and ok
        self.worst_ratio = max(self.worst_ratio, value / self._u0_mass)

