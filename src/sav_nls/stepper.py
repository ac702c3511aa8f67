"""Per-slab Gauss collocation of the SAV system, Newton iteration and
trajectory integration.

On each slab the unknowns are the k stage values (U_1..U_k, R_1..R_k) of the
degree-k space-time polynomial; the initial values enter through the
differentiation matrix.  Stage equations, for j = 1..k:

    i M du_j + A U_j - R_j N(U_j) = 0
    dr_j - Re<N(U_j), du_j> / 2   = 0

with du/dr the polynomial time derivatives at the Gauss points and N(U) the
quadrature load vector of g(U) U.  The Newton Jacobian freezes the global
SAV denominator (pointwise g1/g2 only), so the linearization of the
conjugate-carrying g2 term is assembled over real and imaginary parts; the
linear (kappa = 0) problem short-circuits to one complex solve.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .collocation import collocation_scheme
from .errors import ConfigurationError, ModelError, SolverError, StepError
from .fem import (assemble_mass, assemble_stiffness, basis_tables, interpolate,
                  scatter_matrix, scatter_vector)
from .linsolve import BorderedSystem, factor, solve_bordered
from .model import SavState, g_derivatives, r_init


@dataclass(frozen=True)
class StepperConfig:
    tau: float
    k: int
    newton_tol: float = 1e-10
    max_newton_iters: int = 25

    def __post_init__(self):
        if self.tau == 0:
            raise ConfigurationError("tau must be nonzero")
        if self.newton_tol <= 0:
            raise ConfigurationError(f"newton_tol={self.newton_tol} must be positive")


@dataclass(frozen=True)
class Assemblies:
    """Space plus the operators and quadrature tables reused every slab."""

    space: object
    mass: sp.csr_matrix
    stiff: sp.csr_matrix
    mass_real: sp.csr_matrix
    stiff_real: sp.csr_matrix
    nq: int
    quad_wts: np.ndarray   # reference weights on [0, 1]
    phi: np.ndarray        # (nq, p+1) basis values at the quadrature points

    @classmethod
    def build(cls, space, nq=None):
        nq = space.degree + 2 if nq is None else nq
        _, wts, phi, _ = basis_tables(space, nq)
        mass = assemble_mass(space)
        stiff = assemble_stiffness(space)
        return cls(space=space, mass=mass, stiff=stiff,
                   mass_real=mass.real.tocsr(), stiff_real=stiff.real.tocsr(),
                   nq=nq, quad_wts=wts, phi=phi)


@dataclass
class SlabUnknowns:
    """Stage values at the k Gauss points of one slab."""

    u_stages: np.ndarray   # (k, ndof) complex
    r_stages: np.ndarray   # (k,) real


@dataclass
class StepReport:
    iterations: int
    increment_history: list
    residual_final: float
    stages: SlabUnknowns
    warnings: list = field(default_factory=list)


@dataclass
class TrajectorySummary:
    final_state: SavState
    reports: list
    num_slabs: int
    states: list = None          # all slab-endpoint states, index 0 = initial
    assemblies: Assemblies = None
    scheme: object = None


def _stage_element_values(asm, u_stages):
    """Per-element quadrature values of every stage; shape (k, M, nq)."""
    space = asm.space
    ext = np.concatenate([u_stages, np.zeros((u_stages.shape[0], 1), dtype=np.complex128)],
                         axis=1)
    local = ext[:, space.dof_map]            # (k, M, p+1)
    return local @ asm.phi.T


def _linear_residual(state, u_stages, asm, scheme, tau):
    """Stage time derivatives du (k, ndof) and the linear residual i M du + A U."""
    nodal_u = np.vstack([state.u[None, :], u_stages])
    du = (2.0 / tau) * (scheme.diff_matrix @ nodal_u)
    return du, (1j * (asm.mass @ du.T) + asm.stiff @ u_stages.T).T


def _stage_data(state, unknowns, asm, scheme, nl, tau, need_jacobian):
    """All per-stage quantities for the residual and (optionally) the Jacobian."""
    space = asm.space
    h = space.mesh.h
    k = len(unknowns.r_stages)
    du, lin = _linear_residual(state, unknowns.u_stages, asm, scheme, tau)
    nodal_r = np.concatenate([[state.r], unknowns.r_stages])
    dr = (2.0 / tau) * (scheme.diff_matrix @ nodal_r)   # (k,)

    u_q = _stage_element_values(asm, unknowns.u_stages)
    s_q = np.abs(u_q) ** 2
    radicands = 0.5 * h * np.einsum("kmq,q->k", nl.F(s_q), asm.quad_wts) + nl.c0
    if np.any(radicands <= 0):
        j = int(np.argmax(radicands <= 0))
        raise ModelError(f"SAV radicand {radicands[j]} nonpositive at stage {j + 1}")
    denoms = np.sqrt(radicands)

    wh = h * asm.quad_wts                               # quadrature weights x jacobian
    g_q = nl.f(s_q) / denoms[:, None, None]
    loads = np.einsum("kmq,q,ql->kml", g_q * u_q, wh, asm.phi)
    N = np.stack([scatter_vector(space, loads[j]) for j in range(k)])

    data = {"du": du, "lin": lin, "dr": dr, "denoms": denoms, "N": N}
    if need_jacobian:
        clamp = [0]
        G1, X2, Y2 = [], [], []
        for j in range(k):
            g1_q, g2_q = g_derivatives(u_q[j], denoms[j], nl, clamp_counter=clamp)
            loc1 = np.einsum("mq,q,ql,qn->mln", g1_q.real, wh, asm.phi, asm.phi)
            loc2 = np.einsum("mq,q,ql,qn->mln", g2_q, wh, asm.phi, asm.phi)
            G1.append(scatter_matrix(space, loc1))
            X2.append(scatter_matrix(space, loc2.real))
            Y2.append(scatter_matrix(space, loc2.imag))
        data.update(G1=G1, X2=X2, Y2=Y2, clamped=clamp[0])
    return data


def residual(state, unknowns, asm, scheme, nl, tau):
    """Collocation residual (res_u: (k, ndof) complex, res_r: (k,) real)."""
    data = _stage_data(state, unknowns, asm, scheme, nl, tau, need_jacobian=False)
    return _residual_from_data(unknowns, data)


def _residual_from_data(unknowns, data):
    du, dr, N = data["du"], data["dr"], data["N"]
    res_u = data["lin"] - unknowns.r_stages[:, None] * N
    res_r = dr - 0.5 * np.real(np.einsum("ki,ki->k", N, du.conj()))
    return res_u, res_r


def _residual_norm(res_u, res_r):
    return float(max(np.linalg.norm(res_u, axis=1).max(), np.abs(res_r).max()))


def _real_parts(vectors):
    """Stack (k, n) complex stage vectors as [Re_1, Im_1, Re_2, Im_2, ...]."""
    return np.stack([vectors.real, vectors.imag], axis=1).reshape(-1)


def _complex_parts(x, k):
    """Inverse of _real_parts: (k, n) complex stage vectors from 2kn reals."""
    parts = x.reshape(k, 2, -1)
    return parts[:, 0] + 1j * parts[:, 1]


def _assemble_newton_system(state, unknowns, asm, scheme, nl, tau, data):
    """Bordered real-form Jacobian and right-hand side at the current iterate."""
    n = asm.space.num_dofs
    k = len(unknowns.r_stages)
    R = unknowns.r_stages
    Mr, Ar = asm.mass_real, asm.stiff_real
    alpha = (2.0 / tau) * scheme.diff_matrix[:, 1:]     # (k, k), stage coupling
    N, du = data["N"], data["du"]
    G1, X2, Y2 = data["G1"], data["X2"], data["Y2"]

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
    K = sp.bmat(grid, format="csc")

    # B[:, m] and row j of C index the unknowns as (stage, re/im, dof)
    N_parts = _real_parts(N).reshape(k, 2, n)
    stages = np.arange(k)
    B = np.zeros((k, 2, n, k))
    B[stages, :, :, stages] = -N_parts
    B = B.reshape(2 * k * n, k)

    C = np.zeros((k, k, 2, n))
    C += (-0.5 * alpha)[:, :, None, None] * N_parts[:, None]
    for j in range(k):
        re_du, im_du = du[j].real, du[j].imag
        C[j, j, 0] += -0.5 * (G1[j] @ re_du + X2[j] @ re_du + Y2[j] @ im_du)
        C[j, j, 1] += -0.5 * (G1[j] @ im_du + Y2[j] @ re_du - X2[j] @ im_du)
    C = C.reshape(k, 2 * k * n)

    res_u, res_r = _residual_from_data(unknowns, data)
    return BorderedSystem(K=K, B=B, C=C, Dmat=alpha.copy(),
                          rhs_main=-_real_parts(res_u), rhs_border=-res_r), (res_u, res_r)


def _increment_norm(asm, delta_u, delta_r):
    """max over stages of the mass-weighted L2 norm of dU and |dR|."""
    Mr = asm.mass_real
    l2 = [np.sqrt(d.real @ (Mr @ d.real) + d.imag @ (Mr @ d.imag)) for d in delta_u]
    return float(max(max(l2), np.abs(delta_r).max()))


def newton_step(state, unknowns, asm, scheme, nl, tau):
    """One Newton update; returns (unknowns, increment_norm, clamped_points)."""
    data = _stage_data(state, unknowns, asm, scheme, nl, tau, need_jacobian=True)
    system, _ = _assemble_newton_system(state, unknowns, asm, scheme, nl, tau, data)
    sol = solve_bordered(system)
    delta_u = _complex_parts(sol.x_main, len(unknowns.r_stages))
    updated = SlabUnknowns(unknowns.u_stages + delta_u, unknowns.r_stages + sol.x_border)
    inc = _increment_norm(asm, delta_u, sol.x_border)
    if not np.isfinite(inc):
        raise StepError("Newton increment is not finite", increment_history=[inc])
    return updated, inc, data.get("clamped", 0)


def _advance_linear(state, cfg, asm, scheme):
    """kappa = 0: the stage system is linear and complex; solve it once."""
    n = asm.space.num_dofs
    k = cfg.k
    tau = cfg.tau
    alpha = (2.0 / tau) * scheme.diff_matrix[:, 1:]
    grid = [[1j * alpha[j, m] * asm.mass + asm.stiff if j == m
             else 1j * alpha[j, m] * asm.mass
             for m in range(k)] for j in range(k)]
    K = sp.bmat(grid, format="csc")

    unknowns = SlabUnknowns(np.tile(state.u, (k, 1)), np.full(k, state.r))
    _, res_u = _linear_residual(state, unknowns.u_stages, asm, scheme, tau)
    delta = factor(K).solve(-res_u.reshape(-1))
    delta_u = delta.reshape(k, n)
    unknowns = SlabUnknowns(unknowns.u_stages + delta_u, unknowns.r_stages)
    inc = _increment_norm(asm, delta_u, np.zeros(k))

    _, res_u = _linear_residual(state, unknowns.u_stages, asm, scheme, tau)
    return unknowns, [inc], _residual_norm(res_u, np.zeros(k)), []


def advance(state, cfg, asm, scheme, nl):
    """Solve one slab and return (new_state, StepReport).

    Newton starts from the constant-in-time extrapolation of the previous
    endpoint and stops when the increment norm drops below newton_tol.
    """
    tau = cfg.tau
    k = cfg.k
    if nl.is_linear:
        unknowns, history, res_final, warnings = _advance_linear(state, cfg, asm, scheme)
    else:
        unknowns = SlabUnknowns(np.tile(state.u, (k, 1)), np.full(k, float(state.r)))
        history = []
        warnings = []
        clamped_total = 0
        converged = False
        for _ in range(cfg.max_newton_iters):
            unknowns, inc, clamped = newton_step(state, unknowns, asm, scheme, nl, tau)
            history.append(inc)
            clamped_total += clamped
            if inc <= cfg.newton_tol:
                converged = True
                break
        if not converged:
            raise StepError(
                f"Newton did not converge in {cfg.max_newton_iters} iterations "
                f"(last increment {history[-1]:.3e})", increment_history=history)
        if clamped_total:
            warnings.append(f"clamped singular g derivatives at {clamped_total} points")
        res_u, res_r = residual(state, unknowns, asm, scheme, nl, tau)
        res_final = _residual_norm(res_u, res_r)

    e = scheme.endpoint_weights
    u_end = e[0] * state.u + e[1:] @ unknowns.u_stages
    r_end = float(e[0] * state.r + e[1:] @ unknowns.r_stages)
    new_state = SavState(u=u_end, r=r_end, t=state.t + tau)
    report = StepReport(iterations=len(history), increment_history=history,
                        residual_final=res_final, stages=unknowns, warnings=warnings)
    return new_state, report


def num_slabs(T, tau):
    """Validated slab count N with T = N tau."""
    ratio = T / tau
    N = int(round(ratio))
    if N < 0 or abs(ratio - N) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigurationError(f"T={T} is not an integer multiple of tau={tau}")
    return N


def integrate(u0_fn, cfg, space, nl, T, observers=(), nq=None):
    """Integrate from the interpolated initial data to time T.

    Observers may define start(state0, asm, scheme, nl) and must define
    after_slab(n, prev_state, new_state, report); they run after every slab
    with access to the stage values (report.stages).
    """
    N = num_slabs(T, cfg.tau)
    asm = Assemblies.build(space, nq=nq)
    scheme = collocation_scheme(cfg.k)
    u0 = interpolate(space, u0_fn)
    state = SavState(u=u0, r=r_init(space, u0, nl, asm.nq), t=0.0)
    for obs in observers:
        if hasattr(obs, "start"):
            obs.start(state, asm, scheme, nl)
    reports = []
    states = [state]
    for n in range(1, N + 1):
        try:
            new_state, report = advance(state, cfg, asm, scheme, nl)
        except (StepError, ModelError, SolverError) as exc:
            raise StepError(f"slab {n} (t={state.t:.6g}): {exc}",
                            increment_history=getattr(exc, "increment_history", None),
                            failed_slab=n) from exc
        for obs in observers:
            obs.after_slab(n, state, new_state, report)
        reports.append(report)
        states.append(new_state)
        state = new_state
    return TrajectorySummary(final_state=state, reports=reports, num_slabs=N,
                             states=states, assemblies=asm, scheme=scheme)
