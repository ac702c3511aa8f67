"""Per-slab Gauss collocation of the SAV system, Newton iteration and
trajectory integration.

On each slab the unknowns are the k stage values (U_1..U_k, R_1..R_k) of the
degree-k space-time polynomial; the initial values enter through the
differentiation matrix.  Stage equations, for j = 1..k:

    i M du_j + A U_j - R_j N(U_j) = 0
    dr_j - Re<N(U_j), du_j> / 2   = 0

with du/dr the polynomial time derivatives at the Gauss points and N(U) the quadrature load
vector of g(U) U.  The Newton Jacobian is exact: the pointwise part G1 dU + (X2 + i Y2)
conj dU of the derivatives g1, g2 of g(U) U, plus the rank-one derivative of each stage's
SAV denominator d_j, folded into the border rows by solving for z_j = dR_j - R_j sigma_j /
(2 d_j) with sigma_j = Re<N_j, dU_j>.  One quadrature kernel, _integrals, gives N, the
element data of G1, X2, Y2 and the pointwise part's products.  The real unknowns are
u_stages.T viewed as float64, (dof, 2j + s); the main block is handed to linsolve as dense
element blocks, which it condenses onto the vertices, and every solve is checked on the
full system in stage form, the pointwise part by quadrature.  An exact step's factors serve
the chord steps after it, across slabs (see advance).  The linear (kappa = 0) problem is k
complex solves in alpha's eigenbasis, refined once; all slabs of a run share one Slab.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .collocation import MAX_ORDER, collocation_scheme
from .errors import ConfigurationError, ModelError, NumericalError, SolverError, StepError
from .fem import (DIRICHLET, assemble_mass, assemble_stiffness, basis_tables, element_coefficients,
                  element_matrices, interpolate, matrix_pattern, scatter_vector)
from .fem import scatter_matrix  # noqa: F401  unused; perfbench's PATCH_POINTS patches it
from .linsolve import BorderedSystem, Elements, factor, factor_bordered, solve_bordered
from .model import SavState, g_derivatives, g_times_u, r_init

THETA_MAX, KAPPA = 0.1, 1e-4   # a kept linearization's bound and Newton's stop; see advance


@dataclass(frozen=True)
class StepperConfig:
    tau: float
    k: int
    newton_tol: float = 1e-10
    max_newton_iters: int = 25

    def __post_init__(self):
        for name, value in (("k", self.k), ("max_newton_iters", self.max_newton_iters)):
            if not isinstance(value, numbers.Integral):   # numpy integers pass
                raise ConfigurationError(f"{name}={value!r} must be an integer")
        if self.tau == 0 or not np.isfinite(self.tau):
            raise ConfigurationError(f"tau={self.tau} must be finite and nonzero")
        if not 0 < self.newton_tol < np.inf:
            raise ConfigurationError(f"newton_tol={self.newton_tol} must be positive and finite")
        if self.max_newton_iters < 1:
            raise ConfigurationError(f"max_newton_iters={self.max_newton_iters} must be >= 1")
        if not 1 <= self.k <= MAX_ORDER:
            raise ConfigurationError(f"gauss rule order k={self.k} outside [1, {MAX_ORDER}]")


@dataclass(frozen=True)
class Assemblies:
    """An FE space with its operators and quadrature tables, shared by every slab."""

    space: object
    mass: sp.csr_matrix    # real, like every FE operator; stage vectors are complex
    stiff: sp.csr_matrix
    quad_wts: np.ndarray   # nq reference weights on [0, 1]
    phi: np.ndarray        # (nq, p+1) basis values at the quadrature points

    @classmethod
    def build(cls, space, nq=None):
        nq = space.degree + 2 if nq is None else nq
        _, wts, phi, _ = basis_tables(space.degree, nq)
        pattern = matrix_pattern(space)
        return cls(space=space, mass=assemble_mass(space, pattern),
                   stiff=assemble_stiffness(space, pattern), quad_wts=wts, phi=phi)


@dataclass(frozen=True)
class Slab:
    """What every slab of one run solves with, and the main-block data derived
    from it, each built on first use and kept for the run."""

    cfg: StepperConfig
    asm: Assemblies
    scheme: object   # collocation.CollocationScheme of order cfg.k
    nl: object       # model.Nonlinearity

    def __post_init__(self):
        if (order := len(self.scheme.rule.nodes)) != self.cfg.k:
            raise ConfigurationError(f"collocation scheme of order {order} for k={self.cfg.k}")

    @cached_property
    def elements(self):
        """The Newton main block's element data, each element's nodes in the order perm
        (first, last, the rest: dof d's unknowns 2k d + 2j + s make a linsolve.Elements
        chain): perm, the linear part i alpha (x) M_e + A_e, and if the chain drops vertex 0."""
        k, space, p = self.cfg.k, self.asm.space, self.asm.space.degree
        M, dropped, perm = space.mesh.num_elements, space.mesh.bc == DIRICHLET, np.r_[0, p, 1:p]
        # the chain's numbering, -1 on the dropped vertex, is fem.build_space's
        assert np.array_equal(space.dof_map[:, perm], (np.arange(M)[:, None] * p + perm)
                              % (M * p) - dropped)
        mass, stiff = (m[np.ix_(perm, perm)] for m in element_matrices(self.asm.space))
        alpha = (2.0 / self.cfg.tau) * self.scheme.diff_matrix[:, 1:]
        return perm, (np.kron(mass, np.kron(alpha, [[0, -1], [1, 0]]))
                      + np.kron(stiff, np.eye(2 * k))), dropped

    @cached_property
    def linear_block(self):
        """kappa = 0: alpha = V diag(lam) V^-1 (distinct lam for every k) splits the stage
        matrix i alpha (x) M + I (x) A into the blocks i lam_j M + A (Butcher, BIT 16, 1976):
        V, V^-1 and their block diagonal in CSC."""
        lam, V = np.linalg.eig((2.0 / self.cfg.tau) * self.scheme.diff_matrix[:, 1:])
        return V, np.linalg.inv(V), sp.block_diag([1j * lam_j * self.asm.mass + self.asm.stiff
                                                   for lam_j in lam], format="csc")


@dataclass
class SlabUnknowns:
    """Stage values at the k Gauss points of one slab."""

    u_stages: np.ndarray   # (k, ndof) complex
    r_stages: np.ndarray   # (k,) real


@dataclass
class StepReport:
    iterations: int
    increment_history: list
    stages: SlabUnknowns
    factorizations: int   # main-block factorizations, counted as iterations are
    warnings: list


@dataclass
class Carry:
    """What advance leaves the next slab of its run: start state, stages, kept Linearization."""

    state: SavState = None
    stages: SlabUnknowns = None
    lin: object = None


@dataclass
class TrajectorySummary:
    final_state: SavState
    reports: list
    num_slabs: int
    states: list          # all slab-endpoint states, index 0 = initial
    assemblies: Assemblies
    scheme: object


def _linear_residual(slab, state, u_stages):
    """Stage time derivatives du (k, ndof) and the linear residual i M du + A U."""
    nodal_u = np.vstack([state.u[None, :], u_stages])
    du = (2.0 / slab.cfg.tau) * (slab.scheme.diff_matrix @ nodal_u)
    return du, (1j * (slab.asm.mass @ du.T) + slab.asm.stiff @ u_stages.T).T


def _integrals(asm, values, matrices=False):
    """FE data of pointwise values on asm's quadrature grid, taken stage by stage as (M, nq)
    arrays (a batch over the stages raised peak RSS): the load vectors (k, n) of int values
    phi_i dx, or with `matrices` the element matrices (k, M, p+1, p+1) of int values
    phi_l phi_n dx."""
    wh_phi = asm.space.mesh.h * asm.quad_wts[:, None] * asm.phi   # (nq, p+1)
    if not matrices:
        return np.stack([scatter_vector(asm.space, v @ wh_phi) for v in values])
    table = wh_phi[:, :, None] * asm.phi[:, None, :]   # (nq, p+1, p+1)
    return np.stack([np.tensordot(v, table, 1) for v in values])


def _stage_data(slab, state, unknowns, need_jacobian):
    """All per-stage quantities for the residual and (optionally) the Jacobian, whose
    pointwise part is kept as its values g = (g1, g2) on the quadrature grid."""
    asm, nl = slab.asm, slab.nl
    du, lin = _linear_residual(slab, state, unknowns.u_stages)
    dr = (2.0 / slab.cfg.tau) * (slab.scheme.diff_matrix @ np.append(state.r, unknowns.r_stages))

    u_q = element_coefficients(asm.space, unknowns.u_stages) @ asm.phi.T   # (k, M, nq)
    F_q = nl.F(np.abs(u_q) ** 2)
    radicands = 0.5 * asm.space.mesh.h * np.einsum("kmq,q->k", F_q, asm.quad_wts) + nl.c0
    if np.any(radicands <= 0):
        j = int(np.argmax(radicands <= 0))
        raise ModelError(f"SAV radicand {radicands[j]} nonpositive at stage {j + 1}")
    denoms = np.sqrt(radicands)
    N = _integrals(asm, g_times_u(u_q, denoms[:, None, None], nl))
    data = {"du": du, "denoms": denoms, "N": N,
            "res_u": lin - unknowns.r_stages[:, None] * N,
            "res_r": dr - 0.5 * np.real(np.einsum("ki,ki->k", N, du.conj()))}
    if need_jacobian:
        g1, g2, clamped = g_derivatives(u_q, denoms[:, None, None], nl)
        data.update(g=(g1.real, g2), clamped=clamped)
    return data


def residual(slab, state, unknowns):
    """Collocation residual (res_u: (k, ndof) complex, res_r: (k,) real)."""
    data = _stage_data(slab, state, unknowns, need_jacobian=False)
    return data["res_u"], data["res_r"]


def _real_unknowns(vectors):
    """(k, n) complex stage vectors as the Newton system numbers its real unknowns: the
    float64 view of vectors.T, dof-major, unknown 2k d + 2j + s."""
    return np.ascontiguousarray(vectors.T).view(np.float64).ravel()


def _stage_vectors(x, k):
    """Inverse of _real_unknowns: (k, n) complex stage vectors."""
    return np.ascontiguousarray(x.view(np.complex128).reshape(-1, k).T)


def _assemble_newton_system(slab, unknowns, data):
    """Bordered real-form Jacobian at the current iterate, in the unknowns (dU, z) with
    z = dR - R sigma / (2 d); see the module docstring.  The main block is given as its
    element blocks, the border B (columns -N_j) and C (rows) over all of dU's unknowns."""
    R, asm, n, k = unknowns.r_stages, slab.asm, slab.asm.space.num_dofs, slab.cfg.k
    alpha = (2.0 / slab.cfg.tau) * slab.scheme.diff_matrix[:, 1:]   # (k, k), stage coupling
    N, du, (g1, g2) = data["N"], data["du"], data["g"]
    perm, linear, dropped = slab.elements
    blocks = np.tile(linear, (asm.space.mesh.num_elements, 1, 1))
    J = blocks.reshape(len(blocks), -1, 2 * k, len(perm), 2 * k)   # [e, l, 2j + s, l', 2m + s']
    G = (_integrals(asm, part, True)[..., perm[:, None], perm] for part in (g1, g2.real, g2.imag))
    for j, (G1, X2, Y2) in enumerate(zip(*G)):   # stage j's 2 x 2 real block [s, s']
        J[:, :, 2 * j:2 * j + 2, :, 2 * j:2 * j + 2] -= R[j] * np.stack(
            [np.stack([G1 + X2, Y2], -1), np.stack([Y2, G1 - X2], -1)], 2)

    def apply_g(v):   # G1_j v_j + (X2_j + i Y2_j) conj v_j of stage vectors v, by quadrature
        v_q = element_coefficients(asm.space, v) @ asm.phi.T
        return _integrals(asm, g1 * v_q + g2 * v_q.conj())

    N_parts, G_parts = (np.stack([v.real, v.imag], -1) for v in (N, apply_g(du)))   # (k, n, 2)
    stages = np.arange(k)
    Bt, C = np.zeros((2, k, n, k, 2))   # B^T and C, as [j, dof, m, s]
    Bt[stages, :, stages] = -N_parts
    # with dR = z + R sigma / (2 d), B's column -N_j times z_j carries the denominator's
    # term R_j N_j sigma_j / (2 d_j) of the u rows; border row j gains lift[j, m] sigma_m
    lift = alpha * (R / (2.0 * data["denoms"])) + np.diag(
        0.25 * np.real(np.einsum("ki,ki->k", N, du.conj())) / data["denoms"])
    for j in range(k):
        C[:, :, j] = -0.5 * alpha[:, j, None, None] * N_parts + lift[:, j, None, None] * N_parts[j]
    C[stages, :, stages] -= 0.5 * G_parts
    C = C.reshape(k, -1)

    def product(x_main, z):   # the system in stage form, reading neither the element blocks
        # nor G: i alpha M dU + A dU - R_j (G1_j dU + (X2_j + i Y2_j) conj dU) - N z
        dU = _stage_vectors(x_main, k)
        rows = 1j * (asm.mass @ (alpha @ dU).T) + asm.stiff @ dU.T - N.T * z - apply_g(dU).T * R
        return rows.view(np.float64).ravel(), C @ x_main + alpha @ z

    return BorderedSystem(K=Elements(blocks, 2 * k, dropped),
                          B=Bt.reshape(k, -1).T, C=C, Dmat=alpha, product=product)


def _increment_norm(asm, delta_u, delta_r):
    """max over stages of the mass-weighted L2 norm of dU and |dR|."""
    M = asm.mass
    l2 = [np.sqrt(d.real @ (M @ d.real) + d.imag @ (M @ d.imag)) for d in delta_u]
    return float(max(max(l2), np.abs(delta_r).max()))


@dataclass(frozen=True)
class Linearization:
    """An exact step's factored Newton system and the stage data of its increments."""

    R: np.ndarray
    N: np.ndarray
    denoms: np.ndarray
    factors: object   # linsolve.BorderedLU

    def step(self, data):
        """The increment (delta_u, delta_r) that cancels the residual of _stage_data's `data`."""
        x_main, z, _ = solve_bordered(self.factors, _real_unknowns(-data["res_u"]), -data["res_r"])
        delta_u = _stage_vectors(x_main, len(self.R))
        sigma = np.real(np.einsum("ki,ki->k", self.N.conj(), delta_u))
        return delta_u, z + self.R / (2.0 * self.denoms) * sigma


def newton_step(slab, state, unknowns, lin=None):
    """One Newton update; returns (unknowns, increment_norm, clamped_points, linearization).
    Without `lin` it is exact and factors its own; with `lin` it is a chord step."""
    data = _stage_data(slab, state, unknowns, need_jacobian=lin is None)
    # allocated before this step factors: a long-lived array above a factorization's
    # storage on glibc's brk heap pins it there (with SuperLU, peak RSS rose 5-20%)
    updated = SlabUnknowns(unknowns.u_stages.copy(), unknowns.r_stages.copy())
    if lin is None:
        lin = Linearization(unknowns.r_stages, data["N"], data["denoms"],
                            factor_bordered(_assemble_newton_system(slab, unknowns, data)))
    delta_u, delta_r = lin.step(data)
    updated.u_stages += delta_u   # the bits of u + du
    updated.r_stages += delta_r
    inc = _increment_norm(slab.asm, delta_u, delta_r)
    if not np.isfinite(inc):
        raise StepError("Newton increment is not finite")
    return updated, inc, data.get("clamped", 0), lin   # a chord step evaluates no g derivatives


def advance(slab, state, previous=None):
    """Solve one slab and return (new_state, StepReport).

    Newton keeps a linearization (Knoll & Keyes, J. Comput. Phys. 193, 2004), the one in
    `previous`, a Carry, then each exact step's, for the chord steps after it on this and
    later slabs, until a chord step contracts by theta = e_n / e_{n-1} > THETA_MAX or its
    solve fails (SolverError, StepError); the next step is exact, from the same iterate.  A
    ModelError is the iterate's and goes to the restart.  Newton stops at an exact e <=
    newton_tol, or at a chord estimate theta / (1 - theta) e (e before a theta) <= KAPPA
    newton_tol (Hairer & Wanner, Solving ODEs II, IV.8).  A chord step costs 1/8 of an exact
    one on soliton_fine, and THETA_MAX = 0.1 asks a digit of it; KAPPA = 1e-4 stops near the
    increments' roundoff, as an exact step's e^2 / 2 does, and so keeps the drifts at
    roundoff (README, "Newton").  Newton starts from the polynomial of the slab whose start
    state and stages `previous` holds, and again from the constant value state with an exact
    step if that fails; the last start's failure is a StepError with the slab's increment
    history.  kappa = 0 ignores `previous`.
    """
    cfg, scheme = slab.cfg, slab.scheme
    tau, k, tol = cfg.tau, cfg.k, cfg.newton_tol
    constant = SlabUnknowns(np.tile(state.u, (k, 1)), np.full(k, float(state.r)))
    history, factorizations, warnings = [], 0, []
    if slab.nl.is_linear:
        V, V_inv, blocks = slab.linear_block
        lu, delta_u = factor(blocks), 0
        for _ in range(2):   # the decoupled solve, then one refinement step (README, kappa = 0)
            _, res_u = _linear_residual(slab, state, constant.u_stages + delta_u)
            delta_u = delta_u + V @ lu.solve(-(V_inv @ res_u).reshape(-1)).reshape(k, -1)
        unknowns = SlabUnknowns(constant.u_stages + delta_u, constant.r_stages)
        history, factorizations = [_increment_norm(slab.asm, delta_u, np.zeros(k))], 1
        del _, res_u, delta_u, lu   # before u_end: kept past it, they cost planewave_linear 5%
    else:
        carry = previous or Carry()
        lin, carry.lin, starts = carry.lin, None, [constant]
        if carry.state is not None:
            prev_state, stages, E = carry.state, carry.stages, scheme.extrapolation_matrix
            starts.insert(0, SlabUnknowns(E @ np.vstack([prev_state.u, stages.u_stages]),
                                          E @ np.append(prev_state.r, stages.r_stages)))
        for start in starts:
            unknowns, clamped = start, 0
            try:
                for _ in range(cfg.max_newton_iters):
                    history.append(np.inf)   # until the step returns: a step that raises counts
                    chord = lin is not None
                    factorizations += not chord
                    try:
                        unknowns, e, step_clamped, lin = newton_step(slab, state, unknowns, lin)
                    except (SolverError, StepError) if chord else ():   # refresh, same iterate
                        lin = None
                        continue
                    history[-1], clamped = e, clamped + step_clamped
                    # history[-2] returned: a chord step follows no step that raised
                    theta = e / history[-2] if chord and len(history) > 1 else None
                    lin = None if theta and theta > THETA_MAX else lin
                    eta = 1.0 if theta is None else theta / (1 - theta) if theta < 1 else np.inf
                    if eta * e <= KAPPA * tol if chord else e <= tol:
                        break
                else:
                    raise StepError(f"Newton did not converge in {cfg.max_newton_iters} "
                                    f"iterations (last increment {history[-1]:.3e})")
                break
            except NumericalError as exc:
                lin = None
                if start is starts[-1]:
                    raise StepError(str(exc), increment_history=history) from exc
                warnings.append(f"restarted Newton from the constant value; the start from the "
                                f"previous slab's polynomial failed at step {len(history)}: {exc}")
        carry.state, carry.stages, carry.lin = state, unknowns, lin
        if clamped:
            warnings.append(f"clamped singular g derivatives at {clamped} points")

    e = scheme.endpoint_weights
    u_end = e[0] * state.u + e[1:] @ unknowns.u_stages
    r_end = float(e[0] * state.r + e[1:] @ unknowns.r_stages)
    new_state = SavState(u=u_end, r=r_end, t=state.t + tau)
    report = StepReport(iterations=len(history), increment_history=history, stages=unknowns,
                        factorizations=factorizations, warnings=warnings)
    return new_state, report


def num_slabs(T, tau):
    """Validated slab count N with T = N tau."""
    if tau == 0 or not (np.isfinite(T) and np.isfinite(tau)):
        raise ConfigurationError(f"T={T} and tau={tau} must be finite, tau nonzero")
    ratio = T / tau
    if not np.isfinite(ratio):
        raise ConfigurationError(f"T={T} / tau={tau} is not a finite slab count")
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
    slab = Slab(cfg, asm, scheme, nl)
    u0 = interpolate(space, u0_fn)
    state = SavState(u=u0, r=r_init(asm, u0, nl), t=0.0)
    for obs in observers:
        if hasattr(obs, "start"):
            obs.start(state, asm, scheme, nl)
    reports, states, previous = [], [state], Carry()
    for n in range(1, N + 1):
        try:
            new_state, report = advance(slab, state, previous)
        except NumericalError as exc:
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
