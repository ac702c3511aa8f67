"""Helpers of the stepper tests: the Slab of a test's operators, the stage-major
real parts of stage vectors, the full real-form Newton matrix, rebuilt from
the element blocks and border that stepper._assemble_newton_system writes, for tests that
compare it with references assembled in other ways, and the per-stage einsums and
sparse matvecs that the stepper's quadrature kernel replaced, as its reference."""

import numpy as np

from sav_nls.fem import element_coefficients, matrix_pattern, scatter_matrix
from sav_nls.stepper import Slab, StepperConfig, _real_unknowns


def make_slab(asm, scheme, nl, tau, **options):
    """Slab(StepperConfig(tau, k, **options), asm, scheme, nl), with k the scheme's order."""
    return Slab(StepperConfig(tau=tau, k=len(scheme.rule.nodes), **options), asm, scheme, nl)


def real_parts(vectors):
    """(k, n) complex stage vectors stage-major, as [Re_1, Im_1, Re_2, Im_2, ...]."""
    return np.stack([vectors.real, vectors.imag], axis=1).reshape(-1)


def newton_rhs(data):
    """(rhs_main, rhs_border) that Linearization.step solves for: minus the collocation
    residual of _stage_data's `data`, dU's rows numbered as _real_unknowns numbers them."""
    return _real_unknowns(-data["res_u"]), -data["res_r"]


def stage_order(n, k):
    """order[i]: the stage-major index (2j + s) n + dof of the Newton system's unknown i:
    dU's (dof-major, 2k d + 2j + s), then the k SAV unknowns."""
    stage = np.arange(2 * k * n).reshape(2 * k, n)
    return np.concatenate([stage.T.ravel(), 2 * k * n + np.arange(k)])


def element_index(K):
    """(M, nl): the unknowns of each element of a linsolve.Elements chain K, in its blocks'
    order (first vertex, last vertex, interior), -1 on a dropped one."""
    M, nl = K.blocks.shape[:2]
    b, s, e = K.b, nl - K.b, np.arange(M)[:, None]
    chain = np.hstack([e * s + np.arange(b), (e + 1) % M * s + np.arange(b),
                       e * s + np.arange(b, s)])
    return np.where(chain < b * K.dropped, -1, chain - b * K.dropped)


def chain_matrix(system):
    """[[K, B], [C, Dmat]] of the Newton system, dense and in its own (chain) order: K
    summed from the element blocks (which no solve overwrites) at element_index, the
    entries of a constrained node (-1) dropped, and the border."""
    blocks, index = system.K.blocks, element_index(system.K)
    ni, k = len(system.B), len(system.Dmat)
    wide = np.zeros((ni + k + 1, ni + k + 1))   # the last row and column: index -1
    np.add.at(wide, (index[:, :, None], index[:, None, :]), blocks)
    wide = wide[:-1, :-1]
    wide[:ni, ni:], wide[ni:, :ni], wide[ni:, ni:] = system.B, system.C, system.Dmat
    return wide


def real_form_matrix(system):
    """chain_matrix in stage-major order, as sp.bmat of the real-form blocks lays it out."""
    wide, k = chain_matrix(system), len(system.Dmat)
    order = stage_order(len(system.B) // (2 * k), k)
    full = np.empty_like(wide)
    full[np.ix_(order, order)] = wide
    return full


def to_stage_order(x_main, x_border):
    """A solution (x_main, x_border) of the Newton system in stage-major order."""
    k = len(x_border)
    x = np.empty(len(x_main) + k)
    x[stage_order(len(x_main) // (2 * k), k)] = np.concatenate([x_main, x_border])
    return x


def stage_element_matrices(asm, g):
    """[G1, X2, Y2], each (k, M, p+1, p+1): the element matrices int (g1, Re g2, Im g2)
    phi_l phi_n dx of the pointwise values g = (g1, g2), (k, M, nq) each, by 4-operand
    einsums, as the stepper computed them before its quadrature kernel."""
    wh = asm.space.mesh.h * asm.quad_wts
    loc1 = np.einsum("kmq,q,ql,qn->kmln", g[0].real, wh, asm.phi, asm.phi)
    loc2 = np.einsum("kmq,q,ql,qn->kmln", g[1], wh, asm.phi, asm.phi)
    return [loc1, loc2.real, loc2.imag]


def stage_matrices(asm, g):
    """[G1, X2, Y2], each a list of k CSR matrices: stage_element_matrices assembled."""
    pattern = matrix_pattern(asm.space)
    return [[scatter_matrix(pattern, local) for local in part]
            for part in stage_element_matrices(asm, g)]


def apply_g(G1, X2, Y2, v):
    """G1_j v_j + (X2_j + i Y2_j) conj v_j of stage vectors v (k, n), by sparse matvecs."""
    return np.stack([G1[j] @ v[j] + X2[j] @ v[j].conj() + 1j * (Y2[j] @ v[j].conj())
                     for j in range(len(v))])


def stage_loads(asm, nl, u_stages, denoms):
    """N, the load vectors int f(|U_j|^2) U_j / d_j phi_i dx, as the stepper computed them
    before its quadrature kernel: an einsum, and an unbuffered sum over the elements."""
    u_q = element_coefficients(asm.space, u_stages) @ asm.phi.T
    g_q = nl.f(np.abs(u_q) ** 2) / denoms[:, None, None]
    loads = np.einsum("kmq,q,ql->kml", g_q * u_q, asm.space.mesh.h * asm.quad_wts, asm.phi)
    dm = asm.space.dof_map
    N = np.zeros((len(loads), asm.space.num_dofs), dtype=complex)
    for stage, local in zip(N, loads):
        np.add.at(stage, dm[dm >= 0], local[dm >= 0])
    return N
