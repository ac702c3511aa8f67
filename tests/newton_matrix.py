"""Helpers of the stepper tests: the Slab of a test's operators, the stage-major
real parts of stage vectors, the full real-form Newton matrix, rebuilt from
the band and border that stepper._assemble_newton_system writes, for tests that
compare it with references assembled in other ways, and the per-stage einsums and
sparse matvecs that the stepper's quadrature kernel replaced, as its reference."""

import numpy as np

from sav_nls.fem import element_coefficients, scatter_matrix
from sav_nls.stepper import Slab, StepperConfig


def make_slab(asm, scheme, nl, tau, **options):
    """Slab(StepperConfig(tau, k, **options), asm, scheme, nl), with k the scheme's order."""
    return Slab(StepperConfig(tau=tau, k=len(scheme.rule.nodes), **options), asm, scheme, nl)


def real_parts(vectors):
    """(k, n) complex stage vectors stage-major, as [Re_1, Im_1, Re_2, Im_2, ...]."""
    return np.stack([vectors.real, vectors.imag], axis=1).reshape(-1)


def band_order(n, k):
    """order[i]: the stage-major index (2j + s) n + dof of the Newton system's unknown
    i: the band's (dofs 1..n-1, dof-major), dof 0's 2k, then the k SAV unknowns."""
    stage = np.arange(2 * k * n).reshape(2 * k, n)
    return np.concatenate([stage[:, 1:].T.ravel(), stage[:, 0], 2 * k * n + np.arange(k)])


def real_form_matrix(system):
    """[[K, B], [C, Dmat]] of the Newton system, dense and in stage-major order, as
    sp.bmat of the real-form blocks lays it out; read before a solve overwrites the
    band and B.  Every band slot off the matrix, and dgbtrf's fill-in rows, must be 0."""
    ab, w = system.K.ab, system.K.width
    ni, nb = ab.shape[1], len(system.Dmat)
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(ni), np.arange(ni))) <= w)
    used = np.zeros(ab.shape, dtype=bool)
    used[2 * w + i - j, j] = True
    assert not ab[~used].any()
    wide = np.zeros((ni + nb, ni + nb))
    wide[i, j] = ab[2 * w + i - j, j]
    wide[:ni, ni:], wide[ni:, :ni], wide[ni:, ni:] = system.B, system.C, system.Dmat
    k = nb // 3
    order = band_order(ni // (2 * k) + 1, k)
    full = np.empty_like(wide)
    full[np.ix_(order, order)] = wide
    return full


def to_stage_order(x_main, x_border):
    """A solution (x_main, x_border) of the Newton system in stage-major order."""
    k = len(x_border) // 3
    x = np.empty(len(x_main) + len(x_border))
    x[band_order(len(x_main) // (2 * k) + 1, k)] = np.concatenate([x_main, x_border])
    return x


def stage_matrices(asm, g):
    """[G1, X2, Y2], each a list of k CSR matrices int (g1, Re g2, Im g2) phi_l phi_n dx of
    the pointwise values g = (g1, g2), (k, M, nq) each: one 4-operand einsum per stage and
    part, as the stepper assembled them before its quadrature kernel."""
    wh = asm.space.mesh.h * asm.quad_wts
    mats = [[], [], []]
    for g1, g2 in zip(*g):
        loc1 = np.einsum("mq,q,ql,qn->mln", g1.real, wh, asm.phi, asm.phi)
        loc2 = np.einsum("mq,q,ql,qn->mln", g2, wh, asm.phi, asm.phi)
        for parts, local in zip(mats, (loc1, loc2.real, loc2.imag)):
            parts.append(scatter_matrix(asm.pattern, local))
    return mats


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
