"""Helpers of the stepper tests: the Slab of a test's operators, the stage-major
real parts of stage vectors, and the full real-form Newton matrix, rebuilt from
the band and border that stepper._assemble_newton_system writes, for tests that
compare it with references assembled in other ways."""

import numpy as np

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
