"""Direct solution of the per-slab bordered linear systems.

The main block K is sparse (stage-coupled, banded in space); the k auxiliary
scalar unknowns enter through dense border rows/columns and are eliminated
with a Schur complement.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

RESIDUAL_TOL = 1e-11


def factor(K):
    """SuperLU factorization of K (its ``solve`` is reusable across
    right-hand sides); raises SolverError on singularity."""
    K = sp.csc_matrix(K)
    if K.shape[0] != K.shape[1]:
        raise SolverError(f"main block is not square: {K.shape}")
    try:
        return spla.splu(K)
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SolverError(f"singular main block: {exc}") from exc


@dataclass
class BorderedSystem:
    """K x + B y = rhs_main;  C x + Dmat y = rhs_border."""

    K: sp.spmatrix
    B: np.ndarray
    C: np.ndarray
    Dmat: np.ndarray
    rhs_main: np.ndarray
    rhs_border: np.ndarray


class BorderedSolution(NamedTuple):
    x_main: np.ndarray
    x_border: np.ndarray
    residual: float


def solve_bordered(system, factorization=None, residual_tol=RESIDUAL_TOL):
    """Solve the bordered system by block elimination with a Schur complement.

    Solves K W = B and K y = rhs_main, forms S = Dmat - C W, solves
    S x_border = rhs_border - C y, and back-substitutes.  The relative
    residual of the full system is verified and returned.
    """
    lu = factorization if factorization is not None else factor(system.K)
    y = lu.solve(system.rhs_main)
    W = lu.solve(system.B)
    if W.ndim == 1:
        W = W[:, None]
    S = system.Dmat - system.C @ W
    try:
        x_border = np.linalg.solve(S, system.rhs_border - system.C @ y)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular Schur complement (degenerate r-coupling)") from exc
    x_main = y - W @ x_border

    r_main = system.K @ x_main + system.B @ x_border - system.rhs_main
    r_border = system.C @ x_main + system.Dmat @ x_border - system.rhs_border
    scale = max(np.linalg.norm(system.rhs_main) + np.linalg.norm(system.rhs_border), 1e-300)
    residual = float(np.sqrt(np.linalg.norm(r_main) ** 2 + np.linalg.norm(r_border) ** 2) / scale)
    if residual > residual_tol:
        raise SolverError(f"bordered solve residual {residual:.3e} exceeds {residual_tol:.1e}")
    return BorderedSolution(x_main=x_main, x_border=x_border, residual=residual)
