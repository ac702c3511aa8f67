"""Direct solution of the per-slab bordered linear systems.

The main block K is factored; the few border unknowns enter through dense
rows and columns and are eliminated with a Schur complement.  A sparse K is
factored with SuperLU, a Band (such as the Newton main block, whose
assembler moves the unknowns that would break the band into the border) with
LAPACK's banded LU (dgbtrf/dgbtrs).  The residual of every solve is checked
on the full system.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SolverError

RESIDUAL_TOL = 1e-11


class Band(NamedTuple):
    """A square matrix in LAPACK band storage: entry (i, j) is ab[2 width + i - j, j]
    of the Fortran-ordered (3 width + 1, n) array `ab`, whose top `width` rows are
    dgbtrf's room for fill-in.  dgbtrf copies any other array before factoring."""

    ab: np.ndarray
    width: int   # half-bandwidth, below and above the diagonal


@dataclass(frozen=True)
class BandLU:
    """dgbtrf's factors of a Band; `lu` is the band's own storage, overwritten."""

    lu: np.ndarray
    piv: np.ndarray
    width: int

    def solve(self, b):
        """K^-1 b for 1-D or 2-D b, in b's storage if b is Fortran-ordered float64."""
        if len(b) == 0:   # dgbtrs rejects an empty band: every unknown is in the border
            return b
        return dgbtrs(self.lu, self.width, self.width, b, self.piv, overwrite_b=1)[0]


def factor(K):
    """Factorization of a main block (its ``solve`` is reusable across right-hand
    sides): LAPACK's banded LU of a Band, in place, or SuperLU of a sparse K;
    raises SolverError on singularity."""
    if isinstance(K, Band):
        lu, piv, info = dgbtrf(K.ab, K.width, K.width, overwrite_ab=1)
        if info != 0:   # info > 0 is the 1-based index of a zero pivot
            raise SolverError(f"singular main block: dgbtrf info {info}")
        return BandLU(lu, piv, K.width)
    K = sp.csc_matrix(K)
    if K.shape[0] != K.shape[1]:
        raise SolverError(f"main block is not square: {K.shape}")
    try:
        return spla.splu(K)
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SolverError(f"singular main block: {exc}") from exc


@dataclass
class BorderedSystem:
    """The matrix of K x + B y = rhs_main;  C x + Dmat y = rhs_border, with K a Band or a
    sparse matrix.  `product`, when given, maps (x, y) to (K x + B y, C x + Dmat y)
    without reading K or B; a Band K needs it, as factoring it overwrites K and B (LU, W)."""

    K: object
    B: np.ndarray
    C: np.ndarray
    Dmat: np.ndarray
    product: object = None


class BorderedSolution(NamedTuple):
    x_main: np.ndarray
    x_border: np.ndarray
    residual: float


@dataclass(frozen=True)
class BorderedLU:
    """A BorderedSystem factored once: K's LU, W = K^-1 B, S = Dmat - C W, C and product."""

    lu: object
    W: np.ndarray
    S: np.ndarray
    C: np.ndarray
    product: object

    def solve(self, rhs_main, rhs_border):
        """Solve K y = rhs_main and S x_border = rhs_border - C y, and back-substitute
        x_main = y - W x_border.  The relative residual of the full system, applied by
        `product`, is verified against RESIDUAL_TOL (a NaN fails it) and returned."""
        y = self.lu.solve(rhs_main.copy())   # rhs_main is kept for the residual
        try:
            x_border = np.linalg.solve(self.S, rhs_border - self.C @ y)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Schur complement (degenerate r-coupling)") from exc
        x_main = y - self.W @ x_border
        main, border = self.product(x_main, x_border)
        r_main, r_border = main - rhs_main, border - rhs_border
        scale = max(np.linalg.norm(rhs_main) + np.linalg.norm(rhs_border), 1e-300)
        residual = float(np.sqrt(np.linalg.norm(r_main) ** 2 + np.linalg.norm(r_border) ** 2)
                         / scale)
        if not residual <= RESIDUAL_TOL:
            raise SolverError(f"bordered solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
        return BorderedSolution(x_main, x_border, residual)


solve_bordered = BorderedLU.solve   # solve_bordered(lu, rhs_main, rhs_border): stepper's name


def factor_bordered(system):
    """The BorderedLU of a BorderedSystem, whose Band K and B become its LU and W."""
    K, B, C, Dmat = system.K, system.B, system.C, system.Dmat
    lu = factor(K)
    W = lu.solve(B)
    product = system.product or (lambda x, y: (K @ x + B @ y, C @ x + Dmat @ y))
    return BorderedLU(lu, W, Dmat - C @ W, C, product)
