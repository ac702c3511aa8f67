"""Direct solution of the per-slab bordered linear systems.

The main block K is factored; the few border unknowns enter through dense rows and
columns and are eliminated with a Schur complement.  A sparse K is factored with SuperLU.
A K of dense element blocks (Elements, the Newton main block) is condensed (Karniadakis &
Sherwin, Spectral/hp Element Methods, 2005; Guyan 1965) onto its vertices, a band for
LAPACK's banded LU, a periodic wrap eliminated as the band's own border; each solve
condenses its right-hand side and back-substitutes the interiors with batched matvecs.
The residual of every solve is checked on the full, uncondensed system.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SolverError

RESIDUAL_TOL = 1e-11


class Elements(NamedTuple):
    """A square matrix summed from the dense blocks of a chain of M elements, each with b
    vertex and m = nl - 2b interior unknowns: element e's local unknowns are its first
    vertex's, e s + [0, b) with s = b + m, its last vertex's, the next element's first (the
    first element's, for the last one), and its interior's, e s + b + [0, m).  With
    `dropped`, the first vertex's b unknowns are not in the matrix, whose unknown i is
    i + b of the chain, and the blocks' rows and columns on them are ignored."""

    blocks: np.ndarray   # (M, nl, nl)
    b: int
    dropped: bool


@dataclass(frozen=True)
class ElementsLU:
    """The condensed factors of an Elements K: per element L = K_VI K_II^-1 and
    Y = K_II^-1 [I, -K_IV]; dgbtrf's lu, piv of the Schur complements K_VV - L K_IV summed
    on the vertices but the first, block tridiagonal with half-bandwidth 2b - 1; and a
    periodic chain's wrap to the first vertex, eliminated as the band's border: (W, S^-1,
    C) with W the band's solve of its column, S = D - C W.  A dropped vertex reads 0."""

    L: np.ndarray   # (M, 2b, m)
    Y: np.ndarray   # (M, m, m + 2b)
    lu: np.ndarray
    piv: np.ndarray
    wrap: tuple

    def solve(self, f):
        """K^-1 f for 1-D or 2-D f."""
        (M, o, _), b, x0 = self.L.shape, self.L.shape[1] // 2, 0.0
        F, pad = f.reshape(len(f), -1), b * (self.wrap is None)   # a dropped vertex: zeros
        F = (np.concatenate([np.zeros_like(F[:pad]), F]) if pad else F).reshape(M, -1, F.shape[1])
        c = self.L @ F[:, b:]   # f_V - K_VI K_II^-1 f_I, vertex v's from elements v, v - 1
        g = F[:, :b] - c[:, :b] - np.roll(c[:, b:], 1, axis=0)
        y = dgbtrs(self.lu, o - 1, o - 1, g.reshape(M * b, -1)[b:], self.piv, overwrite_b=1)[0]
        if self.wrap is not None:
            W, Sinv, C = self.wrap
            x0 = Sinv @ (g[0] - C @ y)
            y -= W @ x0
        V = np.concatenate([np.broadcast_to(x0, g[0].shape), y]).reshape(M, b, -1)
        x_I = self.Y @ np.concatenate([F[:, b:], V, np.roll(V, -1, axis=0)], axis=1)
        return np.concatenate([V, x_I], axis=1).reshape(-1, *f.shape[1:])[pad:]


def _condense(K):
    """The ElementsLU of an Elements K."""
    J, b, dropped = K
    M, o, m = len(J), 2 * b, len(J[0]) - 2 * b
    Y = np.empty((M, m, m + o))   # in place, for peak RSS
    Y[:, :, :m] = np.linalg.inv(J[:, o:, o:])
    np.negative(np.matmul(Y[:, :, :m], J[:, o:, :o], out=Y[:, :, m:]), out=Y[:, :, m:])
    L = J[:, :o, o:] @ Y[:, :, :m]
    S = np.matmul(J[:, :o, o:], Y[:, :, m:])
    S += J[:, :o, :o]
    diag = S[:, :b, :b] + np.roll(S[:, b:, b:], 1, axis=0)   # vertex v: elements v, v - 1
    # vertices 1..M-1 in LAPACK band storage: entry (i, j) in [2w + i - j, j]
    w, r, c, nv = o - 1, np.arange(b)[:, None], np.arange(b), M - 1
    store = np.zeros((nv, b, 3 * w + 1))   # [block column, column, band row]
    for d, blocks in ((0, diag[1:]), (1, S[1:-1, :b, b:]), (-1, S[1:-1, b:, :b])):
        store[max(d, 0):nv + min(d, 0), c, 2 * w + r - c - d * b] = blocks
    lu, piv, info = dgbtrf(store.reshape(nv * b, -1).T, w, w, overwrite_ab=1)
    if info != 0:   # info > 0 is the 1-based index of a zero pivot
        raise SolverError(f"singular main block: dgbtrf info {info}")
    if dropped:
        return ElementsLU(L, Y, lu, piv, None)
    B, Ct = np.zeros((2, nv * b, b))   # the band's couplings to vertex 0 and back:
    B[:b], Ct[:b] = S[0, b:, :b], S[0, :b, b:].T   # vertex 1 is element 0's last,
    B[-b:], Ct[-b:] = B[-b:] + S[-1, :b, b:], Ct[-b:] + S[-1, b:, :b].T   # M - 1 is M - 1's first
    W = dgbtrs(lu, w, w, np.asfortranarray(B), piv, overwrite_b=1)[0]   # in B's storage
    return ElementsLU(L, Y, lu, piv, (W, np.linalg.inv(diag[0] - Ct.T @ W), Ct.T))


def factor(K):
    """Factorization of a main block (its ``solve`` is reusable across right-hand
    sides): the condensation of an Elements K or SuperLU of a sparse K; raises
    SolverError on singularity."""
    if isinstance(K, Elements):
        try:
            return _condense(K)
        except np.linalg.LinAlgError as exc:   # an exactly singular K_II or wrap
            raise SolverError(f"singular element interior block or wrap: {exc}") from exc
    K = sp.csc_matrix(K)
    if K.shape[0] != K.shape[1]:
        raise SolverError(f"main block is not square: {K.shape}")
    try:
        return spla.splu(K)
    except RuntimeError as exc:  # SuperLU reports the failing pivot index
        raise SolverError(f"singular main block: {exc}") from exc


@dataclass
class BorderedSystem:
    """The matrix of K x + B y = rhs_main;  C x + Dmat y = rhs_border, with K Elements or
    a sparse matrix.  `product`, when given, maps (x, y) to (K x + B y, C x + Dmat y)
    without reading K or B; an Elements K needs it."""

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
    """A BorderedSystem factored once: K's factors, W = K^-1 B, S = Dmat - C W, C and
    product."""

    lu: object
    W: np.ndarray
    S: np.ndarray
    C: np.ndarray
    product: object

    def solve(self, rhs_main, rhs_border):
        """Solve K y = rhs_main and S x_border = rhs_border - C y, and back-substitute
        x_main = y - W x_border.  The relative residual of the full system, applied by
        `product`, is verified against RESIDUAL_TOL (a NaN fails it) and returned."""
        y = self.lu.solve(rhs_main)
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
    """The BorderedLU of a BorderedSystem."""
    K, B, C, Dmat = system.K, system.B, system.C, system.Dmat
    lu = factor(K)
    W = lu.solve(B)
    product = system.product or (lambda x, y: (K @ x + B @ y, C @ x + Dmat @ y))
    return BorderedLU(lu, W, Dmat - C @ W, C, product)
