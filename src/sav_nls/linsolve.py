"""Direct solution of the per-slab bordered linear systems.

The main block K is sparse; the k auxiliary scalar unknowns enter through
dense border rows/columns and are eliminated with a Schur complement.  A
generic K is factored whole with SuperLU.  A K that comes with a BandLayout
(the Newton main block: a 1D FE operator coupled across its real stage
components, numbered dof-major) first moves the few unknowns that break its
band, such as those of a periodic wrap, into the border; what remains is a
band, factored with LAPACK's banded LU (dgbtrf/dgbtrs).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import SolverError

RESIDUAL_TOL = 1e-11
_CHUNK_COLUMNS = 4096   # band_layout's temporaries hold at most this many columns
_CHUNK = 1 << 16        # and BandLayout.band's at most this many entries


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
        """K^-1 b for 1-D or 2-D b; b is overwritten with the result when it is a
        Fortran-ordered float64 array (every 1-D one is)."""
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


class BandLayout(NamedTuple):
    """Split of the unknowns of a main block K with a fixed CSC pattern: those in
    `inner`, in that order, form a band of half-bandwidth `width`; those in `outer`
    join the border.  Unknowns are numbered in that order: inner ones 0 .. ni-1,
    then outer ones ni .. ni+no-1."""

    inner: np.ndarray     # index in K of each band unknown, in band order
    outer: np.ndarray     # index in K of each unknown moved into the border
    width: int
    to_band: np.ndarray   # int32: the slot of each K.data entry in the flat band storage,
                          # or the one slot past its end for an entry off the band
    wrap: tuple           # (K.data positions, rows, cols) of the entries off the band

    def band(self, K):
        """K's inner block as a Band, in new storage that factor overwrites."""
        size = len(self.inner) * (3 * self.width + 1)
        flat = np.zeros(size + 1)   # an entry off the band lands in flat[size]
        for lo in range(0, len(K.data), _CHUNK):   # numpy copies an int32 index to intp
            flat[self.to_band[lo:lo + _CHUNK]] = K.data[lo:lo + _CHUNK]
        return Band(flat[:size].reshape((3 * self.width + 1, -1), order="F"), self.width)


def band_layout(indptr, indices, inner, outer):
    """The BandLayout of the CSC pattern (indptr, indices) for the unknowns `inner`
    and `outer`.  It is built in column chunks, so that no temporary is as long as
    the pattern."""
    ni, n = len(inner), len(indptr) - 1
    number = np.empty(n, dtype=np.int64)
    number[inner] = np.arange(ni)
    number[outer] = ni + np.arange(len(outer))

    def chunks():   # (start in K.data, rows, cols) of each chunk's entries, renumbered
        for c0 in range(0, n, _CHUNK_COLUMNS):
            c1 = min(c0 + _CHUNK_COLUMNS, n)
            lo, hi = indptr[c0], indptr[c1]
            yield lo, number[indices[lo:hi]], np.repeat(number[c0:c1], np.diff(indptr[c0:c1 + 1]))

    width = max(int(np.abs(r - c)[(r < ni) & (c < ni)].max(initial=0)) for _, r, c in chunks())
    ld = 3 * width + 1
    to_band = np.empty(len(indices), dtype=np.int32)   # a 2**31-slot band would be 16 GiB
    wrap = []
    for lo, r, c in chunks():
        on = (r < ni) & (c < ni)
        to_band[lo:lo + len(r)] = np.where(on, c * ld + 2 * width + r - c, ld * ni)
        wrap.append((lo + np.flatnonzero(~on), r[~on], c[~on]))
    return BandLayout(inner, outer, width, to_band,
                      tuple(np.concatenate(parts) for parts in zip(*wrap)))


@dataclass
class BorderedSystem:
    """K x + B y = rhs_main;  C x + Dmat y = rhs_border.  With a `layout`, its
    outer unknowns join y, and the inner block of K is factored as a band."""

    K: sp.spmatrix
    B: np.ndarray
    C: np.ndarray
    Dmat: np.ndarray
    rhs_main: np.ndarray
    rhs_border: np.ndarray
    layout: BandLayout = None


class BorderedSolution(NamedTuple):
    x_main: np.ndarray
    x_border: np.ndarray
    residual: float
    lu: object          # the factorization used: of K, or of its band with a layout;
    W: np.ndarray       # W = K^-1 B' and the Schur complement S = Dmat' - C' W, with B', C'
    S: np.ndarray       # and Dmat' the border widened by the layout's outer unknowns


_NO_WRAP = (np.zeros(0, dtype=np.int64),) * 3


def solve_bordered(system, factorization=None):
    """Solve the bordered system by block elimination with a Schur complement.

    With a layout, the outer unknowns x_o join the border: K's inner block K_ii
    is the main block, B' = [K_io, B], C' = [[K_oi], [C]] and
    Dmat' = [[K_oo, B_o], [C_o, Dmat]], where _i and _o take the inner and outer
    rows or columns.  Solves K_ii W = B' and K_ii y = rhs_i, forms
    S = Dmat' - C' W, solves S (x_o, x_border) = (rhs_o, rhs_border) - C' y, and
    back-substitutes; `factorization`, the (lu, W, S) of a solve with the same
    K, B, C, Dmat and layout, replaces factoring K, W and S.  The relative
    residual of the full system is verified against RESIDUAL_TOL and returned.
    """
    layout, B, C = system.layout, system.B, system.C
    if layout is None:   # a generic K, factored whole
        inner, outer, (pos, rows, cols) = slice(None), slice(0), _NO_WRAP
        ni = len(system.rhs_main)
    else:
        inner, outer, (pos, rows, cols) = layout.inner, layout.outer, layout.wrap
        ni = len(inner)
    no = len(system.rhs_main) - ni
    vals = system.K.data[pos]
    rows_out, cols_out = rows >= ni, cols >= ni
    oi = rows_out & ~cols_out
    K_oi = sp.csr_matrix((vals[oi], (rows[oi] - ni, cols[oi])), shape=(no, ni))
    C_i = C[:, inner]
    if factorization is None:
        lu = factor(system.K if layout is None else layout.band(system.K))
        W = np.zeros((ni, no + B.shape[1]), order="F")   # B', then W in its storage
        io = ~rows_out & cols_out
        W[rows[io], cols[io] - ni] = vals[io]
        W[:, no:] = B[inner]
        W = lu.solve(W)
        S = np.zeros((no + B.shape[1],) * 2)
        oo = rows_out & cols_out
        S[rows[oo] - ni, cols[oo] - ni] = vals[oo]
        S[:no, no:], S[no:, :no], S[no:, no:] = B[outer], C[:, outer], system.Dmat
        S -= np.vstack([K_oi @ W, C_i @ W])
    else:
        lu, W, S = factorization
    y = lu.solve(system.rhs_main[inner])
    try:
        x_wide = np.linalg.solve(S, np.concatenate([system.rhs_main[outer] - K_oi @ y,
                                                    system.rhs_border - C_i @ y]))
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular Schur complement (degenerate r-coupling)") from exc
    x_main = np.empty_like(system.rhs_main)
    x_main[inner] = y - W @ x_wide
    x_main[outer] = x_wide[:no]
    x_border = x_wide[no:]

    r_main = system.K @ x_main + B @ x_border - system.rhs_main
    r_border = C @ x_main + system.Dmat @ x_border - system.rhs_border
    scale = max(np.linalg.norm(system.rhs_main) + np.linalg.norm(system.rhs_border), 1e-300)
    residual = float(np.sqrt(np.linalg.norm(r_main) ** 2 + np.linalg.norm(r_border) ** 2) / scale)
    if residual > RESIDUAL_TOL:
        raise SolverError(f"bordered solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return BorderedSolution(x_main, x_border, residual, lu, W, S)
