"""1D complex Lagrange finite elements on a uniform mesh.

Degrees 1..4 with equispaced nodes per element; periodic or homogeneous
Dirichlet boundary conditions.  FE functions are plain complex coefficient
arrays of length num_dofs; the basis is real, so the mass and stiffness
operators are real CSR matrices, assembled with exact Gauss quadrature.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .collocation import MAX_ORDER, gauss_rule, lagrange_basis, lagrange_basis_deriv
from .errors import ConfigurationError, InputError

PERIODIC = "periodic"
DIRICHLET = "dirichlet"

MAX_DEGREE = 4


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of [a, b] with M elements."""

    a: float
    b: float
    num_elements: int
    h: float
    bc: str


@dataclass(frozen=True)
class FemSpace:
    """Complex Lagrange space of degree p on a Mesh1D.

    dof_map[e, j] is the global dof of local node j of element e; -1 marks a
    constrained (Dirichlet boundary) node whose coefficient is implicitly 0.
    dof_coords holds the physical coordinate of every global dof.
    """

    mesh: Mesh1D
    degree: int
    num_dofs: int
    dof_map: np.ndarray
    dof_coords: np.ndarray


def build_space(a, b, num_elements, degree, bc):
    """Construct the degree-`degree` FE space on [a, b] with `num_elements` cells."""
    if not -np.inf < a < b < np.inf:
        raise ConfigurationError(
            f"domain endpoints invalid: a={a} must be < b={b}, both finite")
    for name, value in (("num_elements", num_elements), ("degree", degree)):
        if not isinstance(value, numbers.Integral):   # numpy integers pass
            raise ConfigurationError(f"{name}={value!r} must be an integer")
    if num_elements < 2:
        raise ConfigurationError(f"num_elements={num_elements} must be >= 2")
    if not 1 <= degree <= MAX_DEGREE:
        raise ConfigurationError(f"degree={degree} outside supported range [1, {MAX_DEGREE}]")
    if bc not in (PERIODIC, DIRICHLET):
        raise ConfigurationError(f"bc={bc!r} must be {PERIODIC!r} or {DIRICHLET!r}")

    M, p = num_elements, degree
    h = (b - a) / M
    mesh = Mesh1D(a=a, b=b, num_elements=M, h=h, bc=bc)

    raw = np.arange(M)[:, None] * p + np.arange(p + 1)[None, :]  # global node index
    n_nodes = p * M
    if bc == PERIODIC:
        dof_map = raw % n_nodes
        num_dofs = n_nodes
        dof_coords = a + np.arange(n_nodes) * (h / p)
    else:
        dof_map = raw - 1
        dof_map[raw == n_nodes] = -1  # right boundary node
        num_dofs = n_nodes - 1
        dof_coords = a + np.arange(1, n_nodes) * (h / p)

    return FemSpace(mesh=mesh, degree=p, num_dofs=num_dofs,
                    dof_map=dof_map.astype(np.int64), dof_coords=dof_coords)


def reference_nodes(p):
    """The p + 1 equispaced Lagrange nodes of the degree-p basis on [0, 1]."""
    return np.arange(p + 1) / p


def reference_quadrature(nq):
    """nq-point Gauss rule mapped to the reference element [0, 1]."""
    if not isinstance(nq, numbers.Integral):   # numpy integers pass
        raise ConfigurationError(f"quadrature point count nq={nq!r} must be an integer")
    if not 1 <= nq <= MAX_ORDER:
        raise ConfigurationError(f"quadrature point count nq={nq} outside [1, {MAX_ORDER}]")
    rule = gauss_rule(nq)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights


@lru_cache(maxsize=MAX_DEGREE * MAX_ORDER, typed=True)   # typed: nq = 3.0 misses 3
def basis_tables(p, nq):
    """(points, weights, phi, dphi) on [0, 1] of the degree-p basis; phi/dphi have shape
    (nq, p+1).  Built once per (p, nq), read-only, since every caller shares them."""
    pts, wts = reference_quadrature(nq)
    nodes = reference_nodes(p)
    tables = pts, wts, lagrange_basis(nodes, pts), lagrange_basis_deriv(nodes, pts)
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class MatrixPattern:
    """Canonical CSR sparsity of the matrices assembled on one space (each row has
    its diagonal, so it fixes the shape); slots[e, l, m] is the position in the data
    of local entry (l, m) of element e, or nnz for an entry on a constrained node."""

    indptr: np.ndarray   # int32
    indices: np.ndarray  # int32
    slots: np.ndarray    # (num_elements, p+1, p+1) int32


def matrix_pattern(space):
    """The MatrixPattern of `space`: its sorted distinct (row, col) dof pairs."""
    dm, n = space.dof_map, space.num_dofs
    keys = np.where((dm[:, :, None] >= 0) & (dm[:, None, :] >= 0),
                    dm[:, :, None] * n + dm[:, None, :], n * n)
    flat = np.sort(keys, axis=None, kind="stable")   # element by element: nearly sorted
    pairs = flat[np.r_[True, flat[1:] != flat[:-1]] & (flat < n * n)]
    return MatrixPattern(indices=(pairs % n).astype(np.int32),
                         indptr=np.searchsorted(pairs, np.arange(n + 1) * n).astype(np.int32),
                         slots=np.searchsorted(pairs, keys).astype(np.int32))


def scatter_matrix(pattern, local):
    """Assemble real local (p+1)x(p+1) element matrices into a CSR on `pattern`.

    `local` is one matrix shared by all elements or a stacked (num_elements, p+1,
    p+1) array.  No global entry gets more than two element terms (num_elements
    >= 2), so their sum has the same bits in any order."""
    nnz = len(pattern.indices)
    data = np.bincount(pattern.slots.ravel(), minlength=nnz + 1,
                       weights=np.broadcast_to(local, pattern.slots.shape).ravel())
    return sp.csr_matrix((data[:nnz], pattern.indices, pattern.indptr))


def scatter_vector(space, local_loads):
    """Accumulate per-element (p+1,) local load vectors into a global vector."""
    dm = space.dof_map.ravel()
    keep = dm >= 0
    idx = dm[keep]
    vals = np.asarray(local_loads, dtype=np.complex128).reshape(-1)[keep]
    return (np.bincount(idx, weights=vals.real, minlength=space.num_dofs)
            + 1j * np.bincount(idx, weights=vals.imag, minlength=space.num_dofs))


def element_matrices(space):
    """The element mass int phi_l phi_m dx and stiffness int phi_l' phi_m' dx, (p+1, p+1) each,
    on p + 1 Gauss points (exact); mass symmetric positive definite, stiffness PSD."""
    h = space.mesh.h
    _, wts, phi, dphi = basis_tables(space.degree, space.degree + 1)
    return (h * np.einsum("q,ql,qm->lm", wts, phi, phi),
            (1.0 / h) * np.einsum("q,ql,qm->lm", wts, dphi, dphi))


def assemble_mass(space, pattern):
    """Mass operator M_ij = int phi_i phi_j dx."""
    return scatter_matrix(pattern, element_matrices(space)[0])


def assemble_stiffness(space, pattern):
    """Stiffness operator A_ij = int phi_i' phi_j' dx."""
    return scatter_matrix(pattern, element_matrices(space)[1])


def interpolate(space, fn):
    """Nodal interpolant of fn, called once on the array of dof coordinates (a constant
    may return a scalar); Dirichlet boundary values are implicitly zero."""
    try:
        vals = np.full(space.num_dofs, fn(space.dof_coords), dtype=np.complex128)
    except (TypeError, ValueError) as exc:   # math.exp(x), or a sample of another shape
        raise InputError(f"initial data must be vectorized in x: {exc}") from exc
    bad = ~np.isfinite(vals)
    if np.any(bad):
        x = space.dof_coords[np.argmax(bad)]
        raise InputError(f"non-finite sample fn({x}) during interpolation")
    return vals


def element_coefficients(space, v):
    """Coefficients of the FE functions v (..., num_dofs) on every element, shape
    (..., num_elements, p+1); a constrained node (dof -1) reads 0."""
    v = np.asarray(v, dtype=np.complex128)
    padded = np.concatenate([v, np.zeros(v.shape[:-1] + (1,), dtype=np.complex128)], axis=-1)
    return np.take(padded, space.dof_map, axis=-1)


def evaluate(space, v, x):
    """(value, derivative) of the FE function at a point x in [a, b]."""
    mesh = space.mesh
    if not mesh.a <= x <= mesh.b:
        raise InputError(f"evaluation point x={x} outside [{mesh.a}, {mesh.b}]")
    e = min(int((x - mesh.a) / mesh.h), mesh.num_elements - 1)
    xi = (x - mesh.a) / mesh.h - e
    local = element_coefficients(space, v)[e]
    return (local @ lagrange_basis(reference_nodes(space.degree), xi)[0],
            (local @ lagrange_basis_deriv(reference_nodes(space.degree), xi)[0]) / mesh.h)


def error_norms(space, v, exact, exact_grad):
    """(L2, H1) errors of the FE function against exact/exact_grad, on p+3 Gauss points."""
    mesh = space.mesh
    pts, wts, phi, dphi = basis_tables(space.degree, space.degree + 3)
    local = element_coefficients(space, v)
    u, du = local @ phi.T, (local @ dphi.T) / mesh.h
    x = mesh.a + (np.arange(mesh.num_elements)[:, None] + pts[None, :]) * mesh.h
    ue = np.asarray(exact(x), dtype=np.complex128)
    ge = np.asarray(exact_grad(x), dtype=np.complex128)
    l2_sq = mesh.h * np.sum(wts[None, :] * np.abs(u - ue) ** 2)
    grad_sq = mesh.h * np.sum(wts[None, :] * np.abs(du - ge) ** 2)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + grad_sq))
