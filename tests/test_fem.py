import numpy as np
import pytest

from sav_nls.collocation import lagrange_basis, lagrange_basis_deriv
from sav_nls.errors import ConfigurationError, InputError
from sav_nls.fem import (DIRICHLET, PERIODIC, assemble_mass, assemble_stiffness,
                         basis_tables, build_space, element_coefficients, error_norms,
                         evaluate, interpolate, matrix_pattern, reference_nodes,
                         reference_quadrature)
from sav_nls.problems import plane_wave, soliton


def sech(x):
    return 1.0 / np.cosh(x)


def test_build_space_dof_counts():
    assert build_space(0, 1, 10, 1, DIRICHLET).num_dofs == 9
    assert build_space(0, 1, 10, 1, PERIODIC).num_dofs == 10
    assert build_space(-20, 20, 5000, 3, PERIODIC).num_dofs == 15000
    assert build_space(0, 1, np.int64(10), np.int32(1), PERIODIC).num_dofs == 10


def test_build_space_shared_nodes():
    space = build_space(0, 1, 5, 3, PERIODIC)
    for e in range(4):
        assert space.dof_map[e, -1] == space.dof_map[e + 1, 0]
    assert space.dof_map[4, -1] == space.dof_map[0, 0]  # wraparound


@pytest.mark.parametrize("kwargs,msg", [
    (dict(a=0, b=1, num_elements=1, degree=1, bc=PERIODIC), "num_elements"),
    (dict(a=0, b=1, num_elements=4, degree=0, bc=PERIODIC), "degree"),
    (dict(a=0, b=1, num_elements=4, degree=5, bc=PERIODIC), "degree"),
    (dict(a=1, b=0, num_elements=4, degree=1, bc=PERIODIC), "a="),
    (dict(a=0, b=1, num_elements=4, degree=1, bc="neumann"), "bc"),
    (dict(a=-np.inf, b=1, num_elements=4, degree=1, bc=PERIODIC), "a="),
    (dict(a=0, b=1, num_elements=2.5, degree=2, bc=PERIODIC),
     "num_elements=2.5 must be an integer"),
    (dict(a=0, b=1, num_elements=4.0, degree=1, bc=PERIODIC),
     "num_elements=4.0 must be an integer"),
    (dict(a=0, b=1, num_elements=4, degree=2.0, bc=PERIODIC), "degree=2.0 must be an integer"),
])
def test_build_space_rejects_bad_input(kwargs, msg):
    with pytest.raises(ConfigurationError, match=msg):
        build_space(**kwargs)


def test_reference_quadrature_rejects_non_integer_count():
    with pytest.raises(ConfigurationError, match=r"nq=2\.5 must be an integer"):
        reference_quadrature(2.5)
    pts, _ = reference_quadrature(np.int64(3))   # numpy integers pass
    assert len(pts) == 3


def _exact_local_matrices(p, h):
    """Exact local mass/stiffness via polynomial integration (no quadrature)."""
    from numpy.polynomial import Polynomial
    nodes = np.arange(p + 1) / p
    basis = []
    for m in range(p + 1):
        poly = Polynomial([1.0])
        for j in range(p + 1):
            if j != m:
                poly *= Polynomial([-nodes[j], 1.0]) / (nodes[m] - nodes[j])
        basis.append(poly)
    mass = np.zeros((p + 1, p + 1))
    stiff = np.zeros((p + 1, p + 1))
    for l in range(p + 1):
        for m in range(p + 1):
            mass[l, m] = h * (basis[l] * basis[m]).integ()(1.0)
            stiff[l, m] = (basis[l].deriv() * basis[m].deriv()).integ()(1.0) / h
    return mass, stiff


@pytest.mark.parametrize("p", [1, 2])
def test_local_matrices_match_exact_integration(p):
    space = build_space(0.0, 1.2, 4, p, DIRICHLET)
    h = space.mesh.h
    mass_exact, stiff_exact = _exact_local_matrices(p, h)
    if p == 1:
        np.testing.assert_allclose(mass_exact, h / 6.0 * np.array([[2, 1], [1, 2]]),
                                   atol=1e-15)
        np.testing.assert_allclose(stiff_exact, np.array([[1, -1], [-1, 1]]) / h,
                                   atol=1e-15)
    # assemble a single-element contribution by hand and compare globals
    M = assemble_mass(space, matrix_pattern(space)).toarray()
    A = assemble_stiffness(space, matrix_pattern(space)).toarray()
    Mh = np.zeros_like(M)
    Ah = np.zeros_like(A)
    for e in range(space.mesh.num_elements):
        dofs = space.dof_map[e]
        for l, gl in enumerate(dofs):
            for m, gm in enumerate(dofs):
                if gl >= 0 and gm >= 0:
                    Mh[gl, gm] += mass_exact[l, m]
                    Ah[gl, gm] += stiff_exact[l, m]
    np.testing.assert_allclose(M, Mh, atol=1e-13)
    np.testing.assert_allclose(A, Ah, atol=1e-13)


def test_dirichlet_two_element_stiffness():
    space = build_space(0.0, 1.0, 2, 1, DIRICHLET)
    A = assemble_stiffness(space, matrix_pattern(space)).toarray()
    np.testing.assert_allclose(A, [[4.0]], atol=1e-13)


def test_mass_is_hermitian_positive_definite():
    space = build_space(-3.0, 2.0, 7, 3, PERIODIC)
    M = assemble_mass(space, matrix_pattern(space))
    np.testing.assert_allclose((M - M.conj().T).toarray(), 0.0, atol=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
        assert np.real(np.vdot(v, M @ v)) > 0.0


def test_periodic_mass_row_sums():
    space = build_space(0.0, 1.0, 10, 1, PERIODIC)
    sums = np.asarray(assemble_mass(space, matrix_pattern(space)).sum(axis=1)).ravel()
    np.testing.assert_allclose(sums, space.mesh.h, rtol=1e-13)


def test_periodic_stiffness_annihilates_constants():
    space = build_space(-1.0, 4.0, 9, 2, PERIODIC)
    A = assemble_stiffness(space, matrix_pattern(space))
    ones = np.ones(space.num_dofs, dtype=complex)
    norm = np.abs(A.toarray()).max()
    assert np.abs(A @ ones).max() <= 1e-13 * norm
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
        assert np.real(np.vdot(v, A @ v)) >= -1e-12


def test_interpolate_zero_and_identity():
    space = build_space(0.0, 1.0, 8, 2, PERIODIC)
    np.testing.assert_array_equal(interpolate(space, lambda x: 0.0), 0.0)
    coeffs = interpolate(space, lambda x: 1.5 - 2.0j)   # a constant broadcasts to every dof
    assert coeffs.shape == (space.num_dofs,) and coeffs.dtype == np.complex128
    assert np.all(coeffs == 1.5 - 2.0j)
    coeffs = interpolate(space, lambda x: x)
    np.testing.assert_array_equal(coeffs, space.dof_coords)
    assert coeffs[0] == 0.0  # identified seam dof takes fn(a)


def test_interpolate_soliton_profile_at_origin():
    space = build_space(-20.0, 20.0, 40, 1, PERIODIC)
    coeffs = interpolate(space, lambda x: sech(x) * np.exp(2j * x))
    i0 = np.argmin(np.abs(space.dof_coords))
    assert space.dof_coords[i0] == 0.0
    assert coeffs[i0] == 1.0 + 0.0j


def test_interpolate_rejects_non_finite():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    with pytest.raises(InputError, match="0.25"):
        interpolate(space, lambda x: np.where(x == 0.25, np.nan, 1.0))


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_interpolate_samples_once_with_the_bits_of_per_dof_calls(p, bc):
    # one call on the dof coordinates must give the bits of one call per dof, the
    # sampling interpolate did before, on the benchmark problems' initial data
    for prob in (soliton(), plane_wave(kappa=1.0, a=-1.0, b=2.0)):
        space = build_space(prob.a, prob.b, 37, p, bc)
        calls = []

        def fn(x):
            calls.append(x)
            return prob.u0(x)

        coeffs = interpolate(space, fn)
        assert len(calls) == 1 and np.array_equal(calls[0], space.dof_coords)
        reference = np.asarray([prob.u0(x) for x in space.dof_coords], dtype=np.complex128)
        assert coeffs.dtype == np.complex128
        assert np.array_equal(coeffs.view(np.float64), reference.view(np.float64))


def test_periodic_translation_equivariance():
    # power-of-two grid so shifted sample points are bitwise identical
    a, b, M, p = 0.0, 1.0, 8, 2
    space = build_space(a, b, M, p, PERIODIC)
    h = space.mesh.h
    L = b - a
    rng = np.random.default_rng(5)
    table = rng.standard_normal(64)
    fn = lambda x: table[np.rint((x - a) / (L / 64)).astype(int) % 64]
    shifted = lambda x: fn(a + (x - a + h) % L)
    c1 = interpolate(space, fn)
    c2 = interpolate(space, shifted)
    np.testing.assert_array_equal(c2, np.roll(c1, -p))


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_element_coefficients_take_matches_ellipsis_indexing(bc):
    # np.take along the last axis must give the same stage quadrature values,
    # bit for bit, as the padded[..., dof_map] indexing it replaced: the CSV
    # outputs pin these bits
    rng = np.random.default_rng(11)
    for p in range(1, 5):
        space = build_space(-20.0, 20.0, 2000, p, bc)
        phi = basis_tables(p, p + 2)[2]
        for k in range(1, 5):
            v = rng.standard_normal((k, space.num_dofs)) + 1j * rng.standard_normal(
                (k, space.num_dofs))
            padded = np.concatenate([v, np.zeros((k, 1))], axis=-1)
            reference = padded[..., space.dof_map]
            local = element_coefficients(space, v)
            assert np.array_equal(local, reference)
            assert np.array_equal(local @ phi.T, reference @ phi.T)
            assert np.array_equal(element_coefficients(space, v[0]) @ phi.T,
                                  padded[0][..., space.dof_map] @ phi.T)


def test_basis_tables_are_built_once_per_degree_and_order():
    # one read-only set of tables per (degree, nq), with the bits of tables built
    # afresh on the equispaced Lagrange nodes
    for p in range(1, 5):
        ref_nodes = reference_nodes(p)
        np.testing.assert_allclose(ref_nodes, np.linspace(0.0, 1.0, p + 1), rtol=0, atol=1e-15)
        for nq in (p + 1, p + 2, p + 3):
            tables = basis_tables(p, nq)
            assert basis_tables(p, nq) is tables
            pts, wts = reference_quadrature(nq)
            fresh = (pts, wts, lagrange_basis(ref_nodes, pts), lagrange_basis_deriv(ref_nodes, pts))
            for table, reference in zip(tables, fresh):
                assert not table.flags.writeable
                assert np.array_equal(table, reference)
    with pytest.raises(ConfigurationError):
        basis_tables(2, 3.0)   # also after nq = 3 is cached


def test_evaluate_constant_and_linear():
    space = build_space(0.0, 2.0, 4, 1, PERIODIC)
    v = interpolate(space, lambda x: 3.0 - 1.0j)
    val, der = evaluate(space, v, 0.77)
    np.testing.assert_allclose(val, 3.0 - 1.0j, rtol=1e-14)
    np.testing.assert_allclose(der, 0.0, atol=1e-13)

    # p=1 nodal values {0, 1} on the first element
    space = build_space(0.0, 1.0, 2, 1, DIRICHLET)
    v = np.array([1.0 + 0j])  # single interior dof at x=0.5
    h = space.mesh.h
    val, der = evaluate(space, v, 0.25)
    np.testing.assert_allclose(val, 0.5, rtol=1e-14)
    np.testing.assert_allclose(der, 1.0 / h, rtol=1e-14)


def test_evaluate_continuity_across_element_boundary():
    space = build_space(0.0, 1.0, 5, 3, PERIODIC)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
    x = 0.4  # element boundary
    left, _ = evaluate(space, v, x - 1e-14)
    right, _ = evaluate(space, v, x + 1e-14)
    at, _ = evaluate(space, v, x)
    assert abs(left - at) <= 1e-12 * max(1.0, abs(at))
    assert abs(right - at) <= 1e-12 * max(1.0, abs(at))


def test_evaluate_outside_domain():
    space = build_space(0.0, 1.0, 4, 1, PERIODIC)
    v = interpolate(space, lambda x: 1.0)
    with pytest.raises(InputError):
        evaluate(space, v, 1.5)


def test_error_norms_exact_reproduction_and_trivial_cases():
    space = build_space(0.0, 1.0, 6, 2, DIRICHLET)
    exact = lambda x: x * (1.0 - x)
    grad = lambda x: 1.0 - 2.0 * x
    v = interpolate(space, exact)
    l2, h1 = error_norms(space, v, exact, grad)
    assert h1 <= 1e-12

    space_p = build_space(0.0, 1.0, 6, 1, PERIODIC)
    l2, h1 = error_norms(space_p, np.zeros(space_p.num_dofs, dtype=complex),
                         lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
    np.testing.assert_allclose(l2, 1.0, rtol=1e-13)


def test_error_norms_first_order_rate_for_p1():
    exact = lambda x: np.sin(2 * np.pi * x)
    grad = lambda x: 2 * np.pi * np.cos(2 * np.pi * x)
    h1 = []
    for M in (32, 64):
        space = build_space(0.0, 1.0, M, 1, PERIODIC)
        v = interpolate(space, exact)
        h1.append(error_norms(space, v, exact, grad)[1])
    ratio = h1[0] / h1[1]
    assert 1.9 <= ratio <= 2.1


def _values_on_every_element(space, v, ref_pts):
    """(u, du) of v at ref_pts on every element, shape (M, len(ref_pts)), with Lagrange
    tables of its own: the former evaluation path of error_norms and evaluate."""
    phi = lagrange_basis(reference_nodes(space.degree), ref_pts)
    dphi = lagrange_basis_deriv(reference_nodes(space.degree), ref_pts)
    local = element_coefficients(space, v)
    return local @ phi.T, (local @ dphi.T) / space.mesh.h


def _error_norms_reference(space, v, exact, exact_grad):
    pts, wts = reference_quadrature(space.degree + 3)
    u, du = _values_on_every_element(space, v, pts)
    mesh = space.mesh
    x = mesh.a + (np.arange(mesh.num_elements)[:, None] + pts[None, :]) * mesh.h
    ue = np.asarray(exact(x), dtype=np.complex128)
    ge = np.asarray(exact_grad(x), dtype=np.complex128)
    l2_sq = mesh.h * np.sum(wts[None, :] * np.abs(u - ue) ** 2)
    grad_sq = mesh.h * np.sum(wts[None, :] * np.abs(du - ge) ** 2)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + grad_sq))


@pytest.mark.parametrize("M", [2, 5])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_error_norms_and_evaluate_match_the_per_element_path(p, bc, M):
    """error_norms, on the shared basis tables, gives the bits of the former
    evaluation on every element; evaluate agrees with it at points inside elements
    and on their boundaries."""
    space = build_space(-1.5, 2.0, M, p, bc)
    rng = np.random.default_rng(10 * p + M)
    v = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
    exact = lambda x: np.exp(1j * x) * np.cos(x)
    grad = lambda x: 1j * np.exp(1j * x) * np.cos(x) - np.exp(1j * x) * np.sin(x)
    assert error_norms(space, v, exact, grad) == _error_norms_reference(space, v, exact, grad)

    h = space.mesh.h
    for x in (-1.5, -1.5 + 0.3 * h, -1.5 + h, 2.0 - 0.6 * h, 2.0):
        e = min(int((x + 1.5) / h), M - 1)
        u, du = _values_on_every_element(space, v, np.array([(x + 1.5) / h - e]))
        np.testing.assert_allclose(evaluate(space, v, x), (u[e, 0], du[e, 0]),
                                   rtol=1e-14, atol=1e-14)
