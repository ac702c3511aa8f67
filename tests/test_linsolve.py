import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sav_nls import linsolve, stepper
from sav_nls.collocation import collocation_scheme
from sav_nls.errors import SolverError
from sav_nls.fem import (DIRICHLET, PERIODIC, assemble_mass, assemble_stiffness, build_space,
                         matrix_pattern, scatter_matrix)
from sav_nls.linsolve import (RESIDUAL_TOL, BandLU, BorderedLU, BorderedSystem, factor,
                              factor_bordered, solve_bordered)
from sav_nls.model import SavState, power_law
from sav_nls.stepper import (Assemblies, SlabUnknowns, _assemble_newton_system, _newton_rhs,
                             _stage_data)

from newton_matrix import make_slab, real_form_matrix, to_stage_order


def test_factor_identity():
    lu = factor(sp.identity(7, format="csc"))
    rng = np.random.default_rng(0)
    b = rng.standard_normal(7)
    np.testing.assert_allclose(lu.solve(b), b, rtol=1e-14)


def test_factor_fem_operator_residual():
    space = build_space(0.0, 1.0, 4, 1, DIRICHLET)
    pattern = matrix_pattern(space)
    K = (assemble_stiffness(space, pattern) + 0.1 * assemble_mass(space, pattern)).tocsc()
    lu = factor(K)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
    x = lu.solve(b.real) + 1j * lu.solve(b.imag)   # the FE operators are real
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_singular_matrix():
    K = sp.csc_matrix(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(SolverError, match="singular"):
        factor(K)


def test_factor_rejects_non_square():
    with pytest.raises(SolverError):
        factor(sp.csc_matrix(np.ones((2, 3))))


def test_solve_bordered_decoupled():
    rng = np.random.default_rng(2)
    n, k = 6, 2
    K = sp.identity(n, format="csc") * 2.0
    Dmat = np.diag([3.0, 4.0])
    rhs_main = rng.standard_normal(n)
    rhs_border = rng.standard_normal(k)
    sol = factor_bordered(BorderedSystem(K=K, B=np.zeros((n, k)), C=np.zeros((k, n)),
                                         Dmat=Dmat)).solve(rhs_main, rhs_border)
    np.testing.assert_allclose(sol.x_main, rhs_main / 2.0, rtol=1e-14)
    np.testing.assert_allclose(sol.x_border, rhs_border / np.diag(Dmat), rtol=1e-14)


def test_solve_bordered_hand_example():
    # K = I (2x2), B = (1,0)^T, C = (0,1), D = (2): Schur S = 2
    K = sp.identity(2, format="csc")
    B = np.array([[1.0], [0.0]])
    C = np.array([[0.0, 1.0]])
    Dmat = np.array([[2.0]])
    sol = factor_bordered(BorderedSystem(K=K, B=B, C=C, Dmat=Dmat)).solve(
        np.array([1.0, 1.0]), np.array([1.0]))
    np.testing.assert_allclose(sol.x_border, [0.0], atol=1e-14)
    np.testing.assert_allclose(sol.x_main, [1.0, 1.0], rtol=1e-14)


def test_solve_bordered_random_residual():
    rng = np.random.default_rng(3)
    n, k = 20, 3
    K = sp.csc_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
    B = rng.standard_normal((n, k))
    C = rng.standard_normal((k, n))
    Dmat = rng.standard_normal((k, k)) + k * np.eye(k)
    rhs_main, rhs_border = rng.standard_normal(n), rng.standard_normal(k)
    sol = factor_bordered(BorderedSystem(K=K, B=B, C=C, Dmat=Dmat)).solve(rhs_main, rhs_border)
    assert sol.residual <= 1e-11
    full = np.block([[K.toarray(), B], [C, Dmat]])
    x = np.concatenate([sol.x_main, sol.x_border])
    rhs = np.concatenate([rhs_main, rhs_border])
    assert np.linalg.norm(full @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_solve_bordered_singular_schur():
    # B = C^T makes S = D - C K^-1 B = 0 for this choice
    K = sp.identity(2, format="csc")
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 0.0]])
    Dmat = np.array([[1.0]])
    with pytest.raises(SolverError, match="Schur"):
        factor_bordered(BorderedSystem(K=K, B=B, C=C, Dmat=Dmat)).solve(np.zeros(2),
                                                                        np.array([1.0]))


def test_solve_bordered_deterministic():
    rng = np.random.default_rng(4)
    n, k = 15, 2
    K = sp.csc_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
    sys = BorderedSystem(K=K, B=rng.standard_normal((n, k)),
                         C=rng.standard_normal((k, n)),
                         Dmat=np.eye(k) * 3.0)
    rhs = rng.standard_normal(n), rng.standard_normal(k)
    a = factor_bordered(sys).solve(*rhs)
    b = factor_bordered(sys).solve(*rhs)
    np.testing.assert_array_equal(a.x_main, b.x_main)
    np.testing.assert_array_equal(a.x_border, b.x_border)


@pytest.mark.parametrize("seed", range(6))
def test_kept_factorization_matches_a_fresh_solve(seed, monkeypatch):
    # a new right-hand side solved with a factorization that solved another one gives
    # the bits of a fresh factorization's solve, factors nothing and reports the
    # residual it checked
    rng = np.random.default_rng(seed)
    n, k = 40, 3
    K = sp.csc_matrix(sp.random(n, n, density=0.15, random_state=rng) + n * sp.identity(n))
    B, C = rng.standard_normal((n, k)), rng.standard_normal((k, n))
    Dmat = rng.standard_normal((k, k)) + k * np.eye(k)
    system = BorderedSystem(K=K, B=B, C=C, Dmat=Dmat)
    first = factor_bordered(system)
    first.solve(rng.standard_normal(n), rng.standard_normal(k))
    rhs = rng.standard_normal(n), rng.standard_normal(k)
    fresh = factor_bordered(system).solve(*rhs)
    calls = []
    monkeypatch.setattr(linsolve, "factor", lambda K: calls.append(K))
    kept = solve_bordered(first, *rhs)
    assert calls == []
    np.testing.assert_array_equal(kept.x_main, fresh.x_main)
    np.testing.assert_array_equal(kept.x_border, fresh.x_border)
    assert kept.residual == fresh.residual <= RESIDUAL_TOL


def test_kept_factorization_of_another_matrix_fails_the_residual_check():
    rng = np.random.default_rng(5)
    n, k = 20, 2
    K = sp.csc_matrix(rng.standard_normal((n, n)) + n * np.eye(n))
    sys = BorderedSystem(K=K, B=rng.standard_normal((n, k)), C=rng.standard_normal((k, n)),
                         Dmat=np.eye(k) * 3.0)
    other = factor_bordered(BorderedSystem(K=2.0 * K, B=sys.B, C=sys.C, Dmat=sys.Dmat))
    mixed = BorderedLU(other.lu, other.W, other.S, sys.C, factor_bordered(sys).product)
    with pytest.raises(SolverError, match="residual"):
        mixed.solve(rng.standard_normal(n), rng.standard_normal(k))


def _newton_system(p, k, bc, M, seed):
    """The bordered Newton system of _assemble_newton_system at a random iterate, and its
    right-hand side (rhs_main, rhs_border)."""
    space = build_space(-3.0, 3.0, M, p, bc)
    asm = Assemblies.build(space)
    scheme = collocation_scheme(k)
    n = space.num_dofs
    rng = np.random.default_rng(seed)
    state = SavState(u=rng.standard_normal(n) + 1j * rng.standard_normal(n), r=1.3, t=0.0)
    unk = SlabUnknowns(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)),
                       1.0 + 0.2 * rng.standard_normal(k))
    slab = make_slab(asm, scheme, power_law(2.0, 3.0, c0=1.0), 0.17)
    data = _stage_data(slab, state, unk, need_jacobian=True)
    return _assemble_newton_system(slab, unk, data), _newton_rhs(data)


@pytest.mark.parametrize("M", [2, 5])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_banded_newton_solve_matches_splu(p, k, bc, M):
    # M = 2 puts the periodic wrap next to the band's edge; a factorization that solved
    # one right-hand side gives the bits of a fresh one's solve of another, and another
    # matrix's factors fail the check
    seed = 100 * p + 10 * k + M + (bc == DIRICHLET)
    system, (rhs_main, rhs_border) = _newton_system(p, k, bc, M, seed)
    width = 2 * k * (p + 1) - 1   # of dof-major unknowns; at M = 2 no two band dofs are p apart
    assert system.K.width == width if M > 2 else system.K.width < width
    full = real_form_matrix(system)   # before factoring overwrites the band and B
    lu = factor_bordered(system)
    assert isinstance(lu.lu, BandLU) and lu.S.shape == (3 * k, 3 * k)
    sol = lu.solve(rhs_main, rhs_border)
    rhs = to_stage_order(rhs_main, rhs_border)
    ref = spla.splu(sp.csc_matrix(full)).solve(rhs)
    x = to_stage_order(sol.x_main, sol.x_border)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    rng = np.random.default_rng(seed + 1)
    again = rng.standard_normal(len(rhs_main)), rng.standard_normal(3 * k)
    fresh = factor_bordered(_newton_system(p, k, bc, M, seed)[0]).solve(*again)
    kept = solve_bordered(lu, *again)
    np.testing.assert_array_equal(kept.x_main, fresh.x_main)
    np.testing.assert_array_equal(kept.x_border, fresh.x_border)
    assert kept.residual == fresh.residual <= RESIDUAL_TOL

    other = factor_bordered(_newton_system(p, k, bc, M, seed + 2)[0])
    with pytest.raises(SolverError, match="residual"):
        BorderedLU(other.lu, other.W, other.S, lu.C, lu.product).solve(rhs_main, rhs_border)


def test_band_is_factored_in_place(monkeypatch):
    # a copy of the band (a C-ordered one, which dgbtrf copies silently) or of
    # W = K^-1 B' would cost several MB of peak RSS at the benchmark's size
    k = 3
    system, (rhs_main, _) = _newton_system(3, k, PERIODIC, 40, 0)
    factored, solved, solve = [], [], BandLU.solve

    def recording_factor(K):
        factored.append((K, factor(K)))
        return factored[-1][1]

    def recording_solve(lu, b):
        solved.append((b, solve(lu, b)))
        return solved[-1][1]

    monkeypatch.setattr(linsolve, "factor", recording_factor)
    monkeypatch.setattr(BandLU, "solve", recording_solve)
    factors = factor_bordered(system)
    (band, lu), = factored
    assert band is system.K and band.ab.flags.f_contiguous
    assert lu is factors.lu and np.shares_memory(band.ab, lu.lu)
    B_wide, W = solved[0]   # B' = [K_io, B]: dof 0's 2k unknowns joined the k SAV ones
    assert B_wide is system.B and B_wide.flags.f_contiguous
    assert W is factors.W and np.shares_memory(B_wide, W)   # W = K^-1 B' in B's storage
    assert W.shape == system.B.shape == (len(rhs_main), 3 * k)


def test_a_wrong_band_entry_fails_the_residual_check(monkeypatch):
    # the check applies the system in stage form and never reads the band
    system, rhs = _newton_system(3, 2, PERIODIC, 6, 7)

    def corrupting_factor(K):
        K.ab[2 * K.width, 3] *= 1.0 + 1e-6   # diagonal entry 3 of the band
        return factor(K)

    monkeypatch.setattr(linsolve, "factor", corrupting_factor)
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(*rhs)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_wrong_element_matrix_fails_the_residual_check(k, bc, monkeypatch):
    # the band takes the CSR data of the element matrices int g phi_l phi_n dx, while the
    # check applies the Jacobian's pointwise part by quadrature on the values g themselves
    def perturbed(pattern, local):
        matrix = scatter_matrix(pattern, local)
        matrix.data[len(matrix.data) // 2] += 1e-6 * np.abs(matrix.data).max()
        return matrix

    monkeypatch.setattr(stepper, "scatter_matrix", perturbed)
    system, rhs = _newton_system(2, k, bc, 6, 20 + k)
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(*rhs)


@pytest.mark.parametrize("part", ["B", "C", "Dmat"])
def test_a_wrong_wrap_entry_fails_the_residual_check(part):
    # the periodic wrap's entries (K_io in B', K_oi in C', K_oo in Dmat') are
    # copies that only the solve reads; the check applies the stage form
    k = 2
    system, rhs = _newton_system(2, k, PERIODIC, 6, 8)
    wrap = {"B": system.B[:, :2 * k], "C": system.C[:2 * k],
            "Dmat": system.Dmat[:2 * k, :2 * k]}[part]
    i, j = np.argwhere(wrap != 0)[-1]   # in B' and C', a coupling across the wrap
    wrap[i, j] *= 1.0 + 1e-6
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(*rhs)


@pytest.mark.parametrize("where", ["rhs_main", "B"])
def test_a_non_finite_system_fails_the_residual_check(where):
    # a NaN residual is not <= RESIDUAL_TOL: a NaN in the right-hand side or an
    # inf in the border must raise, not return a NaN solution
    rng = np.random.default_rng(9)
    n, k = 12, 2
    system = BorderedSystem(K=sp.csc_matrix(rng.standard_normal((n, n)) + n * np.eye(n)),
                            B=rng.standard_normal((n, k)), C=rng.standard_normal((k, n)),
                            Dmat=np.eye(k) * 3.0)
    rhs_main, rhs_border = rng.standard_normal(n), rng.standard_normal(k)
    if where == "rhs_main":
        rhs_main[4] = np.nan
    else:
        system.B[4, 1] = np.inf
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(rhs_main, rhs_border)
