from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sav_nls import linsolve, stepper
from sav_nls.collocation import collocation_scheme
from sav_nls.errors import SolverError
from sav_nls.fem import (DIRICHLET, PERIODIC, assemble_mass, assemble_stiffness, build_space,
                         matrix_pattern)
from sav_nls.linsolve import (RESIDUAL_TOL, BorderedLU, BorderedSystem, Elements, ElementsLU,
                              factor, factor_bordered, solve_bordered)
from sav_nls.model import SavState, power_law
from sav_nls.stepper import Assemblies, SlabUnknowns, _assemble_newton_system, _stage_data

from newton_matrix import (chain_matrix, element_index, make_slab, newton_rhs, real_form_matrix,
                           to_stage_order)


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
    return _assemble_newton_system(slab, unk, data), newton_rhs(data)


def _recording_dgbtrf(monkeypatch, bands):
    """Patch linsolve's dgbtrf to append each band it is given, and a copy of it, to bands."""
    dgbtrf = linsolve.dgbtrf

    def recording(ab, *args, **kwargs):
        bands.append((ab, ab.copy()))
        return dgbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(linsolve, "dgbtrf", recording)


def _band_matrix(ab, w):
    """The dense matrix of LAPACK band storage ab with half-bandwidth w; every slot off
    the matrix must be 0."""
    nb = ab.shape[1]
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(nb), np.arange(nb))) <= w)
    used = np.zeros(ab.shape, dtype=bool)
    used[2 * w + i - j, j] = True
    assert not ab[~used].any()
    dense = np.zeros((nb, nb))
    dense[i, j] = ab[2 * w + i - j, j]
    return dense


@pytest.mark.parametrize("M", [2, 5])
@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_condensed_newton_solve_matches_splu(p, k, bc, M, monkeypatch):
    # the element interiors condensed out: the band holds the vertices but the first one,
    # with half-bandwidth 4k - 1; a periodic chain's first vertex is the wrap's border, a
    # Dirichlet one's is dropped, and the SAV border keeps its k unknowns.  The condensed
    # matrix is the Schur complement of the full main block's interiors (for p = 1, which
    # has none, the band is the full one's, bit for bit), and the solve matches splu of the
    # full bordered matrix.  A factorization that solved one right-hand side gives the bits
    # of a fresh one's solve of another, and another matrix's factors fail the check
    seed = 100 * p + 10 * k + M + (bc == DIRICHLET)
    system, (rhs_main, rhs_border) = _newton_system(p, k, bc, M, seed)
    assert isinstance(system.K, Elements)
    full, chain, index = real_form_matrix(system), chain_matrix(system), element_index(system.K)
    bands = []
    _recording_dgbtrf(monkeypatch, bands)
    lu = factor_bordered(system)
    monkeypatch.undo()
    cond, b, n = lu.lu, 2 * k, len(rhs_main)
    assert isinstance(cond, ElementsLU) and (cond.wrap is None) == (bc == DIRICHLET)
    assert cond.lu.shape == (3 * (4 * k - 1) + 1, b * (M - 1))   # half-bandwidth 4k - 1
    assert lu.W.shape == (n, k) and lu.S.shape == (k, k)
    (_, ab), = bands
    condensed = _band_matrix(ab, 4 * k - 1)
    vertices = index[:, :b][index[:, :b] >= 0]   # the first vertex's first, if it is kept
    interiors = index[:, 2 * b:].ravel()
    K = chain[:n, :n]
    schur = K[np.ix_(vertices, vertices)] - K[np.ix_(vertices, interiors)] @ np.linalg.solve(
        K[np.ix_(interiors, interiors)], K[np.ix_(interiors, vertices)])
    if cond.wrap is not None:   # vertex 0's column B0 = band W0, row C0, block S0 + C0 W0
        W0, Sinv, C0 = cond.wrap
        condensed = np.block([[np.linalg.inv(Sinv) + C0 @ W0, C0], [condensed @ W0, condensed]])
    if p == 1:
        assert np.array_equal(condensed[-len(ab[0]):, -len(ab[0]):],
                              schur[-len(ab[0]):, -len(ab[0]):])
    assert np.abs(condensed - schur).max() <= 1e-10 * np.abs(schur).max()
    sol = lu.solve(rhs_main, rhs_border)
    rhs = to_stage_order(rhs_main, rhs_border)
    ref = spla.splu(sp.csc_matrix(full)).solve(rhs)
    x = to_stage_order(sol.x_main, sol.x_border)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    rng = np.random.default_rng(seed + 1)
    again = rng.standard_normal(n), rng.standard_normal(k)
    fresh = factor_bordered(_newton_system(p, k, bc, M, seed)[0]).solve(*again)
    kept = solve_bordered(lu, *again)
    np.testing.assert_array_equal(kept.x_main, fresh.x_main)
    np.testing.assert_array_equal(kept.x_border, fresh.x_border)
    assert kept.residual == fresh.residual <= RESIDUAL_TOL

    other = factor_bordered(_newton_system(p, k, bc, M, seed + 2)[0])
    with pytest.raises(SolverError, match="residual"):
        replace(other, product=lu.product).solve(rhs_main, rhs_border)


def test_band_is_factored_in_place(monkeypatch):
    # a copy of the condensed band (a C-ordered one, which dgbtrf copies silently) or of
    # the wrap's W0 = band^-1 B0 would cost MB of peak RSS at the benchmark's size
    k, M = 3, 40
    system, _ = _newton_system(3, k, PERIODIC, M, 0)
    bands, solved, dgbtrs = [], [], linsolve.dgbtrs

    def recording_solve(lu, kl, ku, b, *args, **kwargs):
        solved.append((b, dgbtrs(lu, kl, ku, b, *args, **kwargs)[0]))
        return solved[-1][1], 0

    _recording_dgbtrf(monkeypatch, bands)
    monkeypatch.setattr(linsolve, "dgbtrs", recording_solve)
    cond = factor_bordered(system).lu
    (band, _), = bands
    assert band.flags.f_contiguous and band.shape[1] == 2 * k * (M - 1)
    assert np.shares_memory(band, cond.lu)
    B0, W0 = solved[0]   # vertex 0's column, solved in its storage
    assert B0.flags.f_contiguous and W0 is cond.wrap[0] and np.shares_memory(B0, W0)
    assert W0.shape == (2 * k * (M - 1), 2 * k)


def test_a_wrong_band_entry_fails_the_residual_check(monkeypatch):
    # the check applies the system in stage form and never reads the band
    system, rhs = _newton_system(3, 2, PERIODIC, 6, 7)
    dgbtrf = linsolve.dgbtrf

    def corrupting(ab, kl, ku, **kwargs):
        ab[2 * kl, 3] *= 1.0 + 1e-6   # diagonal entry 3 of the band
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(linsolve, "dgbtrf", corrupting)
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(*rhs)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_a_wrong_element_inverse_fails_the_residual_check(p, monkeypatch):
    # the check never reads K_II^-1 of an element; for p = 1 there is no interior to invert
    inv = np.linalg.inv

    def perturbed(a):
        out = inv(a)
        if out.ndim == 3 and out.size:   # the element blocks, not the wrap's Schur complement
            out[len(out) // 2, 0, -1] += 1e-6 * np.abs(out[len(out) // 2]).max()
        return out

    system, rhs = _newton_system(p, 2, PERIODIC, 6, 30 + p)
    monkeypatch.setattr(np.linalg, "inv", perturbed)
    if p == 1:
        factor_bordered(system).solve(*rhs)
        return
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(*rhs)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
def test_a_singular_element_interior_block_is_a_solver_error(bc):
    # an exactly singular K_II is a SolverError, as a zero pivot of the band is, which
    # advance's restart and StepError handling expect, not numpy's LinAlgError
    system, _ = _newton_system(2, 2, bc, 6, 40)
    system.K.blocks[3, 2 * 2 * 2] = 0.0   # the first interior row of element 3
    with pytest.raises(SolverError, match="singular element interior block"):
        factor_bordered(system)


@pytest.mark.parametrize("bc", [PERIODIC, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_wrong_element_matrix_fails_the_residual_check(k, bc, monkeypatch):
    # the element blocks take the kernel's element matrices int g phi_l phi_n dx, while the
    # check applies the Jacobian's pointwise part by quadrature on the values g themselves
    integrals = stepper._integrals

    def perturbed(asm, values, matrices=False):
        out = integrals(asm, values, matrices)
        if matrices:
            out[0, 2, 1, 0] += 1e-6 * np.abs(out).max()
        return out

    monkeypatch.setattr(stepper, "_integrals", perturbed)
    system, rhs = _newton_system(2, k, bc, 6, 20 + k)
    with pytest.raises(SolverError, match="residual"):
        factor_bordered(system).solve(*rhs)


@pytest.mark.parametrize("part", [0, 1, 2])
def test_a_wrong_wrap_entry_fails_the_residual_check(part, monkeypatch):
    # the periodic wrap's W0, S0^-1 and C0 exist only in the condensed factors, which only
    # the solve reads; the check applies the full system in stage form
    condense = linsolve._condense

    def corrupting(K):
        cond = condense(K)
        entries = cond.wrap[part]
        i, j = np.argwhere(entries != 0)[-1]
        entries[i, j] *= 1.0 + 1e-6
        return cond

    system, rhs = _newton_system(2, 2, PERIODIC, 6, 8)
    monkeypatch.setattr(linsolve, "_condense", corrupting)
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
