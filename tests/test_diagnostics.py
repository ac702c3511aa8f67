import numpy as np
import pytest

from sav_nls.collocation import collocation_scheme, gauss_rule
from sav_nls.diagnostics import (ConvergenceTable, InternalMassObserver,
                                 RunRecorder, TrajectoryErrorObserver, eoc,
                                 internal_mass_check, mass, original_energy,
                                 sav_energy)
from sav_nls.errors import ConfigurationError
from sav_nls.fem import PERIODIC, build_space, interpolate
from sav_nls.model import SavState, power_law, r_init
from sav_nls.problems import soliton
from sav_nls.stepper import Assemblies, StepperConfig, integrate


def sech(x):
    return 1.0 / np.cosh(x)


@pytest.fixture(scope="module")
def soliton_interpolant():
    space = build_space(-20.0, 20.0, 2000, 3, PERIODIC)
    asm = Assemblies.build(space)
    u = interpolate(space, lambda x: sech(x) * np.exp(2j * x))
    return asm, u


def test_mass_values(soliton_interpolant):
    asm, u = soliton_interpolant
    assert mass(asm, np.zeros_like(u)) == 0.0
    np.testing.assert_allclose(mass(asm, u), 2.0, atol=1e-6)

    small = Assemblies.build(build_space(0.0, 1.0, 8, 1, PERIODIC))
    one = interpolate(small.space, lambda x: 1.0)
    np.testing.assert_allclose(mass(small, one), 1.0, rtol=1e-13)


def test_sav_energy_values(soliton_interpolant):
    asm, u = soliton_interpolant
    nl = power_law(2.0, 3.0, c0=1.0)
    zero_state = SavState(u=np.zeros_like(u), r=np.sqrt(nl.c0), t=0.0)
    np.testing.assert_allclose(sav_energy(asm, zero_state), -nl.c0, rtol=1e-14)

    # grad energy: int |d/dx (sech e^{2ix})|^2 = 2/3 + 8 = 26/3
    state = SavState(u=u, r=r_init(asm, u, nl), t=0.0)
    np.testing.assert_allclose(sav_energy(asm, state), 8.0 / 3.0, atol=1e-3)


def test_original_energy_values(soliton_interpolant):
    asm, u = soliton_interpolant
    nl = power_law(2.0, 3.0, c0=1.0)
    assert original_energy(asm, np.zeros_like(u), nl) == 0.0
    np.testing.assert_allclose(original_energy(asm, u, nl), 11.0 / 3.0, atol=1e-3)

    # at r = r_init the quadratization defect vanishes identically
    state = SavState(u=u, r=r_init(asm, u, nl), t=0.0)
    defect = sav_energy(asm, state) - (original_energy(asm, u, nl) - nl.c0)
    assert abs(defect) <= 1e-9


def test_internal_mass_check_constant_and_zero_slab():
    space = build_space(0.0, 1.0, 8, 2, PERIODIC)
    asm = Assemblies.build(space)
    rule = gauss_rule(3)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(space.num_dofs) + 1j * rng.standard_normal(space.num_dofs)
    u0_mass = mass(asm, u0)
    stages = np.tile(u0, (3, 1))
    value, ok = internal_mass_check(asm, stages, rule.weights, u0_mass)
    np.testing.assert_allclose(value, u0_mass, rtol=1e-13)
    assert ok
    value, ok = internal_mass_check(asm, np.zeros_like(stages), rule.weights, u0_mass)
    assert value == 0.0 and ok


def test_eoc_examples():
    np.testing.assert_allclose(eoc([1.0, 1.0 / 8.0], [0.1, 0.05]), [3.0], rtol=1e-13)
    # reference benchmark pair (k=2 time refinement)
    order = eoc([3.7964e-05, 2.3429e-05], [1.0 / 60.0, 1.0 / 70.0])
    np.testing.assert_allclose(order, [3.1312], atol=5e-4)
    # reference benchmark pair (p=2 mesh refinement), resolution h = L/M
    order = eoc([1.9306e-02, 1.6438e-02], [1.0 / 240.0, 1.0 / 260.0])
    np.testing.assert_allclose(order, [2.0094], atol=3e-3)


def test_eoc_validation_and_markers():
    with pytest.raises(ConfigurationError):
        eoc([1.0], [0.1])
    with pytest.raises(ConfigurationError):
        eoc([1.0, 0.5, 0.2], [0.1, 0.3, 0.2])
    out = eoc([1.0, 0.0], [0.1, 0.05])
    assert np.isnan(out[0])


def test_eoc_scale_invariance():
    errs = np.array([3.2e-3, 1.1e-3, 0.4e-3])
    params = np.array([0.2, 0.1, 0.05])
    a = eoc(errs, params)
    b = eoc(17.3 * errs, params)
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_convergence_table_single_row():
    table = ConvergenceTable.from_errors([0.1], [1e-3])
    assert len(table.params) == 1
    assert np.isnan(table.orders[0])


def test_observers_on_short_run():
    prob = soliton()
    nl = power_law(2.0, 3.0, c0=1.0)
    space = build_space(prob.a, prob.b, 100, 2, PERIODIC)
    cfg = StepperConfig(tau=0.1, k=2)
    rec = RunRecorder(exact=prob.exact, exact_grad=prob.exact_grad)
    err_obs = TrajectoryErrorObserver(prob.exact, prob.exact_grad)
    im_obs = InternalMassObserver()
    summary = integrate(prob.u0, cfg, space, nl, 0.5,
                        observers=(rec, err_obs, im_obs))
    assert len(rec.records) == summary.num_slabs + 1
    assert rec.max_mass_drift <= 1e-10 * rec.records[0].mass
    assert rec.max_sav_energy_drift <= 1e-9
    assert im_obs.all_ok
    # the trajectory error dominates the endpoint errors recorded per slab
    assert err_obs.linf_h1 >= max(r.h1_error for r in rec.records) - 1e-15


def test_zero_initial_data_run_has_zero_drift():
    space = build_space(0.0, 1.0, 8, 1, PERIODIC)
    nl = power_law(1.0, 3.0, c0=1.0)
    cfg = StepperConfig(tau=0.1, k=2)
    rec = RunRecorder()
    internal = InternalMassObserver()
    integrate(lambda x: 0.0, cfg, space, nl, 0.5, observers=(rec, internal))
    assert all(r.mass == 0.0 for r in rec.records)
    assert rec.max_mass_drift == 0.0
    assert rec.max_sav_energy_drift <= 1e-14
    # the initial mass is 0, so there is no ratio to the bound; 0 <= 0 holds
    assert internal.all_ok and internal.worst_ratio == 0.0


def _nan_at(t_nan, fn):
    """`fn(x, t)`, but NaN everywhere at time t_nan."""
    return lambda x, t: np.full_like(fn(x, t), np.nan) if abs(t - t_nan) < 1e-12 else fn(x, t)


def test_nan_sample_propagates_into_every_maximum():
    # Python's max drops NaN (max(0.0, nan) == 0.0): an exact solution that is
    # NaN at t = 0.2 only must make the trajectory error NaN, not the maximum
    # of the other samples, and a NaN mass or SAV energy makes its drift NaN
    prob = soliton()
    nl = power_law(2.0, 3.0, c0=1.0)
    space = build_space(prob.a, prob.b, 60, 2, PERIODIC)
    exact, grad = _nan_at(0.2, prob.exact), _nan_at(0.2, prob.exact_grad)
    rec = RunRecorder(exact=exact, exact_grad=grad)
    err_obs = TrajectoryErrorObserver(exact, grad)
    integrate(prob.u0, StepperConfig(tau=0.1, k=2), space, nl, 0.3, observers=(rec, err_obs))
    assert [np.isnan(r.h1_error) for r in rec.records] == [False, False, True, False]
    assert np.isnan(err_obs.linf_h1)
    assert np.isfinite(rec.max_mass_drift) and np.isfinite(rec.max_sav_energy_drift)
    rec.records[1].mass = np.nan
    rec.records[2].sav_energy = np.nan
    assert np.isnan(rec.max_mass_drift) and np.isnan(rec.max_sav_energy_drift)
