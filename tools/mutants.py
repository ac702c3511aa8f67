"""Mutation kill list of the solver's oracles (DeMillo, Lipton & Sayward, 1978).

Each entry of MUTANTS is ``(file, old, new, killing test)``: one deliberate bug,
written as the replacement of the one occurrence of ``old`` in ``file`` by
``new``, and the test that must fail on it.  For every entry the tool copies
this checkout's ``src/``, ``tests/``, ``perfbench/``, ``configs/``,
``pyproject.toml`` and ``BENCHMARK.json`` under the given directory, applies
the entry there, runs the killing test, and, if that passes, the fast
selection (``tests`` and ``perfbench`` without the criterion 1 and 2 sweeps and
``test_reference_scale``, stopping at the first failure).  It prints one line
per entry, ``killed`` (by its test or by another one) or ``survived``, with the
time taken, and exits 1 if any mutant survived.  It changes no file of the
checkout:

    python3 tools/mutants.py /tmp/mutants            # every entry
    python3 tools/mutants.py /tmp/mutants 3 17       # entries 3 and 17

The whole list takes about a minute on a 2-core machine.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "configs", "pyproject.toml", "BENCHMARK.json")
FAST = ["tests", "perfbench", "-x",
        "--deselect", "tests/test_acceptance.py::test_criterion_1_temporal_order",
        "--deselect", "tests/test_acceptance.py::test_criterion_2_spatial_order",
        "--deselect", "tests/test_reference_scale.py"]

STEPPER, LINSOLVE = "src/sav_nls/stepper.py", "src/sav_nls/linsolve.py"
T_STEP, T_LIN = "tests/test_stepper.py::", "tests/test_linsolve.py::"
SPLU = T_LIN + "test_condensed_newton_solve_matches_splu"

MUTANTS = (
    # the Newton loop: chord rule, kept linearization, restarts, SAV denominator
    (STEPPER, 'lift = alpha * (R / (2.0 * data["denoms"])) + np.diag(',
     "lift = 0 * alpha + 0 * np.diag(", T_STEP + "test_newton_converges_quadratically"),
    (STEPPER, "if carry.state is not None:", "if False:",
     T_STEP + "test_predictor_matches_cold_start"),
    (STEPPER, "if eta * e <= KAPPA * tol if chord", "if eta * e <= tol if chord",
     T_STEP + "test_chord_steps_stop_on_the_contraction_estimate"),
    (STEPPER, "lin = None if theta and theta > THETA_MAX else lin", "lin = lin",
     T_STEP + "test_chord_step_that_does_not_converge_is_followed_by_an_exact_step"),
    (STEPPER, "lin, carry.lin, starts = carry.lin, None, [constant]",
     "lin, starts = carry.lin, [constant]", T_STEP + "test_no_factorization_outlives_its_use"),
    (STEPPER, "except (SolverError, StepError) if chord else ():", "except ():",
     T_STEP + "test_chord_step_solver_error_refreshes_the_linearization"),
    (STEPPER, "except (SolverError, StepError) if chord else ():",
     "except NumericalError if chord else ():",
     T_STEP + "test_failed_predictor_restarts_from_constant_value"),
    (STEPPER, "lin, carry.lin, starts = carry.lin, None, [constant]",
     "lin, carry.lin, starts = carry.lin, None, []",
     T_STEP + "test_failed_predictor_restarts_from_constant_value"),
    (STEPPER, "except NumericalError as exc:\n                lin = None\n",
     "except NumericalError as exc:\n",
     T_STEP + "test_start_that_does_not_converge_restarts_from_constant_value"),
    (STEPPER, "@cached_property\n    def elements(self):", "@property\n    def elements(self):",
     T_STEP + "test_per_run_data_is_built_once"),
    (STEPPER, "THETA_MAX, KAPPA = 0.1, 1e-4", "THETA_MAX, KAPPA = 0.1, 1e-2",
     "tests/test_cli.py::test_check_failure_exit_code_and_flags"),
    (STEPPER, "THETA_MAX, KAPPA = 0.1, 1e-4", "THETA_MAX, KAPPA = 10.0, 1e-4",
     T_STEP + "test_kept_linearization_whose_contraction_exceeds_the_bound_is_dropped"),
    (STEPPER, "THETA_MAX, KAPPA = 0.1, 1e-4", "THETA_MAX, KAPPA = 0.05, 1e-4",
     T_STEP + "test_predictor_matches_cold_start"),
    (STEPPER, "res_final = _residual_norm(*residual(slab, state, unknowns))", "res_final = 0.0",
     T_STEP + "test_residual_final_is_the_residual_of_the_returned_stages"),
    # the quadrature kernel, the assembly and the increment norm
    ("src/sav_nls/model.py", "g1 = (fs + fps * s) / denom", "g1 = (fs + 0.5 * fps * s) / denom",
     "tests/test_acceptance.py::test_criterion_8_jacobian_directional_derivative"),
    ("src/sav_nls/model.py", "g1 = np.where(mask, 0.0, g1)", "g1 = g1",
     "tests/test_model.py::test_g_derivatives_clamps_singular_origin"),
    (STEPPER, "g1 * v_q + g2 * v_q.conj()", "g1 * v_q + g2 * v_q", SPLU),
    (STEPPER, "[np.stack([G1 + X2, Y2], -1), np.stack([Y2, G1 - X2], -1)], 2)",
     "[np.stack([G1 + X2, Y2], -1), np.stack([Y2, G1 + X2], -1)], 2)",
     T_STEP + "test_fixed_layout_assembly_matches_coo_and_bmat"),
    (STEPPER, "l2 = [np.sqrt(d.real @ (M @ d.real) + d.imag @ (M @ d.imag)) for d in delta_u]",
     "l2 = [np.sqrt(d.real @ (M @ d.real)) for d in delta_u]",
     T_STEP + "test_real_operators_give_the_bits_of_complex_copies"),
    # the condensation: element inverses, Schur complements, the wrap, the right-hand
    # side, the back-substitution, the dropped vertex and p = 1
    (LINSOLVE, "Y[:, :, :m] = np.linalg.inv(J[:, o:, o:])",
     "Y[:, :, :m] = np.linalg.inv(J[:, o:, o:].transpose(0, 2, 1))", SPLU),
    (LINSOLVE, "L = J[:, :o, o:] @ Y[:, :, :m]", "L = 0 * J[:, :o, o:] @ Y[:, :, :m]", SPLU),
    (LINSOLVE, "S += J[:, :o, :o]", "S += 0 * J[:, :o, :o]", SPLU),
    (LINSOLVE, "diag = S[:, :b, :b] + np.roll(S[:, b:, b:], 1, axis=0)",
     "diag = S[:, :b, :b] + np.roll(S[:, b:, b:], -1, axis=0)", SPLU),
    (LINSOLVE, "B[-b:] + S[-1, :b, b:]", "B[-b:] + 0 * S[-1, :b, b:]", SPLU),
    (LINSOLVE, "Ct[-b:] + S[-1, b:, :b].T", "Ct[-b:] + S[-1, :b, b:]", SPLU),
    (LINSOLVE, "x0 = Sinv @ (g[0] - C @ y)", "x0 = Sinv @ g[0]", SPLU),
    (LINSOLVE, "c = self.L @ F[:, b:]", "c = self.L @ F[::-1, b:]", SPLU),
    (LINSOLVE, "x_I = self.Y @ np.concatenate([F[:, b:], V,",
     "x_I = self.Y @ np.concatenate([0 * F[:, b:], V,", SPLU),
    (LINSOLVE, ".reshape(-1, *f.shape[1:])[pad:]", ".reshape(-1, *f.shape[1:])[:len(f)]", SPLU),
    (LINSOLVE, "if isinstance(K, Elements):",
     "if isinstance(K, Elements) and len(K.blocks[0]) > 2 * K.b:", SPLU),
    (LINSOLVE, 'raise SolverError(f"singular element interior block or wrap: {exc}") from exc',
     "raise",
     T_LIN + "test_a_singular_element_interior_block_is_a_solver_error"),
    # the residual check, the observers' drifts and the CLI's exit codes
    (LINSOLVE, "RESIDUAL_TOL = 1e-11", "RESIDUAL_TOL = 1e30",
     T_LIN + "test_kept_factorization_of_another_matrix_fails_the_residual_check"),
    ("src/sav_nls/diagnostics.py", "return float(np.real(np.vdot(u, asm.mass @ u)))",
     "return float(np.real(np.vdot(u, asm.mass @ u))) * (1 + 1e-9)",
     "tests/test_diagnostics.py::test_mass_values"),
    ("src/sav_nls/cli.py",
     "file=sys.stderr)\n        return EXIT_USAGE\n    except NumericalError",
     "file=sys.stderr)\n        return EXIT_NUMERICAL\n    except NumericalError",
     "tests/test_cli.py::test_zero_newton_iterations_is_usage_error"),
)


def _pytest(copy, args):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=copy, env=env, capture_output=True).returncode


def run(number, entry, directory):
    """'killed' or 'survived', and by which run, for one entry."""
    file, old, new, test = entry
    copy = directory / f"mutant{number:02d}"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, copy / name)
    text = (copy / file).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"mutant {number}: {old!r} occurs {text.count(old)} times in {file}")
    (copy / file).write_text(text.replace(old, new))
    if _pytest(copy, [test]) != 0:
        outcome = "killed", "by its test"
    elif _pytest(copy, FAST) != 0:
        outcome = "killed", "by another test"
    else:
        outcome = "survived", ""
    shutil.rmtree(copy)
    return outcome


def main(argv):
    if not argv:
        raise SystemExit(__doc__)
    directory = Path(argv[0]).resolve()
    if directory == ROOT or ROOT in directory.parents:
        raise SystemExit("the mutants' directory must lie outside the checkout")
    numbers = [int(a) for a in argv[1:]] or range(1, len(MUTANTS) + 1)
    survived, start = 0, time.perf_counter()
    for number in numbers:
        file, old, new, test = MUTANTS[number - 1]
        begin = time.perf_counter()
        outcome, how = run(number, MUTANTS[number - 1], directory)
        survived += outcome == "survived"
        print(f"{number:2d} {outcome:8s} {time.perf_counter() - begin:5.1f} s  "
              f"{Path(file).name}: {new.strip()[:60]!r}  [{test.split('::')[-1]}] {how}",
              flush=True)
    print(f"{len(numbers) - survived} of {len(numbers)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
