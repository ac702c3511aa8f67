"""Mass- and energy-conserving SAV Gauss collocation FEM solver for the
1D nonlinear Schrodinger equation."""

from .collocation import (CollocationScheme, GaussRule, SlabPolynomial,
                          collocation_scheme, gauss_rule, shifted_legendre,
                          temporal_l2_project, temporal_ritz_project)
from .diagnostics import (ConvergenceTable, InternalMassObserver,
                          ObservationRecord, RunRecorder,
                          TrajectoryErrorObserver, eoc, internal_mass_check,
                          mass, original_energy, sav_energy)
from .errors import (ConfigurationError, InputError, ModelError, SavNlsError,
                     SolverError, StepError, UsageError)
from .fem import (DIRICHLET, PERIODIC, FemSpace, Mesh1D, assemble_mass,
                  assemble_stiffness, build_space, error_norms, evaluate,
                  integrate_density, interpolate)
from .linsolve import BorderedSolution, BorderedSystem, factor, solve_bordered
from .model import (Nonlinearity, SavState, custom_nonlinearity,
                    g_derivatives, g_times_u, power_law, r_init)
from .stepper import (Assemblies, SlabUnknowns, StepReport, StepperConfig,
                      TrajectorySummary, advance, integrate, newton_step,
                      residual)

__version__ = "0.1.0"
