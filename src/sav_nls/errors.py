"""Exception hierarchy shared by all solver components."""


class SavNlsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SavNlsError):
    """Invalid discretization or scheme parameters."""


class NumericalError(SavNlsError):
    """A run that was set up correctly but failed; the CLI's exit 3."""


class InputError(NumericalError):
    """Invalid runtime data (out-of-domain point, non-finite sample, ...)."""


class ModelError(NumericalError):
    """Nonlinearity/auxiliary-variable violation (nonpositive radicand, ...)."""


class SolverError(NumericalError):
    """Linear algebra failure (singular factorization, degenerate coupling)."""


class StepError(NumericalError):
    """Time-step failure; carries the Newton increment history."""

    def __init__(self, message, increment_history=None, failed_slab=None):
        super().__init__(message)
        self.increment_history = list(increment_history or [])
        self.failed_slab = failed_slab


class UsageError(SavNlsError):
    """Bad command line or configuration file input."""
