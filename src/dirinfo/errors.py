"""Exception types shared across the library."""


class DirinfoError(Exception):
    """Base class for all library errors."""


class ModelValidationError(DirinfoError, ValueError):
    """One or more model invariants are violated.

    Carries the full list of violations in ``errors``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DimensionError(DirinfoError, ValueError):
    """Matrix dimensions are inconsistent."""


class PreconditionError(DirinfoError, RuntimeError):
    """A named mathematical precondition failed (message says which)."""


class ConvergenceError(DirinfoError, RuntimeError):
    """An iterative solver did not converge within its iteration budget.

    No solver raises it any more: Newton's step cap hands its last iterate to the
    Riccati certificate, which answers or raises PreconditionError.  It stays in
    the public API for callers that catch it.
    """


class UnboundedError(DirinfoError, RuntimeError):
    """The optimization objective is unbounded above."""


class InfeasibleError(DirinfoError, RuntimeError):
    """The power budget cannot be met by any admissible strategy."""

    def __init__(self, message, kappa_stab=None):
        super().__init__(message)
        self.kappa_stab = kappa_stab
