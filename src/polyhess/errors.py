"""Shared exception types."""


class PolyhessError(Exception):
    """Base class for all package-specific failures."""


class CapabilityError(PolyhessError):
    """A request is outside the documented capability envelope (e.g. N > 3 grids)."""


class GeometryError(PolyhessError):
    """The two-level landscape required by the solver is absent or escaped.

    Raised when the fitted minorant has no positive hump or no zero below
    its maximizer (lambda is too large for the radii), when no iterate of
    the power iteration for psi has a positive nonlinear term, when the
    datum gives no witness (lambda int f phi is not positive), when the
    converged minimizer sits outside the R0 ball, when the first ray from
    it has no positive peak, and when the two
    solutions fail the energy ordering J_m < 0 < J_star (J_m = 0 at lambda
    = 0), also when J_m ~ -lambda^2 <f, G f> / 2 underflows to 0.
    """


class NonconvergenceError(PolyhessError):
    """An iterative solve hit its iteration budget before reaching tolerance.

    Carries the iteration record accumulated so far.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(PolyhessError):
    """A run configuration failed to parse or validate."""
