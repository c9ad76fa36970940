"""Shared exception types."""


class PolyhessError(Exception):
    """Base class for all package-specific failures."""


class CapabilityError(PolyhessError):
    """A request is outside the documented capability envelope (e.g. N > 3 grids)."""


class ContractError(PolyhessError):
    """A caller violated an operation precondition (e.g. a start point outside the R0 ball)."""


class GeometryError(PolyhessError):
    """The two-level landscape required by the solver is absent or escaped.

    Typically means lambda is too large for the fitted radii, or a search
    path degenerated (max collapsed onto an endpoint).
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
