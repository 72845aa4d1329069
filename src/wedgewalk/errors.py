"""Exception types shared across the toolkit."""


class WedgewalkError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(WedgewalkError, ValueError):
    """A parameter is outside its admissible domain."""


class ShapeError(WedgewalkError, ValueError):
    """Operator / link state spaces do not match."""


class SolverError(WedgewalkError, RuntimeError):
    """A linear solve failed (e.g. absorption unreachable)."""


class UnreachableStateError(WedgewalkError, RuntimeError):
    """A state with zero visit count was hit during time reversal."""


class QuadratureError(WedgewalkError, RuntimeError):
    """Requested tolerance was not met within the node budget."""


class SimulationTimeout(WedgewalkError, RuntimeError):
    """A path exceeded the per-path step cap before absorption.

    Carries the aggregate of the paths absorbed so far in ``partial`` and the
    number of paths still active in ``active``.
    """

    def __init__(self, message, partial=None, active=0):
        super().__init__(message)
        self.partial = partial
        self.active = active
