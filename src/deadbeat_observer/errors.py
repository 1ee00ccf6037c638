"""Exception hierarchy shared by all modules."""


class DeadbeatError(Exception):
    """Base class for all library errors."""


class NonFiniteState(DeadbeatError):
    """An integration produced NaN/Inf; ``index`` is the first bad grid node."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"non-finite state at grid index {index}")


class InvalidValue(ValueError):
    """A constructor's value rule rejected the value of one of its fields."""


class DimensionMismatch(DeadbeatError):
    """An array, sample count or index list has the wrong size for its role."""


class NotPositiveDefinite(DeadbeatError):
    """Cholesky hit a pivot at or below the floor; the Gram matrix is degenerate."""

    def __init__(self, smallest_pivot, message=None):
        self.smallest_pivot = smallest_pivot
        super().__init__(
            message or f"matrix not positive definite (smallest pivot {smallest_pivot:.3e})"
        )


class DomainExit(DeadbeatError):
    """The simulated solution left the open set where the model is defined."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"solution left the model domain at grid index {index}")


class KappaVanished(DeadbeatError):
    pass


class NonNegativeZ2(DeadbeatError):
    pass
