"""Exception types shared across the package."""


class StiefelError(Exception):
    """Base class for all package errors."""


class InvalidElementError(StiefelError, ValueError):
    """A basis element's indices are out of range or malformed."""


class DomainError(StiefelError, ValueError):
    """An input violates a precondition (nonpositive coefficient, bad n, ...)."""


class UnsupportedShapeError(StiefelError, NotImplementedError):
    """A block decomposition outside the shapes this pipeline handles."""


class DegenerateSystemError(StiefelError, ArithmeticError):
    """An elimination degenerated (a resultant vanished identically, or an
    expected constraint is missing or malformed); the system needs a
    different route."""


class EliminationOverflowError(StiefelError, RuntimeError):
    """An elimination exceeded its fixed cost limit (pair cap, resultant budget)."""
