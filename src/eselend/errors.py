"""Exception hierarchy for the lending model.

Every error raised by this package derives from :class:`EselendError`, so
callers can catch one base class. The subclasses separate the failure kinds
that need different handling at the CLI boundary: bad numeric inputs, bad
input data files, bad configuration, solver breakdowns, and violated
internal invariants.
"""

from __future__ import annotations


class EselendError(Exception):
    """Base class for all package errors.

    ``cell`` is the index of the input cell a batched solver was handling
    when the error arose, and None otherwise.
    """

    cell: int | None = None


class DomainError(EselendError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(EselendError, ValueError):
    """Input data (metric records, schema rows) is malformed or incomplete.

    ``details`` optionally carries the offending items, e.g. a list of
    missing (farmer_id, metric_id) pairs.
    """

    def __init__(self, message: str, details: list | None = None):
        super().__init__(message)
        self.details = details or []


class ConfigError(EselendError, ValueError):
    """A configuration value (scheme, CLI config file) is invalid."""


class SolverError(EselendError, RuntimeError):
    """A numerical solver failed to converge.

    ``bracket`` carries the last bracketing interval examined, when one
    exists, to make failures reproducible.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class EvaluationError(EselendError, ArithmeticError):
    """An objective produced a non-finite value during optimization."""


class InvariantViolation(EselendError, RuntimeError):
    """Two internal computation routes disagreed beyond tolerance."""
