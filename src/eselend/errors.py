"""Exception hierarchy for the lending model.

Every error raised by this package derives from :class:`EselendError`, so
callers can catch one base class. The subclasses separate the failure kinds
that need different handling at the CLI boundary: bad numeric inputs, bad
input data files, bad configuration, non-finite evaluations, and violated
internal invariants. `_raise_first` is the one routine that names a failing
cell: every batch runs each of its checks over every cell through it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EselendError",
    "DomainError",
    "DataError",
    "ConfigError",
    "EvaluationError",
    "InvariantViolation",
]


class EselendError(Exception):
    """Base class for all package errors.

    ``cell`` is the index of the first bad entry of an array argument, such
    as a batched solver's cells, and None otherwise; when several entries
    fail, the first failing check names its first failing entry.
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


class EvaluationError(EselendError, ArithmeticError):
    """An objective produced a non-finite value during optimization."""


class InvariantViolation(EselendError, RuntimeError):
    """Two internal computation routes disagreed beyond tolerance."""


def _raise_first(bad, error, message, *values):
    """Raise ``error(message)`` for the first cell flagged in ``bad``, formatted
    with the cell's entries of ``values`` as floats; an array names the cell.
    A scalar ``bad`` (a bool or numpy bool) is tested without array calls."""
    if isinstance(bad, (bool, np.bool_)):
        if bad:
            raise error(message.format(*map(float, values)))
        return
    for i in np.asarray(bad).ravel().nonzero()[0][:1]:
        exc = error(message.format(*(float(np.broadcast_to(v, np.shape(bad)).flat[i])
                                     for v in values)))
        exc.cell = int(i) if np.ndim(bad) else None
        raise exc
