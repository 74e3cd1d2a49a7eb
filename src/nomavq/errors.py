"""Exception types shared across the library, and the config field rules."""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import NamedTuple


class NomavqError(Exception):
    """Base class for all library errors."""


class ConfigurationError(NomavqError, ValueError):
    """Scenario or model configuration is inconsistent; a ValueError too."""


class InsufficientData(NomavqError):
    """Too few R-D points for curve fitting (need at least six)."""


class FitRejected(NomavqError):
    """A fitted R-D curve violates the model invariants."""


class InfeasibleRate(NomavqError):
    """Requested rate is below the stream's feasible rate band."""


class Infeasible(NomavqError):
    """No power allocation satisfies the constraint set."""


class NonConvergence(NomavqError):
    """Iterative solver hit its iteration cap.

    Carries a ``diagnostics`` dict with the last iterate state.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class Unbounded(NomavqError):
    """Linear program is unbounded."""


class PayloadOverflow(NomavqError):
    """A stacked transmission-block column exceeds the RTP payload size."""


POSITIVE, NONNEGATIVE = "positive", "nonnegative"  # either is also finite
NOT_NUMBER = "config key {key} is not a number: {value!r}"
NOT_WHOLE = "config key {key} is not a whole number: {value!r}"
WRONG_TYPE = "{key} has the wrong type: {value!r}"


class Rule(NamedTuple):
    """How a config type checks one field. ``cast`` coerces a value or raises
    TypeError, ValueError or OverflowError, which ``error`` words from the
    ``key`` and the ``value``; a number is then held to ``bound``. ``key`` is
    the field's scenario-file key, where that is not the field name."""

    cast: object
    error: str
    bound: str | None = None
    key: str | None = None

    def check(self, name, value):
        """``value`` coerced for the field ``name``, or ConfigurationError."""
        key = self.key or name
        try:
            v = self.cast(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(self.error.format(key=key, value=value)) from None
        if self.bound and not (math.isfinite(v) and (
                v > 0 or v == 0 and self.bound == NONNEGATIVE)):
            raise ConfigurationError(
                f"config key {key} must be finite and {self.bound}, got {v}")
        return v


def check_fields(obj):
    """Check each field of the dataclass ``obj`` by its rule in
    ``obj.FIELDS``, and store the coerced value."""
    for name, rule in obj.FIELDS.items():
        object.__setattr__(obj, name, rule.check(name, getattr(obj, name)))


def whole(x):
    """``int(x)``, refusing to truncate."""
    if (v := int(x)) != float(x):
        raise ValueError(x)
    return v


def finite_float(x):
    """``float(x)``, refusing NaN and the infinities."""
    if not math.isfinite(v := float(x)):
        raise ValueError(x)
    return v


def path(x):
    """``Path(x)`` of a nonempty string or path."""
    if not isinstance(x, (str, os.PathLike)) or x == "":
        raise TypeError(x)
    return Path(x)


def instance_of(cls):
    """The cast that refuses all but an instance of ``cls``."""
    def cast(x):
        if not isinstance(x, cls):
            raise TypeError(x)
        return x
    return cast


def tuple_of(cast=None):
    """The cast to a nonempty tuple from a list or tuple, each item cast by
    ``cast`` when one is given."""
    def cast_items(x):
        if not isinstance(x, (list, tuple)) or not x:
            raise TypeError(x)
        return tuple(x if cast is None else map(cast, x))
    return cast_items
