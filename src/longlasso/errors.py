"""Exception types shared across the package, and the check of numeric settings.

The CLI maps these onto exit codes: usage problems exit 1, data problems
(and any other ``ValueError``, and a file that cannot be read or written)
exit 2, numerical failures exit 3.
"""
import math


class DataError(ValueError):
    """Malformed or inconsistent input data (bad CSV, ragged series, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, step search, ...)."""


def check_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and >= 0 (> 0 if ``positive``)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
