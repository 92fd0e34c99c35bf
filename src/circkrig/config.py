"""Type checks for values read from JSON configuration objects.

JSON lets any field hold any value; these readers turn a wrong type into a
``ValueError`` that names the field, so a malformed config ends in a clean
error instead of a ``TypeError`` deep inside numpy.  JSON booleans are not
accepted as numbers, and numbers are not accepted as booleans.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

__all__ = ["block", "flag", "number", "numbers"]


def block(cfg: dict, key: str) -> dict:
    """The object ``cfg[key]``, or an empty one when the key is absent."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"'{key}' must be an object, got {value!r}")
    return value


def flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def number(value, name: str, *, integer: bool = False, minimum=None):
    """``value`` as a finite float, or as an int with ``integer=True``."""
    kind, what = ((Integral, "an integer") if integer
                  else (Real, "a finite number"))
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value) if integer else float(value)


def numbers(value, name: str) -> np.ndarray:
    """A list of finite numbers as a 1-D float array."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return np.array([number(v, f"{name}[{i}]") for i, v in enumerate(value)],
                    dtype=float)
