"""Type checks for values read from JSON configuration objects.

JSON lets any field hold any value; these readers turn a wrong type into a
``ValueError`` that names the field, so a malformed config ends in a clean
error instead of a ``TypeError`` deep inside numpy.  JSON booleans are not
accepted as numbers, and numbers are not accepted as booleans.

Size fields have ceilings, so that no config can ask numpy for an array
larger than the program is meant to hold.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

__all__ = ["block", "flag", "number", "numbers", "simulation_size",
           "MAX_SIMULATED_VALUES", "MAX_PREDICTION_GRID",
           "MAX_SPECTRUM_FREQUENCY"]

# A simulate run holds its whole (n_realizations, grid_size) batch: 2**27
# float64 values are 1 GiB.
MAX_SIMULATED_VALUES = 2**27
# Ceiling on the prediction targets of a fit, whether an io.grid_size or
# the length of io.prediction_points.  Predictions and variances are written
# per target, so memory grows with this through the output; the solves take
# blocks of 256 targets.
MAX_PREDICTION_GRID = 2**16
# A power-law spectrum holds its frequencies and weights as arrays, and a
# series Gram over n and m points costs 2*n*m multiply-adds per frequency
# in GEMMs; its features, built by angle addition, add only about 4*(n + m)
# per frequency.  At 2**20 frequencies the two arrays are 16 MiB and a
# 400-point fit with variances on a 256-point grid already takes 5e11
# multiply-adds.  The default cutoff is 10_000.
MAX_SPECTRUM_FREQUENCY = 2**20


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


def number(value, name: str, *, integer: bool = False, minimum=None,
           maximum=None):
    """``value`` as a finite float, or as an int with ``integer=True``."""
    kind, what = ((Integral, "an integer") if integer
                  else (Real, "a finite number"))
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")
    return int(value) if integer else float(value)


def numbers(value, name: str, *, max_points=None) -> np.ndarray:
    """A list of finite numbers, at most ``max_points`` of them when given,
    as a 1-D float array."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    if max_points is not None and len(value) > max_points:
        raise ValueError(f"{name} must hold at most {max_points} points, "
                         f"got {len(value)}")
    return np.array([number(v, f"{name}[{i}]") for i, v in enumerate(value)],
                    dtype=float)


def simulation_size(sim_cfg: dict) -> tuple[int, int]:
    """``(n_realizations, grid_size)`` of a ``simulate`` block, within
    ``MAX_SIMULATED_VALUES`` values in all."""
    grid_size = number(sim_cfg.get("grid_size", 512), "simulate.grid_size",
                       integer=True, minimum=2, maximum=MAX_SIMULATED_VALUES)
    n_real = number(sim_cfg.get("n_realizations", 1),
                    "simulate.n_realizations", integer=True, minimum=0)
    if n_real * grid_size > MAX_SIMULATED_VALUES:
        raise ValueError(
            f"simulate.n_realizations * simulate.grid_size must be <= "
            f"{MAX_SIMULATED_VALUES} values, got {n_real} * {grid_size}")
    return n_real, grid_size
