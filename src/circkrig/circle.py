"""Angles, discrete measures, and low-order trigonometric spaces on the circle.

Angles are plain floats (or numpy arrays) in radians, canonicalized to
[0, 2*pi).  A discrete measure is a finite set of weighted point masses on
the circle; measures whose trigonometric moments vanish up to a given order
are the increments over which an intrinsic model of that order is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnisolvencyError

__all__ = [
    "TWO_PI",
    "wrap",
    "angular_distance",
    "DiscreteMeasure",
    "NilSpaceBasis",
    "CardinalBasis",
]

TWO_PI = 2.0 * np.pi

# Default ceiling on the collocation condition number before a node set is
# declared non-unisolvent.
MAX_COLLOCATION_COND = 1.0e12


def wrap(theta):
    """Canonicalize angles to the half-open interval [0, 2*pi).

    Parameters
    ----------
    theta : float or array_like
        Angle(s) in radians.

    Returns
    -------
    float or ndarray
        Equivalent angle(s) in [0, 2*pi); a numpy float for scalar or 0-d
        input, a new array otherwise.  NaN and infinities map to NaN.

    Notes
    -----
    ``fmod`` is exact and keeps the sign of its input, so one conditional
    ``+ 2*pi`` moves negative remainders into range.  That sum rounds up
    to the period itself for negatives smaller than half an ulp of
    ``2*pi`` (``-1e-17``), which are set to 0, and a final ``+ 0.0`` turns
    ``-0.0`` into ``+0.0``.  The result is bit for bit that of ``np.mod``
    (a floor division, several times slower) with the same guard.
    """
    r = _into_period(np.asarray(np.fmod(theta, TWO_PI)))
    r += 0.0
    return r[()]


def _into_period(r: np.ndarray) -> np.ndarray:
    """Move the values of ``r``, all in (-2*pi, 2*pi), into [0, 2*pi) in
    place: ``+ 2*pi`` where negative, then 0 where that rounded up to
    ``2*pi``.  Returns ``r``."""
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    np.copyto(r, 0.0, where=r >= TWO_PI)
    return r


def angular_distance(x, y):
    """Shortest arc length between two angles, a value in [0, pi]."""
    d = np.abs(wrap(x) - wrap(y))
    return np.minimum(d, TWO_PI - d)[()]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Signed measure ``sum_i weights[i] * delta(locations[i])`` on the circle.

    Locations are canonicalized to [0, 2*pi) on construction.  Coincident
    atoms are legal and act additively.

    Parameters
    ----------
    locations : array_like
        Atom angles in radians.
    weights : array_like
        Signed weights, one per atom.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.locations, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if loc.ndim != 1 or w.shape != loc.shape:
            raise ValueError(
                "locations and weights must be 1-d arrays of equal length"
            )
        if loc.size == 0:
            raise ValueError("a measure needs at least one atom")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(w))):
            raise ValueError("locations and weights must be finite")
        loc = np.atleast_1d(wrap(loc))
        loc.flags.writeable = False
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def natoms(self) -> int:
        return self.locations.size

    def moments(self, k: int) -> tuple[float, float]:
        """Trigonometric moment pair at frequency ``k``.

        Returns ``(sum_i w_i cos(k t_i), sum_i w_i sin(k t_i))``.  At k = 0
        the sine moment is identically zero.
        """
        if k < 0:
            raise ValueError("frequency must be nonnegative")
        if k == 0:
            return float(self.weights.sum()), 0.0
        kt = k * self.locations
        return (float(self.weights @ np.cos(kt)),
                float(self.weights @ np.sin(kt)))

    def is_allowable(self, kappa: int, tol: float = 1.0e-9) -> bool:
        """Whether all moments at frequencies below ``kappa`` vanish.

        Every measure is allowable at order 0.  The test is
        ``|moment| <= tol`` componentwise for k = 0, ..., kappa - 1.
        """
        if kappa < 0:
            raise ValueError("order must be nonnegative")
        for k in range(kappa):
            c, s = self.moments(k)
            if abs(c) > tol or abs(s) > tol:
                return False
        return True

    def translate(self, t: float) -> "DiscreteMeasure":
        """Rotate every atom by ``t``; weights are unchanged."""
        return DiscreteMeasure(self.locations + t, self.weights)

    def apply(self, f) -> float:
        """Integrate ``f`` against the measure: ``sum_i w_i f(t_i)``.

        ``f`` may return a scalar for array input (a constant function);
        the scalar is then broadcast over the atoms.
        """
        vals = np.asarray(f(self.locations), dtype=float)
        if vals.ndim == 0:
            vals = np.full(self.natoms, float(vals))
        if vals.shape != self.locations.shape:
            raise ValueError("f must map atom angles to one value per atom")
        return float(self.weights @ vals)


@dataclass(frozen=True)
class NilSpaceBasis:
    """Trigonometric polynomials of degree below ``kappa``.

    The space is spanned by ``{1, cos t, sin t, ..., cos((kappa-1)t),
    sin((kappa-1)t)}`` and has odd dimension ``2*kappa - 1``.  It is the
    drift (null) space of an intrinsic model of order ``kappa``: exactly the
    functions an allowable measure of that order annihilates.
    """

    kappa: int

    def __post_init__(self):
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa < 1:
            raise ValueError("order must be an integer >= 1")
        object.__setattr__(self, "kappa", int(self.kappa))

    @property
    def dim(self) -> int:
        return 2 * self.kappa - 1

    def design_matrix(self, t) -> np.ndarray:
        """Evaluate all basis functions at ``t``; shape (len(t), dim)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cols = [np.ones_like(t)]
        for n in range(1, self.kappa):
            cols.append(np.cos(n * t))
            cols.append(np.sin(n * t))
        return np.column_stack(cols)


class CardinalBasis:
    """Cardinal interpolation basis for the degree-``kappa - 1`` trig space.

    Given ``2*kappa - 1`` unisolvent node angles ``tau``, the cardinal
    functions ``p_nu`` are the unique polynomials in the nil space with
    ``p_nu(tau_mu) = delta(nu, mu)``.  The default nodes are equispaced,
    ``tau_nu = 2*pi*nu / (2*kappa - 1)``, which are always unisolvent.

    Parameters
    ----------
    kappa : int
        Order of the space; the node count is 2*kappa - 1.
    tau : array_like, optional
        Node angles in radians.  Defaults to the equispaced set.

    Raises
    ------
    UnisolvencyError
        If the collocation matrix is singular or has condition number
        above ``MAX_COLLOCATION_COND``; the message identifies the closest
        pair of nodes.
    """

    def __init__(self, kappa: int, tau=None):
        nil = NilSpaceBasis(kappa)
        if tau is None:
            tau = TWO_PI * np.arange(nil.dim) / nil.dim
        tau = np.atleast_1d(wrap(np.asarray(tau, dtype=float)))
        if tau.shape != (nil.dim,):
            raise ValueError(
                f"order {kappa} needs exactly {nil.dim} nodes, got {tau.size}"
            )
        collocation = nil.design_matrix(tau)
        cond = np.linalg.cond(collocation)
        if not np.isfinite(cond) or cond > MAX_COLLOCATION_COND:
            raise UnisolvencyError(
                f"nodes are not unisolvent for order {kappa} "
                f"(condition number {cond:.3e}); closest pair is "
                + self._closest_pair(tau)
            )
        # Column nu of coeffs expands p_nu in the nil-space basis.
        coeffs = np.linalg.solve(collocation, np.eye(nil.dim))
        tau.flags.writeable = False
        coeffs.flags.writeable = False
        self.nil_space = nil
        self.tau = tau
        self.coeffs = coeffs

    @staticmethod
    def _closest_pair(tau) -> str:
        n = tau.size
        best = (0, 1, np.inf)
        for i in range(n):
            for j in range(i + 1, n):
                d = float(angular_distance(tau[i], tau[j]))
                if d < best[2]:
                    best = (i, j, d)
        i, j, d = best
        return (
            f"nodes {i} and {j} (angles {tau[i]:.6g} and {tau[j]:.6g}, "
            f"separation {d:.3e})"
        )

    @property
    def kappa(self) -> int:
        return self.nil_space.kappa

    @property
    def dim(self) -> int:
        return self.nil_space.dim

    def design_matrix(self, t) -> np.ndarray:
        """Evaluate all cardinal functions at ``t``; shape (len(t), dim)."""
        return self.nil_space.design_matrix(t) @ self.coeffs
