"""Best linear unbiased prediction on the circle and its dual smoothing form.

The bordered system

    [ Psi + sigma2*I   Q ] [c]   [y]
    [ Q^T              0 ] [d] = [0]

is solved once per fit (dual view: the predictor is an expansion in
covariance sections plus a drift polynomial).  The same factorization with
right-hand side ``(k, q) = (phi(t0 - t_i), q(t0))`` yields the pointwise
weights ``eta`` and multipliers ``rho`` (primal view).  Both views give the
same prediction, and the prediction-error variance is read off the primal
solution as ``sigma2(t0) = phi(0) - eta.k - rho.q`` (Cressie, *Statistics
for Spatial Data*, 1993, section 3.4): ``O(n m)`` work for ``m`` targets
after the solve, and no ``n x n`` array besides the bordered matrix.

``sigma2`` has two equivalent readings: the variance of iid observation
noise, and the penalty weight of the equivalent smoothing problem over the
kernel's function space.  As ``sigma2`` grows the predictor tends to the
plain trigonometric regression on the drift space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .circle import CardinalBasis, DiscreteMeasure, NilSpaceBasis, wrap
from .covariance import IntrinsicCovariance, Semivariogram, SpectralModel
from .errors import (
    ConditioningError,
    DuplicatePointsError,
    InsufficientDataError,
)

__all__ = [
    "Dataset",
    "UniversalKrigingModel",
    "OrdinaryKrigingModel",
    "fit_universal",
    "fit_ordinary",
    "trig_regression",
]

# Reciprocal condition estimate below which a factorized system is treated
# as singular to working precision.
_MIN_RCOND = 1.0e-15
# Ceiling on the scaled residual after one refinement pass.
_MAX_RESIDUAL = 1.0e-8


@dataclass(frozen=True)
class Dataset:
    """Observations ``values[i]`` at angles ``points[i]`` on the circle.

    Angles are canonicalized to [0, 2*pi); exact duplicates after
    canonicalization are rejected.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if pts.ndim != 1 or vals.shape != pts.shape:
            raise ValueError("points and values must be 1-d arrays of "
                             "equal length")
        if pts.size == 0:
            raise ValueError("a dataset needs at least one observation")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("points and values must be finite")
        pts = np.atleast_1d(wrap(pts))
        order = np.argsort(pts)
        same = np.flatnonzero(np.diff(pts[order]) == 0.0)
        if same.size:
            i, j = order[same[0]], order[same[0] + 1]
            raise DuplicatePointsError(
                f"observations {min(i, j)} and {max(i, j)} share the angle "
                f"{pts[i]:.6g} after canonicalization"
            )
        pts.flags.writeable = False
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.points.size


class _SaddleSolver:
    """Bunch-Kaufman factorization with one iterative-refinement pass."""

    def __init__(self, matrix: np.ndarray, context: str):
        self._matrix = matrix
        self._context = context
        self._anorm = np.linalg.norm(matrix, 1)
        ldu, ipiv, info = lapack.dsytrf(matrix, lower=1)
        if info > 0:
            raise ConditioningError(
                f"{context} is singular (zero pivot at row {info}); with no "
                "nugget this happens when the spectrum carries too few "
                "frequencies for the data size, so add frequencies or a "
                "positive nugget"
            )
        if info < 0:
            raise ValueError(f"invalid argument {-info} to dsytrf")
        rcond, info = lapack.dsycon(ldu, ipiv, self._anorm, lower=1)
        if info != 0 or not np.isfinite(rcond) or rcond <= _MIN_RCOND:
            raise ConditioningError(
                f"{context} is singular to working precision (reciprocal "
                f"condition estimate {rcond:.2e}); add spectral content or "
                "a positive nugget"
            )
        self._ldu = ldu
        self._ipiv = ipiv

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x, info = lapack.dsytrs(self._ldu, self._ipiv, b, lower=1)
        if info != 0:
            raise ConditioningError(f"{self._context}: back-substitution "
                                    f"failed with code {info}")
        resid = b - self._matrix @ x
        dx, info = lapack.dsytrs(self._ldu, self._ipiv, resid, lower=1)
        if info == 0:
            x = x + dx
            resid = b - self._matrix @ x
        scale = (self._anorm * np.linalg.norm(x)
                 + np.linalg.norm(b) + np.finfo(float).tiny)
        rel = float(np.linalg.norm(resid) / scale)
        if not np.isfinite(rel) or rel > _MAX_RESIDUAL:
            raise ConditioningError(
                f"{self._context}: scaled residual {rel:.2e} after "
                "refinement; the system is too ill-conditioned to trust"
            )
        return x


def _unbiasedness_measure(model, t0: float) -> DiscreteMeasure:
    """The error functional as a measure: weights at the data angles and
    -1 at the target.  Allowable at the model order by construction."""
    eta, _ = model.weights([float(t0)])
    return DiscreteMeasure(
        np.concatenate([model.data.points, [float(t0)]]),
        np.concatenate([eta[0], [-1.0]]),
    )


def _resolve_basis(basis, kappa: int):
    if basis == "trig":
        return NilSpaceBasis(kappa)
    if basis == "cardinal":
        return CardinalBasis(kappa)
    if isinstance(basis, (NilSpaceBasis, CardinalBasis)):
        if basis.kappa != kappa:
            raise ValueError(
                f"basis order {basis.kappa} does not match model "
                f"order {kappa}"
            )
        return basis
    raise ValueError("basis must be 'trig', 'cardinal', or a basis instance")


class UniversalKrigingModel:
    """Universal kriging fit for an intrinsic covariance of any order.

    Use :func:`fit_universal` to construct.  The fitted dual coefficients
    are exposed as ``kernel_coeffs`` (one per observation) and
    ``drift_coeffs`` (one per drift basis function); the drift coefficients
    of the data expansion satisfy ``Q^T kernel_coeffs = 0``.
    """

    def __init__(self, data: Dataset, covariance: IntrinsicCovariance,
                 nugget: float, basis):
        if isinstance(covariance, SpectralModel):
            covariance = IntrinsicCovariance(covariance)
        basis = _resolve_basis(basis, covariance.kappa)
        if not np.isfinite(nugget) or nugget < 0.0:
            raise ValueError("nugget must be a finite value >= 0")
        if data.n < basis.dim:
            raise InsufficientDataError(
                f"order {covariance.kappa} needs at least {basis.dim} "
                f"observations, got {data.n}"
            )
        self.data = data
        self.covariance = covariance
        self.nugget = float(nugget)
        self.basis = basis

        n, l = data.n, basis.dim
        bordered = np.zeros((n + l, n + l))
        bordered[:n, :n] = covariance.gram(data.points)
        bordered[np.diag_indices(n)] += self.nugget
        bordered[:n, n:] = basis.design_matrix(data.points)
        bordered[n:, :n] = bordered[:n, n:].T
        self._solver = _SaddleSolver(bordered, "bordered kriging system")
        dual = self._solver.solve(np.concatenate([data.values, np.zeros(l)]))
        self.kernel_coeffs = dual[:n]
        self.drift_coeffs = dual[n:]

    @property
    def kappa(self) -> int:
        return self.covariance.kappa

    def _sections(self, t0):
        """Covariance sections ``k`` (m, n) and drift values ``q`` (m, dim)
        at the targets."""
        t0 = np.atleast_1d(np.asarray(t0, dtype=float))
        return (self.covariance.gram(t0, self.data.points),
                self.basis.design_matrix(t0))

    def _primal(self, t0):
        """``k``, ``q`` and the primal solution ``eta`` (m, n), ``rho``
        (m, dim) from one solve with every target as a column."""
        k, q = self._sections(t0)
        sol = self._solver.solve(np.vstack([k.T, q.T]))
        return k, q, sol[:self.data.n].T, sol[self.data.n:].T

    def predict(self, t0):
        """Predicted value(s) via the dual expansion; shape-preserving."""
        shape = np.shape(t0)
        k, q = self._sections(t0)
        vals = k @ self.kernel_coeffs + q @ self.drift_coeffs
        return vals.reshape(shape)[()]

    def weights(self, t0) -> tuple[np.ndarray, np.ndarray]:
        """Primal weights ``eta`` and multipliers ``rho`` per location.

        Returns arrays of shape (len(t0), n) and (len(t0), dim).
        """
        _, _, eta, rho = self._primal(t0)
        return eta, rho

    def predict_with_variance(self, t0) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and prediction-error variances at ``t0``.

        The variance is ``phi(0) - eta.k - rho.q`` from the primal solve,
        which costs ``O(n m)`` for ``m`` targets on top of it.  Its reading
        requires the noise interpretation of the nugget: observations are
        the process plus iid noise of variance ``nugget``, and the target
        is the noise-free process value.
        """
        shape = np.shape(t0)
        k, q, eta, rho = self._primal(t0)
        vals = k @ self.kernel_coeffs + q @ self.drift_coeffs
        var = (self.covariance.phi0 - np.einsum("mn,mn->m", k, eta)
               - np.einsum("ml,ml->m", q, rho))
        # Nonnegative in exact arithmetic; clamp rounding noise.
        var = np.maximum(var, 0.0)
        return vals.reshape(shape)[()], var.reshape(shape)[()]

    unbiasedness_measure = _unbiasedness_measure


def fit_universal(data: Dataset, covariance, nugget: float = 0.0,
                  basis="trig") -> UniversalKrigingModel:
    """Fit universal kriging; see :class:`UniversalKrigingModel`.

    Parameters
    ----------
    data : Dataset
    covariance : IntrinsicCovariance or SpectralModel
    nugget : float
        Noise variance / smoothing weight, >= 0.
    basis : {'trig', 'cardinal'} or basis instance
        Drift basis; predictions do not depend on the choice.
    """
    return UniversalKrigingModel(data, covariance, nugget, basis)


class OrdinaryKrigingModel:
    """Ordinary kriging from a semivariogram (order-1, no nugget).

    The weights solve ``Gamma eta + rho 1 = tau_vec`` with
    ``sum(eta) = 1``; the prediction is ``eta . y`` and its variance is
    ``eta . tau_vec + rho``.  Both match universal kriging under the
    covariance ``c0 - tau`` for any admissible ``c0``.
    """

    def __init__(self, data: Dataset, semivariogram: Semivariogram):
        if not isinstance(semivariogram, Semivariogram):
            raise TypeError("semivariogram must be a Semivariogram")
        self.data = data
        self.semivariogram = semivariogram
        n = data.n
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = semivariogram(
            np.subtract.outer(data.points, data.points))
        bordered[:n, n] = 1.0
        bordered[n, :n] = 1.0
        self._solver = _SaddleSolver(bordered, "ordinary kriging system")

    def _solve(self, t0):
        t0 = np.atleast_1d(np.asarray(t0, dtype=float))
        tau_vec = np.asarray(
            self.semivariogram(np.subtract.outer(t0, self.data.points)))
        rhs = np.vstack([tau_vec.T, np.ones((1, t0.size))])
        sol = self._solver.solve(rhs)
        return tau_vec, sol[:self.data.n], sol[self.data.n]

    def weights(self, t0) -> tuple[np.ndarray, np.ndarray]:
        """Weights ``eta`` (rows sum to 1) and multipliers ``rho``."""
        _, eta, rho = self._solve(t0)
        return eta.T, rho

    def predict(self, t0):
        shape = np.shape(t0)
        _, eta, _ = self._solve(t0)
        return (eta.T @ self.data.values).reshape(shape)[()]

    def predict_with_variance(self, t0) -> tuple[np.ndarray, np.ndarray]:
        shape = np.shape(t0)
        tau_vec, eta, rho = self._solve(t0)
        vals = eta.T @ self.data.values
        var = np.einsum("jn,nj->j", tau_vec, eta) + rho
        var = np.maximum(var, 0.0)
        return vals.reshape(shape)[()], var.reshape(shape)[()]

    unbiasedness_measure = _unbiasedness_measure


def fit_ordinary(data: Dataset,
                 semivariogram: Semivariogram) -> OrdinaryKrigingModel:
    """Fit ordinary kriging; see :class:`OrdinaryKrigingModel`."""
    return OrdinaryKrigingModel(data, semivariogram)


def trig_regression(data: Dataset, kappa: int) -> np.ndarray:
    """Least-squares coefficients on the drift space of order ``kappa``.

    Returns the coefficient vector in the basis order
    ``{1, cos t, sin t, ..., cos((kappa-1)t), sin((kappa-1)t)}``.  This is
    the infinite-smoothing limit of universal kriging.
    """
    nil = NilSpaceBasis(kappa)
    if data.n < nil.dim:
        raise InsufficientDataError(
            f"order {kappa} regression needs at least {nil.dim} "
            f"observations, got {data.n}"
        )
    design = nil.design_matrix(data.points)
    coeffs, _, rank, sv = np.linalg.lstsq(design, data.values, rcond=None)
    if rank < nil.dim or sv[0] / sv[-1] > 1.0e12:
        raise ConditioningError(
            "trigonometric design matrix is rank deficient or too "
            "ill-conditioned at these angles"
        )
    return coeffs
