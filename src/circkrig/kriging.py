"""Best linear unbiased prediction on the circle and its dual smoothing form.

The bordered system

    [ Psi + sigma2*I   Q ] [c]   [y]
    [ Q^T              0 ] [d] = [0]

is solved once per fit (dual view: the predictor is an expansion in
covariance sections plus a drift polynomial).  The same factorization with
right-hand side ``v = (k, q) = (phi(t0 - t_i), q(t0))`` yields the pointwise
weights ``eta`` and multipliers ``rho`` (primal view).  Both views give the
same prediction.  The prediction-error variance is the variance of the error
functional, an allowable measure, which is the quadratic form
``sigma2(t0) = phi(0) - v^T S^{-1} v = phi(0) - eta.k - rho.q`` in the
bordered matrix ``S`` (Cressie, *Statistics for Spatial Data*, 1993,
section 3.4).  It is evaluated without the primal solution, as Rasmussen &
Williams (*Gaussian Processes for Machine Learning*, 2006, Algorithm 2.1
and section 2.7) do: one triangular solve ``z = L^{-1} w`` with the Cholesky
factor ``L`` of the null-space block below, so the variance costs ``n^2 m``
flops for ``m`` targets, half those of the primal solve.

The system is solved by the null-space method (Nocedal & Wright, *Numerical
Optimization*, section 16.2).  The allowable measures of the model order
are exactly the weight vectors in ``null(Q^T)``; a Householder QR of ``Q``
gives an orthonormal basis ``Z`` of them, and the validity condition of an
intrinsic covariance says ``Z^T (Psi + sigma2*I) Z`` is positive definite.
So one Cholesky factorization of that ``(n - dim)``-square block, plus two
``dim x dim`` triangular solves for the drift, replaces an indefinite
factorization of the whole bordered matrix; a failed Cholesky means the
model is not valid at these points.  A constant shift of the covariance
drops out, because ``Z^T 1 = 0``.  So ordinary kriging is the order-1 model
on the covariance ``-tau``, a semivariogram being conditionally negative
definite.

Every solve is gated on its scaled residual against the bordered matrix.
The variance has no primal solution to gate, so each block of targets is
gated twice instead: the whitened solve on ``|L z - w| / (|L| |z| + |w|)``,
and the factor as a whole by one bordered solve of the block's summed
right-hand side.

``sigma2`` has two equivalent readings: the variance of iid observation
noise, and the penalty weight of the equivalent smoothing problem over the
kernel's function space.  As ``sigma2`` grows the predictor tends to the
plain trigonometric regression on the drift space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# Ceiling on the scaled residual ``|r| / (|A| |x| + |b|)`` of a solve
# against the bordered matrix, and of the variance's whitened solve.
_MAX_RESIDUAL = 1.0e-8
# Targets per block of a prediction: its temporaries are a few
# ``n x _TARGET_BLOCK`` arrays whatever the number of targets.
_TARGET_BLOCK = 256


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


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of ``a`` that neither overflows nor underflows.

    Below magnitude 1e100 and above 1e-100 a plain sum of squares stays
    inside the float64 range for any array size, and needs no temporary;
    outside that range the entries are first divided by the largest
    magnitude.
    """
    top = float(np.maximum(a.max(initial=0.0), -a.min(initial=0.0)))
    if 1e-100 <= top <= 1e100:
        return float(np.linalg.norm(a))
    if top == 0.0 or not np.isfinite(top):
        return top
    return top * float(np.linalg.norm(a / top))


class _SaddleSolver:
    """Null-space Cholesky solver for ``[A Q; Q^T 0] [x; y] = [b; c]``.

    ``matrix`` is the symmetric ``n x n`` block ``A`` and ``drift`` the
    ``n x l`` design ``Q``.  With the Householder QR ``Q = H [R; 0]`` and
    ``M = H^T A H``, the system splits into ``R^T u1 = c``,
    ``M22 u2 = (H^T b)_2 - M21 u1`` and ``R y = (H^T b)_1 - M11 u1 - M12 u2``,
    with ``x = H u``.  ``M22`` is ``A`` on ``null(Q^T)``, factored by
    Cholesky; its failure is the model failing to be positive definite on
    allowable measures.

    The solver holds ``A`` (for the residual gate), the leading ``l``
    columns of ``M`` and the Cholesky factor ``L`` of ``M22``.  ``rcond`` is
    the smaller reciprocal condition estimate of ``R`` and ``M22`` (an empty
    ``M22``, at ``n == l``, counts as 1), and ``residual`` the worst scaled
    residual of any solve or quadratic form so far.
    """

    def __init__(self, matrix: np.ndarray, drift: np.ndarray, context: str):
        # scipy.linalg is imported by the methods that call it, not with
        # the module: it is over half of circkrig's start-up (it loads
        # numpy.f2py and numpy.testing), and simulation never solves.
        from scipy.linalg import lapack
        n, l = drift.shape
        self._matrix = matrix
        self._drift = drift
        self._context = context
        # 1-norm of the bordered matrix, for the residual scale.
        drift_abs = np.abs(drift)
        self._anorm = max(
            float(np.max(np.abs(matrix).sum(axis=0) + drift_abs.sum(axis=1))),
            float(np.max(drift_abs.sum(axis=0))))
        self._qr, self._tau, _, info = lapack.dgeqrf(drift)
        if info != 0:
            raise ValueError(f"invalid argument {-info} to dgeqrf")
        self._r = np.asfortranarray(self._qr[:l])
        rcond, _ = lapack.dtrcon(self._r, norm="1", uplo="U")
        if not np.isfinite(rcond) or rcond <= _MIN_RCOND:
            raise ConditioningError(
                f"{context}: the drift design is singular at these points "
                f"(reciprocal condition estimate {rcond:.2e}); spread the "
                "points apart or lower the model order")
        # A is symmetric, so A.T is a Fortran-ordered view of it and the
        # first product needs no transposed copy.
        reduced = self._apply("R", "N", self._apply("L", "T", matrix.T),
                              overwrite=True)
        self._lead = reduced[:, :l].copy()
        self._chol = None
        self._chol_norm = 0.0
        if n > l:
            self._chol, block_rcond = self._factor(reduced[l:, l:])
            rcond = min(rcond, block_rcond)
        self.rcond = float(rcond)
        self.residual = 0.0

    def _factor(self, block: np.ndarray):
        """Cholesky factor and reciprocal condition estimate of ``M22``;
        also keeps ``|L|_F``, which is ``sqrt(trace M22)``, the 2-norm of
        the square roots of the diagonal."""
        from scipy.linalg import lapack
        norm = float(np.max(np.abs(block).sum(axis=0)))
        diag = np.maximum(np.diagonal(block), 0.0)
        self._chol_norm = _norm(np.sqrt(diag))
        chol, info = lapack.dpotrf(block, lower=1)
        if info > 0:
            raise ConditioningError(
                f"{self._context} is not positive definite on allowable "
                f"measures (pivot {info} of the reduced block): the model "
                "is not valid at these points; with no nugget this happens "
                "when the spectrum carries too few frequencies for the data "
                "size, so add frequencies or a positive nugget")
        rcond, info = lapack.dpocon(chol, norm, uplo="L")
        if info != 0 or not np.isfinite(rcond) or rcond <= _MIN_RCOND:
            raise ConditioningError(
                f"{self._context} is singular to working precision on "
                f"allowable measures (reciprocal condition estimate "
                f"{rcond:.2e}); add spectral content or a positive nugget")
        return chol, rcond

    def _apply(self, side: str, trans: str, c: np.ndarray,
               overwrite: bool = False) -> np.ndarray:
        """``H`` (trans "N") or ``H^T`` (trans "T") times ``c`` from the
        left (side "L") or right (side "R")."""
        from scipy.linalg import lapack
        # LAPACK's optimal workspace: the block size 64 times the width of
        # ``c``, plus the 65 x 64 triangular factor of a reflector block.
        width = c.shape[1] if side == "L" else c.shape[0]
        out, _, info = lapack.dormqr(side, trans, self._qr, self._tau, c,
                                     lwork=max(1, width) * 64 + 65 * 64,
                                     overwrite_c=overwrite)
        if info != 0:
            raise ValueError(f"invalid argument {-info} to dormqr")
        return out

    def _triangular(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        from scipy.linalg import lapack
        out, info = lapack.dtrtrs(self._r, rhs, lower=0, trans=trans)
        if info != 0:
            raise ConditioningError(f"{self._context}: triangular solve "
                                    f"failed with code {info}")
        return out

    def solve(self, b: np.ndarray, c: np.ndarray | None = None):
        """``(x, y)`` for right-hand sides ``b`` (n or n x m) and ``c``
        (l or l x m; zero when omitted), shaped like them."""
        from scipy.linalg import lapack
        b = np.asarray(b, dtype=float)
        n, l = self._drift.shape
        rhs = b.reshape(n, -1)
        cols = rhs.shape[1]
        con = np.zeros((l, cols)) if c is None else \
            np.asarray(c, dtype=float).reshape(l, cols)
        if cols == 0:
            # LAPACK wrappers reject empty right-hand sides.
            return np.zeros(b.shape), np.zeros((l,) + b.shape[1:])
        u = self._apply("L", "T", rhs)
        u1 = self._triangular(con, trans=1)
        top = u[:l] - self._lead[:l] @ u1
        if self._chol is not None:
            u[l:] -= self._lead[l:] @ u1
            u2, info = lapack.dpotrs(self._chol, u[l:], lower=1,
                                     overwrite_b=1)
            if info != 0:
                raise ConditioningError(f"{self._context}: Cholesky solve "
                                        f"failed with code {info}")
            u[l:] = u2
            del u2  # freed before the residual product
            top -= self._lead[l:].T @ u[l:]
        y = self._triangular(top, trans=0)
        u[:l] = u1
        x = self._apply("L", "N", u, overwrite=True)
        self._check(rhs, con, x, y)
        return x.reshape(b.shape), y.reshape((l,) + b.shape[1:])

    def quadratic(self, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``v^T S^{-1} v`` for each column ``v = (b, c)`` of ``b`` (n x m)
        and ``c`` (l x m), with ``S`` the bordered matrix.

        With ``k = H^T b``, ``u1 = R^{-T} c``, ``w = k2 - M21 u1`` and
        ``z = L^{-1} w``, the form is ``2 k1.u1 - u1^T M11 u1 + |z|^2``: one
        triangular solve, half the work of :meth:`solve`.  ``b`` may be
        overwritten.  Besides the whitened solve's own residual gate, the
        summed column ``(sum_j b_j, sum_j c_j)`` goes through :meth:`solve`,
        whose bordered gate catches a factor that no longer matches ``A``.
        """
        from scipy.linalg import blas, lapack
        l = self._drift.shape[1]
        if b.shape[1] == 0:
            return np.zeros(0)
        probe = (b.sum(axis=1), c.sum(axis=1))
        k = self._apply("L", "T", b, overwrite=True)
        u1 = self._triangular(c, trans=1)
        quad = (2.0 * np.einsum("ij,ij->j", k[:l], u1)
                - np.einsum("ij,ij->j", u1, self._lead[:l] @ u1))
        if self._chol is not None:
            w = blas.dgemm(-1.0, self._lead[l:], u1, 1.0, k[l:])
            z, info = lapack.dtrtrs(self._chol, w, lower=1)
            if info != 0:
                raise ConditioningError(f"{self._context}: triangular "
                                        f"solve failed with code {info}")
            zz = np.einsum("ij,ij->j", z, z)
            quad += zz
            size = np.sqrt(zz.sum())
            # L z - w, formed in place of z once its norm is taken.
            resid = blas.dtrmm(1.0, self._chol, z, lower=1, overwrite_b=1)
            resid -= w
            rel = _norm(resid) / (self._chol_norm * size + _norm(w)
                                  + np.finfo(float).tiny)
            if not np.isfinite(rel) or rel > _MAX_RESIDUAL:
                raise ConditioningError(
                    f"{self._context}: whitened solve scaled residual "
                    f"{rel:.2e}; the system is too ill-conditioned to trust")
            self.residual = max(self.residual, rel)
        self.solve(*probe)
        return quad

    def _check(self, b, c, x, y):
        """Gate on the scaled residual against the bordered matrix."""
        from scipy.linalg import blas
        resid = blas.dgemm(1.0, self._matrix.T, x)
        resid = blas.dgemm(1.0, self._drift, y, 1.0, resid, overwrite_c=1)
        resid -= b
        size = np.hypot(_norm(x), _norm(y))
        scale = (self._anorm * size + np.hypot(_norm(b), _norm(c))
                 + np.finfo(float).tiny)
        rel = float(np.hypot(_norm(resid), _norm(self._drift.T @ x - c))
                    / scale)
        if not np.isfinite(rel) or rel > _MAX_RESIDUAL:
            raise ConditioningError(
                f"{self._context}: scaled residual {rel:.2e}; the system "
                "is too ill-conditioned to trust")
        self.residual = max(self.residual, rel)


def _target_blocks(m: int) -> list[slice]:
    """Slices of at most ``_TARGET_BLOCK`` of ``m`` targets, in order.

    A lone last target joins the block before it: numpy takes a one-row
    product through dot, not gemv, and rounds it otherwise than a product
    over more rows does.
    """
    starts = list(range(0, m, _TARGET_BLOCK))
    if len(starts) > 1 and starts[-1] == m - 1:
        del starts[-1]
    return [slice(start, stop)
            for start, stop in zip(starts, starts[1:] + [m])]


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

        gram = covariance.gram(data.points)
        gram[np.diag_indices(data.n)] += self.nugget
        self._solver = _SaddleSolver(gram, basis.design_matrix(data.points),
                                     "kriging system")
        self.kernel_coeffs, self.drift_coeffs = self._solver.solve(
            data.values)

    @property
    def kappa(self) -> int:
        return self.covariance.kappa

    @property
    def diagnostics(self) -> dict:
        """How well-posed the fit is: data size ``n``, drift dimension
        ``dim``, ``nugget``, the solver's reciprocal condition estimate
        ``rcond``, the worst ``scaled_residual`` of the solves so far (the
        fit's own and every prediction's), the covariance's truncation
        ``tail_bound`` and ``drift_orthogonality``, ``max |Q^T c|`` for the
        drift design ``Q`` and the kernel coefficients ``c`` (0 in exact
        arithmetic: the data expansion is an allowable measure)."""
        drift = self._solver._drift.T @ self.kernel_coeffs
        return {"n": self.data.n, "dim": self.basis.dim,
                "nugget": self.nugget, "rcond": self._solver.rcond,
                "scaled_residual": self._solver.residual,
                "tail_bound": self.covariance.tail_bound,
                "drift_orthogonality": float(np.max(np.abs(drift)))}

    def _sections(self, t0):
        """Covariance sections ``k`` (m, n) and drift values ``q`` (m, dim)
        at the targets."""
        t0 = np.atleast_1d(np.asarray(t0, dtype=float))
        return (self.covariance.gram(t0, self.data.points),
                self.basis.design_matrix(t0))

    def predict(self, t0):
        """Predicted value(s) via the dual expansion; shape-preserving.
        Targets go in blocks of ``_TARGET_BLOCK``, as for the variance."""
        shape = np.shape(t0)
        t0 = np.asarray(t0, dtype=float).reshape(-1)
        vals = np.empty(t0.size)
        for block in _target_blocks(t0.size):
            k, q = self._sections(t0[block])
            vals[block] = k @ self.kernel_coeffs + q @ self.drift_coeffs
        return vals.reshape(shape)[()]

    def weights(self, t0) -> tuple[np.ndarray, np.ndarray]:
        """Primal weights ``eta`` and multipliers ``rho`` per location.

        Returns arrays of shape (len(t0), n) and (len(t0), dim), solved in
        blocks of ``_TARGET_BLOCK`` targets to bound the temporaries.
        """
        t0 = np.asarray(t0, dtype=float).reshape(-1)
        eta = np.empty((t0.size, self.data.n))
        rho = np.empty((t0.size, self.basis.dim))
        for block in _target_blocks(t0.size):
            k, q = self._sections(t0[block])
            eta_block, rho_block = self._solver.solve(k.T, q.T)
            eta[block] = eta_block.T
            rho[block] = rho_block.T
        return eta, rho

    def predict_with_variance(self, t0) -> tuple[np.ndarray, np.ndarray]:
        """Predictions and prediction-error variances at ``t0``.

        The prediction is the dual expansion, as in :meth:`predict`.  The
        variance is ``phi(0) - v^T S^{-1} v`` for ``v = (k, q)``, evaluated
        in the null space as in Rasmussen & Williams, *Gaussian Processes
        for Machine Learning*, 2006, Algorithm 2.1: one triangular solve
        with the Cholesky factor ``L`` of the fit, ``n^2`` flops per target
        plus as many for its residual gate, and no primal solution.
        Targets go in blocks of ``_TARGET_BLOCK``, so temporaries stay a
        few ``n x _TARGET_BLOCK`` arrays.  Each block is gated twice: on
        the whitened solve's scaled residual, and by one bordered solve of
        the block's summed right-hand side, which fails if the factor no
        longer matches the Gram.  The variance's reading requires the noise
        interpretation of the nugget: observations are the process plus
        iid noise of variance ``nugget``, and the target is the noise-free
        process value.
        """
        shape = np.shape(t0)
        t0 = np.asarray(t0, dtype=float).reshape(-1)
        vals = np.empty(t0.size)
        var = np.empty(t0.size)
        for block in _target_blocks(t0.size):
            k, q = self._sections(t0[block])
            vals[block] = k @ self.kernel_coeffs + q @ self.drift_coeffs
            var[block] = self.covariance.phi0 - self._solver.quadratic(
                k.T, q.T)
        # Nonnegative in exact arithmetic; clamp rounding noise.
        np.maximum(var, 0.0, out=var)
        return vals.reshape(shape)[()], var.reshape(shape)[()]

    def unbiasedness_measure(self, t0: float) -> DiscreteMeasure:
        """The error functional as a measure: weights at the data angles and
        -1 at the target.  Allowable at the model order by construction."""
        eta, _ = self.weights([float(t0)])
        return DiscreteMeasure(
            np.concatenate([self.data.points, [float(t0)]]),
            np.concatenate([eta[0], [-1.0]]),
        )


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


class OrdinaryKrigingModel(UniversalKrigingModel):
    """Ordinary kriging from a semivariogram (order-1, no nugget).

    The weights solve ``Gamma eta + rho 1 = tau_vec`` with
    ``sum(eta) = 1``; the prediction is ``eta . y`` and its variance is
    ``eta . tau_vec + rho``.  Every allowable measure annihilates constants,
    so this is universal kriging on the covariance ``-tau``, as on
    ``c0 - tau`` for any admissible ``c0`` (Cressie 1993, sections
    3.2-3.4); only :meth:`weights` differs, to report the ordinary ``rho``.
    """

    def __init__(self, data: Dataset, semivariogram: Semivariogram):
        if not isinstance(semivariogram, Semivariogram):
            raise TypeError("semivariogram must be a Semivariogram")
        self.semivariogram = semivariogram
        cov = semivariogram.covariance
        # -tau(theta) = phi(theta) - phi(0): the constant drops by phi(0).
        super().__init__(data, cov.with_shift(cov.shift - cov.phi0), 0.0,
                         "trig")

    def weights(self, t0) -> tuple[np.ndarray, np.ndarray]:
        """Weights ``eta`` (rows sum to 1) and multipliers ``rho``, shape
        (len(t0),): the universal multiplier with the opposite sign."""
        eta, rho = super().weights(t0)
        return eta, -rho[:, 0]


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
