"""Spectral simulation on an equispaced circular grid, plus moment checks.

A realization of the truncated intrinsic process is

    Z(t) = sum_{n in support} (Z_nc cos nt + Z_ns sin nt),

with independent Gaussian coefficients of variance ``gamma_n``.  Optionally
a random or fixed polynomial from the drift space is added; allowable
measures of the model order annihilate it, so those functionals are
unaffected.  The Brownian bridge sampler provides the classical example of
a process that is stationary only through its order-1 increments.

Both samplers return one read-only ``(n_realizations, grid_size)`` array,
and the checks below take one.  Row ``i`` is realization ``i`` at the
angles ``2*pi*arange(G)/G``.  Each batch is drawn from one
``numpy.random.default_rng(seed)`` stream, filled row by row, so row ``i``
is the same for every batch of more than ``i`` realizations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, DiscreteMeasure, NilSpaceBasis, angular_distance
from .covariance import SpectralModel
from .errors import AliasingError, AllowabilityError
from .report import CheckResult, Report

__all__ = [
    "CoefficientSample",
    "CouplingMoments",
    "simulate_irf",
    "simulate_brownian_bridge",
    "empirical_coefficients",
    "check_translation_stationarity",
    "check_coefficient_coupling",
]

# Below this many realizations the stationarity test has no power and is
# reported as failed rather than run.
MIN_STATIONARITY_SAMPLES = 1000
# Tolerance (in grid steps) for matching requested angles to grid nodes.
_GRID_SNAP_TOL = 1.0e-9
# Real-FFT bins held at once while coefficients are recovered from a batch.
_SPECTRUM_ELEMENTS = 1 << 18


def _grid(grid_size: int) -> np.ndarray:
    if grid_size < 2:
        raise ValueError("grid needs at least 2 points")
    return TWO_PI * np.arange(grid_size) / grid_size


def _generator(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` for a non-negative integer
    ``seed``; ``ValueError`` for anything else, including the sequences
    ``default_rng`` would accept."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return np.random.default_rng(value)


def simulate_irf(model: SpectralModel, n_realizations: int, grid_size: int,
                 seed: int, low_order=None) -> np.ndarray:
    """Simulate the truncated process on an equispaced grid.

    Parameters
    ----------
    model : SpectralModel
        Spectral weights; every supported frequency must satisfy
        ``n <= (grid_size - 1) // 2`` or an ``AliasingError`` is raised.
    n_realizations : int
    grid_size : int
    seed : int
        A non-negative integer.  The batch takes ``2*F + 2*kappa - 1``
        draws of ``default_rng(seed)`` per realization, row by row: the
        ``F`` cosine coefficients, then the ``F`` sine coefficients, then
        the drift coefficients.  The drift draws are taken whether or not
        ``low_order`` uses them, so a random drift leaves the spectral
        draws where they are.
    low_order : None, array_like, or float
        Drift-space content.  ``None`` adds nothing; an array of length
        ``2*kappa - 1`` adds that fixed polynomial to every realization; a
        positive float draws iid N(0, low_order**2) drift coefficients per
        realization.

    Returns the read-only ``(n_realizations, grid_size)`` batch, made by one
    inverse real FFT of the paths' half-spectra in ``O(n G log G)``.
    """
    if n_realizations < 0:
        raise ValueError("n_realizations must be >= 0")
    grid = _grid(grid_size)
    limit = (grid_size - 1) // 2
    n_freq = model.support_end - model.kappa + 1
    if n_freq and model.support_end > limit:
        raise AliasingError(
            f"model carries frequency {model.support_end} but a grid of "
            f"size {grid_size} resolves only frequencies up to {limit}"
        )

    nil = NilSpaceBasis(model.kappa)
    fixed_drift = None
    drift_scale = None
    if low_order is not None:
        if np.ndim(low_order) == 0:
            drift_scale = float(low_order)
            if drift_scale < 0.0:
                raise ValueError("drift scale must be >= 0")
        else:
            coeffs = np.asarray(low_order, dtype=float)
            if coeffs.shape != (nil.dim,):
                raise ValueError(
                    f"fixed drift needs {nil.dim} coefficients for order "
                    f"{model.kappa}, got {coeffs.size}"
                )
            fixed_drift = nil.design_matrix(grid) @ coeffs

    z = _generator(seed).standard_normal(
        (int(n_realizations), 2 * n_freq + nil.dim))
    # Bin f of the half-spectrum holds (G/2)(a_f - i b_f), so the inverse
    # real FFT returns sum_f a_f cos(f t) + b_f sin(f t) on the grid.
    half = 0.5 * grid_size * np.sqrt(model.gammas())
    spectrum = np.zeros((z.shape[0], grid_size // 2 + 1), dtype=complex)
    band = spectrum[:, model.kappa:model.support_end + 1]
    band.real = z[:, :n_freq] * half
    band.imag = z[:, n_freq:2 * n_freq] * -half
    paths = np.fft.irfft(spectrum, grid_size, axis=1)
    if fixed_drift is not None:
        paths += fixed_drift
    elif drift_scale is not None:
        paths += (z[:, 2 * n_freq:] * drift_scale) @ nil.design_matrix(grid).T
    paths.flags.writeable = False
    return paths


def _bridge_factor(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``c_k`` and ``s_k / c_k`` for the interior nodes ``k = 1..G-1``.

    ``B(t) / (2*pi - t)`` is a Brownian motion in the time
    ``t / (2*pi - t)``, so with ``c_k = 2*pi - t_k`` and grid step ``h`` the
    Cholesky factor of the interior covariance is ``L[k, j] = c_k s_j / c_j``
    (``j <= k``), ``s_k = sqrt(2*pi*h*c_k / c_{k-1})``.
    """
    c = TWO_PI - _grid(grid_size)
    s = np.sqrt(TWO_PI * (TWO_PI / grid_size) * c[1:] / c[:-1])
    return c[1:], s / c[1:]


def simulate_brownian_bridge(grid_size: int, n_realizations: int,
                             seed: int) -> np.ndarray:
    """Sample the circular Brownian bridge on an equispaced grid.

    The covariance is ``2*pi*min(s, t) - s*t`` with the path pinned to zero
    at angle 0.  The batch is ``G`` draws of ``default_rng(seed)`` per
    path, row by row, taken straight into the output; path ``i`` is the
    Cholesky factor of the interior covariance times the last ``G - 1``
    draws of its row.  The bridge is Markov, so that product is one
    ``O(G)`` cumulative sum (Glasserman, *Monte Carlo Methods in Financial
    Engineering*, 2003, section 3.1).  Returns the read-only
    ``(n_realizations, grid_size)`` batch.
    """
    if n_realizations < 0:
        raise ValueError("n_realizations must be >= 0")
    c, step = _bridge_factor(grid_size)
    paths = _generator(seed).standard_normal(
        out=np.empty((int(n_realizations), grid_size)))
    paths[:, 0] = 0.0
    interior = paths[:, 1:]
    interior *= step
    np.cumsum(interior, axis=1, out=interior)
    interior *= c
    paths.flags.writeable = False
    return paths


@dataclass(frozen=True)
class CoefficientSample:
    """Empirical trigonometric coefficients of one realization.

    ``z0`` is the circular mean ``(1/2pi) integral Z``; ``cos_coeffs[i]``
    and ``sin_coeffs[i]`` estimate the coefficients at frequency ``i + 1``.
    """

    z0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray


def _coefficient_arrays(values: np.ndarray,
                        n_max: int) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Vectorized coefficient recovery for the rows of a 2-d ``values``.

    The rectangle rule on the periodic grid integrates products of
    harmonics exactly as long as all frequencies stay at or below
    ``(G - 1) // 2``.  Its sums are the real-FFT bins ``X_n`` of a row:
    ``(2/G) sum_k z_k cos(n t_k) = (2/G) Re X_n`` and the sine sum is
    ``-(2/G) Im X_n``.  Rows are transformed ``_SPECTRUM_ELEMENTS // G`` at
    a time, at least one, so the bins held never grow with the batch.
    """
    g = values.shape[-1]
    if n_max > (g - 1) // 2:
        raise AliasingError(
            f"cannot recover frequency {n_max} from a grid of size {g}; "
            f"the limit is {(g - 1) // 2}"
        )
    z0 = values.mean(axis=-1)
    cos_c = np.empty((values.shape[0], n_max))
    sin_c = np.empty_like(cos_c)
    step = max(1, _SPECTRUM_ELEMENTS // g)
    for start in range(0, values.shape[0], step):
        rows = slice(start, start + step)
        bins = np.fft.rfft(values[rows])[:, 1:n_max + 1]
        np.multiply(bins.real, 2.0 / g, out=cos_c[rows])
        np.multiply(bins.imag, -2.0 / g, out=sin_c[rows])
    return z0, cos_c, sin_c


def empirical_coefficients(path, n_max: int) -> CoefficientSample:
    """Recover mean and harmonic coefficients up to ``n_max`` from one path
    sampled at ``2*pi*arange(G)/G``."""
    values = np.asarray(path, dtype=float)
    if values.ndim != 1:
        raise ValueError("a path must be a 1-d array")
    z0, cos_c, sin_c = _coefficient_arrays(values[None, :], n_max)
    return CoefficientSample(float(z0[0]), cos_c[0], sin_c[0])


def _batch(paths) -> np.ndarray:
    """``paths`` as a non-empty ``(n_realizations, grid_size)`` array."""
    values = np.asarray(paths, dtype=float)
    if values.ndim != 2 or values.shape[0] == 0:
        raise ValueError("paths must be a non-empty (n_realizations, "
                         "grid_size) array")
    return values


def _snap_to_grid(angles: np.ndarray, grid_size: int, what: str) -> np.ndarray:
    """Map angles to grid indices; they must lie on the grid."""
    angles = np.asarray(angles, dtype=float)
    h = TWO_PI / grid_size
    idx = np.rint(angles / h)
    err = np.abs(angles - idx * h)
    if np.any(err > _GRID_SNAP_TOL):
        off = angles[np.argmax(err)]
        raise ValueError(
            f"{what} angle {float(off):.6g} does not lie on the "
            f"size-{grid_size} grid"
        )
    return idx.astype(int) % grid_size


def check_translation_stationarity(paths, measure: DiscreteMeasure,
                                   kappa: int, lags=None,
                                   tol_factor: float = 4.0,
                                   min_realizations: int =
                                   MIN_STATIONARITY_SAMPLES) -> Report:
    """Test that the aggregated process is translation stationary.

    ``paths`` holds one realization per row, sampled at
    ``2*pi*arange(G)/G`` for its width ``G``.  For an allowable measure
    ``lambda`` of order ``kappa`` the functional
    ``Y(t) = sum_i w_i Z(t_i + t)`` must have constant (zero) mean and a
    covariance depending only on the lag between shifts.  ``Y`` is
    evaluated at shift angles ``lags`` (grid-aligned; defaults to eight
    equispaced shifts), its mean is compared to zero, and covariances of
    shift pairs with equal angular separation are compared to each other.
    All comparisons are in units of their standard errors against
    ``tol_factor``.

    With ``kappa = 0`` the raw process itself is tested (no allowability
    requirement); this is the negative control for processes that are only
    intrinsically stationary.
    """
    values = _batch(paths)
    n_real, g = values.shape
    grid = _grid(g)
    if kappa >= 1 and not measure.is_allowable(kappa, tol=1.0e-8):
        raise AllowabilityError(
            f"measure is not allowable at order {kappa}; the stationarity "
            "claim only covers allowable measures"
        )
    atom_idx = _snap_to_grid(measure.locations, g, "measure atom")
    if lags is None:
        lag_idx = np.arange(8) * (g // 8) if g >= 8 else np.arange(g)
    else:
        lag_idx = _snap_to_grid(np.asarray(lags, dtype=float), g, "lag")
    lag_angles = grid[lag_idx]
    # Input errors raise above; an underpowered run is merely a failed check.
    if n_real < min_realizations:
        return Report([CheckResult(
            "stationarity-sample-size", float(n_real),
            float(min_realizations), False,
            "insufficient samples (pass needs statistic >= threshold)")])

    # Y[:, j] aggregates each realization under the measure shifted by lag j.
    agg = np.empty((n_real, lag_idx.size))
    for j, shift in enumerate(lag_idx):
        agg[:, j] = values[:, (atom_idx + shift) % g] @ measure.weights

    means = agg.mean(axis=0)
    sds = agg.std(axis=0, ddof=1)
    se = sds / np.sqrt(n_real)
    with np.errstate(divide="ignore", invalid="ignore"):
        z_mean = np.where(se > 0.0, np.abs(means) / se,
                          np.where(np.abs(means) > 0.0, np.inf, 0.0))
    stat_mean = float(np.max(z_mean))

    cov = np.cov(agg.T, ddof=1).reshape(lag_idx.size, lag_idx.size)
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2)
                     / n_real)

    # Group unordered shift pairs by their angular separation and compare
    # covariances within each group.
    groups: dict = {}
    for j in range(lag_idx.size):
        for k in range(j, lag_idx.size):
            key = round(float(angular_distance(lag_angles[j],
                                               lag_angles[k])), 9)
            groups.setdefault(key, []).append((j, k))
    stat_cov = 0.0
    n_compared = 0
    for pairs in groups.values():
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                ja, ka = pairs[a]
                jb, kb = pairs[b]
                pooled = np.hypot(cov_se[ja, ka], cov_se[jb, kb])
                if pooled == 0.0:
                    continue
                z = abs(cov[ja, ka] - cov[jb, kb]) / pooled
                stat_cov = max(stat_cov, float(z))
                n_compared += 1

    report = Report([
        CheckResult("stationary-zero-mean", stat_mean, float(tol_factor),
                    stat_mean <= tol_factor,
                    f"max |mean|/se over {lag_idx.size} shifts"),
        CheckResult("stationary-lag-covariance", stat_cov, float(tol_factor),
                    stat_cov <= tol_factor,
                    f"max z over {n_compared} equal-separation pairs"),
    ])
    report.context.update(means=means, covariances=cov,
                          lag_angles=lag_angles)
    return report


@dataclass(frozen=True)
class CouplingMoments:
    """Monte-Carlo second moments of empirical coefficients.

    Entry ``(i, j)`` of the matrices refers to frequencies ``i + 1`` and
    ``j + 1``; the ``*_se`` arrays hold the matching standard errors.
    """

    n_samples: int
    z0_sq: float
    z0_sq_se: float
    z0_cos: np.ndarray
    z0_cos_se: np.ndarray
    z0_sin: np.ndarray
    z0_sin_se: np.ndarray
    cos_cos: np.ndarray
    cos_cos_se: np.ndarray
    sin_sin: np.ndarray
    sin_sin_se: np.ndarray
    cos_sin: np.ndarray
    cos_sin_se: np.ndarray


def _mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = samples.shape[0]
    return (samples.mean(axis=0),
            samples.std(axis=0, ddof=1) / np.sqrt(n))


def check_coefficient_coupling(paths, n_max: int) -> CouplingMoments:
    """Sample cross-moments of the empirical coefficients up to ``n_max``.

    ``paths`` holds one realization per row, as the samplers return them.

    Usable standard errors need on the order of 1e4 realizations; the
    caller is expected to compare the moments against its model targets.
    """
    values = _batch(paths)
    z0, cos_c, sin_c = _coefficient_arrays(values, n_max)

    z0_sq, z0_sq_se = _mean_and_se(z0[:, None] ** 2)
    z0_cos, z0_cos_se = _mean_and_se(z0[:, None] * cos_c)
    z0_sin, z0_sin_se = _mean_and_se(z0[:, None] * sin_c)
    cos_cos, cos_cos_se = _mean_and_se(cos_c[:, :, None] * cos_c[:, None, :])
    sin_sin, sin_sin_se = _mean_and_se(sin_c[:, :, None] * sin_c[:, None, :])
    cos_sin, cos_sin_se = _mean_and_se(cos_c[:, :, None] * sin_c[:, None, :])
    return CouplingMoments(
        n_samples=values.shape[0],
        z0_sq=float(z0_sq[0]), z0_sq_se=float(z0_sq_se[0]),
        z0_cos=z0_cos, z0_cos_se=z0_cos_se,
        z0_sin=z0_sin, z0_sin_se=z0_sin_se,
        cos_cos=cos_cos, cos_cos_se=cos_cos_se,
        sin_sin=sin_sin, sin_sin_se=sin_sin_se,
        cos_sin=cos_sin, cos_sin_se=cos_sin_se,
    )
