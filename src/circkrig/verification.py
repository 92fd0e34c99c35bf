"""Randomized verification suites shared by the CLI and the test suite.

Each suite draws its own deterministic generator stream from a master seed,
runs a batch of randomized instances, and reports worst-case statistics as
:class:`~circkrig.report.CheckResult` records.  Monte-Carlo suites compare
sample moments against analytic targets in standard-error units and are
sized so a false failure is rare (< 1% per run at the default sizes).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import config as _config
from . import covariance as _covariance
from .circle import (
    TWO_PI,
    CardinalBasis,
    DiscreteMeasure,
    NilSpaceBasis,
    angular_distance,
    wrap,
)
from .covariance import (
    IntrinsicCovariance,
    Semivariogram,
    SpectralModel,
    phi_from_variogram,
    spline_covariance,
    spline_kernel,
)
from .kriging import (
    _TARGET_BLOCK,
    Dataset,
    fit_ordinary,
    fit_universal,
    trig_regression,
)
from .report import CheckResult, Report
from .rkhs import RkhsKernel, TruncatedFunction, full_inner_product
from .simulate import (
    check_coefficient_coupling,
    check_translation_stationarity,
    simulate_brownian_bridge,
    simulate_irf,
)

__all__ = [
    "random_allowable_measure",
    "measure_checks",
    "spline_checks",
    "kernel_checks",
    "primal_dual_checks",
    "smoothing_limit_checks",
    "ordinary_universal_checks",
    "bridge_moment_checks",
    "stationarity_checks",
    "run_verification",
    "SUITE_NAMES",
]


def random_allowable_measure(rng, kappa: int,
                             natoms: int) -> DiscreteMeasure:
    """Random measure annihilating every harmonic of frequency < kappa.

    Weights are the projection of a Gaussian vector onto the null space of
    the moment-constraint matrix at random atom angles, normalized to unit
    max weight.  Needs ``natoms >= 2*kappa`` so the null space is
    nontrivial.
    """
    if kappa < 1:
        raise ValueError("order must be >= 1")
    if natoms < 2 * kappa:
        raise ValueError(f"need at least {2 * kappa} atoms at order {kappa}")
    while True:
        loc = rng.uniform(0.0, TWO_PI, natoms)
        constraints = NilSpaceBasis(kappa).design_matrix(loc).T
        w = rng.standard_normal(natoms)
        _, sv, vt = np.linalg.svd(constraints, full_matrices=False)
        rank = int(np.sum(sv > sv[0] * 1.0e-12))
        w = w - vt[:rank].T @ (vt[:rank] @ w)
        peak = np.max(np.abs(w))
        if peak > 1.0e-6:
            return DiscreteMeasure(loc, w / peak)


def _random_points(rng, n: int, min_gap: float = 5.0e-3) -> np.ndarray:
    """Random distinct angles with a guaranteed circular separation."""
    while True:
        pts = np.sort(rng.uniform(0.0, TWO_PI, n))
        gaps = np.diff(pts, append=pts[0] + TWO_PI)
        if n == 1 or np.min(gaps) >= min_gap:
            return pts


def _jittered_points(rng, n: int, jitter: float = 0.3) -> np.ndarray:
    """Random angles keeping a healthy fraction of the average spacing.

    An equispaced grid with per-point jitter and a random rotation; every
    circular gap stays within ``1 +- 2*jitter`` grid steps.  Zero-nugget
    collocation systems on fully random points can reach condition numbers
    past 1e12 once two angles nearly coincide, which would drown the
    agreement checks in rounding noise rather than exercise the algebra.
    """
    h = TWO_PI / n
    pts = (np.arange(n) + rng.uniform(-jitter, jitter, n)) * h
    return np.sort((pts + rng.uniform(0.0, TWO_PI)) % TWO_PI)


def measure_checks(seed: int = 0, n_measures: int = 1000,
                   tol: float = 1.0e-8) -> Report:
    """Allowability invariants over random measures.

    Covers annihilation of the drift space, nesting of the allowable
    classes across orders, invariance of allowability under rotation, and
    rejection of measures that are not allowable.
    """
    rng = np.random.default_rng([seed, 101])
    fails = {"annihilation": 0, "nesting": 0, "translation": 0,
             "rejection": 0}
    worst_resid = 0.0
    for _ in range(int(n_measures)):
        kappa = int(rng.integers(1, 4))
        natoms = int(rng.integers(2 * kappa + 1, 2 * kappa + 8))
        lam = random_allowable_measure(rng, kappa, natoms)

        nil = NilSpaceBasis(kappa)
        design = nil.design_matrix(lam.locations)
        resid = float(np.max(np.abs(design.T @ lam.weights)))
        worst_resid = max(worst_resid, resid)
        if resid > tol or not lam.is_allowable(kappa, tol=tol):
            fails["annihilation"] += 1

        deeper = random_allowable_measure(rng, kappa + 1,
                                          int(rng.integers(2 * kappa + 2,
                                                           2 * kappa + 9)))
        if not (deeper.is_allowable(kappa + 1, tol=tol)
                and deeper.is_allowable(kappa, tol=tol)):
            fails["nesting"] += 1

        shift = float(rng.uniform(0.0, TWO_PI))
        if not lam.translate(shift).is_allowable(kappa, tol=tol):
            fails["translation"] += 1

        rough = DiscreteMeasure(rng.uniform(0.0, TWO_PI, natoms),
                                np.abs(rng.standard_normal(natoms)) + 0.5)
        if rough.is_allowable(kappa, tol=tol) or \
                rough.translate(shift).is_allowable(kappa, tol=tol):
            fails["rejection"] += 1

    def counted(name, n_bad, extra=""):
        return CheckResult(name, float(n_bad), 0.0, n_bad == 0,
                           extra or f"failures out of {n_measures}")

    return Report([
        counted("measure-annihilation", fails["annihilation"],
                f"worst residual {worst_resid:.3e} over "
                f"{n_measures} measures"),
        counted("measure-nesting", fails["nesting"]),
        counted("measure-translation-invariance", fails["translation"]),
        counted("measure-rejects-nonallowable", fails["rejection"]),
    ])


def spline_checks(seed: int = 0, n_lags: int = 200,
                  n_terms: int = 100_000) -> Report:
    """Closed spline kernels against their partial cosine series.

    The analytic truncation bound ``2 * N**(1-2m) / (2m - 1)`` limits the
    discrepancy, and the classical spot values pin the normalization.
    """
    rng = np.random.default_rng([seed, 110])
    lags = rng.uniform(0.0, TWO_PI, n_lags)
    orders = (1, 2)
    ld = np.longdouble
    lags_ld = lags.astype(ld)
    # Reference partial sums: the leading mass in extended precision (where
    # nearly all of it sits), the thin tail in float64, so each reference
    # is the true partial sum to well below 1e-15.  Each block of cosines
    # serves both orders.
    head = min(1000, n_terms)
    n_head = np.arange(1, head + 1, dtype=ld)
    cos_head = np.cos(np.multiply.outer(n_head, lags_ld))
    partial = {m: (ld(2.0) * n_head ** (-2 * m)) @ cos_head for m in orders}
    block = 10_000
    for start in range(head + 1, n_terms + 1, block):
        n = np.arange(start, min(start + block, n_terms + 1), dtype=float)
        cos_tail = np.cos(np.multiply.outer(n, lags))
        for m in orders:
            partial[m] = partial[m] + (2.0 * n ** (-2.0 * m)) @ cos_tail
    results = []
    for m in orders:
        closed = np.asarray(spline_kernel(m, lags, 0.0), dtype=ld)
        # Integral-comparison tail bound, floored at 1e-14 to leave room
        # for float64 rounding of the closed form itself.
        bound = max(2.0 * n_terms ** (1.0 - 2.0 * m) / (2.0 * m - 1.0),
                    1.0e-14)
        worst = float(np.max(np.abs(closed - partial[m])))
        results.append(CheckResult(
            f"spline-m{m}-series-agreement", worst, bound,
            worst <= bound, f"partial series with {n_terms} terms"))

    spots = [
        ("spline-m1-value-at-zero", spline_kernel(1, 0.0, 0.0),
         math.pi**2 / 3.0),
        ("spline-m1-value-at-pi", spline_kernel(1, math.pi, 0.0),
         -math.pi**2 / 6.0),
        ("spline-m2-value-at-zero", spline_kernel(2, 0.0, 0.0),
         math.pi**4 / 45.0),
    ]
    for name, got, want in spots:
        err = abs(float(got) - want)
        results.append(CheckResult(name, err, 1.0e-12, err <= 1.0e-12))
    return Report(results)


def _random_spectrum(rng, kappa: int, n_freq: int) -> SpectralModel:
    return SpectralModel.from_list(kappa, rng.uniform(0.1, 2.0, n_freq))


# Frequencies per block of the explicit-lag oracle below.
_ORACLE_CHUNK = 4096
# Models per kernel-suite run checked against the oracle.
_SERIES_MODELS = 8


def _series_oracle(model: SpectralModel, lag: np.ndarray) -> np.ndarray:
    """Series ``sum_n gamma_n cos(n * lag)`` evaluated lag by lag.

    The reference for the factored evaluation in ``IntrinsicCovariance``:
    it forms one cosine per lag and frequency, with a temporary of
    ``_ORACLE_CHUNK`` times the number of lags, so it is meant for
    verification-sized inputs only.
    """
    flat = np.ravel(lag)
    out = np.zeros(flat.size)
    freqs = model.frequencies()
    gams = model.gammas()
    for start in range(0, freqs.size, _ORACLE_CHUNK):
        f = freqs[start:start + _ORACLE_CHUNK]
        g = gams[start:start + _ORACLE_CHUNK]
        out += g @ np.cos(np.multiply.outer(f.astype(float), flat))
    return out.reshape(np.shape(lag))


def _series_model(rng, kappa: int, index: int) -> SpectralModel:
    """Alternately a list of up to ~2000 weights and a power law cut off at
    up to 10**4, both with log-uniform sizes."""
    if index % 2 == 0:
        n_freq = int(np.exp(rng.uniform(math.log(2.0), math.log(2000.0))))
        return _random_spectrum(rng, kappa, n_freq)
    n_max = int(np.exp(rng.uniform(math.log(kappa + 1.0),
                                   math.log(10_000.0))))
    return SpectralModel.power_law(kappa, float(rng.uniform(0.5, 2.0)),
                                   float(rng.uniform(1.5, 4.0)), n_max=n_max)


def _series_rounding_bound(model: SpectralModel) -> float:
    """Rounding allowance shared by every float64 evaluation of the series.

    At a canonical lag below ``2*pi`` the argument ``n * lag`` carries an
    absolute error near ``eps * 2*pi * n``, which moves term ``n`` by up to
    ``gamma_n`` times that; summation adds about ``eps`` times the mass.
    The bound is 16 times ``eps * (2*pi * sum_n n gamma_n + sum_n gamma_n)``.
    """
    n = model.frequencies().astype(float)
    g = model.gammas()
    eps = np.finfo(float).eps
    return float(16.0 * eps * (TWO_PI * (n @ g) + g.sum()))


def _series_agreement(rng, n_models: int) -> float:
    """Worst gap between the factored covariance and the oracle, in units
    of :func:`_series_rounding_bound`.

    Each model carries a shift of up to its own mass and is evaluated on
    angles in [-20, 20]: a cross Gram, a symmetric Gram and a lag list.
    """
    worst = 0.0
    for i in range(n_models):
        model = _series_model(rng, int(rng.integers(1, 4)), i)
        shift = float(rng.uniform(-1.0, 1.0)) * model.total_mass()
        cov = IntrinsicCovariance(model, shift=shift)
        x, y, lags = (rng.uniform(-20.0, 20.0, int(rng.integers(1, size)))
                      for size in (25, 25, 50))

        def oracle(lag):
            return _series_oracle(model, wrap(lag)) + shift

        gap = max(
            float(np.max(np.abs(cov.gram(x, y)
                                - oracle(np.subtract.outer(x, y))))),
            float(np.max(np.abs(cov.gram(x)
                                - oracle(np.subtract.outer(x, x))))),
            float(np.max(np.abs(cov(lags) - oracle(lags)))),
        )
        worst = max(worst, gap / _series_rounding_bound(model))
    return worst


def _injected_covariance(rng, kappa: int, n_freq: int) -> IntrinsicCovariance:
    """A covariance whose series has one negative weight (for negative
    controls); validation is bypassed through the closed-form hook."""
    gams = rng.uniform(0.1, 2.0, n_freq)
    bad = gams.copy()
    bad[int(rng.integers(0, n_freq))] *= -1.0
    freqs = np.arange(kappa, kappa + n_freq, dtype=float)

    def series(d):
        d = np.asarray(d, dtype=float)
        return np.tensordot(bad, np.cos(np.multiply.outer(freqs, d)),
                            axes=(0, 0))

    return IntrinsicCovariance(SpectralModel.from_list(kappa, gams),
                               closed_form=series)


def _wrap_oracle(theta):
    """:func:`~circkrig.circle.wrap` as a floor-division remainder:
    ``np.mod``, then 0 where a tiny negative rounded up to the period."""
    r = np.mod(theta, TWO_PI)
    return np.where(r >= TWO_PI, 0.0, r)[()]


def _closed_form_oracle(m: int, x: np.ndarray, y: np.ndarray,
                        shift: float) -> np.ndarray:
    """Spline-m Gram ``shift + phi(x_i - y_j)`` from the wrapped explicit
    lag matrix, one new array per arithmetic step."""
    d = _wrap_oracle(np.subtract.outer(x, y))
    if m == 1:
        vals = np.pi**2 / 3.0 - d * (TWO_PI - d) / 2.0
    else:
        vals = np.pi**4 / 45.0 - (d * (TWO_PI - d)) ** 2 / 24.0
    return vals + shift


# Canonical angles at the edges of [0, 2*pi): differences of 0 with the
# tiny ones are negatives that round up to the period once 2*pi is added.
_EDGE_POINTS = (0.0, 5.0e-324, 1.0e-300, 1.0e-17, 1.0,
                math.nextafter(1.0, 2.0), math.pi,
                math.nextafter(TWO_PI, 0.0))


def _edge_angles() -> np.ndarray:
    """Angles where a remainder is easy to get wrong: signed zeros and
    tiny values, multiples of the period and their neighbours, huge
    values, NaN and infinities."""
    k = TWO_PI * np.arange(1.0, 4.0)
    near = [math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, 7.0)]
    pos = np.concatenate([[0.0, 5.0e-324, 1.0e-300, 1.0e-17, 1.0e300,
                           np.inf], k, near])
    return np.concatenate([pos, -pos, [np.nan]])


def _bit_differences(a, b) -> int:
    """Entries whose float64 bit patterns differ; two NaNs agree."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != b.shape:
        return max(a.size, b.size)
    differ = a.view(np.uint64) != b.view(np.uint64)
    return int(np.count_nonzero(differ & ~(np.isnan(a) & np.isnan(b))))


def _closed_form_agreement(rng, n_sets: int) -> int:
    """Entries that differ bit for bit from the oracles, over ``n_sets``
    random canonical point sets (each with :data:`_EDGE_POINTS`) against an
    equispaced prediction grid.

    Each set compares, for m = 1 and 2 and a shifted copy, the symmetric
    Gram and the grid-by-data sections with :func:`_closed_form_oracle`;
    the lag matrices with the wrapped explicit differences; and ``wrap``
    on random angles in [-50, 50] plus :func:`_edge_angles` with
    :func:`_wrap_oracle`.
    """
    differing = 0
    with np.errstate(invalid="ignore"):
        angles = np.concatenate([_edge_angles(),
                                 rng.uniform(-50.0, 50.0, 1000)])
        differing += _bit_differences(wrap(angles), _wrap_oracle(angles))
    for _ in range(int(n_sets)):
        x = np.concatenate([_EDGE_POINTS,
                            rng.uniform(0.0, TWO_PI,
                                        int(rng.integers(10, 200)))])
        size = int(rng.integers(16, 512))
        grid = TWO_PI * np.arange(size) / size
        for t in (x, grid):
            differing += _bit_differences(
                _covariance._canonical_lags(t[:, None], x),
                _wrap_oracle(np.subtract.outer(t, x)))
        shift = float(rng.uniform(-5.0, 5.0))
        for m in (1, 2):
            for s in (0.0, shift):
                cov = spline_covariance(m).with_shift(s)
                differing += _bit_differences(
                    cov.gram(x), _closed_form_oracle(m, x, x, s))
                differing += _bit_differences(
                    cov.gram(grid, x), _closed_form_oracle(m, grid, x, s))
    return differing


# Point sets per kernel-suite run in the closed-form agreement check.
_CLOSED_FORM_SETS = 8


def kernel_checks(seed: int = 0, n_sets: int = 50, max_points: int = 40,
                  negative_gamma: bool = False) -> Report:
    """Positive semidefiniteness, the reproducing property, and agreement
    of the series and closed-form covariances with their explicit-lag
    oracles.

    Random finite-spectrum models of orders 1..3 are evaluated on random
    point sets; Gram eigenvalues must not dip below ``-1e-10`` times the
    largest, and pairing a kernel section with a random in-space function
    must return its point value to 1e-9.  Over ``_SERIES_MODELS`` further
    models, lists of up to ~2000 weights and power laws cut off at up to
    10**4, ``IntrinsicCovariance.gram`` and evaluation at lags must match
    :func:`_series_oracle` within :func:`_series_rounding_bound`.  The
    closed-form spline Grams and sections, their lag matrices and ``wrap``
    must match the explicit-lag oracles bit for bit on canonical points
    (:func:`_closed_form_agreement`).

    ``negative_gamma`` flips one spectral weight negative (the model
    constructor forbids this, so the bad series enters through the
    closed-form hook); the semidefiniteness check is then expected to fail.
    """
    rng = np.random.default_rng([seed, 202])
    worst_eig = 0.0
    worst_reprod = 0.0
    for _ in range(int(n_sets)):
        kappa = int(rng.integers(1, 4))
        n_freq = int(rng.integers(2, 9))
        if negative_gamma:
            cov = _injected_covariance(rng, kappa, n_freq)
        else:
            cov = IntrinsicCovariance(_random_spectrum(rng, kappa, n_freq))
        kernel = RkhsKernel(cov)
        n_pts = int(rng.integers(2 * kappa + 1, max_points + 1))
        pts = _random_points(rng, n_pts)
        gram = kernel.gram(pts)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        worst_eig = max(worst_eig, float(-eigs[0] / eigs[-1]))

        model = cov.model
        deg = model.support_end
        cos_c = np.zeros(deg)
        sin_c = np.zeros(deg)
        cos_c[:kappa - 1] = rng.standard_normal(kappa - 1)
        sin_c[:kappa - 1] = rng.standard_normal(kappa - 1)
        cos_c[kappa - 1:] = rng.standard_normal(deg - kappa + 1)
        sin_c[kappa - 1:] = rng.standard_normal(deg - kappa + 1)
        f = TruncatedFunction(float(rng.standard_normal()), cos_c, sin_c)
        x0 = float(rng.uniform(0.0, TWO_PI))
        ip = full_inner_product(kernel.section(x0), f, kernel)
        err = abs(ip - float(f(x0))) / max(1.0, abs(float(f(x0))))
        worst_reprod = max(worst_reprod, err)
    worst_series = _series_agreement(rng, _SERIES_MODELS)
    # A stream of its own, so the draws of the checks above do not move.
    differing = _closed_form_agreement(np.random.default_rng([seed, 203]),
                                       _CLOSED_FORM_SETS)

    return Report([
        CheckResult("kernel-positive-semidefinite", worst_eig, 1.0e-10,
                    worst_eig <= 1.0e-10,
                    f"worst -min/max eigenvalue ratio over {n_sets} Grams"),
        CheckResult("kernel-reproducing", worst_reprod, 1.0e-9,
                    worst_reprod <= 1.0e-9,
                    "worst |<H(x,.), f> - f(x)| over random sections"),
        CheckResult("gram-series-agreement", worst_series, 1.0,
                    worst_series <= 1.0,
                    "worst gap to the explicit-lag series over "
                    f"{_SERIES_MODELS} models, in units of the rounding "
                    "bound"),
        CheckResult("closed-form-gram-agreement", differing, 0.0,
                    differing == 0,
                    "entries of spline Grams, sections, lag matrices and "
                    "wrapped angles that differ bit for bit from the "
                    "np.mod wrap and the explicit-lag closed form, over "
                    f"{_CLOSED_FORM_SETS} canonical point sets"),
    ])


def _rich_spectrum(rng, kappa: int, n: int, extra_low: int = 2,
                   extra_high: int = 6) -> SpectralModel:
    """Finite spectrum wide enough to keep the no-nugget system regular.

    Solvability of the bordered system at zero nugget needs the harmonic
    evaluations plus drift to span: 2*n_freq + (2*kappa - 1) >= n.  The
    extra frequencies and the 0.4 weight floor buy conditioning headroom
    on top of bare solvability.
    """
    needed = max(1, math.ceil((n - (2 * kappa - 1)) / 2))
    n_freq = needed + int(rng.integers(extra_low, extra_high))
    return SpectralModel.from_list(kappa, rng.uniform(0.4, 2.0, n_freq))


def _unbiasedness_residual(model, t0s, kappa: int) -> float:
    worst = 0.0
    for t0 in np.atleast_1d(t0s):
        lam = model.unbiasedness_measure(float(t0))
        for k in range(kappa):
            c, s = lam.moments(k)
            worst = max(worst, abs(c), abs(s))
    return worst


# Bound of the solver-agreement check, in units of eps * cond * |x| with
# the 2-norm condition number of the bordered matrix.  Both solvers are
# backward stable: over 6000 instances of this suite (seeds 0-59) their
# normwise backward errors stayed below 2.4 eps.  A backward error eta moves
# a solution by at most about 2 cond eta relative to its size, so two
# solutions may differ by about 2 * 2 cond (2.5 eps) = 10 eps cond.  The
# worst gap measured over those instances was 1.5 eps cond.
_SOLVER_AGREEMENT = 10.0


def _bordered_oracle(matrix: np.ndarray, drift: np.ndarray, b: np.ndarray,
                     c: np.ndarray):
    """Dense solve of ``[A Q; Q^T 0] [x; y] = [b; c]``: Bunch-Kaufman
    factorization of the whole bordered matrix, then one pass of iterative
    refinement.

    The reference for the null-space Cholesky solver in
    :mod:`circkrig.kriging`; returns ``x``, ``y`` and the 2-norm condition
    number of the bordered matrix.
    """
    # Imported here, like the solver's own binding in circkrig.kriging, so
    # that importing circkrig loads no scipy.
    from scipy.linalg import lapack

    n, l = drift.shape
    bordered = np.zeros((n + l, n + l))
    bordered[:n, :n] = matrix
    bordered[:n, n:] = drift
    bordered[n:, :n] = drift.T
    rhs = np.vstack([b, c])
    ldu, ipiv, info = lapack.dsytrf(bordered, lower=1)
    if info != 0:
        raise ValueError(f"dsytrf failed with code {info}")
    sol, _ = lapack.dsytrs(ldu, ipiv, rhs, lower=1)
    step, _ = lapack.dsytrs(ldu, ipiv, rhs - bordered @ sol, lower=1)
    sol = sol + step
    return sol[:n], sol[n:], float(np.linalg.cond(bordered))


def _primal_variance_oracle(model, t0) -> np.ndarray:
    """Kriging variances ``phi0 - eta.k - rho.q`` read off one primal solve
    with every target as a column, clamped at 0.

    The reference for the whitened solve of
    :meth:`~circkrig.kriging.UniversalKrigingModel.predict_with_variance`:
    a full ``dpotrs`` solve and back-transform instead of one triangular
    solve, over all targets at once instead of in blocks.
    """
    k, q = model._sections(t0)
    eta, rho = model._solver.solve(k.T, q.T)
    var = (model.covariance.phi0 - np.einsum("mn,nm->m", k, eta)
           - np.einsum("ml,lm->m", q, rho))
    return np.maximum(var, 0.0)


# Instances of the whitened-variance-agreement check: spline m = 1, 2 and
# finite spectra of orders 1-3, each at nuggets 0 and 0.1.
_WHITENED_INSTANCES = 8


def _whitened_variance_agreement(rng) -> float:
    """Worst gap between ``predict_with_variance`` and
    :func:`_primal_variance_oracle`, relative to ``max(1, phi0)``, at
    ``2 * _TARGET_BLOCK + 1`` targets so that blocks of every kind occur."""
    worst = 0.0
    for i in range(_WHITENED_INSTANCES):
        nugget = (0.0, 0.1)[i % 2]
        n = int(rng.integers(40, 121))
        if i < 4:
            covariance = spline_covariance(1 + i // 2)
        else:
            covariance = IntrinsicCovariance(
                _rich_spectrum(rng, int(rng.integers(1, 4)), n))
        fit = fit_universal(
            Dataset(_jittered_points(rng, n), rng.standard_normal(n)),
            covariance, nugget)
        t0s = rng.uniform(0.0, TWO_PI, 2 * _TARGET_BLOCK + 1)
        _, var = fit.predict_with_variance(t0s)
        gap = np.max(np.abs(var - _primal_variance_oracle(fit, t0s)))
        worst = max(worst, float(gap) / max(1.0, covariance.phi0))
    return worst


def primal_dual_checks(seed: int = 0, n_instances: int = 100,
                       n_query: int = 20) -> Report:
    """Dual and primal prediction paths agree instance by instance.

    Random instances over orders 1..3, data sizes up to 30, and nuggets
    {0, 0.1, 1}; also checks orthogonality of the dual data coefficients to
    the drift, unbiasedness of the primal weights, and the kriging variance
    of ``predict_with_variance`` against the quadratic form
    ``eta.(Psi + nugget*I).eta - 2 eta.k + phi0`` with ``Psi`` rebuilt from
    the covariance (bound 1e-9 relative to ``max(1, phi0)``).  The fitted
    dual coefficients and the primal weights must also match
    :func:`_bordered_oracle`, a dense Bunch-Kaufman solve of the bordered
    system, within ``_SOLVER_AGREEMENT`` times ``eps * cond``.  Separately,
    on spline and finite-spectrum fits with up to 120 points, the variances
    over ``2 * _TARGET_BLOCK + 1`` targets must match
    :func:`_primal_variance_oracle` within the same 1e-9 bound.
    """
    rng = np.random.default_rng([seed, 303])
    sigmas = [0.0, 0.1, 1.0]
    worst_rel = 0.0
    worst_orth = 0.0
    worst_moment = 0.0
    worst_var = 0.0
    worst_solve = 0.0
    for i in range(int(n_instances)):
        kappa = int(rng.integers(1, 4))
        dim = 2 * kappa - 1
        n = int(rng.integers(dim, 31))
        nugget = sigmas[i % 3]
        model = _rich_spectrum(rng, kappa, n)
        pts = _jittered_points(rng, n)
        y = rng.standard_normal(n)
        fit = fit_universal(Dataset(pts, y), model, nugget)
        t0s = rng.uniform(0.0, TWO_PI, n_query)

        dual = np.atleast_1d(fit.predict(t0s))
        eta, rho = fit.weights(t0s)
        primal = eta @ y
        scale = max(1.0, float(np.max(np.abs(y))))
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(dual - primal))) / scale)
        worst_orth = max(worst_orth, float(np.max(np.abs(
            fit.basis.design_matrix(pts).T @ fit.kernel_coeffs))))
        worst_moment = max(worst_moment,
                           _unbiasedness_residual(fit, t0s, kappa))

        cov = IntrinsicCovariance(model)
        psi = cov.gram(fit.data.points) + nugget * np.eye(n)
        k = cov.gram(t0s, fit.data.points)
        quad = np.einsum("mi,ij,mj->m", eta, psi, eta)
        cross = np.einsum("mi,mi->m", eta, k)
        oracle = np.maximum(quad - 2.0 * cross + cov.phi0, 0.0)
        _, var = fit.predict_with_variance(t0s)
        worst_var = max(worst_var, float(np.max(np.abs(var - oracle)))
                        / max(1.0, cov.phi0))

        # The dual solve and the primal solves, column by column.
        want_x, want_y, cond = _bordered_oracle(
            psi, fit.basis.design_matrix(fit.data.points),
            np.column_stack([y, k.T]),
            np.column_stack([np.zeros(dim), fit.basis.design_matrix(t0s).T]))
        got_x = np.column_stack([fit.kernel_coeffs, eta.T])
        got_y = np.column_stack([fit.drift_coeffs, rho.T])
        gap = np.hypot(np.linalg.norm(got_x - want_x, axis=0),
                       np.linalg.norm(got_y - want_y, axis=0))
        size = np.hypot(np.linalg.norm(want_x, axis=0),
                        np.linalg.norm(want_y, axis=0))
        worst_solve = max(worst_solve, float(np.max(
            gap / (np.finfo(float).eps * cond * size))))
    worst_whitened = _whitened_variance_agreement(
        np.random.default_rng([seed, 313]))

    return Report([
        CheckResult("primal-dual-agreement", worst_rel, 1.0e-9,
                    worst_rel <= 1.0e-9,
                    f"worst relative gap over {n_instances} instances"),
        CheckResult("dual-drift-orthogonality", worst_orth, 1.0e-8,
                    worst_orth <= 1.0e-8),
        CheckResult("unbiasedness-universal", worst_moment, 1.0e-8,
                    worst_moment <= 1.0e-8,
                    "worst low-order moment of the error measures"),
        CheckResult("kriging-variance-agreement", worst_var, 1.0e-9,
                    worst_var <= 1.0e-9,
                    "against the quadratic form in the primal weights"),
        CheckResult("whitened-variance-agreement", worst_whitened, 1.0e-9,
                    worst_whitened <= 1.0e-9,
                    "worst gap to the variance read off the primal solve, "
                    f"over {_WHITENED_INSTANCES} fits"),
        CheckResult("solver-agreement", worst_solve, _SOLVER_AGREEMENT,
                    worst_solve <= _SOLVER_AGREEMENT,
                    "worst gap to the dense bordered solve, in units of "
                    "eps * cond(bordered) * |solution|"),
    ])


def _gaps_shrink(gaps, scale: float) -> bool:
    """Whether each gap is at most the one before it, up to rounding.

    A relative slack of 1e-9 and an absolute floor of 1e-12 times the data
    scale.  At ``n == 2*kappa - 1`` universal kriging is trigonometric
    regression exactly, so every gap is rounding noise (at most ~5e-15 of
    the scale) in no particular order; genuine gaps with ``n`` above the
    drift dimension start near 1e-7.
    """
    floor = 1.0e-12 * scale
    return all(a >= b * (1.0 - 1.0e-9) - floor
               for a, b in zip(gaps, gaps[1:]))


def smoothing_limit_checks(seed: int = 0, n_instances: int = 20,
                           n_query: int = 20) -> Report:
    """Exact interpolation at zero nugget and the heavy-smoothing limit.

    At nugget 0 the fit interpolates the data; as the nugget grows through
    {1e2, 1e4, 1e6} the predictor approaches plain trigonometric
    regression monotonically, landing within 1e-3 of it (relative to the
    data scale) at 1e6.
    """
    rng = np.random.default_rng([seed, 404])
    worst_interp = 0.0
    worst_limit = 0.0
    monotone_breaks = 0
    worst_moment = 0.0
    for _ in range(int(n_instances)):
        kappa = int(rng.integers(1, 4))
        dim = 2 * kappa - 1
        n = int(rng.integers(max(dim, 4), 25))
        model = _rich_spectrum(rng, kappa, n)
        pts = _jittered_points(rng, n)
        y = rng.standard_normal(n)
        data = Dataset(pts, y)
        scale = max(1.0, float(np.max(np.abs(y))))

        exact = fit_universal(data, model, 0.0)
        worst_interp = max(worst_interp, float(np.max(np.abs(
            np.atleast_1d(exact.predict(pts)) - y))) / scale)

        coeffs = trig_regression(data, kappa)
        reg_at_pts = NilSpaceBasis(kappa).design_matrix(pts) @ coeffs
        gaps = []
        for nugget in (1.0e2, 1.0e4, 1.0e6):
            fit = fit_universal(data, model, nugget)
            gaps.append(float(np.max(np.abs(
                np.atleast_1d(fit.predict(pts)) - reg_at_pts))))
            if nugget == 1.0e6:
                t0s = rng.uniform(0.0, TWO_PI, n_query)
                worst_moment = max(worst_moment, _unbiasedness_residual(
                    fit, t0s, kappa))
        if not _gaps_shrink(gaps, scale):
            monotone_breaks += 1
        worst_limit = max(worst_limit, gaps[2] / scale)

    return Report([
        CheckResult("exact-interpolation", worst_interp, 1.0e-8,
                    worst_interp <= 1.0e-8,
                    "zero-nugget fits, relative to data scale"),
        CheckResult("smoothing-limit", worst_limit, 1.0e-3,
                    worst_limit <= 1.0e-3,
                    "distance to trig regression at nugget 1e6"),
        CheckResult("smoothing-monotone", float(monotone_breaks), 0.0,
                    monotone_breaks == 0,
                    "instances where the gap failed to shrink"),
        CheckResult("unbiasedness-smoothing", worst_moment, 1.0e-8,
                    worst_moment <= 1.0e-8),
    ])


def _ordinary_oracle(model, t0) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary kriging predictions ``eta.y`` and variances
    ``eta.tau + rho`` (clamped at 0) from the primal system
    ``Gamma eta + rho 1 = tau``, ``sum(eta) = 1``, built from the
    semivariogram lag by lag and solved by :func:`_bordered_oracle`."""
    pts = model.data.points
    t0 = np.atleast_1d(np.asarray(t0, dtype=float))
    tau = model.semivariogram(np.subtract.outer(t0, pts))
    neg_gamma = np.negative(model.semivariogram(np.subtract.outer(pts, pts)))
    # (-Gamma) eta + 1 (-rho) = -tau, 1^T eta = 1.
    eta, neg_rho, _ = _bordered_oracle(neg_gamma, np.ones((pts.size, 1)),
                                       -tau.T, np.ones((1, t0.size)))
    var = np.einsum("mn,nm->m", tau, eta) - neg_rho[0]
    return eta.T @ model.data.values, np.maximum(var, 0.0)


def ordinary_universal_checks(seed: int = 0, n_instances: int = 50,
                              n_query: int = 20) -> Report:
    """Ordinary kriging equals universal kriging on the matched covariance.

    Order-1 instances: the variogram path (covariance ``c0 - tau``) and
    the ordinary model (the universal path on ``-tau``) must agree in
    prediction and variance, both must be invariant under ``c0 -> c0 + 9``,
    and the ordinary model must match :func:`_ordinary_oracle`, the dense
    primal solve.
    """
    rng = np.random.default_rng([seed, 505])
    worst_pred = 0.0
    worst_var = 0.0
    worst_shift = 0.0
    worst_moment = 0.0
    worst_primal = 0.0
    for _ in range(int(n_instances)):
        n = int(rng.integers(2, 15))
        model = _rich_spectrum(rng, 1, n)
        cov = IntrinsicCovariance(model)
        pts = _jittered_points(rng, n)
        y = rng.standard_normal(n)
        data = Dataset(pts, y)
        scale = max(1.0, float(np.max(np.abs(y))))
        t0s = rng.uniform(0.0, TWO_PI, n_query)

        base_sv = Semivariogram(cov, c0=cov.phi0)
        ok = fit_ordinary(data, base_sv)
        uk = fit_universal(data, phi_from_variogram(base_sv), 0.0)
        ok_v, ok_s2 = ok.predict_with_variance(t0s)
        uk_v, uk_s2 = uk.predict_with_variance(t0s)
        worst_pred = max(worst_pred,
                         float(np.max(np.abs(ok_v - uk_v))) / scale)
        var_scale = max(1.0, cov.phi0)
        worst_var = max(worst_var,
                        float(np.max(np.abs(ok_s2 - uk_s2))) / var_scale)

        shifted_sv = Semivariogram(cov, c0=cov.phi0 + 9.0)
        uk9 = fit_universal(data, phi_from_variogram(shifted_sv), 0.0)
        uk9_v, uk9_s2 = uk9.predict_with_variance(t0s)
        ok9_v, ok9_s2 = fit_ordinary(data, shifted_sv).predict_with_variance(
            t0s)
        worst_shift = max(
            worst_shift,
            float(np.max(np.abs(uk9_v - uk_v))) / scale,
            float(np.max(np.abs(uk9_s2 - uk_s2))) / var_scale,
            float(np.max(np.abs(ok9_v - ok_v))) / scale,
            float(np.max(np.abs(ok9_s2 - ok_s2))) / var_scale,
        )
        worst_moment = max(worst_moment,
                           _unbiasedness_residual(ok, t0s, 1))
        want_v, want_s2 = _ordinary_oracle(ok, t0s)
        worst_primal = max(worst_primal,
                           float(np.max(np.abs(ok_v - want_v))) / scale,
                           float(np.max(np.abs(ok_s2 - want_s2))) / var_scale)

    return Report([
        CheckResult("ordinary-universal-prediction", worst_pred, 1.0e-9,
                    worst_pred <= 1.0e-9,
                    f"worst relative gap over {n_instances} instances"),
        CheckResult("ordinary-universal-variance", worst_var, 1.0e-9,
                    worst_var <= 1.0e-9),
        CheckResult("variogram-shift-invariance", worst_shift, 1.0e-9,
                    worst_shift <= 1.0e-9,
                    "predictions and variances under c0 -> c0 + 9"),
        CheckResult("unbiasedness-ordinary", worst_moment, 1.0e-8,
                    worst_moment <= 1.0e-8),
        CheckResult("ordinary-primal-agreement", worst_primal, 1.0e-9,
                    worst_primal <= 1.0e-9,
                    "against the dense primal solve"),
    ])


def _simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule along the last axis, on an even number of
    panels of width ``h``."""
    return (h / 3.0) * (values[..., 0] + values[..., -1]
                        + 4.0 * values[..., 1:-1:2].sum(axis=-1)
                        + 2.0 * values[..., 2:-1:2].sum(axis=-1))


def _bridge_mean_variance_oracle(panels: int = 400) -> float:
    """Quadrature value of the variance of the circular mean of the bridge
    (``pi**2 / 3`` in closed form)."""
    grid = np.linspace(0.0, TWO_PI, panels + 1)
    kern = (TWO_PI * np.minimum.outer(grid, grid) - np.outer(grid, grid))
    h = TWO_PI / panels
    return float(_simpson(_simpson(kern, h), h) / (4.0 * np.pi**2))


def _irf_oracle(model: SpectralModel, n_realizations: int, grid_size: int,
                seed: int, low_order=None) -> np.ndarray:
    """:func:`simulate_irf`'s paths by explicit synthesis.

    Builds the ``F x G`` cosine and sine matrices and sums the coefficients
    of each path against them; meant for verification-sized grids only.
    The draws are its own, ``2F + 2*kappa - 1`` per path from
    ``default_rng(seed)``, so the check pins the sampler's draw layout as
    well as its synthesis.
    """
    grid = TWO_PI * np.arange(grid_size) / grid_size
    freqs = model.frequencies().astype(float)
    sd = np.sqrt(model.gammas())
    cos_t = np.cos(np.multiply.outer(freqs, grid))
    sin_t = np.sin(np.multiply.outer(freqs, grid))
    design = NilSpaceBasis(model.kappa).design_matrix(grid)
    z = np.random.default_rng(seed).standard_normal(
        (n_realizations, 2 * freqs.size + design.shape[1]))
    out = np.empty((n_realizations, grid_size))
    for i in range(n_realizations):
        coeff = z[i, :2 * freqs.size].reshape(2, freqs.size) * sd
        out[i] = coeff[0] @ cos_t + coeff[1] @ sin_t
        if low_order is None:
            continue
        if np.ndim(low_order) == 0:
            drift = z[i, 2 * freqs.size:] * low_order
        else:
            drift = np.asarray(low_order, dtype=float)
        out[i] += design @ drift
    return out


def _bridge_oracle(grid_size: int, n_realizations: int,
                   seed: int) -> np.ndarray:
    """:func:`simulate_brownian_bridge`'s paths from a dense Cholesky
    factor of the interior covariance ``2*pi*min(s, t) - s*t``, applied to
    columns ``1..G-1`` of its own ``(n, G)`` draws from ``default_rng(seed)``.

    ``O(G^3)`` time and ``O(G^2)`` memory; meant for verification-sized
    grids only.
    """
    interior = TWO_PI * np.arange(1, grid_size) / grid_size
    chol = np.linalg.cholesky(TWO_PI * np.minimum.outer(interior, interior)
                              - np.outer(interior, interior))
    draws = np.random.default_rng(seed).standard_normal(
        (n_realizations, grid_size))
    out = np.zeros((n_realizations, grid_size))
    for i in range(n_realizations):
        out[i, 1:] = chol @ draws[i, 1:]
    return out


# Grids per stationarity-suite run on which both samplers meet their
# oracles; the first is always the largest, 1024 points.
_SYNTHESIS_GRIDS = 6
_SYNTHESIS_MAX_GRID = 1024


def _synthesis_gap(paths: np.ndarray, oracle: np.ndarray) -> float:
    """``max |paths - oracle|`` in units of
    ``16 eps G max(1, max |oracle|)``."""
    eps = np.finfo(float).eps
    scale = max(1.0, float(np.max(np.abs(oracle))))
    bound = 16.0 * eps * oracle.shape[1] * scale
    return float(np.max(np.abs(paths - oracle))) / bound


def _synthesis_agreement(rng, n_grids: int) -> float:
    """Worst gap of either sampler against its oracle over ``n_grids``
    grids, in units of :func:`_synthesis_gap`'s bound.

    Spectra alternate between random lists and power laws cut off at the
    grid's limit, at orders 1-3, with no drift, a random drift and a fixed
    drift in turn.
    """
    worst = 0.0
    for i in range(n_grids):
        grid_size = (_SYNTHESIS_MAX_GRID if i == 0 else int(np.exp(
            rng.uniform(math.log(16.0), math.log(_SYNTHESIS_MAX_GRID)))))
        n_paths = int(rng.integers(1, 5))
        seed = int(rng.integers(0, 2**31))
        kappa = int(rng.integers(1, 4))
        limit = (grid_size - 1) // 2
        if i % 2 == 0:
            model = _random_spectrum(
                rng, kappa, int(rng.integers(1, limit - kappa + 2)))
        else:
            model = SpectralModel.power_law(
                kappa, float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(1.5, 4.0)), n_max=limit)
        low_order = (None, float(rng.uniform(0.5, 2.0)),
                     rng.standard_normal(2 * kappa - 1))[i % 3]
        worst = max(
            worst,
            _synthesis_gap(
                simulate_irf(model, n_paths, grid_size, seed, low_order),
                _irf_oracle(model, n_paths, grid_size, seed, low_order)),
            _synthesis_gap(
                simulate_brownian_bridge(grid_size, n_paths, seed),
                _bridge_oracle(grid_size, n_paths, seed)))
    return worst


def bridge_moment_checks(seed: int = 0, n_realizations: int = 20_000,
                         grid_size: int = 512, n_freq: int = 8,
                         tol_factor: float = 4.0,
                         min_realizations: int = 10_000) -> Report:
    """Cross-moments of the bridge's empirical coefficients.

    The circular Brownian bridge has coefficient moments
    ``E(B_nc B_mc) = E(B_ns B_ms) = (2/n^2) delta_nm``,
    ``E(B_nc B_ms) = 0``, ``E(B_0 B_nc) = -2/n^2``, ``E(B_0 B_ns) = 0``,
    and mean-variance ``E(B_0^2)`` given by quadrature of its covariance.
    Every sample moment must sit within ``tol_factor`` standard errors of
    its target.
    """
    if n_realizations < min_realizations:
        return Report([CheckResult(
            "bridge-sample-size", float(n_realizations),
            float(min_realizations), False,
            "insufficient samples (pass needs statistic >= threshold)")])
    reals = simulate_brownian_bridge(grid_size, n_realizations, seed)
    cm = check_coefficient_coupling(reals, n_freq)
    n = np.arange(1, n_freq + 1, dtype=float)
    target_diag = 2.0 / n**2

    def max_z(emp, se, target):
        z = np.abs(emp - target) / se
        return float(np.max(z))

    results = []
    for name, emp, se in (("bridge-cos-cos-moments", cm.cos_cos,
                           cm.cos_cos_se),
                          ("bridge-sin-sin-moments", cm.sin_sin,
                           cm.sin_sin_se)):
        stat = max_z(emp, se, np.diag(target_diag))
        results.append(CheckResult(name, stat, tol_factor,
                                   stat <= tol_factor,
                                   f"{n_freq}x{n_freq} moment matrix"))
    stat = max_z(cm.cos_sin, cm.cos_sin_se, 0.0)
    results.append(CheckResult("bridge-cos-sin-independence", stat,
                               tol_factor, stat <= tol_factor))
    stat = max_z(cm.z0_cos, cm.z0_cos_se, -target_diag)
    results.append(CheckResult("bridge-mean-cos-coupling", stat, tol_factor,
                               stat <= tol_factor,
                               "E(B0 B_nc) = -2/n^2"))
    stat = max_z(cm.z0_sin, cm.z0_sin_se, 0.0)
    results.append(CheckResult("bridge-mean-sin-independence", stat,
                               tol_factor, stat <= tol_factor))
    oracle = _bridge_mean_variance_oracle()
    stat = abs(cm.z0_sq - oracle) / cm.z0_sq_se
    results.append(CheckResult("bridge-mean-variance", stat, tol_factor,
                               stat <= tol_factor,
                               f"E(B0^2) vs quadrature value {oracle:.6f}"))
    return Report(results)


def stationarity_checks(seed: int = 0, n_realizations: int = 5000,
                        grid_size: int = 256,
                        tol_factor: float = 4.0) -> Report:
    """Stationarity of aggregated processes, with a negative control.

    The raw Brownian bridge is not stationary, but order-1 allowable
    aggregates of it are; the low-frequency-truncated order-1 process is
    stationary outright.  The negative control feeds the raw bridge itself
    to the covariance comparison and must be flagged.  Both samplers also
    meet their explicit oracles, :func:`_irf_oracle` and
    :func:`_bridge_oracle`, up to rounding.
    """
    worst = _synthesis_agreement(np.random.default_rng([seed, 808]),
                                 _SYNTHESIS_GRIDS)
    report = Report([
        CheckResult(
            "simulation-synthesis-agreement", worst, 1.0, worst <= 1.0,
            f"worst gap to the oracles over {_SYNTHESIS_GRIDS} grids, in "
            "units of 16 eps G max(1, max|oracle|)"),
    ])
    bridge = simulate_brownian_bridge(grid_size, n_realizations, seed)

    lam = DiscreteMeasure([0.0, np.pi], [1.0, -1.0])
    sub = check_translation_stationarity(bridge, lam, kappa=1,
                                         tol_factor=tol_factor)
    report.extend(sub, prefix="bridge-increment-")

    limit = (grid_size - 1) // 2
    model = SpectralModel.power_law(1, 2.0, 2.0, n_max=limit)
    truncated = simulate_irf(model, n_realizations, grid_size, seed + 1)
    ident = DiscreteMeasure([0.0], [1.0])
    sub = check_translation_stationarity(truncated, ident, kappa=0,
                                         tol_factor=tol_factor)
    report.extend(sub, prefix="truncated-process-")

    control = check_translation_stationarity(bridge, ident, kappa=0,
                                             tol_factor=tol_factor)
    by_name = {r.name: r for r in control.results}
    cov_check = by_name.get("stationary-lag-covariance")
    if cov_check is None:
        report.results.append(CheckResult(
            "bridge-nonstationarity-detected", 0.0, tol_factor, False,
            "control could not run"))
    else:
        report.results.append(CheckResult(
            "bridge-nonstationarity-detected", cov_check.statistic,
            tol_factor, cov_check.statistic > tol_factor,
            "negative control: pass needs statistic > threshold"))
    return report


SUITE_NAMES = ("measures", "splines", "kernel", "kriging", "smoothing",
               "ordinary", "bridge-moments", "stationarity")


def run_verification(config: dict | None = None) -> Report:
    """Run the named suites (all of them by default) and merge the results.

    Recognized keys: ``checks`` (list of suite names), ``seed``,
    ``n_realizations`` and ``grid_size`` (bridge moments),
    ``stationarity_realizations`` and ``stationarity_grid``,
    ``tol_factor``, per-suite instance counts (``n_measures``,
    ``kernel_sets``, ``kriging_instances``, ``smoothing_instances``,
    ``ordinary_instances``), and ``inject`` (fault-injection hooks for
    exercising the checks themselves, for example
    ``{"negative_gamma": true}``).  The report's ``seconds`` maps each
    suite run to its wall time.
    """
    cfg = dict(config or {})
    checks = cfg.get("checks", list(SUITE_NAMES))
    if not isinstance(checks, (list, tuple)):
        raise ValueError(f"checks must be a list of suite names, got "
                         f"{checks!r}")
    unknown = [c for c in checks if c not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; pick from "
                         f"{sorted(SUITE_NAMES)}")

    def count(key: str, default: int) -> int:
        return _config.number(cfg.get(key, default), key, integer=True,
                              minimum=1)

    seed = _config.number(cfg.get("seed", 0), "seed", integer=True,
                          minimum=0)
    tol_factor = _config.number(cfg.get("tol_factor", 4.0), "tol_factor")
    inject = _config.block(cfg, "inject")

    report = Report()

    def run(suite: str, make) -> None:
        if suite in checks:
            start = time.perf_counter()
            report.extend(make())
            report.seconds[suite] = time.perf_counter() - start

    run("measures", lambda: measure_checks(seed, count("n_measures", 1000)))
    run("splines", lambda: spline_checks(seed))
    run("kernel", lambda: kernel_checks(
        seed, count("kernel_sets", 50),
        negative_gamma=_config.flag(inject.get("negative_gamma", False),
                                    "inject.negative_gamma")))
    run("kriging", lambda: primal_dual_checks(
        seed, count("kriging_instances", 100)))
    run("smoothing", lambda: smoothing_limit_checks(
        seed, count("smoothing_instances", 20)))
    run("ordinary", lambda: ordinary_universal_checks(
        seed, count("ordinary_instances", 50)))
    run("bridge-moments", lambda: bridge_moment_checks(
        seed, count("n_realizations", 20_000), count("grid_size", 512),
        tol_factor=tol_factor))
    run("stationarity", lambda: stationarity_checks(
        seed, count("stationarity_realizations", 5000),
        count("stationarity_grid", 256), tol_factor=tol_factor))
    return report
