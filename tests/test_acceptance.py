"""Acceptance suite: ten numbered criteria, one printed line each.

Run ``pytest -s tests/test_acceptance.py`` to see every line as it is
produced; without ``-s`` pytest shows the captured lines only for failing
tests.  Heavy inputs (Monte Carlo runs, random instance sweeps) are cached
at module scope so criteria sharing a computation pay for it once.
"""

import time
from functools import lru_cache

import numpy as np

from circkrig.verification import (
    bridge_moment_checks,
    kernel_checks,
    measure_checks,
    ordinary_universal_checks,
    primal_dual_checks,
    smoothing_limit_checks,
    spline_checks,
    stationarity_checks,
)


def _timed(fn, *args, **kwargs):
    start = time.monotonic()
    report = fn(*args, **kwargs)
    return report, time.monotonic() - start


@lru_cache(maxsize=None)
def _splines():
    return _timed(spline_checks, seed=0, n_lags=200, n_terms=100_000)


@lru_cache(maxsize=None)
def _kriging():
    return _timed(primal_dual_checks, seed=0, n_instances=100, n_query=20)


@lru_cache(maxsize=None)
def _smoothing():
    return _timed(smoothing_limit_checks, seed=0, n_instances=20,
                  n_query=20)


@lru_cache(maxsize=None)
def _ordinary():
    return _timed(ordinary_universal_checks, seed=0, n_instances=50,
                  n_query=20)


@lru_cache(maxsize=None)
def _kernel():
    return _timed(kernel_checks, seed=0, n_sets=50, max_points=40)


@lru_cache(maxsize=None)
def _bridge():
    return _timed(bridge_moment_checks, seed=0, n_realizations=20_000,
                  grid_size=512, n_freq=8)


@lru_cache(maxsize=None)
def _stationarity():
    return _timed(stationarity_checks, seed=0, n_realizations=5000,
                  grid_size=256)


@lru_cache(maxsize=None)
def _measures():
    return _timed(measure_checks, seed=0, n_measures=1000)


def _subset(report, names):
    by_name = {r.name: r for r in report.results}
    missing = [n for n in names if n not in by_name]
    assert not missing, f"checks never ran: {missing}"
    return [by_name[n] for n in names]


def _emit(num, text, results, extra_ok=True, extra=""):
    passed = all(r.passed for r in results) and extra_ok
    status = "PASS" if passed else "FAIL"
    worst = max(results, key=lambda r: r.statistic / max(r.threshold, 1e-300))
    detail = (f"worst {worst.name}: {worst.statistic:.3g} "
              f"vs {worst.threshold:g}")
    if extra:
        detail += f"; {extra}"
    print(f"criterion {num:2d} {status}: {text} ({detail})")
    assert passed, f"criterion {num}: {text}; {detail}"


class TestAcceptance:
    def test_criterion_01_closed_form_matches_series(self):
        report, elapsed = _splines()
        results = _subset(report, ["spline-m1-series-agreement",
                                   "spline-m2-series-agreement"])
        _emit(1, "closed forms match 1e5-term partial sums at 200 lags",
              results, extra_ok=elapsed < 5.0,
              extra=f"ran in {elapsed:.2f}s, budget 5s")

    def test_criterion_02_spot_values(self):
        report, _ = _splines()
        results = _subset(report, ["spline-m1-value-at-zero",
                                   "spline-m1-value-at-pi",
                                   "spline-m2-value-at-zero"])
        _emit(2, "spline kernel spot values hit pi^2/3, -pi^2/6, pi^4/45",
              results)

    def test_criterion_03_primal_dual_equivalence(self):
        report, elapsed = _kriging()
        results = _subset(report, ["primal-dual-agreement",
                                   "dual-drift-orthogonality"])
        _emit(3, "bordered-system and dual predictions agree on 100 "
                 "instances", results, extra_ok=elapsed < 30.0,
              extra=f"ran in {elapsed:.2f}s, budget 30s")

    def test_criterion_04_interpolation_and_smoothing_limits(self):
        report, _ = _smoothing()
        results = _subset(report, ["exact-interpolation", "smoothing-limit",
                                   "smoothing-monotone"])
        _emit(4, "zero nugget interpolates; heavy nugget reaches the "
                 "regression limit monotonically", results)

    def test_criterion_05_ordinary_equals_universal(self):
        report, _ = _ordinary()
        results = _subset(report, ["ordinary-universal-prediction",
                                   "ordinary-universal-variance",
                                   "variogram-shift-invariance"])
        _emit(5, "variogram-path kriging matches the covariance path and "
                 "ignores constant shifts", results)

    def test_criterion_06_unbiasedness(self):
        kriging, _ = _kriging()
        smoothing, _ = _smoothing()
        ordinary, _ = _ordinary()
        results = (_subset(kriging, ["unbiasedness-universal"])
                   + _subset(smoothing, ["unbiasedness-smoothing"])
                   + _subset(ordinary, ["unbiasedness-ordinary"]))
        _emit(6, "every fitted weight vector forms an allowable error "
                 "measure", results)

    def test_criterion_07_kernel_positive_definite_and_reproducing(self):
        report, _ = _kernel()
        results = _subset(report, ["kernel-positive-semidefinite",
                                   "kernel-reproducing"])
        _emit(7, "50 random Gram matrices stay PSD and the kernel "
                 "reproduces sample functions", results)

    def test_criterion_08_bridge_coefficient_moments(self):
        report, elapsed = _bridge()
        results = _subset(report, ["bridge-cos-cos-moments",
                                   "bridge-sin-sin-moments",
                                   "bridge-cos-sin-independence",
                                   "bridge-mean-cos-coupling",
                                   "bridge-mean-sin-independence",
                                   "bridge-mean-variance"])
        _emit(8, "bridge coefficient moments match targets within 4 SE "
                 "(2e4 paths, grid 512)", results,
              extra_ok=elapsed < 120.0,
              extra=f"ran in {elapsed:.1f}s, budget 120s")

    def test_criterion_09_intrinsic_stationarity(self):
        report, _ = _stationarity()
        results = _subset(report, [
            "bridge-increment-stationary-zero-mean",
            "bridge-increment-stationary-lag-covariance",
            "truncated-process-stationary-zero-mean",
            "truncated-process-stationary-lag-covariance",
            "bridge-nonstationarity-detected",
        ])
        _emit(9, "bridge increments and the truncated process test "
                 "stationary; the raw bridge is flagged", results)

    def test_criterion_10_measure_algebra(self):
        report, _ = _measures()
        results = _subset(report, ["measure-annihilation", "measure-nesting",
                                   "measure-translation-invariance",
                                   "measure-rejects-nonallowable"])
        _emit(10, "1e3 random measures: annihilation, nesting, translation "
                  "invariance, zero failures", results)

    def test_every_statistic_is_finite(self):
        # guard against silently degenerate checks (0/0 or empty sweeps)
        for factory in (_splines, _kriging, _smoothing, _ordinary, _kernel,
                        _bridge, _stationarity, _measures):
            report, _ = factory()
            for result in report.results:
                assert np.isfinite(result.statistic), result.name
