"""Tests for spectral models, covariances, splines, and variograms."""

import inspect
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from circkrig import (
    TWO_PI,
    Dataset,
    IntrinsicCovariance,
    Semivariogram,
    SpectralModel,
    SpectrumError,
    VariogramShiftError,
    covariance,
    fit_universal,
    phi_from_variogram,
    spline_covariance,
    spline_kernel,
)
from circkrig.verification import (
    _closed_form_oracle,
    _series_oracle,
    _series_rounding_bound,
    kernel_checks,
)

# Ceiling on traced allocation beyond a call's own result.
MEMORY_CEILING = 128 * 2**20


def _peak_beyond_result(fn):
    """Run ``fn`` under tracemalloc; return its result and the peak traced
    allocation less the result's own bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(np.asarray(r).nbytes for r in
               (result if isinstance(result, tuple) else (result,)))
    return result, peak - held


class TestSpectralModel:
    def test_from_list_basics(self):
        m = SpectralModel.from_list(2, [1.0, 0.5])
        assert m.kappa == 2
        assert m.support_end == 3
        assert np.array_equal(m.frequencies(), [2, 3])
        assert np.allclose(m.gammas(), [1.0, 0.5])
        assert m.total_mass() == 1.5
        assert m.tail_bound() == 0.0

    def test_empty_list_is_zero_process(self):
        m = SpectralModel.from_list(2, [])
        assert m.support_end == 1
        assert m.frequencies().size == 0
        assert m.total_mass() == 0.0

    def test_gamma_lookup(self):
        m = SpectralModel.from_list(2, [1.0, 0.5])
        assert m.gamma(2) == 1.0
        assert m.gamma(3) == 0.5
        assert m.gamma(1) == 0.0
        assert m.gamma(4) == 0.0
        assert np.allclose(m.gamma(np.array([1, 2, 3, 4])),
                           [0.0, 1.0, 0.5, 0.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(SpectrumError):
            SpectralModel.from_list(1, [1.0, -0.5])
        with pytest.raises(SpectrumError):
            SpectralModel.from_list(1, [0.0])

    def test_power_law(self):
        m = SpectralModel.power_law(1, 2.0, 2.0, n_max=100)
        assert m.gamma(10) == 2.0 / 100.0
        assert m.gamma(101) == 0.0
        assert m.frequencies().size == 100

    def test_nonsummable_decay_rejected(self):
        for p in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises(SpectrumError):
                SpectralModel.power_law(1, 2.0, p)
        with pytest.raises(SpectrumError):
            SpectralModel.power_law(1, -1.0, 2.0)

    def test_tail_bound_integral_comparison(self):
        m1 = SpectralModel.power_law(1, 2.0, 2.0, n_max=100_000)
        assert np.isclose(m1.tail_bound(), 2.0e-5, rtol=1e-12)
        m2 = SpectralModel.power_law(1, 2.0, 4.0, n_max=100_000)
        assert m2.tail_bound() <= 1.0e-14

    def test_tail_bound_actually_bounds(self):
        # compare a coarse truncation against a much finer one
        coarse = IntrinsicCovariance(
            SpectralModel.power_law(1, 2.0, 2.0, n_max=500))
        fine = IntrinsicCovariance(
            SpectralModel.power_law(1, 2.0, 2.0, n_max=50_000))
        lags = np.linspace(0, TWO_PI, 11)
        gap = np.max(np.abs(coarse(lags) - fine(lags)))
        assert gap <= coarse.model.tail_bound()

    def test_config_round_trip(self):
        for m in (SpectralModel.from_list(2, [1.0, 0.5]),
                  SpectralModel.power_law(1, 2.0, 4.0, n_max=123)):
            again = SpectralModel.from_config(m.to_config())
            assert again.kappa == m.kappa
            assert np.array_equal(again.frequencies(), m.frequencies())
            assert np.allclose(again.gammas(), m.gammas())

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SpectralModel.from_config({"type": "mystery", "kappa": 1})

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            SpectralModel.from_list(0, [1.0])


class TestIntrinsicCovariance:
    def test_single_harmonic(self):
        phi = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        assert np.isclose(phi(0.0), 1.0, atol=1e-15)
        assert np.isclose(phi(np.pi), -1.0, atol=1e-15)
        assert np.isclose(phi(np.pi / 2), 0.0, atol=1e-15)

    def test_power_law_mass_at_zero(self):
        phi = IntrinsicCovariance(SpectralModel.power_law(1, 2.0, 2.0,
                                                          n_max=10_000))
        assert abs(phi(0.0) - np.pi**2 / 3.0) <= phi.model.tail_bound()

    def test_shape_preserved(self):
        phi = IntrinsicCovariance(SpectralModel.from_list(1, [1.0, 0.3]))
        assert np.ndim(phi(1.0)) == 0
        assert phi(np.zeros((2, 3))).shape == (2, 3)

    def test_even_and_periodic(self):
        rng = np.random.default_rng(5)
        phi = IntrinsicCovariance(
            SpectralModel.from_list(2, rng.uniform(0.1, 1.0, 6)))
        t = rng.uniform(0, TWO_PI, 300)
        assert np.allclose(phi(t), phi(-t), atol=1e-12)
        assert np.allclose(phi(t), phi(t + TWO_PI), atol=1e-12)

    def test_empty_spectrum_is_zero(self):
        phi = IntrinsicCovariance(SpectralModel.from_list(1, []))
        assert phi(1.23) == 0.0
        assert phi.phi0 == 0.0

    def test_gram_is_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            kappa = int(rng.integers(1, 4))
            phi = IntrinsicCovariance(SpectralModel.from_list(
                kappa, rng.uniform(0.1, 2.0, int(rng.integers(1, 7)))))
            pts = rng.uniform(0, TWO_PI, 25)
            eig = np.linalg.eigvalsh(phi.gram(pts))
            assert eig[0] >= -1e-10 * max(eig[-1], 1.0)

    def test_shift_adds_constant(self):
        base = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        shifted = base.with_shift(9.0)
        t = np.linspace(0, TWO_PI, 7)
        assert np.allclose(shifted(t), base(t) + 9.0, atol=1e-12)


class TestFactoredSeries:
    """The factored Gram against the explicit-lag oracle, and its memory."""

    @pytest.mark.parametrize("model", [
        SpectralModel.from_list(1, np.linspace(2.0, 0.1, 508)),
        SpectralModel.from_list(3, np.full(2000, 0.5)),
        SpectralModel.power_law(2, 1.5, 2.5),
        SpectralModel.from_list(2, []),
    ])
    def test_matches_oracle(self, model):
        rng = np.random.default_rng(11)
        shift = -0.7 * model.total_mass() + 0.25
        cov = IntrinsicCovariance(model, shift=shift)
        x = rng.uniform(-20.0, 20.0, 17)
        y = rng.uniform(-20.0, 20.0, 9)
        lags = rng.uniform(-20.0, 20.0, (4, 5))
        # Adding the shift rounds each path once more, by eps/2 of |shift|.
        bound = _series_rounding_bound(model) + 4.0e-16 * abs(shift)

        def oracle(lag):
            return _series_oracle(model, np.mod(lag, TWO_PI)) + shift

        assert np.max(np.abs(cov.gram(x, y)
                             - oracle(np.subtract.outer(x, y)))) <= bound
        assert np.max(np.abs(cov.gram(x)
                             - oracle(np.subtract.outer(x, x)))) <= bound
        assert cov(lags).shape == (4, 5)
        assert np.max(np.abs(cov(lags) - oracle(lags))) <= bound

    def test_symmetric_gram_is_exactly_symmetric(self):
        rng = np.random.default_rng(12)
        cov = IntrinsicCovariance(SpectralModel.power_law(1, 1.0, 3.0, 700))
        gram = cov.gram(rng.uniform(0.0, TWO_PI, 60))
        assert np.array_equal(gram, gram.T)

    def test_gram_accepts_multidimensional_points_like_closed_form(self):
        # Both model kinds return the lag-matrix shape x.shape + y.shape.
        rng = np.random.default_rng(14)
        x = rng.uniform(-10.0, 10.0, (3, 4))
        y = rng.uniform(-10.0, 10.0, (2, 5))
        series = IntrinsicCovariance(SpectralModel.power_law(1, 1.0, 2.0, 300))
        closed = spline_covariance(1)
        for cov in (series, closed):
            assert cov.gram(x, y).shape == (3, 4, 2, 5)
            assert cov.gram(x).shape == (3, 4, 3, 4)
        assert np.array_equal(series.gram(x, y).reshape(12, 10),
                              series.gram(x.ravel(), y.ravel()))
        assert np.array_equal(series.gram(x).reshape(12, 12),
                              series.gram(x.ravel()))

    def test_gram_accepts_empty_points_like_closed_form(self):
        x = np.linspace(0.0, 3.0, 4)
        series = IntrinsicCovariance(SpectralModel.from_list(1, [1.0, 0.5]))
        for cov in (series, spline_covariance(1)):
            assert cov.gram([], x).shape == (0, 4)
            assert cov.gram(x, []).shape == (4, 0)
            assert cov.gram([]).shape == (0, 0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_gram_is_the_kernel_on_lags(self, m):
        rng = np.random.default_rng(13)
        x = rng.uniform(-10.0, 10.0, 30)
        y = rng.uniform(-10.0, 10.0, 20)
        cov = spline_covariance(m)
        assert np.array_equal(cov.gram(x, y),
                              spline_kernel(m, x[:, None], y[None, :]))
        assert np.array_equal(cov.gram(x),
                              spline_kernel(m, x[:, None], x[None, :]))

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_gram_is_bit_identical_on_canonical_points(self, m):
        rng = np.random.default_rng(17)
        x = np.concatenate([[0.0, 1e-17, np.nextafter(TWO_PI, 0.0)],
                            rng.uniform(0.0, TWO_PI, 100)])
        grid = TWO_PI * np.arange(64) / 64
        cov = spline_covariance(m).with_shift(0.7)
        assert cov.gram(x).tobytes() == \
            _closed_form_oracle(m, x, x, 0.7).tobytes()
        assert cov.gram(grid, x).tobytes() == \
            _closed_form_oracle(m, grid, x, 0.7).tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("radius", [TWO_PI, 50.0])
    def test_closed_form_gram_off_canonical_points(self, m, radius):
        # Points are wrapped before they are differenced, the oracle
        # differences them first: the lags then differ by the rounding of
        # x - y, up to eps * (|x| + |y| + 2 pi), which moves the value by at
        # most the kernel's slope times that.
        rng = np.random.default_rng(18)
        x = rng.uniform(-radius, radius, 300)
        y = rng.uniform(-radius, radius, 200)
        cov = spline_covariance(m)
        slope = np.pi if m == 1 else np.pi**3 / 6.0
        eps = np.finfo(float).eps
        bound = eps * (cov.phi0 + slope * (2.0 * radius + TWO_PI))
        for a, b in ((x, y), (x, x)):
            gap = np.max(np.abs(cov.gram(a, b)
                                - _closed_form_oracle(m, a, b, 0.0)))
            assert gap <= bound

    @pytest.mark.parametrize("targets", [800, 512])
    def test_closed_form_gram_memory(self, targets):
        # The 800-point spline-m2 Gram and the 512 x 800 sections hold the
        # output and one lag matrix, plus a boolean mask while the lags are
        # brought into [0, 2 pi).  Evaluating on the explicit lag matrix
        # held four arrays of the output's size.
        rng = np.random.default_rng(19)
        x = rng.uniform(0.0, TWO_PI, 800)
        t = x if targets == 800 else TWO_PI * np.arange(targets) / targets
        cov = spline_covariance(2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            gram = cov.gram(t, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = targets * 800
        assert gram.shape == (targets, 800)
        assert peak <= 2 * 8 * entries + entries + 2**16

    def test_gram_memory_list_spectrum(self):
        # 508 frequencies at 1000 points: the lag-matrix evaluation held a
        # 3.78 GiB temporary here.
        rng = np.random.default_rng(14)
        cov = IntrinsicCovariance(
            SpectralModel.from_list(1, rng.uniform(0.4, 2.0, 508)))
        gram, extra = _peak_beyond_result(
            lambda: cov.gram(rng.uniform(0.0, TWO_PI, 1000)))
        assert gram.shape == (1000, 1000)
        assert extra <= MEMORY_CEILING

    def test_fit_memory_default_power_law(self):
        # Default cutoff n_max = 10_000 at 400 points, then variances on a
        # 256-point grid: the lag-matrix evaluation needed about 5.2 GB.
        rng = np.random.default_rng(15)
        model = SpectralModel.power_law(1, 1.0, 2.0)
        data = Dataset(rng.uniform(0.0, TWO_PI, 400),
                       rng.standard_normal(400))
        grid = TWO_PI * np.arange(256) / 256
        (pred, var), extra = _peak_beyond_result(
            lambda: fit_universal(data, model, 0.01)
            .predict_with_variance(grid))
        assert np.all(np.isfinite(pred)) and np.all(var >= 0.0)
        assert extra <= MEMORY_CEILING

    def test_lag_memory_many_frequencies(self):
        # 2e4 lags against ~5000 frequencies: the lag-by-lag evaluation held
        # a 4096-frequency block of every lag's cosines, about 650 MB.
        rng = np.random.default_rng(16)
        cov = IntrinsicCovariance(
            SpectralModel.from_list(2, rng.uniform(0.4, 2.0, 5000)))
        vals, extra = _peak_beyond_result(
            lambda: cov(rng.uniform(-10.0, 10.0, 20_000)))
        assert vals.shape == (20_000,)
        assert extra <= MEMORY_CEILING


class TestAngleAdditionFeatures:
    """``_features`` against direct sines and cosines of the outer product."""

    @pytest.mark.parametrize("n_freq",
                             [1, 2, 3, 4, 15, 16, 17, 255, 256, 257, 1000])
    def test_matches_direct_trig(self, n_freq):
        rng = np.random.default_rng(n_freq)
        eps = np.finfo(float).eps
        for f0 in (1, 7, 2**20 - n_freq):
            f = f0 + np.arange(n_freq, dtype=float)
            for t in (rng.uniform(0.0, TWO_PI, 40),
                      rng.uniform(-20.0, 20.0, 40)):
                feats = covariance._features(t, f, None)
                halves = feats.reshape(t.size, 2, -1)
                arg = np.multiply.outer(t, f)
                want = np.stack((np.cos(arg), np.sin(arg)), axis=1)
                # Each of the two angles rounds once, as f t does directly.
                bound = 4.0 * eps * (1.0 + f[-1] * np.abs(t))
                assert np.all(np.abs(halves[:, :, :n_freq] - want)
                              <= bound[:, None, None])
                weight = rng.uniform(0.5, 2.0, n_freq)
                weighted = covariance._features(t, f, weight) \
                    .reshape(halves.shape)
                assert np.array_equal(weighted[:, :, :n_freq],
                                      halves[:, :, :n_freq] * weight)
                assert np.all(weighted[:, :, n_freq:] == 0.0)

    def test_sine_sign_flip_fails_only_gram_series_agreement(
            self, monkeypatch):
        # Mutate the sine-addition row of the real helper:
        # sin(u + v) = sin u cos v + cos u sin v becomes sin(u - v).
        source = inspect.getsource(covariance._features)
        mutated = source.replace("left[:, 1, :, 1] = left[:, 0, :, 0]",
                                 "left[:, 1, :, 1] = -left[:, 0, :, 0]")
        assert mutated != source
        namespace = dict(vars(covariance))
        exec(mutated, namespace)
        monkeypatch.setattr(covariance, "_features", namespace["_features"])
        failed = [r.name for r in kernel_checks(0, n_sets=2).results
                  if not r.passed]
        assert failed == ["gram-series-agreement"]


class TestSplineKernel:
    def test_spot_values(self):
        assert abs(spline_kernel(1, 0.0, 0.0) - np.pi**2 / 3.0) <= 1e-12
        assert abs(spline_kernel(1, np.pi, 0.0) + np.pi**2 / 6.0) <= 1e-12
        assert abs(spline_kernel(2, 0.0, 0.0) - np.pi**4 / 45.0) <= 1e-12

    def test_matches_series_medium_truncation(self):
        rng = np.random.default_rng(7)
        lags = rng.uniform(0, TWO_PI, 50)
        n_terms = 20_000
        n = np.arange(1, n_terms + 1, dtype=float)
        for m in (1, 2):
            series = (2.0 * n ** (-2.0 * m)) @ \
                np.cos(np.multiply.outer(n, lags))
            closed = spline_kernel(m, lags, 0.0)
            bound = max(2.0 * n_terms ** (1.0 - 2.0 * m) / (2.0 * m - 1.0),
                        1e-13)
            assert np.max(np.abs(closed - series)) <= bound

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(0, TWO_PI, 200)
        t = rng.uniform(0, TWO_PI, 200)
        for m in (1, 2):
            assert np.allclose(spline_kernel(m, s, t), spline_kernel(m, t, s),
                               atol=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            spline_kernel(3, 0.0, 0.0)

    def test_spline_covariance_wrapper(self):
        cov = spline_covariance(1)
        assert cov.kappa == 1
        assert cov.tail_bound == 0.0
        t = np.linspace(0, TWO_PI, 9)
        assert np.allclose(cov(t), spline_kernel(1, t, 0.0), atol=1e-14)


class TestSemivariogram:
    def test_values_from_single_harmonic(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        sv = Semivariogram(cov, c0=1.0)
        assert np.isclose(sv(0.0), 0.0, atol=1e-15)
        assert np.isclose(sv(np.pi), 2.0, atol=1e-15)

    def test_spline_value_at_pi(self):
        sv = Semivariogram(spline_covariance(1), c0=4.0)
        assert abs(sv(np.pi) - np.pi**2 / 2.0) <= 1e-12

    def test_nonnegative_and_even(self):
        rng = np.random.default_rng(9)
        cov = IntrinsicCovariance(
            SpectralModel.from_list(1, rng.uniform(0.1, 1.0, 5)))
        sv = Semivariogram(cov)
        t = rng.uniform(-10, 10, 200)
        vals = np.asarray(sv(t))
        assert np.all(vals >= -1e-12)
        assert np.allclose(vals, np.asarray(sv(-t)), atol=1e-12)

    def test_requires_order_one(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(2, [1.0]))
        with pytest.raises(ValueError):
            Semivariogram(cov)

    def test_minimal_shift_quadrature(self):
        # tau(theta) = 1 - cos(theta): the exact average over [0, pi] is 1
        cov = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        sv = Semivariogram(cov)
        assert abs(sv.minimal_shift() - 1.0) <= 1e-9

    def test_minimal_shift_equals_mass_for_splines(self):
        sv = Semivariogram(spline_covariance(1))
        assert abs(sv.minimal_shift() - np.pi**2 / 3.0) <= 1e-8

    def test_minimal_shift_ignores_the_constant(self):
        model = SpectralModel.from_list(1, [1.0, 0.5, 0.25])
        sv = Semivariogram(IntrinsicCovariance(model, shift=-3.0))
        assert abs(sv.minimal_shift() - 1.75) <= 1e-15


class TestPhiFromVariogram:
    def test_recovers_cosine(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        phi = phi_from_variogram(Semivariogram(cov, c0=1.0))
        t = np.linspace(0, TWO_PI, 13)
        assert np.allclose(phi(t), np.cos(t), atol=1e-12)

    def test_larger_constant_shifts_values(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        phi = phi_from_variogram(Semivariogram(cov, c0=10.0))
        t = np.linspace(0, TWO_PI, 13)
        assert np.allclose(phi(t), np.cos(t) + 9.0, atol=1e-12)

    def test_inadmissible_constant_rejected(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(1, [1.0]))
        with pytest.raises(VariogramShiftError) as excinfo:
            phi_from_variogram(Semivariogram(cov, c0=0.5))
        assert "bound" in str(excinfo.value)

    def test_zero_variogram(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(1, []))
        phi = phi_from_variogram(Semivariogram(cov, c0=0.0))
        assert phi(2.0) == 0.0


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate adds about a quarter second to every start-up.
    code = ("import sys, circkrig, circkrig.cli; "
            "print('scipy.integrate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              sys.path)})
    assert done.stdout.strip() == "False"


def test_import_leaves_out_scipy():
    # scipy.linalg is over half of the start-up; only a solve needs it.
    code = ("import sys, circkrig, circkrig.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              sys.path)})
    assert done.stdout.strip() == "[]"
