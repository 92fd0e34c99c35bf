"""Tests for spectral simulation and the stationarity verification checks."""

import json

import numpy as np
import pytest

from circkrig import (
    TWO_PI,
    AliasingError,
    AllowabilityError,
    DiscreteMeasure,
    SpectralModel,
    check_coefficient_coupling,
    check_translation_stationarity,
    empirical_coefficients,
    simulate_brownian_bridge,
    simulate,
    simulate_irf,
)
from circkrig.verification import _bridge_oracle, _irf_oracle
from test_covariance import _peak_beyond_result

# Ceiling on traced allocation beyond the returned batch at G = 8192.
MEMORY_CEILING = 64 * 2**20
# Seeds of one to five 32-bit words, and a numpy integer.
WIDE_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**128 + 1, np.int64(7)]


class TestSimulateIrf:
    def test_determinism(self):
        spec = SpectralModel.from_list(1, [1.0, 0.5, 0.25])
        a = simulate_irf(spec, 4, 64, seed=7)
        b = simulate_irf(spec, 4, 64, seed=7)
        assert np.array_equal(a, b)

    def test_batch_size_invariance(self):
        # the stream fills the batch row by row, so a smaller batch is the
        # first rows of a larger one, random drift draws included
        spec = SpectralModel.from_list(1, [1.0, 0.5])
        for low_order in (None, 0.7):
            big = simulate_irf(spec, 5, 32, seed=3, low_order=low_order)
            small = simulate_irf(spec, 2, 32, seed=3, low_order=low_order)
            assert np.array_equal(big[:2], small)
        big = simulate_brownian_bridge(32, 5, seed=3)
        assert np.array_equal(big[:2], simulate_brownian_bridge(32, 2, 3))

    def test_seed_changes_output(self):
        spec = SpectralModel.from_list(1, [1.0])
        a = simulate_irf(spec, 1, 32, seed=0)
        b = simulate_irf(spec, 1, 32, seed=1)
        assert not np.array_equal(a, b)

    def test_empty_spectrum_gives_zeros(self):
        spec = SpectralModel.from_list(1, [])
        out = simulate_irf(spec, 2, 16, seed=0)
        assert out.shape == (2, 16)
        assert np.all(out == 0.0)

    def test_grid_and_metadata(self):
        spec = SpectralModel.from_list(1, [1.0])
        out = simulate_irf(spec, 3, 32, seed=5)
        assert out.shape == (3, 32)
        assert out.dtype == np.float64
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0
        assert simulate_irf(spec, 0, 32, seed=5).shape == (0, 32)

    def test_odd_grid(self):
        # frequency 3 on 7 points: the cosine of unit coefficient is exact
        spec = SpectralModel.from_list(3, [1.0])
        out = simulate_irf(spec, 2, 7, seed=4)
        grid = np.arange(7) * TWO_PI / 7
        sample = empirical_coefficients(out[0], n_max=3)
        rebuilt = (sample.cos_coeffs[2] * np.cos(3 * grid)
                   + sample.sin_coeffs[2] * np.sin(3 * grid))
        assert np.allclose(rebuilt, out[0], atol=1e-12)

    def test_aliasing_guard(self):
        spec = SpectralModel.from_list(1, np.ones(40))
        with pytest.raises(AliasingError):
            simulate_irf(spec, 1, 64, seed=0)
        # 31 frequencies on 64 points is fine
        simulate_irf(SpectralModel.from_list(1, np.ones(31)), 1, 64, seed=0)

    def test_low_order_fixed_coefficients(self):
        spec = SpectralModel.from_list(2, [0.5])
        out = simulate_irf(spec, 2, 64, seed=1,
                           low_order=np.array([3.0, 0.0, 0.0]))
        base = simulate_irf(spec, 2, 64, seed=1)
        assert np.allclose(out - base, 3.0, atol=1e-12)

    def test_low_order_random_variance(self):
        # scalar low_order draws fresh low-frequency coefficients per
        # realization without disturbing the high-frequency stream
        spec = SpectralModel.from_list(1, [1.0])
        out = simulate_irf(spec, 3, 32, seed=2, low_order=0.5)
        base = simulate_irf(spec, 3, 32, seed=2)
        diff = out - base
        assert np.allclose(diff, diff[:, :1], atol=1e-12)
        assert np.all(diff[:, 0] != 0.0)
        assert len(set(diff[:, 0])) == 3

    def test_low_order_shape_and_sign_rejected(self):
        spec = SpectralModel.from_list(2, [0.5])
        with pytest.raises(ValueError, match="3 coefficients"):
            simulate_irf(spec, 1, 16, seed=0, low_order=[1.0, 2.0])
        with pytest.raises(ValueError, match="drift scale"):
            simulate_irf(spec, 1, 16, seed=0, low_order=-1.0)


def _assert_within_synthesis_bound(got, want):
    """``got`` within ``16 eps G max(1, max |want|)`` of ``want``."""
    scale = (16 * np.finfo(float).eps * got.shape[1]
             * max(1.0, np.abs(want).max()))
    assert np.max(np.abs(got - want)) <= scale


class TestSeedRegression:
    """The FFT and cumulative-sum samplers reproduce the explicit
    synthesis and the dense Cholesky bridge draw for draw."""

    @pytest.mark.parametrize("seed", [0, 20260])
    @pytest.mark.parametrize("low_order", [None, 0.7, [1.0, -0.5, 2.0]])
    def test_irf_matches_explicit_synthesis(self, seed, low_order):
        model = SpectralModel.power_law(2, 1.5, 2.5, n_max=255)
        _assert_within_synthesis_bound(
            simulate_irf(model, 4, 512, seed, low_order),
            _irf_oracle(model, 4, 512, seed, low_order))

    @pytest.mark.parametrize("seed", [0, 20260])
    @pytest.mark.parametrize("grid_size", [2, 3, 64, 1024])
    def test_bridge_matches_dense_cholesky(self, seed, grid_size):
        _assert_within_synthesis_bound(
            simulate_brownian_bridge(grid_size, 4, seed),
            _bridge_oracle(grid_size, 4, seed))


class TestSeedStream:
    """Any non-negative integer seeds ``default_rng(seed)`` as it is."""

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_irf_rows(self, seed):
        model = SpectralModel.power_law(2, 1.5, 2.5, n_max=31)
        _assert_within_synthesis_bound(simulate_irf(model, 5, 64, seed, 0.7),
                                       _irf_oracle(model, 5, 64, seed, 0.7))

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_bridge_rows(self, seed):
        _assert_within_synthesis_bound(simulate_brownian_bridge(64, 5, seed),
                                       _bridge_oracle(64, 5, seed))

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", [1, 2]])
    def test_bad_seed_raises(self, seed):
        spec = SpectralModel.from_list(1, [1.0])
        with pytest.raises(ValueError, match="seed must be"):
            simulate_irf(spec, 1, 16, seed)
        with pytest.raises(ValueError, match="seed must be"):
            simulate_brownian_bridge(16, 0, seed)

    def test_seeding_memory_stays_per_block(self):
        # The bridge draws straight into its output, so a 2**17-path batch
        # holds nothing per path beyond it: far below 1 MiB.
        out, peak = _peak_beyond_result(
            lambda: simulate_brownian_bridge(2, 2**17, 3))
        assert out.shape == (2**17, 2)
        assert peak < 2**20


class TestMemory:
    """A simulation holds its batch and O(grid) workspace per path, not
    the O(F G) trig matrices or O(G^2) Cholesky factor of the oracles."""

    def test_bridge_large_grid(self):
        out, peak = _peak_beyond_result(
            lambda: simulate_brownian_bridge(8192, 4, 3))
        assert out.shape == (4, 8192)
        assert peak < MEMORY_CEILING

    def test_irf_large_grid(self):
        model = SpectralModel.power_law(1, 1.0, 2.0, n_max=4095)
        out, peak = _peak_beyond_result(
            lambda: simulate_irf(model, 4, 8192, 3))
        assert out.shape == (4, 8192)
        assert peak < MEMORY_CEILING


class TestEmpiricalCoefficients:
    def test_pure_harmonic(self):
        grid = np.arange(64) * TWO_PI / 64
        sample = empirical_coefficients(np.cos(3 * grid), n_max=10)
        assert np.isclose(sample.cos_coeffs[2], 1.0, atol=1e-12)
        mask = np.ones(10, bool)
        mask[2] = False
        assert np.max(np.abs(sample.cos_coeffs[mask])) < 1e-12
        assert np.max(np.abs(sample.sin_coeffs)) < 1e-12
        assert abs(sample.z0) < 1e-12

    def test_constant(self):
        sample = empirical_coefficients(np.full(32, 2.5), n_max=4)
        assert np.isclose(sample.z0, 2.5, atol=1e-14)
        assert np.max(np.abs(sample.cos_coeffs)) < 1e-13

    def test_round_trip(self):
        spec = SpectralModel.from_list(1, [1.0, 0.4, 0.2, 0.1])
        path = simulate_irf(spec, 1, 128, seed=9)[0]
        sample = empirical_coefficients(path, n_max=4)
        grid = np.arange(128) * TWO_PI / 128
        n = np.arange(1, 5)
        rebuilt = (sample.z0
                   + sample.cos_coeffs @ np.cos(np.outer(n, grid))
                   + sample.sin_coeffs @ np.sin(np.outer(n, grid)))
        assert np.allclose(rebuilt, path, atol=1e-10)

    def test_matches_the_dense_rectangle_rule(self):
        # 5000 rows of 64 points are transformed in two row blocks.
        rng = np.random.default_rng(23)
        paths = rng.standard_normal((5000, 64))
        z0, cos_c, sin_c = simulate._coefficient_arrays(paths, 31)
        grid = np.arange(64) * TWO_PI / 64
        n = np.arange(1.0, 32.0)
        assert np.array_equal(z0, paths.mean(axis=1))
        assert np.max(np.abs(cos_c - (2.0 / 64) * (
            paths @ np.cos(np.outer(n, grid)).T))) < 1e-13
        assert np.max(np.abs(sin_c - (2.0 / 64) * (
            paths @ np.sin(np.outer(n, grid)).T))) < 1e-13

    def test_memory_on_a_long_path(self):
        # 65536 points to the highest resolved frequency: the dense
        # cosine and sine matrices would take about 34 GB.
        path = np.random.default_rng(24).standard_normal(65536)
        sample, extra = _peak_beyond_result(
            lambda: empirical_coefficients(path, n_max=32767))
        assert sample.cos_coeffs.shape == (32767,)
        assert extra <= 4 * 2**20

    def test_n_max_guard(self):
        spec = SpectralModel.from_list(1, [1.0])
        path = simulate_irf(spec, 1, 16, seed=0)[0]
        with pytest.raises(AliasingError):
            empirical_coefficients(path, n_max=8)

    def test_needs_one_path(self):
        paths = simulate_irf(SpectralModel.from_list(1, [1.0]), 2, 16, 0)
        with pytest.raises(ValueError, match="1-d"):
            empirical_coefficients(paths, n_max=2)


class TestBrownianBridge:
    def test_pinned_at_origin(self):
        out = simulate_brownian_bridge(64, 5, seed=11)
        assert out.shape == (5, 64)
        assert np.all(out[:, 0] == 0.0)
        assert not out.flags.writeable

    def test_determinism(self):
        a = simulate_brownian_bridge(32, 3, seed=4)
        b = simulate_brownian_bridge(32, 3, seed=4)
        assert np.array_equal(a, b)
        assert np.array_equal(simulate_brownian_bridge(32, 5, seed=4)[:3], a)

    def test_midpoint_variance(self):
        # var B(pi) = 2 pi min - min^2 = pi^2
        mid = simulate_brownian_bridge(8, 20000, seed=6)[:, 4]
        want = np.pi**2
        se = np.std(mid**2, ddof=1) / np.sqrt(mid.size)
        assert abs(np.mean(mid**2) - want) < 4.0 * se

    def test_covariance_spot(self):
        # cov(B(s), B(t)) = 2 pi min(s,t) - s t at s = pi/2, t = pi
        out = simulate_brownian_bridge(8, 20000, seed=13)
        s_idx, t_idx = 2, 4
        prods = out[:, s_idx] * out[:, t_idx]
        s, t = s_idx * TWO_PI / 8, t_idx * TWO_PI / 8
        want = TWO_PI * min(s, t) - s * t
        se = np.std(prods, ddof=1) / np.sqrt(prods.size)
        assert abs(np.mean(prods) - want) < 4.0 * se


class TestStationarityCheck:
    @staticmethod
    def _increment_measure():
        return DiscreteMeasure([0.0, np.pi], [1.0, -1.0])

    def test_small_sample_reports_failure_without_raising(self):
        spec = SpectralModel.from_list(1, [1.0])
        paths = simulate_irf(spec, 10, 64, seed=0)
        report = check_translation_stationarity(
            paths, self._increment_measure(), kappa=1)
        assert not report.passed
        names = [r.name for r in report.results]
        assert names == ["stationarity-sample-size"]
        assert "insufficient samples" in report.results[0].detail

    def test_non_allowable_measure_rejected(self):
        spec = SpectralModel.from_list(1, [1.0])
        paths = simulate_irf(spec, 10, 64, seed=0)
        with pytest.raises(AllowabilityError):
            check_translation_stationarity(
                paths, DiscreteMeasure([0.0], [1.0]), kappa=1)

    def test_off_grid_atom_rejected(self):
        spec = SpectralModel.from_list(1, [1.0])
        paths = simulate_irf(spec, 10, 64, seed=0)
        with pytest.raises(ValueError):
            check_translation_stationarity(
                paths, DiscreteMeasure([0.05, 0.05 + np.pi], [1.0, -1.0]),
                kappa=1)

    def test_needs_a_batch(self):
        path = simulate_irf(SpectralModel.from_list(1, [1.0]), 1, 64, 0)[0]
        for bad in (path, np.empty((0, 64))):
            with pytest.raises(ValueError, match="non-empty"):
                check_translation_stationarity(
                    bad, self._increment_measure(), kappa=1)
            with pytest.raises(ValueError, match="non-empty"):
                check_coefficient_coupling(bad, n_max=2)

    def test_increment_process_passes(self):
        spec = SpectralModel.from_list(1, [1.0, 0.5, 0.25, 0.125])
        paths = simulate_irf(spec, 2000, 128, seed=1)
        report = check_translation_stationarity(
            paths, self._increment_measure(), kappa=1)
        assert report.passed, [r.line() for r in report.results]

    def test_truncated_process_is_stationary_as_is(self):
        # order >= 1 truncation leaves a process that is stationary raw,
        # so the identity measure passes with kappa=0 (no allowability)
        spec = SpectralModel.power_law(1, 1.0, 2.0, n_max=63)
        paths = simulate_irf(spec, 2000, 128, seed=2)
        identity = DiscreteMeasure([0.0], [1.0])
        report = check_translation_stationarity(paths, identity, kappa=0)
        assert report.passed, [r.line() for r in report.results]

    def test_nonzero_mean_detected(self):
        # a fixed drift constant shifts the mean away from zero
        spec = SpectralModel.from_list(1, [1.0, 0.5])
        paths = simulate_irf(spec, 2000, 128, seed=3,
                             low_order=np.array([2.0]))
        identity = DiscreteMeasure([0.0], [1.0])
        report = check_translation_stationarity(paths, identity, kappa=0)
        by_name = {r.name: r for r in report.results}
        assert not by_name["stationary-zero-mean"].passed

    def test_nonstationary_covariance_detected(self):
        # the raw bridge is pinned at angle 0, so its covariance depends
        # on location, not just lag
        paths = simulate_brownian_bridge(128, 2000, seed=5)
        identity = DiscreteMeasure([0.0], [1.0])
        report = check_translation_stationarity(paths, identity, kappa=0)
        by_name = {r.name: r for r in report.results}
        assert not by_name["stationary-lag-covariance"].passed

    def test_report_serialization(self, tmp_path):
        spec = SpectralModel.from_list(1, [1.0])
        paths = simulate_irf(spec, 10, 64, seed=0)
        report = check_translation_stationarity(
            paths, self._increment_measure(), kappa=1)
        path = tmp_path / "report.json"
        report.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["pass"] is False
        assert payload["checks"][0]["check_name"] == "stationarity-sample-size"
        assert set(payload["checks"][0]) >= {
            "check_name", "statistic", "threshold", "pass"}


class TestCoefficientCoupling:
    def test_moment_shapes(self):
        out = simulate_brownian_bridge(64, 200, seed=8)
        moments = check_coefficient_coupling(out, n_max=4)
        assert moments.n_samples == 200
        assert moments.cos_cos.shape == (4, 4)
        assert moments.z0_cos.shape == (4,)

    def test_bridge_moments_rough(self):
        # small run: verify signs and orders of magnitude only
        out = simulate_brownian_bridge(64, 4000, seed=9)
        moments = check_coefficient_coupling(out, n_max=3)
        n = np.arange(1, 4)
        want = 2.0 / n**2
        assert np.allclose(np.diag(moments.cos_cos), want,
                           atol=4.0 * np.max(moments.cos_cos_se))
        assert np.allclose(moments.z0_cos, -want,
                           atol=4.0 * np.max(moments.z0_cos_se))
