"""Tests for universal and ordinary kriging and trigonometric regression."""

import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from circkrig import (
    TWO_PI,
    CardinalBasis,
    ConditioningError,
    Dataset,
    DuplicatePointsError,
    InsufficientDataError,
    IntrinsicCovariance,
    NilSpaceBasis,
    Semivariogram,
    SpectralModel,
    fit_ordinary,
    fit_universal,
    phi_from_variogram,
    spline_covariance,
    trig_regression,
)
from circkrig.covariance import spline_kernel
from circkrig.kriging import _MAX_RESIDUAL, _TARGET_BLOCK
from circkrig.verification import _primal_variance_oracle
from test_covariance import _peak_beyond_result


def _negated_spline():
    """An order-1 covariance whose closed form is minus the m=1 spline: it
    is negative definite on allowable measures, so no valid model."""
    return IntrinsicCovariance(SpectralModel.from_list(1, [1.0]),
                               closed_form=lambda d: -spline_kernel(1, d, 0.0))


def _brute_force(points, values, covariance, nugget, kappa, t0):
    """Independent dense solve of the bordered system for one location."""
    n = points.size
    nil = NilSpaceBasis(kappa)
    psi = covariance.gram(points) + nugget * np.eye(n)
    q = nil.design_matrix(points)
    dim = q.shape[1]
    k = np.block([[psi, q], [q.T, np.zeros((dim, dim))]])
    rhs = np.concatenate([np.atleast_1d(covariance.gram([t0], points)[0]),
                          nil.design_matrix([t0])[0]])
    sol = np.linalg.solve(k, rhs)
    eta, rho = sol[:n], sol[n:]
    value = float(eta @ values)
    variance = float(nugget * eta @ eta + eta @ covariance.gram(points) @ eta
                     - 2.0 * eta @ rhs[:n] + covariance.phi0)
    return value, max(variance, 0.0), eta


class TestDataset:
    def test_basic(self):
        data = Dataset([0.0, 1.0, TWO_PI + 2.0], [1.0, 2.0, 3.0])
        assert data.n == 3
        assert np.isclose(data.points[2], 2.0, atol=1e-15)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePointsError) as excinfo:
            Dataset([0.0, 1.0, TWO_PI], [1.0, 2.0, 3.0])
        msg = str(excinfo.value)
        assert "0" in msg and "2" in msg

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset([], [])
        with pytest.raises(ValueError):
            Dataset([0.0], [np.inf])


class TestUniversalKriging:
    def test_single_point_constant_predictor(self):
        data = Dataset([1.0], [3.5])
        model = fit_universal(data, SpectralModel.from_list(1, [1.0]), 0.0)
        t = np.linspace(0, TWO_PI, 9)
        assert np.allclose(model.predict(t), 3.5, atol=1e-12)
        # eta is always the single unit weight, so the variance is
        # 2 * (phi(0) - phi(lag))
        _, var = model.predict_with_variance([1.0 + np.pi / 3])
        assert np.isclose(var[0], 2.0 * (1.0 - np.cos(np.pi / 3)),
                          atol=1e-12)

    def test_pure_harmonic_data_recovers_harmonic(self):
        pts = np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3])
        data = Dataset(pts, np.cos(pts))
        model = fit_universal(data, SpectralModel.from_list(1, [1.0]), 0.0)
        t = np.linspace(0.1, TWO_PI, 17)
        assert np.allclose(model.predict(t), np.cos(t), atol=1e-10)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_universal(Dataset([0.0, 1.0], [1.0, 2.0]),
                          SpectralModel.from_list(2, [1.0]), 0.0)

    def test_negative_nugget_rejected(self):
        with pytest.raises(ValueError):
            fit_universal(Dataset([0.0, 1.0], [1.0, 2.0]),
                          SpectralModel.from_list(1, [1.0]), -0.1)

    def test_exact_interpolation_and_zero_variance_at_data(self):
        rng = np.random.default_rng(20)
        pts = np.sort(rng.uniform(0, TWO_PI, 7))
        y = rng.standard_normal(7)
        model = fit_universal(
            Dataset(pts, y),
            SpectralModel.from_list(1, rng.uniform(0.2, 1.0, 5)), 0.0)
        vals, var = model.predict_with_variance(pts)
        assert np.allclose(vals, y, atol=1e-9)
        assert np.all(var <= 1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for kappa in (1, 2, 3):
            n = 12
            pts = np.sort(rng.uniform(0, TWO_PI, n))
            y = rng.standard_normal(n)
            cov = IntrinsicCovariance(
                SpectralModel.from_list(kappa, rng.uniform(0.2, 2.0, 6)))
            for nugget in (0.0, 0.3):
                model = fit_universal(Dataset(pts, y), cov, nugget)
                for t0 in rng.uniform(0, TWO_PI, 4):
                    want_v, want_s2, want_eta = _brute_force(
                        pts, y, cov, nugget, kappa, t0)
                    got_v, got_s2 = model.predict_with_variance([t0])
                    eta, _ = model.weights([t0])
                    assert np.isclose(got_v[0], want_v, atol=1e-9)
                    assert np.isclose(got_s2[0], want_s2, atol=1e-9)
                    assert np.allclose(eta[0], want_eta, atol=1e-9)

    def test_dual_coefficients_orthogonal_to_drift(self):
        rng = np.random.default_rng(22)
        pts = np.sort(rng.uniform(0, TWO_PI, 10))
        y = rng.standard_normal(10)
        model = fit_universal(
            Dataset(pts, y),
            SpectralModel.from_list(2, rng.uniform(0.2, 2.0, 6)), 0.5)
        resid = model.basis.design_matrix(pts).T @ model.kernel_coeffs
        assert np.max(np.abs(resid)) < 1e-10

    def test_primal_equals_dual(self):
        rng = np.random.default_rng(23)
        pts = np.sort(rng.uniform(0, TWO_PI, 9))
        y = rng.standard_normal(9)
        model = fit_universal(
            Dataset(pts, y),
            SpectralModel.from_list(1, rng.uniform(0.2, 2.0, 5)), 0.1)
        t0 = rng.uniform(0, TWO_PI, 11)
        eta, _ = model.weights(t0)
        assert np.allclose(model.predict(t0), eta @ y, atol=1e-10)

    def test_smoothing_limit_reaches_regression(self):
        rng = np.random.default_rng(24)
        pts = np.sort(rng.uniform(0, TWO_PI, 12))
        y = rng.standard_normal(12)
        data = Dataset(pts, y)
        spec = SpectralModel.from_list(2, rng.uniform(0.2, 1.0, 7))
        coeffs = trig_regression(data, 2)
        reg = NilSpaceBasis(2).design_matrix(pts) @ coeffs
        gaps = []
        for nugget in (1e2, 1e4, 1e6):
            model = fit_universal(data, spec, nugget)
            gaps.append(np.max(np.abs(model.predict(pts) - reg)))
        scale = max(1.0, np.max(np.abs(y)))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= 1e-3 * scale

    def test_singular_without_nugget_names_remedy(self):
        # one spectral frequency cannot interpolate ten points
        rng = np.random.default_rng(25)
        pts = np.sort(rng.uniform(0, TWO_PI, 10))
        with pytest.raises(ConditioningError) as excinfo:
            fit_universal(Dataset(pts, rng.standard_normal(10)),
                          SpectralModel.from_list(1, [1.0]), 0.0)
        assert "nugget" in str(excinfo.value)

    def test_not_positive_definite_on_allowable_measures(self):
        rng = np.random.default_rng(40)
        pts = np.sort(rng.uniform(0, TWO_PI, 8))
        for nugget in (0.0, 0.1):
            with pytest.raises(ConditioningError) as excinfo:
                fit_universal(Dataset(pts, rng.standard_normal(8)),
                              _negated_spline(), nugget)
            msg = str(excinfo.value)
            assert "not positive definite on allowable measures" in msg
            assert "nugget" in msg

    @pytest.mark.parametrize("kappa", [2, 3])
    @pytest.mark.parametrize("nugget", [0.0, 0.5])
    def test_data_size_equal_to_drift_dimension(self, kappa, nugget):
        # n == dim leaves no allowable measure on the data: the reduced
        # block is empty and the fit interpolates with the drift alone,
        # whatever the covariance and nugget.
        rng = np.random.default_rng(41)
        n = 2 * kappa - 1
        pts = np.sort(rng.uniform(0, TWO_PI, n))
        data = Dataset(pts, rng.standard_normal(n))
        model = fit_universal(
            data, SpectralModel.from_list(kappa, rng.uniform(0.2, 1.0, 4)),
            nugget)
        t = rng.uniform(0, TWO_PI, 13)
        drift = NilSpaceBasis(kappa).design_matrix(t) @ trig_regression(
            data, kappa)
        vals, var = model.predict_with_variance(t)
        assert np.allclose(vals, drift, atol=1e-9)
        assert np.all(var >= 0.0)
        # At a datum the error is the observation noise alone.
        _, var_at_data = model.predict_with_variance(pts)
        assert np.allclose(var_at_data, nugget, atol=1e-9)
        assert model.diagnostics["dim"] == n

    def test_diagnostics(self):
        rng = np.random.default_rng(42)
        pts = np.sort(rng.uniform(0, TWO_PI, 12))
        model = fit_universal(
            Dataset(pts, rng.standard_normal(12)),
            SpectralModel.from_list(2, rng.uniform(0.2, 1.0, 8)), 0.25)
        diag = model.diagnostics
        assert set(diag) == {"n", "dim", "nugget", "rcond",
                             "scaled_residual", "tail_bound",
                             "drift_orthogonality"}
        assert (diag["n"], diag["dim"], diag["nugget"]) == (12, 3, 0.25)
        assert 0.0 < diag["rcond"] <= 1.0
        assert 0.0 < diag["scaled_residual"] <= _MAX_RESIDUAL
        model.predict_with_variance(rng.uniform(0, TWO_PI, 50))
        assert model.diagnostics["scaled_residual"] >= diag[
            "scaled_residual"]

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_diagnostics_tail_bound_and_drift_orthogonality(self, kappa):
        rng = np.random.default_rng(43)
        pts = np.sort(rng.uniform(0, TWO_PI, 40))
        data = Dataset(pts, 100.0 * rng.standard_normal(40))
        power = SpectralModel.power_law(kappa, 1.0, 3.0, n_max=50)
        listed = SpectralModel.from_list(kappa, rng.uniform(0.2, 1.0, 30))
        cases = [(power, power.tail_bound()), (listed, 0.0)]
        if kappa == 1:
            cases.append((spline_covariance(2), 0.0))
        for model, tail in cases:
            fit = fit_universal(data, model, 0.1)
            diag = fit.diagnostics
            assert diag["tail_bound"] == tail
            q = NilSpaceBasis(kappa).design_matrix(pts)
            assert diag["drift_orthogonality"] == \
                np.max(np.abs(q.T @ fit.kernel_coeffs))
            assert diag["drift_orthogonality"] <= 1e-12 * np.max(
                np.abs(fit.kernel_coeffs))

    def test_fit_memory(self):
        # Spline m=2 at n = 800 with variances on 512 points.  The fit holds
        # the Gram, kept for the residual check, and the Cholesky factor of
        # the reduced block: 2 n^2 values.  The fit's reduction and the
        # variance blocks (sections, whitened right-hand side and solution)
        # fit in six more arrays of n x _TARGET_BLOCK.
        n, m = 800, 512
        rng = np.random.default_rng(43)
        pts = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * TWO_PI / n
        data = Dataset(pts, rng.standard_normal(n))
        grid = TWO_PI * np.arange(m) / m
        (pred, var), extra = _peak_beyond_result(
            lambda: fit_universal(data, spline_covariance(2), 0.01)
            .predict_with_variance(grid))
        assert np.all(np.isfinite(pred)) and np.all(var >= 0.0)
        assert extra <= 8 * (2 * n * n + 6 * n * _TARGET_BLOCK)

    def test_weights_memory_does_not_grow_with_targets(self):
        # 4096 targets at n = 400: one solve over every target held about
        # 26 MB of temporaries beside its 13 MB result; the blocks hold a
        # few n x _TARGET_BLOCK.
        n, m = 400, 4096
        model = _spline_fit(n, 0.01)
        grid = TWO_PI * np.arange(m) / m
        (eta, rho), extra = _peak_beyond_result(lambda: model.weights(grid))
        assert eta.shape == (m, n) and rho.shape == (m, 1)
        assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-8)
        assert extra <= 8 * (2 * n * n + 6 * n * _TARGET_BLOCK)

    def test_basis_choice_does_not_change_predictions(self):
        rng = np.random.default_rng(26)
        pts = np.sort(rng.uniform(0, TWO_PI, 9))
        y = rng.standard_normal(9)
        spec = SpectralModel.from_list(2, rng.uniform(0.2, 1.0, 5))
        m_trig = fit_universal(Dataset(pts, y), spec, 0.2, basis="trig")
        m_card = fit_universal(Dataset(pts, y), spec, 0.2, basis="cardinal")
        t = rng.uniform(0, TWO_PI, 21)
        assert np.allclose(m_trig.predict(t), m_card.predict(t), atol=1e-9)

    @pytest.mark.parametrize("nugget", [0.0, 0.2])
    def test_basis_choice_does_not_change_variances(self, nugget):
        rng = np.random.default_rng(44)
        pts = np.sort(rng.uniform(0, TWO_PI, 11))
        y = rng.standard_normal(11)
        spec = SpectralModel.from_list(3, rng.uniform(0.2, 1.0, 6))
        t = rng.uniform(0, TWO_PI, 21)
        trig = fit_universal(Dataset(pts, y), spec, nugget, basis="trig")
        card = fit_universal(Dataset(pts, y), spec, nugget,
                             basis=CardinalBasis(3))
        for got, want in zip(card.predict_with_variance(t),
                             trig.predict_with_variance(t)):
            assert np.allclose(got, want, atol=1e-9)
        assert np.allclose(card.weights(t)[0], trig.weights(t)[0],
                           atol=1e-9)

    def test_prediction_object(self):
        data = Dataset([0.0, 2.0, 4.0], [1.0, -1.0, 0.5])
        model = fit_universal(data, SpectralModel.from_list(1, [1.0, 0.5]),
                              0.0)
        value, variance = model.predict_with_variance(2.0)
        assert np.ndim(value) == 0 and np.ndim(variance) == 0
        assert np.isclose(value, -1.0, atol=1e-9)
        assert 0.0 <= variance <= 1e-9

    def test_scalar_shape(self):
        data = Dataset([0.0, 2.0, 4.0], [1.0, -1.0, 0.5])
        model = fit_universal(data, SpectralModel.from_list(1, [1.0, 0.5]),
                              0.0)
        assert np.ndim(model.predict(1.0)) == 0
        assert model.predict(np.array([1.0, 2.0])).shape == (2,)
        for out in model.predict_with_variance([]):
            assert out.shape == (0,)

    def test_unbiasedness_measure_is_allowable(self):
        rng = np.random.default_rng(27)
        for kappa in (1, 2):
            n = 9
            pts = np.sort(rng.uniform(0, TWO_PI, n))
            model = fit_universal(
                Dataset(pts, rng.standard_normal(n)),
                SpectralModel.from_list(kappa, rng.uniform(0.2, 1.0, 6)),
                0.1)
            for t0 in rng.uniform(0, TWO_PI, 5):
                lam = model.unbiasedness_measure(float(t0))
                assert lam.is_allowable(kappa, tol=1e-8)


def _spline_fit(n, nugget, seed=50):
    rng = np.random.default_rng(seed)
    pts = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * TWO_PI / n
    return fit_universal(Dataset(pts, rng.standard_normal(n)),
                         spline_covariance(2), nugget)


class TestWhitenedVariance:
    @pytest.mark.parametrize("m", [0, 1, _TARGET_BLOCK - 1, _TARGET_BLOCK,
                                   _TARGET_BLOCK + 1, 2 * _TARGET_BLOCK + 1])
    @pytest.mark.parametrize("nugget", [0.0, 0.1])
    def test_matches_the_primal_solve(self, m, nugget):
        model = _spline_fit(60, nugget)
        t = np.random.default_rng(m).uniform(0.0, TWO_PI, m)
        vals, var = model.predict_with_variance(t)
        assert vals.shape == var.shape == (m,)
        assert np.array_equal(vals, model.predict(t))
        want = _primal_variance_oracle(model, t)
        assert np.all(np.abs(var - want)
                      <= 1e-9 * max(1.0, model.covariance.phi0))

    def test_scalar_target_keeps_its_shape(self):
        model = _spline_fit(60, 0.1)
        vals, var = model.predict_with_variance(1.0)
        assert np.ndim(vals) == 0 and np.ndim(var) == 0
        assert vals == model.predict(1.0)
        assert abs(var - _primal_variance_oracle(model, [1.0])[0]) <= 1e-9

    def test_corrupt_factor_fails_the_bordered_probe(self):
        # A factor scaled by 1 + 1e-6 still solves its own triangular
        # systems exactly, so only the bordered solve of the probe column,
        # checked against the Gram, can see it.
        model = _spline_fit(60, 0.1)
        model._solver._chol *= 1.0 + 1.0e-6
        with pytest.raises(ConditioningError,
                           match="kriging system: scaled residual"):
            model.predict_with_variance(np.linspace(0.0, 6.0, 10))

    def test_inexact_whitened_solve_fails_its_gate(self, monkeypatch):
        model = _spline_fit(60, 0.1)
        dtrtrs = lapack.dtrtrs

        def off(a, b, *args, **kwargs):
            z, info = dtrtrs(a, b, *args, **kwargs)
            if a is model._solver._chol:
                z = z * (1.0 + 1.0e-6)
            return z, info

        monkeypatch.setattr(lapack, "dtrtrs", off)
        with pytest.raises(ConditioningError,
                           match="whitened solve scaled residual"):
            model.predict_with_variance(np.linspace(0.0, 6.0, 10))

    def test_memory_does_not_grow_with_targets(self):
        # 2**14 targets at n = 400: the primal solve held several n x m
        # arrays (about 158 MB); the blocks hold a few n x _TARGET_BLOCK.
        n, m = 400, 2**14
        model = _spline_fit(n, 0.01)
        grid = TWO_PI * np.arange(m) / m
        (pred, var), extra = _peak_beyond_result(
            lambda: model.predict_with_variance(grid))
        assert np.all(np.isfinite(pred)) and np.all(var >= 0.0)
        assert extra <= 8 * (2 * n * n + 6 * n * _TARGET_BLOCK)

    def test_huge_data_pass_the_gates(self):
        # At values near 1e200 a plain sum of squares overflows, and the
        # residual gates read inf / inf = nan on a well-posed system.
        base = _spline_fit(60, 0.1)
        t = np.linspace(0.0, TWO_PI, 300, endpoint=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = fit_universal(
                Dataset(base.data.points, base.data.values * 1e200),
                spline_covariance(2), 0.1)
            vals, var = big.predict_with_variance(t)
        want, want_var = base.predict_with_variance(t)
        assert np.max(np.abs(vals / 1e200 - want)) <= \
            1e-12 * np.max(np.abs(want))
        assert np.array_equal(var, want_var)


class TestOrdinaryKriging:
    @staticmethod
    def _sv(rng, n_freq=5, c0=None):
        cov = IntrinsicCovariance(
            SpectralModel.from_list(1, rng.uniform(0.2, 1.0, n_freq)))
        return Semivariogram(cov, c0=cov.phi0 if c0 is None else c0)

    def test_single_point(self):
        rng = np.random.default_rng(28)
        sv = self._sv(rng)
        model = fit_ordinary(Dataset([1.0], [2.5]), sv)
        t = np.linspace(0, TWO_PI, 7)
        assert np.allclose(model.predict(t), 2.5, atol=1e-12)
        # with one observation the error variance is twice the variogram
        _, var = model.predict_with_variance([2.0])
        assert np.isclose(var[0], 2.0 * float(sv(1.0)), atol=1e-10)

    def test_not_conditionally_negative_definite(self):
        # The variogram of a negated spline is conditionally positive
        # definite, so -Gamma fails the Cholesky factorization.
        rng = np.random.default_rng(45)
        pts = np.sort(rng.uniform(0, TWO_PI, 6))
        with pytest.raises(ConditioningError) as excinfo:
            fit_ordinary(Dataset(pts, rng.standard_normal(6)),
                         Semivariogram(_negated_spline()))
        assert "not positive definite on allowable measures" in str(
            excinfo.value)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(29)
        pts = np.sort(rng.uniform(0, TWO_PI, 8))
        model = fit_ordinary(Dataset(pts, rng.standard_normal(8)),
                             self._sv(rng))
        eta, _ = model.weights(rng.uniform(0, TWO_PI, 6))
        assert np.allclose(eta.sum(axis=1), 1.0, atol=1e-10)

    def test_matches_universal_kriging(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            n = int(rng.integers(3, 10))
            pts = np.sort(rng.uniform(0, TWO_PI, n))
            y = rng.standard_normal(n)
            cov = IntrinsicCovariance(
                SpectralModel.from_list(1, rng.uniform(0.2, 1.0, n)))
            sv = Semivariogram(cov, c0=cov.phi0)
            ok = fit_ordinary(Dataset(pts, y), sv)
            uk = fit_universal(Dataset(pts, y), phi_from_variogram(sv), 0.0)
            t = rng.uniform(0, TWO_PI, 25)
            ok_v, ok_s2 = ok.predict_with_variance(t)
            uk_v, uk_s2 = uk.predict_with_variance(t)
            assert np.allclose(ok_v, uk_v, atol=1e-10)
            assert np.allclose(ok_s2, uk_s2, atol=1e-10)

    def test_constant_shift_changes_nothing(self):
        rng = np.random.default_rng(31)
        pts = np.sort(rng.uniform(0, TWO_PI, 7))
        y = rng.standard_normal(7)
        cov = IntrinsicCovariance(
            SpectralModel.from_list(1, rng.uniform(0.2, 1.0, 5)))
        t = rng.uniform(0, TWO_PI, 11)
        base = fit_ordinary(Dataset(pts, y), Semivariogram(cov, c0=cov.phi0))
        moved = fit_ordinary(Dataset(pts, y),
                             Semivariogram(cov, c0=cov.phi0 + 9.0))
        b_v, b_s2 = base.predict_with_variance(t)
        m_v, m_s2 = moved.predict_with_variance(t)
        assert np.allclose(b_v, m_v, atol=1e-12)
        assert np.allclose(b_s2, m_s2, atol=1e-12)

    def test_exact_interpolation(self):
        rng = np.random.default_rng(32)
        pts = np.sort(rng.uniform(0, TWO_PI, 6))
        y = rng.standard_normal(6)
        model = fit_ordinary(Dataset(pts, y), self._sv(rng, n_freq=6))
        vals, var = model.predict_with_variance(pts)
        assert np.allclose(vals, y, atol=1e-9)
        assert np.all(var <= 1e-9)

    def test_unbiasedness_measure(self):
        rng = np.random.default_rng(33)
        pts = np.sort(rng.uniform(0, TWO_PI, 6))
        model = fit_ordinary(Dataset(pts, rng.standard_normal(6)),
                             self._sv(rng))
        lam = model.unbiasedness_measure(1.0)
        assert lam.is_allowable(1, tol=1e-8)

    def test_series_is_never_evaluated_lag_by_lag(self, monkeypatch):
        # The fit and the variances take the factored series Gram; only
        # phi(0) is evaluated at a lag.
        call = IntrinsicCovariance.__call__

        def scalar_only(cov, lag):
            if np.size(lag) > 1:
                raise AssertionError(f"series evaluated at {np.size(lag)} "
                                     "lags")
            return call(cov, lag)

        monkeypatch.setattr(IntrinsicCovariance, "__call__", scalar_only)
        rng = np.random.default_rng(47)
        pts = np.sort(rng.uniform(0, TWO_PI, 30))
        model = fit_ordinary(Dataset(pts, rng.standard_normal(30)),
                             self._sv(rng, n_freq=40))
        vals, var = model.predict_with_variance(rng.uniform(0, TWO_PI, 50))
        assert np.all(np.isfinite(vals)) and np.all(var >= 0.0)

    @pytest.mark.parametrize("m", [1, _TARGET_BLOCK, _TARGET_BLOCK + 1,
                                   _TARGET_BLOCK + 2, 2 * _TARGET_BLOCK + 1])
    def test_blocks_match_one_solve(self, m):
        # The reference solves every target as one column of one solve.
        rng = np.random.default_rng(46)
        n = 30
        pts = np.sort(rng.uniform(0, TWO_PI, n))
        model = fit_ordinary(Dataset(pts, rng.standard_normal(n)),
                             self._sv(rng, n_freq=40))
        t = rng.uniform(0, TWO_PI, m)
        tau_vec = model.semivariogram(np.subtract.outer(t, pts))
        eta, neg_rho = model._solver.solve(-tau_vec.T, np.ones((1, m)))
        want_eta, want_rho = eta.T, -neg_rho[0]
        want_var = np.einsum("jn,jn->j", tau_vec, want_eta) + want_rho
        vals, var = model.predict_with_variance(t)
        got_eta, got_rho = model.weights(t)
        assert np.array_equal(vals, model.predict(t))
        assert np.allclose(got_eta, want_eta, rtol=0, atol=1e-10)
        assert np.allclose(got_rho, want_rho, rtol=0, atol=1e-10)
        assert np.allclose(vals, want_eta @ model.data.values, rtol=0,
                           atol=1e-10)
        assert np.allclose(var, np.maximum(want_var, 0.0), rtol=0,
                           atol=1e-10)

    def test_memory_does_not_grow_with_targets(self):
        # 4096 targets at n = 400: one solve over every target held about
        # 53 MB of temporaries, and sections over every target 26 MB; the
        # blocks hold a few n x _TARGET_BLOCK.
        n, m = 400, 4096
        rng = np.random.default_rng(50)
        pts = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * TWO_PI / n
        model = fit_ordinary(Dataset(pts, rng.standard_normal(n)),
                             Semivariogram(spline_covariance(2)))
        grid = TWO_PI * np.arange(m) / m
        (pred, var), extra = _peak_beyond_result(
            lambda: model.predict_with_variance(grid))
        assert np.all(np.isfinite(pred)) and np.all(var >= 0.0)
        assert extra <= 8 * (2 * n * n + 6 * n * _TARGET_BLOCK)
        pred, extra = _peak_beyond_result(lambda: model.predict(grid))
        assert np.all(np.isfinite(pred))
        assert extra <= 8 * (2 * n * n + 6 * n * _TARGET_BLOCK)


class TestTrigRegression:
    def test_order_one_is_the_mean(self):
        rng = np.random.default_rng(34)
        y = rng.standard_normal(9)
        coeffs = trig_regression(Dataset(rng.uniform(0, TWO_PI, 9), y), 1)
        assert coeffs.shape == (1,)
        assert np.isclose(coeffs[0], y.mean(), atol=1e-12)

    def test_recovers_drift_space_data(self):
        rng = np.random.default_rng(35)
        pts = np.sort(rng.uniform(0, TWO_PI, 11))
        truth = np.array([0.5, 1.0, -2.0])
        y = NilSpaceBasis(2).design_matrix(pts) @ truth
        coeffs = trig_regression(Dataset(pts, y), 2)
        assert np.allclose(coeffs, truth, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(36)
        pts = np.sort(rng.uniform(0, TWO_PI, 15))
        y = rng.standard_normal(15)
        coeffs = trig_regression(Dataset(pts, y), 2)
        design = NilSpaceBasis(2).design_matrix(pts)
        want = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.allclose(coeffs, want, atol=1e-10)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            trig_regression(Dataset([0.0, 1.0], [1.0, 2.0]), 2)

    def test_clustered_points_rejected(self):
        pts = np.array([0.0, 1e-8, 2e-8])
        with pytest.raises(ConditioningError):
            trig_regression(Dataset(pts, np.ones(3)), 2)
