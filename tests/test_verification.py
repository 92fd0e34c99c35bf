"""Tests of the verification suites' own checks."""

import numpy as np
import pytest

from circkrig import (
    TWO_PI,
    OrdinaryKrigingModel,
    UniversalKrigingModel,
    covariance,
    simulate,
    verification,
    wrap,
)
from circkrig.kriging import _SaddleSolver
from circkrig.verification import (
    _gaps_shrink,
    kernel_checks,
    ordinary_universal_checks,
    primal_dual_checks,
    run_verification,
    smoothing_limit_checks,
    stationarity_checks,
)


def _result(report, name):
    return next(r for r in report.results if r.name == name)


class TestSmoothingMonotone:
    @pytest.mark.parametrize("seed", [3, 7, 2001])
    def test_rounding_noise_is_not_a_break(self, seed):
        # Each seed draws an instance with n == 2*kappa - 1, where the fit
        # is trigonometric regression exactly and the gaps are ~1e-15 noise.
        check = _result(smoothing_limit_checks(seed), "smoothing-monotone")
        assert check.passed, check

    def test_growing_gaps_are_flagged(self):
        assert not _gaps_shrink([1.0e-3, 2.0e-3, 1.0e-4], 1.0)
        assert not _gaps_shrink([1.0e-2, 1.0e-3, 1.0e-3 + 1.0e-9], 1.0)
        assert not _gaps_shrink([5.0e-11, 1.0e-11, 3.0e-11], 10.0)

    def test_shrinking_or_noise_gaps_pass(self):
        assert _gaps_shrink([1.0e-2, 1.0e-4, 1.0e-6], 1.0)
        assert _gaps_shrink([1.0e-15, 5.1e-15, 2.0e-15], 1.0)


class TestGramSeriesAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_passes(self, seed):
        check = _result(kernel_checks(seed, n_sets=2), "gram-series-agreement")
        assert check.passed, check
        assert 0.0 < check.statistic <= 1.0

    def test_flags_a_wrong_frequency(self, monkeypatch):
        features = covariance._features
        monkeypatch.setattr(
            covariance, "_features",
            lambda t, f, weight: features(t, f + 1.0, weight))
        check = _result(kernel_checks(0, n_sets=2), "gram-series-agreement")
        assert not check.passed


class TestClosedFormGramAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_passes(self, seed):
        check = _result(kernel_checks(seed, n_sets=2),
                        "closed-form-gram-agreement")
        assert check.passed, check
        assert check.statistic == 0

    def test_flags_lags_without_the_period_guard(self, monkeypatch):
        # A tiny negative difference plus 2 pi rounds to 2 pi itself; the
        # spline values there equal those at 0, so only the lags show it.
        def unguarded(s, t):
            d = np.asarray(np.subtract(wrap(s), wrap(t)))
            np.add(d, TWO_PI, out=d, where=d < 0.0)
            return d

        monkeypatch.setattr(covariance, "_canonical_lags", unguarded)
        check = _result(kernel_checks(0, n_sets=2),
                        "closed-form-gram-agreement")
        assert not check.passed
        assert 0 < check.statistic

    def test_flags_lags_one_ulp_off(self, monkeypatch):
        lags = covariance._canonical_lags
        monkeypatch.setattr(
            covariance, "_canonical_lags",
            lambda s, t: np.nextafter(lags(s, t), np.inf))
        report = kernel_checks(0, n_sets=2)
        assert not _result(report, "closed-form-gram-agreement").passed
        others = [r for r in report.results
                  if r.name != "closed-form-gram-agreement"]
        assert all(r.passed for r in others), others


class TestKrigingVarianceAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_passes(self, seed):
        check = _result(primal_dual_checks(seed, n_instances=12),
                        "kriging-variance-agreement")
        assert check.passed, check

    def test_flags_a_dropped_drift_term(self, monkeypatch):
        # phi0 - eta.k without the -rho.q term: at order 1, q = 1 and the
        # multiplier rho is of the order of the variance itself.
        def without_rho(model, t0):
            k, q = model._sections(t0)
            eta, _ = model._solver.solve(k.T, q.T)
            var = model.covariance.phi0 - np.einsum("mn,nm->m", k, eta)
            return model.predict(t0), np.maximum(var, 0.0)

        monkeypatch.setattr(UniversalKrigingModel, "predict_with_variance",
                            without_rho)
        check = _result(primal_dual_checks(0, n_instances=6),
                        "kriging-variance-agreement")
        assert not check.passed
        assert check.statistic > 1.0e-3


class TestOrdinaryPrimalAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_passes(self, seed):
        check = _result(ordinary_universal_checks(seed, n_instances=12),
                        "ordinary-primal-agreement")
        assert check.passed, check
        assert 0.0 < check.statistic <= check.threshold

    def test_flags_a_dropped_multiplier(self, monkeypatch):
        # eta.tau without the +rho term: the multiplier is of the order of
        # the variance itself.  Predictions are untouched.
        def without_rho(model, t0):
            k, q = model._sections(t0)
            eta, _ = model._solver.solve(k.T, q.T)
            var = model.covariance.phi0 - np.einsum("mn,nm->m", k, eta)
            return model.predict(t0), np.maximum(var, 0.0)

        monkeypatch.setattr(OrdinaryKrigingModel, "predict_with_variance",
                            without_rho)
        report = ordinary_universal_checks(0, n_instances=6)
        check = _result(report, "ordinary-primal-agreement")
        assert not check.passed
        assert check.statistic > 1.0e-3
        assert _result(report, "ordinary-universal-prediction").passed


class TestWhitenedVarianceAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_passes(self, seed):
        check = _result(primal_dual_checks(seed, n_instances=12),
                        "whitened-variance-agreement")
        assert check.passed, check
        assert 0.0 < check.statistic <= check.threshold

    def test_flags_a_halved_cross_term(self, monkeypatch):
        # 2 k1.u1 taken once instead of twice.  The variance is wrong, so
        # kriging-variance-agreement sees it too; the checks that do not
        # read the variance stay green.
        quadratic = _SaddleSolver.quadratic

        def halved(self, b, c):
            l = self._r.shape[0]
            cross = np.einsum("ij,ij->j",
                              self._apply("L", "T", b.copy())[:l],
                              self._triangular(c, trans=1))
            return quadratic(self, b, c) - cross

        monkeypatch.setattr(_SaddleSolver, "quadratic", halved)
        report = primal_dual_checks(0, n_instances=6)
        check = _result(report, "whitened-variance-agreement")
        assert not check.passed
        assert check.statistic > 1.0e-3
        others = [r for r in report.results if "variance" not in r.name]
        assert len(others) == 4
        assert all(r.passed for r in others), others


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_passes(self, seed):
        check = _result(primal_dual_checks(seed, n_instances=12),
                        "solver-agreement")
        assert check.passed, check
        assert 0.0 < check.statistic <= check.threshold

    def test_flags_a_solver_accurate_to_one_part_in_1e12(self, monkeypatch):
        # Every solution off by a relative 1e-12: thousands of eps * cond on
        # these well-conditioned instances, yet far inside the 1e-9 bounds
        # of the suite's other checks.
        solve = _SaddleSolver.solve

        def off(self, b, c=None):
            x, y = solve(self, b, c)
            return x * (1.0 + 1.0e-12), y * (1.0 + 1.0e-12)

        monkeypatch.setattr(_SaddleSolver, "solve", off)
        report = primal_dual_checks(0, n_instances=6)
        assert not _result(report, "solver-agreement").passed
        others = [r for r in report.results if r.name != "solver-agreement"]
        assert all(r.passed for r in others), others


class TestSimulationSynthesisAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_passes(self, seed):
        check = _result(stationarity_checks(seed, n_realizations=1000,
                                            grid_size=64),
                        "simulation-synthesis-agreement")
        assert check.passed, check
        assert 0.0 < check.statistic <= 1.0

    def test_flags_a_bridge_step_without_its_scale(self, monkeypatch):
        # s_k = sqrt(h c_k / c_{k-1}) in place of sqrt(2 pi h c_k / c_{k-1})
        factor = simulate._bridge_factor

        def unscaled(grid_size):
            c, step = factor(grid_size)
            return c, step / np.sqrt(TWO_PI)

        monkeypatch.setattr(simulate, "_bridge_factor", unscaled)
        check = _result(stationarity_checks(0, n_realizations=1000,
                                            grid_size=64),
                        "simulation-synthesis-agreement")
        assert not check.passed

    @staticmethod
    def _only_synthesis_check_fails():
        report = stationarity_checks(0, n_realizations=1000, grid_size=64)
        check = _result(report, "simulation-synthesis-agreement")
        assert not check.passed
        others = [r for r in report.results
                  if r.name != "simulation-synthesis-agreement"]
        assert all(r.passed for r in others), others

    def test_flags_drift_columns_drawn_first(self, monkeypatch):
        # Each row of the irf stream read as drift, cosine, sine draws in
        # place of cosine, sine, drift; the bridge keeps its draws.
        irf, generator = verification.simulate_irf, simulate._generator

        class DriftFirst:
            def __init__(self, seed, dim):
                self.rng, self.dim = generator(seed), dim

            def standard_normal(self, size):
                return np.roll(self.rng.standard_normal(size), -self.dim,
                               axis=1)

        def drift_first(model, *args, **kwargs):
            dim = 2 * model.kappa - 1
            with monkeypatch.context() as m:
                m.setattr(simulate, "_generator",
                          lambda seed: DriftFirst(seed, dim))
                return irf(model, *args, **kwargs)

        monkeypatch.setattr(verification, "simulate_irf", drift_first)
        self._only_synthesis_check_fails()

    def test_flags_seed_off_by_one(self, monkeypatch):
        generator = simulate._generator
        monkeypatch.setattr(simulate, "_generator",
                            lambda seed: generator(seed + 1))
        self._only_synthesis_check_fails()


def test_checks_must_be_a_list():
    with pytest.raises(ValueError, match="list of suite names"):
        run_verification({"checks": "kernel"})
