"""Tests for the reproducing kernel, its sections, and inner products."""

import numpy as np
import pytest

from circkrig import (
    TWO_PI,
    CardinalBasis,
    IntrinsicCovariance,
    RkhsKernel,
    SpectralModel,
    SpectrumError,
    TruncatedFunction,
    full_inner_product,
    semi_inner_product,
)
from circkrig.verification import random_allowable_measure
from test_covariance import _peak_beyond_result


def _random_kernel(rng, kappa=None):
    kappa = kappa or int(rng.integers(1, 4))
    n_freq = int(rng.integers(1, 7))
    model = SpectralModel.from_list(kappa, rng.uniform(0.1, 2.0, n_freq))
    return RkhsKernel(IntrinsicCovariance(model))


def _reference_kernel_value(kernel, x, y):
    """Four-term formula assembled independently of RkhsKernel.__call__."""
    cov = kernel.covariance
    tau = kernel.basis.tau
    px = kernel.basis.design_matrix([x])[0]
    py = kernel.basis.design_matrix([y])[0]
    val = float(cov(x - y))
    val -= float(np.dot([cov(x - t) for t in tau], py))
    val -= float(np.dot([cov(y - t) for t in tau], px))
    val += float(px @ np.array([[cov(a - b) for b in tau] for a in tau]) @ py)
    val += float(px @ py)
    return val


class TestTruncatedFunction:
    def test_evaluation(self):
        f = TruncatedFunction(2.0, [1.0, 0.0, 0.5], [0.0, -1.0, 0.0])
        t = np.linspace(0, TWO_PI, 9)
        expected = 2.0 + np.cos(t) + 0.5 * np.cos(3 * t) - np.sin(2 * t)
        assert np.allclose(f(t), expected, atol=1e-14)
        assert np.ndim(f(1.0)) == 0

    def test_coefficient_lookup(self):
        f = TruncatedFunction(2.0, [1.0, 0.0], [0.0, -1.0])
        assert f.coefficient(0) == (2.0, 0.0)
        assert f.coefficient(1) == (1.0, 0.0)
        assert f.coefficient(2) == (0.0, -1.0)
        assert f.coefficient(7) == (0.0, 0.0)

    def test_constant_function(self):
        f = TruncatedFunction(3.0, [], [])
        assert f.degree == 0
        assert f(1.0) == 3.0

    def test_matches_direct_sum_across_blocks(self):
        # 300 points take frequencies 873 at a time: three blocks.
        rng = np.random.default_rng(21)
        f = TruncatedFunction(rng.standard_normal(),
                              rng.standard_normal(2000),
                              rng.standard_normal(2000))
        t = rng.uniform(-20.0, 20.0, 300)
        n = np.arange(1.0, 2001.0)
        direct = f.a0 + np.array([f.cos_coeffs @ np.cos(n * s)
                                  + f.sin_coeffs @ np.sin(n * s) for s in t])
        scale = (abs(f.a0) + np.abs(f.cos_coeffs).sum()
                 + np.abs(f.sin_coeffs).sum())
        assert np.max(np.abs(f(t) - direct)) <= 1.0e-12 * scale

    def test_memory_does_not_grow_with_degree(self):
        # Degree 2000 at 2000 points: the whole angle matrix with its
        # cosine and sine took a 64 MB peak.
        rng = np.random.default_rng(22)
        f = TruncatedFunction(1.0, rng.standard_normal(2000),
                              rng.standard_normal(2000))
        vals, extra = _peak_beyond_result(
            lambda: f(rng.uniform(0.0, TWO_PI, 2000)))
        assert vals.shape == (2000,)
        assert extra <= 16 * 2**20

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedFunction(0.0, [1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TruncatedFunction(np.nan, [1.0], [1.0])


class TestSemiInnerProduct:
    def test_cosine_sine_orthogonal(self):
        f = TruncatedFunction(0.0, [1.0], [0.0])
        g = TruncatedFunction(0.0, [0.0], [1.0])
        model = SpectralModel.from_list(1, [1.0])
        assert semi_inner_product(f, g, model) == 0.0

    def test_weighted_harmonic(self):
        f = TruncatedFunction(0.0, [1.0], [0.0])
        model = SpectralModel.from_list(1, [2.0])
        assert np.isclose(semi_inner_product(f, f, model), 0.5, atol=1e-15)

    def test_no_shared_energy_gives_zero(self):
        # g is constant, so the pairing vanishes for any weights
        f = TruncatedFunction(1.0, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        g = TruncatedFunction(5.0, [], [])
        for model in (SpectralModel.from_list(1, [1.0]),
                      SpectralModel.from_list(1, [0.3, 0.3, 0.3]),
                      SpectralModel.from_list(1, [])):
            assert semi_inner_product(f, g, model) == 0.0

    def test_shared_unrepresented_energy_raises(self):
        f = TruncatedFunction(0.0, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        model = SpectralModel.from_list(1, [1.0])
        with pytest.raises(SpectrumError) as excinfo:
            semi_inner_product(f, f, model)
        assert "frequency 3" in str(excinfo.value)

    def test_low_order_energy_ignored(self):
        # frequencies below kappa never enter the sum
        f = TruncatedFunction(4.0, [2.0, 1.0], [0.0, 0.0])
        model = SpectralModel.from_list(2, [0.5])
        assert np.isclose(semi_inner_product(f, f, model), 2.0, atol=1e-15)


class TestFullInnerProduct:
    def test_constants_at_single_node(self):
        kernel = RkhsKernel(IntrinsicCovariance(
            SpectralModel.from_list(1, [1.0])))
        one = TruncatedFunction(1.0, [], [])
        assert np.isclose(full_inner_product(one, one, kernel), 1.0,
                          atol=1e-15)

    def test_harmonic_with_point_part(self):
        kernel = RkhsKernel(IntrinsicCovariance(
            SpectralModel.from_list(1, [1.0])))
        f = TruncatedFunction(0.0, [1.0], [0.0])
        # node at 0: point part cos(0)^2 = 1, seminorm part 1/1 = 1
        assert np.isclose(full_inner_product(f, f, kernel), 2.0, atol=1e-14)


class TestRkhsKernel:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            kernel = _random_kernel(rng)
            x, y = rng.uniform(0, TWO_PI, 2)
            assert np.isclose(kernel(x, y),
                              _reference_kernel_value(kernel, x, y),
                              atol=1e-11)

    def test_nodes_reproduce_cardinal_functions(self):
        rng = np.random.default_rng(11)
        for kappa in (1, 2, 3):
            kernel = _random_kernel(rng, kappa)
            x = rng.uniform(0, TWO_PI, 9)
            got = kernel.gram(x, kernel.basis.tau)
            want = kernel.basis.design_matrix(x)
            assert np.allclose(got, want, atol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        kernel = _random_kernel(rng)
        x = rng.uniform(0, TWO_PI, 500)
        y = rng.uniform(0, TWO_PI, 500)
        assert np.allclose(kernel(x, y), kernel(y, x), atol=1e-12)

    def test_gram_consistent_with_calls(self):
        rng = np.random.default_rng(13)
        kernel = _random_kernel(rng)
        x = rng.uniform(0, TWO_PI, 4)
        y = rng.uniform(0, TWO_PI, 3)
        gram = kernel.gram(x, y)
        direct = kernel(x[:, None], y[None, :])
        assert np.allclose(gram, direct, atol=1e-12)

    def test_section_matches_kernel(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            kernel = _random_kernel(rng)
            x = float(rng.uniform(0, TWO_PI))
            section = kernel.section(x)
            grid = rng.uniform(0, TWO_PI, 40)
            assert np.allclose(section(grid), kernel(x, grid), atol=1e-10)

    def test_reproducing_property(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            kernel = _random_kernel(rng)
            model = kernel.covariance.model
            deg = model.support_end
            f = TruncatedFunction(float(rng.standard_normal()),
                                  rng.standard_normal(deg),
                                  rng.standard_normal(deg))
            x = float(rng.uniform(0, TWO_PI))
            ip = full_inner_product(kernel.section(x), f, kernel)
            assert np.isclose(ip, float(f(x)), atol=1e-9)

    def test_measure_aggregate_independent_of_nodes(self):
        # aggregating over allowable measure pairs wipes out the node choice
        rng = np.random.default_rng(16)
        for kappa in (1, 2):
            dim = 2 * kappa - 1
            model = SpectralModel.from_list(kappa,
                                            rng.uniform(0.1, 2.0, 4))
            cov = IntrinsicCovariance(model)
            k1 = RkhsKernel(cov, CardinalBasis(kappa))
            nodes = np.sort(rng.uniform(0, TWO_PI, dim))
            while dim > 1 and np.min(np.diff(nodes,
                                             append=nodes[0] + TWO_PI)) < 0.5:
                nodes = np.sort(rng.uniform(0, TWO_PI, dim))
            k2 = RkhsKernel(cov, CardinalBasis(kappa, nodes))
            lam = random_allowable_measure(rng, kappa, 2 * kappa + 3)
            mu = random_allowable_measure(rng, kappa, 2 * kappa + 4)
            agg1 = lam.weights @ k1.gram(lam.locations,
                                         mu.locations) @ mu.weights
            agg2 = lam.weights @ k2.gram(lam.locations,
                                         mu.locations) @ mu.weights
            assert np.isclose(agg1, agg2, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        model = SpectralModel.from_list(2, rng.uniform(0.1, 2.0, 3))
        cov = IntrinsicCovariance(model)
        k_plain = RkhsKernel(cov)
        k_shift = RkhsKernel(cov.with_shift(7.0))
        x = rng.uniform(0, TWO_PI, 30)
        assert np.allclose(k_plain.gram(x), k_shift.gram(x), atol=1e-10)

    def test_order_mismatch_rejected(self):
        cov = IntrinsicCovariance(SpectralModel.from_list(2, [1.0]))
        with pytest.raises(ValueError):
            RkhsKernel(cov, CardinalBasis(1))

    def test_positive_semidefinite_quick(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            kernel = _random_kernel(rng)
            pts = rng.uniform(0, TWO_PI, 30)
            gram = kernel.gram(pts)
            eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
            assert eig[0] >= -1e-10 * max(eig[-1], 1.0)
