"""Tests for angle handling, discrete measures, and trigonometric bases."""

import numpy as np
import pytest

from circkrig import (
    TWO_PI,
    CardinalBasis,
    DiscreteMeasure,
    NilSpaceBasis,
    UnisolvencyError,
    angular_distance,
    wrap,
)
from circkrig.verification import _wrap_oracle, random_allowable_measure


class TestWrap:
    def test_period_maps_to_zero(self):
        assert wrap(TWO_PI) == 0.0
        assert wrap(0.0) == 0.0
        assert wrap(2 * TWO_PI) == 0.0

    def test_negative_angles(self):
        assert np.isclose(wrap(-0.1), TWO_PI - 0.1, atol=1e-15)
        # tiny negative values must not round up to the period itself
        assert 0.0 <= wrap(-1e-300) < TWO_PI
        assert 0.0 <= wrap(-1e-17) < TWO_PI

    def test_range_and_equivalence(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-100.0, 100.0, 1000)
        w = wrap(t)
        assert np.all((0.0 <= w) & (w < TWO_PI))
        assert np.allclose(np.cos(w), np.cos(t), atol=1e-12)
        assert np.allclose(np.sin(w), np.sin(t), atol=1e-12)

    def test_scalar_in_scalar_out(self):
        assert np.ndim(wrap(7.0)) == 0

    def test_edge_cases_bit_for_bit_against_np_mod(self):
        k = TWO_PI * np.arange(1.0, 5.0)
        pos = np.concatenate([
            [0.0, 5e-324, 1e-300, 1e-17, 1e-16, 1e300, np.inf],
            k, np.nextafter(k, 0.0), np.nextafter(k, np.inf)])
        t = np.concatenate([pos, -pos, [np.nan]])
        with np.errstate(invalid="ignore"):
            got, want = wrap(t), _wrap_oracle(t)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.any(np.signbit(got[~np.isnan(got)]))
        assert np.array_equal(np.isnan(got), ~np.isfinite(t))
        finite = got[np.isfinite(got)]
        assert np.all((0.0 <= finite) & (finite < TWO_PI))
        # One by one, as scalars, the same values.
        for v in t:
            with np.errstate(invalid="ignore"):
                a, b = wrap(float(v)), _wrap_oracle(float(v))
            assert (a == b and np.signbit(a) == np.signbit(b)) or \
                (np.isnan(a) and np.isnan(b)), v

    def test_random_angles_bit_for_bit_against_np_mod(self):
        t = np.random.default_rng(2).uniform(-50.0, 50.0, 20_000)
        assert wrap(t).tobytes() == _wrap_oracle(t).tobytes()

    @pytest.mark.parametrize("theta", [7.0, -7, np.float64(-0.0),
                                       np.array(7.0), np.array([7.0]),
                                       [1.0, -2.0], np.ones((2, 3))])
    def test_return_type_and_shape_match_np_mod(self, theta):
        got, want = wrap(theta), _wrap_oracle(theta)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)

    def test_input_array_is_not_modified(self):
        t = np.array([-1.0, 7.0, -0.0])
        wrap(t)
        assert t.tobytes() == np.array([-1.0, 7.0, -0.0]).tobytes()


class TestAngularDistance:
    def test_wraparound_pair(self):
        assert np.isclose(angular_distance(0.1, TWO_PI - 0.1), 0.2,
                          atol=1e-14)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-10, 10, 500)
        y = rng.uniform(-10, 10, 500)
        d1 = angular_distance(x, y)
        d2 = angular_distance(y, x)
        assert np.allclose(d1, d2, atol=1e-12)
        assert np.all((0.0 <= d1) & (d1 <= np.pi + 1e-12))


class TestDiscreteMeasure:
    def test_two_point_contrast_moments(self):
        lam = DiscreteMeasure([0.0, np.pi], [1.0, -1.0])
        c0, s0 = lam.moments(0)
        assert c0 == 0.0 and s0 == 0.0
        c1, s1 = lam.moments(1)
        assert np.isclose(c1, 2.0, atol=1e-14)
        assert np.isclose(s1, 0.0, atol=1e-14)

    def test_allowability_orders(self):
        lam = DiscreteMeasure([0.0, np.pi], [1.0, -1.0])
        assert lam.is_allowable(0)
        assert lam.is_allowable(1)
        assert not lam.is_allowable(2)

    def test_every_measure_allowable_at_zero(self):
        lam = DiscreteMeasure([1.0], [3.0])
        assert lam.is_allowable(0)

    def test_translate_wraps(self):
        lam = DiscreteMeasure([3 * np.pi / 2], [1.0]).translate(np.pi)
        assert np.isclose(lam.locations[0], np.pi / 2, atol=1e-15)
        assert lam.weights[0] == 1.0

    def test_translate_preserves_moment_magnitudes(self):
        rng = np.random.default_rng(2)
        lam = DiscreteMeasure(rng.uniform(0, TWO_PI, 6),
                              rng.standard_normal(6))
        t = 1.234
        for k in range(4):
            c, s = lam.moments(k)
            ct, st = lam.translate(t).moments(k)
            assert np.isclose(np.hypot(c, s), np.hypot(ct, st), atol=1e-12)

    def test_apply_harmonic(self):
        lam = DiscreteMeasure([0.0, np.pi], [1.0, -1.0])
        assert np.isclose(lam.apply(np.cos), 2.0, atol=1e-14)
        assert np.isclose(lam.apply(np.sin), 0.0, atol=1e-14)

    def test_apply_scalar_returning_function(self):
        lam = DiscreteMeasure([0.0, np.pi], [1.0, -1.0])
        assert lam.apply(lambda t: 5.0) == 0.0
        lam2 = DiscreteMeasure([0.3, 1.2], [2.0, 3.0])
        assert np.isclose(lam2.apply(lambda t: 5.0), 25.0)

    def test_apply_bad_shape_rejected(self):
        lam = DiscreteMeasure([0.0, np.pi], [1.0, -1.0])
        with pytest.raises(ValueError):
            lam.apply(lambda t: np.ones(5))

    def test_coincident_atoms_are_additive(self):
        a = DiscreteMeasure([0.5, 0.5], [1.0, 2.0])
        b = DiscreteMeasure([0.5], [3.0])
        for k in range(3):
            assert np.allclose(a.moments(k), b.moments(k), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([], [])
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([np.nan], [1.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([0.0], [1.0]).moments(-1)

    def test_frozen_arrays(self):
        lam = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(ValueError):
            lam.weights[0] = 2.0


class TestNilSpaceBasis:
    def test_dimension_is_odd(self):
        for kappa in (1, 2, 3, 5):
            assert NilSpaceBasis(kappa).dim == 2 * kappa - 1

    def test_columns(self):
        t = np.array([0.3, 1.7, 4.0])
        m = NilSpaceBasis(2).design_matrix(t)
        assert np.allclose(m[:, 0], 1.0)
        assert np.allclose(m[:, 1], np.cos(t))
        assert np.allclose(m[:, 2], np.sin(t))

    def test_invalid_order(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(ValueError):
                NilSpaceBasis(bad)


class TestCardinalBasis:
    def test_order_one_is_constant(self):
        basis = CardinalBasis(1)
        t = np.linspace(0, TWO_PI, 17)
        assert np.allclose(basis.design_matrix(t), 1.0, atol=1e-14)

    def test_order_two_equispaced_closed_form(self):
        basis = CardinalBasis(2)
        t = np.linspace(0, TWO_PI, 23)
        expected = (1.0 + 2.0 * np.cos(np.subtract.outer(t, basis.tau))) / 3.0
        assert np.allclose(basis.design_matrix(t), expected, atol=1e-12)

    def test_delta_property_default_nodes(self):
        for kappa in (1, 2, 3, 4):
            basis = CardinalBasis(kappa)
            eye = basis.design_matrix(basis.tau)
            assert np.allclose(eye, np.eye(basis.dim), atol=1e-10)

    def test_delta_property_random_nodes(self):
        rng = np.random.default_rng(3)
        for kappa in (2, 3):
            dim = 2 * kappa - 1
            nodes = np.sort(rng.uniform(0, TWO_PI, dim))
            while np.min(np.diff(nodes, append=nodes[0] + TWO_PI)) < 0.3:
                nodes = np.sort(rng.uniform(0, TWO_PI, dim))
            basis = CardinalBasis(kappa, nodes)
            assert np.allclose(basis.design_matrix(nodes), np.eye(dim),
                               atol=1e-9)

    def test_cardinal_functions_sum_to_one(self):
        # interpolation of the constant is exact, so the p_nu sum to 1
        rng = np.random.default_rng(4)
        t = rng.uniform(0, TWO_PI, 50)
        for kappa in (1, 2, 3):
            basis = CardinalBasis(kappa)
            assert np.allclose(basis.design_matrix(t).sum(axis=1), 1.0,
                               atol=1e-12)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(UnisolvencyError) as excinfo:
            CardinalBasis(2, [0.0, 0.0, 3.0])
        msg = str(excinfo.value)
        assert "nodes 0 and 1" in msg

    def test_near_coincident_nodes_rejected(self):
        # separation 1e-13 drives the collocation condition number past
        # the 1e12 gate; 1e-9 is still accepted
        with pytest.raises(UnisolvencyError) as excinfo:
            CardinalBasis(2, [0.0, 1e-13, 3.0])
        assert "nodes 0 and 1" in str(excinfo.value)
        CardinalBasis(2, [0.0, 1e-9, 3.0])

    def test_wrong_node_count(self):
        with pytest.raises(ValueError):
            CardinalBasis(2, [0.0, 1.0])


class TestAllowableMeasureProperties:
    """Randomized invariants; the acceptance suite runs the large version."""

    def test_annihilation_of_drift_space(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            kappa = int(rng.integers(1, 4))
            lam = random_allowable_measure(
                rng, kappa, int(rng.integers(2 * kappa + 1, 2 * kappa + 6)))
            design = NilSpaceBasis(kappa).design_matrix(lam.locations)
            assert np.max(np.abs(design.T @ lam.weights)) < 1e-10
            assert lam.is_allowable(kappa, tol=1e-10)

    def test_nesting_of_allowable_classes(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            kappa = int(rng.integers(1, 4))
            lam = random_allowable_measure(
                rng, kappa + 1,
                int(rng.integers(2 * kappa + 2, 2 * kappa + 8)))
            assert lam.is_allowable(kappa + 1, tol=1e-9)
            assert lam.is_allowable(kappa, tol=1e-9)

    def test_translation_invariance_of_allowability(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            kappa = int(rng.integers(1, 4))
            lam = random_allowable_measure(
                rng, kappa, int(rng.integers(2 * kappa + 1, 2 * kappa + 6)))
            shift = float(rng.uniform(0, TWO_PI))
            assert lam.translate(shift).is_allowable(kappa, tol=1e-9)
            # robustly non-allowable measures stay non-allowable
            rough = DiscreteMeasure(rng.uniform(0, TWO_PI, 5),
                                    np.abs(rng.standard_normal(5)) + 0.5)
            assert not rough.is_allowable(kappa, tol=1e-9)
            assert not rough.translate(shift).is_allowable(kappa, tol=1e-9)
