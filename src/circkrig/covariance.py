"""Spectral covariance models on the circle.

An intrinsic model of order ``kappa`` assigns a positive weight ``gamma_n``
to each frequency ``n >= kappa`` with finite total mass.  The covariance of
the corresponding low-frequency-truncated process at lag ``theta`` is the
cosine series ``sum_n gamma_n cos(n*theta)``; removing every frequency below
``kappa`` is exactly what makes the process stationary over allowable
measures of that order.

A series model is evaluated through the factored identity
``cos n(x - y) = cos nx cos ny + sin nx sin ny``: for each block of
frequencies the points get feature columns ``cos(f x)``, ``sin(f x)``, and
``sum_n gamma_n cos n(x_i - y_j)`` is accumulated by one matrix product of
those features.  The frequencies of a block are consecutive, so angle
addition builds a point's features from about ``4 sqrt(F_b)`` sines and
cosines for a block of ``F_b`` frequencies (see :func:`_features`).  An
``n`` by ``m`` Gram over ``F`` frequencies therefore costs ``O(n m F)``
multiply-adds in BLAS, which dominate, plus ``O((n + m) F)`` for the
features and only ``O((n + m) F / sqrt(F_b))`` sines and cosines.  Its
temporaries are one product the size of the output plus feature blocks of
about ``_BLOCK_ELEMENTS`` (point, frequency) pairs, so they never grow with
``F`` or with ``n m F``.

Two classic periodic smoothing-spline kernels (``gamma_n = 2/n**(2m)``,
m = 1, 2) have closed polynomial forms and are provided directly.  A closed
form is evaluated on the canonical lag matrix: the points are wrapped once,
their differences are brought into [0, 2*pi) by one masked ``+ 2*pi``, and
the polynomial is computed in place on one new array.  An ``n`` by ``m``
Gram thus costs ``O(n m)`` elementwise passes and holds the output plus one
lag matrix, and for points already in [0, 2*pi) its entries are bit for bit
those of the polynomial applied to ``wrap(x_i - y_j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import config
from .circle import TWO_PI, _into_period, wrap
from .errors import SpectrumError, VariogramShiftError

__all__ = [
    "SpectralModel",
    "IntrinsicCovariance",
    "Semivariogram",
    "spline_kernel",
    "spline_covariance",
    "phi_from_variogram",
]

# Feature blocks hold at most this many (point, frequency) pairs, so dense
# power-law models with large cutoffs and long lag lists never materialize a
# points-by-frequencies array.
_BLOCK_ELEMENTS = 1 << 18
# Relative rounding allowed when ``phi_from_variogram`` compares a constant
# with the spectral mass, a float64 sum.
_MASS_ROUNDING = 1.0e-12


@dataclass(frozen=True)
class SpectralModel:
    """Positive coefficient sequence ``{gamma_n : n >= kappa}``.

    Two representations are supported and selected by the classmethods:

    * ``from_list``: explicit finite support ``gamma_kappa, gamma_kappa+1,
      ...``; the series is then computed exactly.
    * ``power_law``: ``gamma_n = a * n**(-p)`` with ``p > 1``, truncated at
      ``n_max``; the neglected tail is bounded by :meth:`tail_bound`.

    Parameters are validated on construction: weights must be strictly
    positive and the decay summable.
    """

    kappa: int
    values: np.ndarray | None = None
    a: float = 0.0
    p: float = 0.0
    n_max: int = 10_000

    def __post_init__(self):
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa < 1:
            raise ValueError("order must be an integer >= 1")
        object.__setattr__(self, "kappa", int(self.kappa))
        if self.values is not None:
            if self.a != 0.0 or self.p != 0.0:
                raise ValueError("give either an explicit list or a power law")
            v = np.atleast_1d(np.asarray(self.values, dtype=float))
            if v.ndim != 1:
                raise ValueError("coefficient list must be 1-d")
            if not np.all(np.isfinite(v)):
                raise SpectrumError("coefficients must be finite")
            if v.size and np.any(v <= 0.0):
                n_bad = self.kappa + int(np.argmax(v <= 0.0))
                raise SpectrumError(
                    f"coefficient at frequency {n_bad} is not positive"
                )
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "n_max", self.kappa + v.size - 1)
        else:
            if not (np.isfinite(self.a) and self.a > 0.0):
                raise SpectrumError("power-law amplitude must be positive")
            if not (np.isfinite(self.p) and self.p > 1.0):
                raise SpectrumError(
                    f"power-law decay p={self.p} is not summable; need p > 1"
                )
            if int(self.n_max) < self.kappa:
                raise ValueError(
                    "truncation must reach the starting frequency")
            object.__setattr__(self, "a", float(self.a))
            object.__setattr__(self, "p", float(self.p))
            object.__setattr__(self, "n_max", int(self.n_max))

    @classmethod
    def from_list(cls, kappa: int, values) -> "SpectralModel":
        """Model with explicit weights for frequencies kappa, kappa+1, ...

        An empty list is legal and describes the zero process.
        """
        return cls(kappa=kappa, values=np.asarray(values, dtype=float))

    @classmethod
    def power_law(cls, kappa: int, a: float, p: float,
                  n_max: int = 10_000) -> "SpectralModel":
        """Model ``gamma_n = a * n**(-p)`` for n in [kappa, n_max]."""
        return cls(kappa=kappa, a=a, p=p, n_max=n_max)

    @property
    def support_end(self) -> int:
        """Largest represented frequency; kappa - 1 for an empty list."""
        return self.n_max

    def frequencies(self) -> np.ndarray:
        return np.arange(self.kappa, self.support_end + 1)

    def gammas(self) -> np.ndarray:
        """Weights aligned with :meth:`frequencies`."""
        if self.values is not None:
            return self.values
        return self.a * self.frequencies() ** (-self.p)

    def gamma(self, n) -> np.ndarray:
        """Weight at frequency ``n`` (0 outside the represented range)."""
        n = np.asarray(n)
        inside = (n >= self.kappa) & (n <= self.support_end)
        if self.values is not None:
            idx = np.where(inside, n - self.kappa, 0)
            out = np.where(inside, self.values[idx] if self.values.size
                           else 0.0, 0.0)
        else:
            out = np.where(inside, self.a * np.maximum(n, 1) ** (-self.p), 0.0)
        return out[()]

    def tail_bound(self) -> float:
        """Upper bound on the neglected mass ``sum_{n > n_max} gamma_n``.

        Zero for explicit lists.  For a power law the integral comparison
        ``sum_{n > N} a n**-p <= a N**(1-p) / (p-1)`` applies.
        """
        if self.values is not None:
            return 0.0
        return self.a * self.n_max ** (1.0 - self.p) / (self.p - 1.0)

    def total_mass(self) -> float:
        """Sum of the represented weights (excludes any truncated tail)."""
        return float(self.gammas().sum())

    def to_config(self) -> dict:
        if self.values is not None:
            return {"kappa": self.kappa, "type": "list",
                    "values": [float(v) for v in self.values]}
        return {"kappa": self.kappa, "type": "power",
                "a": self.a, "p": self.p, "n_max": self.n_max}

    @classmethod
    def from_config(cls, cfg: dict) -> "SpectralModel":
        """Rebuild a model from its :meth:`to_config` dictionary."""
        if not isinstance(cfg, dict):
            raise ValueError("spectrum must be an object with 'kappa' and "
                             f"'type' keys, got {cfg!r}")
        kind = cfg.get("type")
        if kind not in ("list", "power"):
            raise ValueError(f"unknown spectrum type {kind!r}")
        kappa = config.number(cfg.get("kappa"), "spectrum kappa",
                              integer=True)
        if kind == "list":
            return cls.from_list(kappa, config.numbers(
                cfg.get("values", []), "spectrum values"))
        return cls.power_law(
            kappa, config.number(cfg.get("a"), "spectrum a"),
            config.number(cfg.get("p"), "spectrum p"),
            config.number(cfg.get("n_max", 10_000), "spectrum n_max",
                          integer=True,
                          maximum=config.MAX_SPECTRUM_FREQUENCY))


def _features(t: np.ndarray, f: np.ndarray, weight) -> np.ndarray:
    """Columns ``weight * cos(f t)`` followed by ``weight * sin(f t)``.

    ``f`` holds ``F`` consecutive frequencies ``f0, f0 + 1, ...``, written
    ``f0 + B*a + b`` with ``B = isqrt(F)``, ``0 <= b < B`` and ``a < A =
    ceil(F / B)``.  Each point gets sines and cosines of the ``A`` angles
    ``(f0 + B*a) t`` and the ``B`` angles ``b t`` only, and angle addition,

        cos(u + v) = cos u cos v - sin u sin v,
        sin(u + v) = sin u cos v + cos u sin v,

    combines them in one batched 2-term matrix product: ``2 (A + B)``, about
    ``4 sqrt(F)``, trig calls per point instead of ``2 F``.  The cosine and
    the sine half each hold ``A*B`` columns, the last ``A*B - F`` for
    frequencies past the block; ``weight`` (``F`` values, or ``(2, F)`` for
    separate cosine and sine weights) is 0 there, so a weighted block's
    padding columns are exactly 0 and add nothing to a feature product.
    """
    n_freq = f.size
    b_len = math.isqrt(n_freq)
    a_len = -(-n_freq // b_len)
    outer = np.multiply.outer(t, f[0] + b_len * np.arange(a_len))
    inner = np.multiply.outer(t, np.arange(b_len, dtype=float))
    # Point i's 2-term product is [[cos u, -sin u], [sin u, cos u]] stacked
    # over u, times [cos v, sin v] laid along v.
    left = np.empty((t.size, 2, a_len, 2))
    np.cos(outer, out=left[:, 0, :, 0])
    np.sin(outer, out=left[:, 1, :, 0])
    np.negative(left[:, 1, :, 0], out=left[:, 0, :, 1])
    left[:, 1, :, 1] = left[:, 0, :, 0]
    right = np.empty((t.size, 2, b_len))
    np.cos(inner, out=right[:, 0])
    np.sin(inner, out=right[:, 1])
    feats = np.matmul(left.reshape(t.size, 2 * a_len, 2), right)
    feats = feats.reshape(t.size, 2, a_len * b_len)
    if weight is not None:
        padded = np.zeros(np.shape(weight)[:-1] + (a_len * b_len,))
        padded[..., :n_freq] = weight
        feats *= padded
    return feats.reshape(t.size, 2 * a_len * b_len)


def _harmonic_sum(model: SpectralModel, x: np.ndarray, y: np.ndarray | None,
                  shift: float) -> np.ndarray:
    """``shift + sum_n gamma_n cos n(x_i - y_j)`` as a (len(x), len(y)) array.

    ``x`` and ``y`` are 1-D.  Frequencies are taken
    ``_BLOCK_ELEMENTS // rows`` at a time, at least one, so the cosine and
    sine features of all rows hold about ``_BLOCK_ELEMENTS`` entries each;
    a block of ``F_b`` frequencies costs each row about ``4 sqrt(F_b)``
    sines and cosines (:func:`_features`) and the rest is GEMM work.  With
    ``y=None`` the Gram of ``x`` with itself is built from one feature
    array scaled by ``sqrt(gamma)``, whose product with its own transpose is
    exactly symmetric.
    """
    freqs = model.frequencies().astype(float)
    gams = model.gammas()
    rows = x.size if y is None else x.size + y.size
    step = max(1, _BLOCK_ELEMENTS // max(rows, 1))
    out = np.full((x.size, x.size if y is None else y.size), shift)
    for start in range(0, freqs.size, step):
        f = freqs[start:start + step]
        g = gams[start:start + step]
        if y is None:
            feats = _features(x, f, np.sqrt(g))
            out += feats @ feats.T
        else:
            out += _features(x, f, g) @ _features(y, f, None).T
    return out


class IntrinsicCovariance:
    """Callable covariance ``phi(t) = sum_{n>=kappa} gamma_n cos(n t)``.

    Evaluation is by the (possibly truncated) series, summed in factored
    form (see the module docstring), unless ``closed_form`` is supplied, in
    which case that function of the canonical lag in [0, 2*pi) is used
    instead and carries no truncation error.  It is called on a new array
    of lags and must return a new array (or that one): the shift is added
    to its result in place.

    ``shift`` adds a constant to every value.  For orders >= 1 a constant is
    annihilated by every allowable measure, so shifted and unshifted models
    are the same intrinsic object; the shift is how variogram-derived models
    record their arbitrary constant.
    """

    def __init__(self, model: SpectralModel, closed_form=None,
                 shift: float = 0.0):
        self.model = model
        self.closed_form = closed_form
        self.shift = float(shift)

    @property
    def kappa(self) -> int:
        return self.model.kappa

    @property
    def tail_bound(self) -> float:
        """Series truncation error bound; 0 when a closed form is used."""
        if self.closed_form is not None:
            return 0.0
        return self.model.tail_bound()

    def __call__(self, lag):
        """Evaluate at lag(s); shape-preserving, lags taken modulo 2*pi."""
        canonical = wrap(np.asarray(lag, dtype=float))
        if self.closed_form is not None:
            return self._closed(canonical)
        vals = _harmonic_sum(self.model, np.ravel(canonical), np.zeros(1),
                             self.shift)
        return vals.reshape(np.shape(canonical))[()]

    def _closed(self, canonical):
        """Closed form plus shift at canonical lags, the shift added in
        place to the array the closed form returns."""
        vals = np.asarray(self.closed_form(canonical), dtype=float)
        vals += self.shift
        return vals[()]

    @cached_property
    def phi0(self) -> float:
        """Value at lag zero (the truncated series mass plus shift)."""
        return float(self(0.0))

    def gram(self, x, y=None) -> np.ndarray:
        """Matrix ``phi(x_i - y_j)``; ``y`` defaults to ``x``.

        A series model never forms the lag matrix: the sum is accumulated
        from ``cos(n x)``, ``sin(n x)`` features of the points by matrix
        products, at ``O(n m F)`` BLAS multiply-adds for ``F`` frequencies
        plus features built by angle addition from about ``4 sqrt(F_b)``
        sines and cosines per point and block of ``F_b`` frequencies, with
        temporaries bounded by the output plus a fixed-size feature block.
        A closed form is applied to the canonical lag matrix, built from the
        wrapped points by :func:`_canonical_lags`.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = x if y is None else np.atleast_1d(np.asarray(y, dtype=float))
        if self.closed_form is not None:
            return self._closed(
                _canonical_lags(x.reshape(x.shape + (1,) * y.ndim), y))
        # Points are summed as flat lists; the result keeps the lag-matrix
        # shape ``x.shape + y.shape`` that the closed form gives.
        flat_x = wrap(np.ravel(x))
        flat_y = None if y is x else wrap(np.ravel(y))
        out = _harmonic_sum(self.model, flat_x, flat_y, self.shift)
        return out.reshape(x.shape + y.shape)

    def with_shift(self, shift: float) -> "IntrinsicCovariance":
        """Same spectral content with the constant replaced by ``shift``."""
        return IntrinsicCovariance(self.model, closed_form=self.closed_form,
                                   shift=shift)


def _canonical_lags(s, t) -> np.ndarray:
    """Canonical lags ``wrap(s - t)`` for broadcastable ``s`` and ``t``.

    The points are wrapped first, in ``O(size)`` each, so their difference
    lies in (-2*pi, 2*pi) and one masked ``+ 2*pi`` brings it into range;
    a tiny negative difference that rounds up to the period is set to 0.
    For points already in [0, 2*pi) this is bit for bit ``wrap(s - t)``.
    Returns a new array, 0-d for scalar input.
    """
    return _into_period(np.asarray(np.subtract(wrap(s), wrap(t))))


def _spline_poly(m: int, d) -> np.ndarray:
    """Closed spline-kernel polynomial on the canonical lag d in [0, 2*pi).

    Factored forms of d^2/2 - pi*d + pi^2/3 and
    -d^4/24 + pi*d^3/6 - pi^2*d^2/6 + pi^4/45; the factorizations avoid
    cancellation near d = 2*pi and make the d <-> 2*pi - d symmetry exact.
    Each step writes into one new array shaped like ``d`` (0-d for a
    scalar), in the order ``pi**2/3 - d*(2*pi - d)/2`` and
    ``pi**4/45 - (d*(2*pi - d))**2/24`` would evaluate, so the values are
    those of the unfused expressions.
    """
    if m not in (1, 2):
        raise ValueError(f"spline kernel order must be 1 or 2, got {m}")
    out = np.subtract(TWO_PI, d, out=np.empty(np.shape(d)))
    np.multiply(d, out, out=out)
    if m == 1:
        np.divide(out, 2.0, out=out)
        return np.subtract(np.pi**2 / 3.0, out, out=out)
    np.square(out, out=out)
    np.divide(out, 24.0, out=out)
    return np.subtract(np.pi**4 / 45.0, out, out=out)


def spline_kernel(m: int, s, t):
    """Closed-form circular spline kernel of order ``m`` in {1, 2}.

    Equals the series ``2 * sum_{n>=1} n**(-2m) cos(n (s - t))``.  The
    polynomial is applied to the canonical lag, and is 2*pi-periodic and
    even as written: substituting ``2*pi - d`` for ``d`` leaves it fixed.
    """
    d = _canonical_lags(np.asarray(s, dtype=float),
                        np.asarray(t, dtype=float))
    return _spline_poly(m, d)[()]


def spline_covariance(m: int, n_max: int = 10_000) -> IntrinsicCovariance:
    """Spline kernel packaged as an order-1 intrinsic covariance.

    The spectral content is ``gamma_n = 2 * n**(-2m)``; evaluation uses the
    exact closed form, so ``n_max`` only documents the frequencies carried
    into simulation or reproducing-kernel expansions.
    """
    model = SpectralModel.power_law(1, 2.0, 2.0 * m, n_max=n_max)
    return IntrinsicCovariance(model, closed_form=lambda d: _spline_poly(m, d))


@dataclass(frozen=True)
class Semivariogram:
    """Increment variance ``tau(theta) = phi(0) - phi(theta)`` at order 1.

    ``c0`` is the constant used when converting back to a covariance via
    :func:`phi_from_variogram`; predictions never depend on it, but it must
    satisfy the lower bound :meth:`minimal_shift`.
    """

    covariance: IntrinsicCovariance
    c0: float = 0.0

    def __post_init__(self):
        cov = self.covariance
        if isinstance(cov, SpectralModel):
            cov = IntrinsicCovariance(cov)
            object.__setattr__(self, "covariance", cov)
        if cov.kappa != 1:
            raise ValueError("a semivariogram requires an order-1 model")
        if not np.isfinite(self.c0):
            raise ValueError("c0 must be finite")
        object.__setattr__(self, "c0", float(self.c0))

    def __call__(self, theta):
        # Any constant shift in the covariance cancels in the difference.
        return (self.covariance.phi0 - np.asarray(self.covariance(theta)))[()]

    def minimal_shift(self) -> float:
        """Lower admissible bound ``(1/pi) * integral_0^pi tau`` for ``c0``.

        ``tau(theta) = sum_n gamma_n (1 - cos n theta)`` and
        ``integral_0^pi cos n theta = 0`` for every ``n >= 1``, so the bound
        is the spectral mass ``phi(0) - shift`` exactly.
        """
        cov = self.covariance
        return cov.phi0 - cov.shift


def phi_from_variogram(sv: Semivariogram) -> IntrinsicCovariance:
    """Covariance ``phi = c0 - tau`` from a semivariogram and its constant.

    The constant must satisfy ``c0 >= (1/pi) * integral_0^pi tau``, the
    spectral mass (see :meth:`Semivariogram.minimal_shift`), which makes
    ``phi`` a valid order-1 model.  Different admissible constants give the
    same predictions and kriging variances; only the reported covariance
    values move by the constant.
    """
    bound = sv.minimal_shift()
    # The mass is summed in float64; allow for its rounding.
    slack = _MASS_ROUNDING * max(1.0, abs(bound))
    if sv.c0 < bound - slack:
        raise VariogramShiftError(
            f"constant c0={sv.c0:.6g} is below the admissible bound "
            f"{bound:.6g}, the spectral mass"
        )
    base = sv.covariance
    # c0 - tau(theta) = phi_spectral(theta) + (c0 - phi_spectral(0)).
    return base.with_shift(sv.c0 - (base.phi0 - base.shift))
