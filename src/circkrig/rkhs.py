"""Reproducing kernel attached to an intrinsic covariance on the circle.

The intrinsic model only fixes covariances up to low-order trigonometric
polynomials.  Pinning the interpolation nodes of a cardinal basis selects
one canonical representative; the kernel below is that representative plus
a drift term, and it reproduces point evaluation under the inner product

    <f, g> = sum_nu f(tau_nu) g(tau_nu) + sum_{n >= kappa}
             (f_cos,n g_cos,n + f_sin,n g_sin,n) / gamma_n

on functions whose high-frequency energy stays inside the model support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CardinalBasis
from .covariance import (_BLOCK_ELEMENTS, IntrinsicCovariance, SpectralModel,
                         _features)
from .errors import SpectrumError

__all__ = [
    "TruncatedFunction",
    "RkhsKernel",
    "semi_inner_product",
    "full_inner_product",
]


@dataclass(frozen=True)
class TruncatedFunction:
    """Finite trigonometric expansion ``a0 + sum_n (c_n cos nt + s_n sin nt)``.

    ``cos_coeffs[i]`` and ``sin_coeffs[i]`` belong to frequency ``i + 1``.
    """

    a0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        s = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        if c.shape != s.shape or c.ndim != 1:
            raise ValueError("cosine and sine coefficients must be 1-d "
                             "arrays of equal length")
        if not (np.isfinite(self.a0) and np.all(np.isfinite(c))
                and np.all(np.isfinite(s))):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        s = s.copy()
        c.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "cos_coeffs", c)
        object.__setattr__(self, "sin_coeffs", s)

    @property
    def degree(self) -> int:
        return self.cos_coeffs.size

    def coefficient(self, n: int) -> tuple[float, float]:
        """(cosine, sine) coefficient pair at frequency ``n >= 0``."""
        if n < 0:
            raise ValueError("frequency must be nonnegative")
        if n == 0:
            return self.a0, 0.0
        if n > self.degree:
            return 0.0, 0.0
        return float(self.cos_coeffs[n - 1]), float(self.sin_coeffs[n - 1])

    def __call__(self, t):
        """Evaluate at ``t``; shape-preserving.

        Frequencies are taken ``_BLOCK_ELEMENTS // points`` at a time, at
        least one, so temporaries stay near ``_BLOCK_ELEMENTS`` feature
        pairs whatever the degree.
        """
        t = np.asarray(t, dtype=float)
        flat = np.ravel(t)
        out = np.full(flat.size, self.a0)
        freqs = np.arange(1.0, self.degree + 1.0)
        weights = np.stack((self.cos_coeffs, self.sin_coeffs))
        step = max(1, _BLOCK_ELEMENTS // max(flat.size, 1))
        for start in range(0, self.degree, step):
            block = slice(start, start + step)
            out += _features(flat, freqs[block], weights[:, block]).sum(axis=1)
        return out.reshape(t.shape)[()]


def _padded(f: TruncatedFunction, n: int) -> tuple[np.ndarray, np.ndarray]:
    c = np.zeros(n)
    s = np.zeros(n)
    c[:f.degree] = f.cos_coeffs
    s[:f.degree] = f.sin_coeffs
    return c, s


def _as_model(model) -> SpectralModel:
    if isinstance(model, IntrinsicCovariance):
        return model.model
    return model


def semi_inner_product(f: TruncatedFunction, g: TruncatedFunction,
                       model) -> float:
    """Seminorm pairing ``sum_{n >= kappa} (fc gc + fs gs) / gamma_n``.

    Frequencies where one factor has no energy contribute zero even if the
    model stores no weight there.  If both factors have energy at some
    ``n >= kappa`` with ``gamma_n = 0``, the pairing is infinite and a
    ``SpectrumError`` is raised.
    """
    model = _as_model(model)
    deg = max(f.degree, g.degree)
    if deg == 0:
        return 0.0
    fc, fs = _padded(f, deg)
    gc, gs = _padded(g, deg)
    n = np.arange(1, deg + 1)
    gam = np.atleast_1d(np.asarray(model.gamma(n), dtype=float))
    prod_c = fc * gc
    prod_s = fs * gs
    high = n >= model.kappa
    bad = high & (gam == 0.0) & ((prod_c != 0.0) | (prod_s != 0.0))
    if np.any(bad):
        n_bad = int(n[bad][0])
        raise SpectrumError(
            f"both functions have energy at frequency {n_bad} where the "
            "model carries no weight; the inner product is infinite"
        )
    keep = high & (gam > 0.0)
    return float(((prod_c[keep] + prod_s[keep]) / gam[keep]).sum())


def full_inner_product(f: TruncatedFunction, g: TruncatedFunction,
                       kernel: "RkhsKernel") -> float:
    """Point-evaluation part at the kernel nodes plus the seminorm pairing."""
    tau = kernel.basis.tau
    point_part = float(np.dot(np.atleast_1d(f(tau)), np.atleast_1d(g(tau))))
    return point_part + semi_inner_product(f, g, kernel.covariance.model)


class RkhsKernel:
    """Reproducing kernel for an intrinsic covariance and cardinal basis.

    With ``p_nu`` the cardinal functions at nodes ``tau`` and ``phi`` the
    covariance,

        H(x, y) = phi(x - y)
                  - sum_nu phi(x - tau_nu) p_nu(y)
                  - sum_nu phi(y - tau_nu) p_nu(x)
                  + sum_nu sum_mu phi(tau_nu - tau_mu) p_nu(x) p_mu(y)
                  + sum_nu p_nu(x) p_nu(y).

    ``H(x, tau_mu) = p_mu(x)`` for every node, and any constant shift in
    ``phi`` cancels because the cardinal functions sum to one.

    Parameters
    ----------
    covariance : IntrinsicCovariance or SpectralModel
        The intrinsic model.
    basis : CardinalBasis, optional
        Interpolation nodes; defaults to the equispaced set for the
        model's order.  Orders must match.
    """

    def __init__(self, covariance, basis: CardinalBasis | None = None):
        if isinstance(covariance, SpectralModel):
            covariance = IntrinsicCovariance(covariance)
        if basis is None:
            basis = CardinalBasis(covariance.kappa)
        if basis.kappa != covariance.kappa:
            raise ValueError(
                f"basis order {basis.kappa} does not match "
                f"covariance order {covariance.kappa}"
            )
        self.covariance = covariance
        self.basis = basis
        self._phi_tau_tau = covariance.gram(basis.tau)

    @property
    def kappa(self) -> int:
        return self.covariance.kappa

    def __call__(self, x, y):
        """Evaluate elementwise; ``x`` and ``y`` broadcast together."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        shape = x.shape
        xf = np.ravel(x)
        yf = np.ravel(y)
        tau = self.basis.tau
        px = self.basis.design_matrix(xf)
        py = self.basis.design_matrix(yf)
        phi_xy = np.atleast_1d(self.covariance(xf - yf))
        phi_xt = self.covariance.gram(xf, tau)
        phi_yt = self.covariance.gram(yf, tau)
        vals = (phi_xy
                - np.einsum("il,il->i", phi_xt, py)
                - np.einsum("il,il->i", phi_yt, px)
                + np.einsum("il,lm,im->i", px, self._phi_tau_tau, py)
                + np.einsum("il,il->i", px, py))
        return vals.reshape(shape)[()]

    def gram(self, x, y=None) -> np.ndarray:
        """Matrix ``H(x_i, y_j)``; ``y`` defaults to ``x``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = x if y is None else np.atleast_1d(np.asarray(y, dtype=float))
        px = self.basis.design_matrix(x)
        py = self.basis.design_matrix(y)
        tau = self.basis.tau
        return (self.covariance.gram(x, y)
                - self.covariance.gram(x, tau) @ py.T
                - px @ self.covariance.gram(y, tau).T
                + px @ self._phi_tau_tau @ py.T
                + px @ py.T)

    def section(self, x: float) -> TruncatedFunction:
        """The function ``H(x, .)`` as an explicit trigonometric expansion.

        For a frequency ``n >= kappa`` the coefficients are
        ``gamma_n * (cos nx - I[cos n.](x))`` and the sine analogue, where
        ``I`` is cardinal interpolation at the nodes; the part below
        ``kappa`` is a nil-space polynomial.  For power-law models the
        expansion stops at the model's truncation frequency.
        """
        x = float(x)
        tau = self.basis.tau
        px = self.basis.design_matrix(x)[0]
        model = self.covariance.model
        freqs = model.frequencies().astype(float)
        gams = model.gammas()
        n_top = model.support_end

        cos_coeffs = np.zeros(n_top)
        sin_coeffs = np.zeros(n_top)

        cos_tau = np.cos(np.multiply.outer(freqs, tau))
        sin_tau = np.sin(np.multiply.outer(freqs, tau))
        resid_c = np.cos(freqs * x) - cos_tau @ px
        resid_s = np.sin(freqs * x) - sin_tau @ px
        if freqs.size:
            idx = freqs.astype(int) - 1
            cos_coeffs[idx] = gams * resid_c
            sin_coeffs[idx] = gams * resid_s

        # Drift part: sum_mu u_mu p_mu(.), re-expanded over {1, cos, sin, ...}.
        u = px - cos_tau.T @ (gams * resid_c) - sin_tau.T @ (gams * resid_s)
        nil_coeffs = self.basis.coeffs @ u
        a0 = float(nil_coeffs[0])
        for k in range(1, self.kappa):
            cos_coeffs[k - 1] = nil_coeffs[2 * k - 1]
            sin_coeffs[k - 1] = nil_coeffs[2 * k]
        return TruncatedFunction(a0, cos_coeffs, sin_coeffs)
