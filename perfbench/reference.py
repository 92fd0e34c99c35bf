"""Independent dense reference for universal kriging fits.

The covariance is formed here from its definition, not by circkrig: the
explicit cosine sum ``sum_n gamma_n cos n(x - y)`` for a finite spectrum, or
the Bernoulli-polynomial closed form of the periodic spline kernel.  The
bordered system is then solved by LU factorization with partial pivoting,
the ``numpy.linalg.solve`` algorithm, keeping the factors for a condition
estimate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

TWO_PI = 2.0 * math.pi


def series_covariance(freqs, gammas):
    """Covariance function of the finite spectrum ``gammas`` at ``freqs``."""
    freqs = np.asarray(freqs, dtype=float)
    gammas = np.asarray(gammas, dtype=float)

    def cov(x, y):
        # cos n(x - y) = cos nx cos ny + sin nx sin ny, summed over n.
        fx = np.multiply.outer(x, freqs)
        fy = np.multiply.outer(y, freqs)
        return ((np.cos(fx) * gammas) @ np.cos(fy).T
                + (np.sin(fx) * gammas) @ np.sin(fy).T)

    return cov, float(gammas.sum())


def spline_covariance(m):
    """``2 * sum_{n>=1} n**(-2m) cos n(x - y)`` for m in {1, 2}.

    Uses ``sum_{n>=1} n**(-2m) cos 2 pi n u = (-1)**(m+1) (2 pi)**(2m)
    B_2m(u) / (2 (2m)!)`` for u in [0, 1], with Bernoulli polynomials B_2
    and B_4.
    """
    bernoulli = {1: lambda u: u * u - u + 1.0 / 6.0,
                 2: lambda u: u**4 - 2.0 * u**3 + u * u - 1.0 / 30.0}[m]
    scale = 2.0 * (-1.0) ** (m + 1) * TWO_PI ** (2 * m) / (
        2.0 * math.factorial(2 * m))

    def cov(x, y):
        u = np.mod(np.subtract.outer(x, y) / TWO_PI, 1.0)
        return scale * bernoulli(u)

    return cov, float(scale * bernoulli(0.0))


def drift(kappa, t):
    """Columns 1, cos t, sin t, ..., cos (kappa-1)t, sin (kappa-1)t."""
    cols = [np.ones_like(t)]
    for k in range(1, kappa):
        cols += [np.cos(k * t), np.sin(k * t)]
    return np.column_stack(cols)


def predict(cov, phi0, kappa, nugget, x, y, t0):
    """Predictions, prediction-error variances at ``t0`` and the estimated
    1-norm condition number of the bordered system.

    With ``[eta; rho]`` solving the bordered system for the right-hand side
    ``[k(t0); q(t0)]`` the variance is ``phi0 - eta.k - rho.q``.
    """
    n = x.size
    q = drift(kappa, x)
    dim = q.shape[1]
    system = np.zeros((n + dim, n + dim))
    system[:n, :n] = cov(x, x) + nugget * np.eye(n)
    system[:n, n:] = q
    system[n:, :n] = q.T
    k0 = cov(x, t0)
    q0 = drift(kappa, t0).T
    rhs = np.zeros((n + dim, 1 + t0.size))
    rhs[:n, 0] = y
    rhs[:n, 1:] = k0
    rhs[n:, 1:] = q0
    factors = lu_factor(system)
    sol = lu_solve(factors, rhs)
    rcond, _ = lapack.dgecon(factors[0], np.linalg.norm(system, 1), norm="1")
    dual = sol[:, 0]
    values = k0.T @ dual[:n] + q0.T @ dual[n:]
    weights = sol[:, 1:]
    variances = (phi0 - np.einsum("nj,nj->j", weights[:n], k0)
                 - np.einsum("lj,lj->j", weights[n:], q0))
    return values, variances, 1.0 / rcond
