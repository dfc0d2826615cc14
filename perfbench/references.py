"""Reference values that share no code with the routes being timed.

* Orthant probabilities: exact arcsine forms up to three variables, Genz's
  quasi-Monte Carlo MVN CDF (scipy) above that.
* Prefactors of the n = N and n = N - 1 assemblies, in numpy.
* Feynman-parameter simplex integrals by Dirichlet(nu) sampling.

A check compares an outcome with a reference through ``within``.  Its bound
is the sum of the program's own reported error, the reference's error and
a rounding floor, since at n = N the reported error can fall below the
rounding of the value itself.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

EPS = np.finfo(float).eps
ROUNDING = 64.0 * EPS          # relative rounding floor of an assembled value
GENZ_MAXPTS = 20_000_000
MC_SIGMAS = 5.0                # Monte Carlo bounds are this many standard errors
MC_SAMPLES = 4_000_000
MC_BATCH = 500_000


class Verdict(NamedTuple):
    passed: bool
    diff: float
    bound: float
    detail: str


def subseed(seed: int, *keys: int) -> int:
    """A seed in [0, 2**32) derived from ``seed`` and ``keys``: scipy's Genz
    routine takes its seed through the legacy ``RandomState``, which refuses
    anything wider."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def within(value, reference, bound, label: str = "") -> Verdict:
    value, reference = complex(value), complex(reference)
    diff = abs(value - reference)
    return Verdict(diff <= bound, diff, bound,
                   f"{label}|{value.real:.12g} - {reference.real:.12g}| = {diff:.3g}"
                   f" (bound {bound:.3g})")


# ---------------------------------------------------------------------------
# Orthant probabilities.

def orthant_exact(rho: np.ndarray) -> float:
    """P(X > 0) for d <= 3 from the arcsine forms."""
    d = rho.shape[0]
    if d == 1:
        return 0.5
    pairs = sum(math.asin(rho[i, j]) for i, j in combinations(range(d), 2))
    if d == 2:
        return 0.25 + pairs / (2.0 * math.pi)
    if d == 3:
        return 0.125 + pairs / (4.0 * math.pi)
    raise ValueError("closed form only up to three variables")


def orthant_genz(rho: np.ndarray, abseps: float, seed: int) -> tuple[float, float]:
    """Genz's randomized QMC estimate of P(X > 0) = P(X < 0) and its bound.

    scipy stops once three standard errors fall below ``abseps``; the bound
    returned doubles that.
    """
    from scipy.stats import multivariate_normal
    d = rho.shape[0]
    if d <= 3:
        return orthant_exact(rho), 0.0
    dist = multivariate_normal(mean=np.zeros(d), cov=rho, seed=seed, maxpts=GENZ_MAXPTS,
                               abseps=abseps, releps=0.0)
    return float(dist.cdf(np.zeros(d))), 2.0 * abseps


def correlation_of_inverse(sigma: np.ndarray):
    r = np.linalg.inv(sigma)
    r = 0.5 * (r + r.T)
    dd = np.sqrt(np.diag(r))
    rho = r / np.outer(dd, dd)
    np.fill_diagonal(rho, 1.0)
    return r, rho


def conditioned(rho: np.ndarray, k: int) -> np.ndarray:
    """Partial correlations of the other legs given leg k."""
    keep = [i for i in range(rho.shape[0]) if i != k]
    col = rho[keep, k]
    out = (rho[np.ix_(keep, keep)] - np.outer(col, col)) / np.sqrt(
        np.outer(1.0 - col ** 2, 1.0 - col ** 2))
    np.fill_diagonal(out, 1.0)
    return out


def unit_reference(sigma: np.ndarray, n: int, abseps: float, seed: int):
    """The unit-power value at n = N or N - 1 from the paper's prefactors and
    independent orthant probabilities.  Returns (value, error).

    At N = n = 2 this is tau / (m1 m2 sin tau), the angle form."""
    N = sigma.shape[0]
    det = float(np.linalg.det(sigma))
    r, rho = correlation_of_inverse(sigma)
    if n == N:
        pref = (-1.0) ** N * 2.0 * math.pi ** (0.5 * N) / math.sqrt(det)
        p, perr = orthant_genz(rho, abseps, seed)
        value = pref * p
        return value, abs(pref) * perr + ROUNDING * abs(value)
    if n == N - 1:
        pref = (-1.0) ** N * math.pi ** (0.5 * (N - 1)) / math.sqrt(det)
        value, err, scale = 0.0, 0.0, 0.0
        for k in range(N):
            w = pref * r[k].sum() / math.sqrt(r[k, k])
            p, perr = orthant_genz(conditioned(rho, k), abseps, subseed(seed, k))
            value += w * p
            err += abs(w) * perr
            scale += abs(w * p)
        return value, err + ROUNDING * scale
    raise ValueError(f"no reference assembly at n={n} for N={N}")


# ---------------------------------------------------------------------------
# Feynman-parameter simplex integrals.

def simplex_mc(sigma: np.ndarray, powers, n: float, seed: int,
               samples: int = MC_SAMPLES) -> tuple[float, float]:
    """(-1)**nu Gamma(nu - n/2) / Gamma(nu) * E[(u.Sigma.u)**(n/2 - nu)] with
    u ~ Dirichlet(powers).  Returns (value, standard error)."""
    powers = np.asarray(powers, dtype=float)
    nu = float(powers.sum())
    expo = 0.5 * n - nu
    pref = (-1.0) ** round(nu) * math.exp(gammaln(nu - 0.5 * n) - gammaln(nu))
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < samples:
        size = min(MC_BATCH, samples - done)
        u = rng.dirichlet(powers, size=size)
        vals = np.einsum("ki,ij,kj->k", u, sigma, u) ** expo
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += size
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    return pref * mean, abs(pref) * math.sqrt(var / done)
