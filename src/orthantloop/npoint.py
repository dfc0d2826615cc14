"""Explicit N-point evaluations in integer dimension.

Two assembly routes cover every integer-dimension case used here:

* ``n == N`` (unit powers): the value is an orthant probability of the
  inverse-matrix correlations times (-1)**N * 2*pi**(N/2) / sqrt(det).
  The orthant probability itself is assembled from the exact
  finite expansion {1, arcsine pairs, four-denominator integrals,
  six-denominator integrals}, which terminates for up to seven variables.

* ``n == N - 1`` (unit powers): one power of the coordinate sum survives in
  the integrand; expanding it gives a row-sum weighted combination of
  orthant probabilities of the correlations conditioned on one leg:

      J = (-1)**N * pi**((N-1)/2) / sqrt(det)
          * sum_k rowsum_k / sqrt(R_kk) * P0(rho | leg k integrated out)

The two-point function in two dimensions additionally has the classic
angle/sine closed form, kept because it extends across thresholds.

Signs and constants here are fixed against the Feynman-parameter
representation (the published assembled displays drop overall signs
in a few places); the oracle tests pin every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

from .errors import SingularMatrix
from .gaussint import conditioned_correlation, i_hex_batch, quartet_batch
from .kinematics import KinematicConfig, build_sigma
from .matrixops import correlation_data
from .quadrature import (
    DEFAULT_SETTINGS,
    IntegralValue,
    METHOD_CLOSED_FORM,
    METHOD_QUADRATURE,
    QuadratureSettings,
)


@dataclass(frozen=True)
class OrthantProbability:
    """Orthant probabilities (scalars, or arrays over a stack) with their
    absolute errors and whether every inner quadrature converged.  Unpacks
    as the pair (value, abs_error)."""

    value: Any
    abs_error: Any
    converged: Any

    def __iter__(self):
        return iter((self.value, self.abs_error))


def orthant_probability_batch(rhos: np.ndarray,
                              settings: QuadratureSettings = DEFAULT_SETTINGS
                              ) -> OrthantProbability:
    """Probabilities that zero-mean Gaussian vectors with these d x d
    correlation matrices (d <= 7) are positive in every component.

    2**d times the probability is the exact finite expansion {1, arcsine
    pairs, four-denominator integrals, six-denominator integrals}.  Every
    (matrix, subset) quartet of the stack goes to one ``quartet_batch`` call
    and every (matrix, 6-subset) pair to one ``i_hex_batch`` call; each
    integral still adapts on its own.  The error is floored at machine
    epsilon times the summed magnitudes of the expansion's terms, the
    rounding of the sum itself.
    """
    rhos = np.asarray(rhos)
    B, d = rhos.shape[0], rhos.shape[1]
    if d >= 8:
        raise ValueError("orthant expansion implemented for up to 7 variables")
    is_complex = np.iscomplexobj(rhos)
    vals = np.ones(B, dtype=complex if is_complex else float)
    magnitude = np.ones(B)
    errs = np.zeros(B)
    ok = np.ones(B, dtype=bool)
    if d >= 2:
        iu = np.triu_indices(d, 1)
        asin = np.arcsin(rhos[:, iu[0], iu[1]])
        vals = vals + (2.0 / math.pi) * asin.sum(axis=1)
        magnitude += (2.0 / math.pi) * np.abs(asin).sum(axis=1)
    for size, integrals, sign in ((4, quartet_batch, 1.0), (6, i_hex_batch, -1.0)):
        if d < size:
            break
        subsets = np.array(list(combinations(range(d), size)))
        mats = rhos[:, subsets[:, :, None], subsets[:, None, :]].reshape(-1, size, size)
        v, e, o, _ = integrals(mats, settings)
        v, e, o = v.reshape(B, -1), e.reshape(B, -1), o.reshape(B, -1)
        vals = vals + sign * v.sum(axis=1)
        magnitude += np.abs(v).sum(axis=1)
        errs += e.sum(axis=1)
        ok &= o.all(axis=1)
    errs = np.maximum(errs, np.finfo(float).eps * magnitude)
    return OrthantProbability(vals / 2.0 ** d, errs / 2.0 ** d, ok)


def orthant_probability(rho: np.ndarray,
                        settings: QuadratureSettings = DEFAULT_SETTINGS
                        ) -> OrthantProbability:
    """Probability that a zero-mean Gaussian vector with this correlation
    matrix is positive in every component: the batch of one."""
    out = orthant_probability_batch(np.asarray(rho)[None], settings)
    return OrthantProbability(out.value[0], out.abs_error[0], bool(out.converged[0]))


def _inner_convergence(ok: bool) -> dict:
    return {"converged": bool(ok), "flags": () if ok else ("inner_non_converged",)}


def _real_parts(sigma: np.ndarray, strict: bool = True):
    data = correlation_data(sigma, strict=strict)
    return data, 1.0 / math.sqrt(data.det_sigma)


def evaluate_unit(sigma: np.ndarray, n: float,
                  settings: QuadratureSettings = DEFAULT_SETTINGS,
                  strict: bool = True) -> IntegralValue:
    """Unit-power N-point value at integer dimension n in {N, N-1} for a
    real positive-definite mass matrix (N = 2 also supports the angle form
    at n = 2, which this dispatches to transparently).  ``strict=False``
    relaxes the determinant floor for internal regularized evaluations."""
    sigma = np.asarray(sigma)
    N = sigma.shape[0]
    if N == 2 and n == 2:
        return two_point_angle_form(sigma)
    if n == N:
        data, isd = _real_parts(sigma, strict)
        p0 = orthant_probability(data.rho, settings)
        pref = (-1.0) ** N * 2.0 * math.pi ** (0.5 * N) * isd
        method = METHOD_CLOSED_FORM if N <= 3 else METHOD_QUADRATURE
        return IntegralValue(value=complex(pref * p0.value),
                             abs_error=float(abs(pref) * p0.abs_error),
                             method=method, **_inner_convergence(p0.converged))
    if n == N - 1:
        return rowsum_value(sigma, settings, strict=strict)
    raise ValueError(f"no direct assembly for N={N}, n={n}; use the dimension shifts")


def rowsum_value(sigma: np.ndarray, settings: QuadratureSettings = DEFAULT_SETTINGS,
                 strict: bool = True) -> IntegralValue:
    """Unit powers at n = N - 1: row-sum weighted conditioned orthants.

    The N conditioned orthants are one batch; their roundoff floors carry
    over to the weighted sum, so even the closed forms (N <= 4) report a
    nonzero error.
    """
    sigma = np.asarray(sigma)
    N = sigma.shape[0]
    data, isd = _real_parts(sigma, strict)
    r = data.r_matrix
    rho = data.rho
    p0 = orthant_probability_batch(
        np.stack([conditioned_correlation(rho, k) for k in range(N)]), settings)
    total = 0.0
    err = 0.0
    for k in range(N):
        w = float(r[k].sum()) / math.sqrt(r[k, k])
        total += w * p0.value[k]
        err += abs(w) * p0.abs_error[k]
    pref = (-1.0) ** N * math.pi ** (0.5 * (N - 1)) * isd
    method = METHOD_CLOSED_FORM if N <= 4 else METHOD_QUADRATURE
    return IntegralValue(value=complex(pref * total), abs_error=float(abs(pref) * err),
                         method=method, **_inner_convergence(np.all(p0.converged)))


def two_point_angle_form(sigma: np.ndarray) -> IntegralValue:
    """tau / (m1 m2 sin tau), valid on both continuation branches; the
    pseudothreshold limit tau -> 0 gives 1/(m1 m2), the threshold tau -> pi
    is a genuine singularity."""
    sigma = np.asarray(sigma)
    mm = np.sqrt(sigma[0, 0]) * np.sqrt(sigma[1, 1])
    c = sigma[0, 1] / mm
    if np.iscomplexobj(sigma):
        tau = np.arccos(complex(c))
        s = np.sin(tau)
        if abs(tau) < 1e-8:
            value = (1.0 + abs(tau) ** 2 / 6.0) / mm
        else:
            value = tau / (mm * s)
        return IntegralValue(value=complex(value), abs_error=5e-15 * abs(value),
                             method=METHOD_CLOSED_FORM)
    c = float(c)
    if abs(c - 1.0) <= 1e-12:
        return IntegralValue(value=complex(1.0 / mm), abs_error=5e-15 / mm,
                             method=METHOD_CLOSED_FORM)
    if abs(c + 1.0) <= 1e-12:
        raise SingularMatrix("two-point function diverges at threshold (c = -1)")
    if -1.0 < c < 1.0:
        tau = math.acos(c)
        value = complex(tau / (mm * math.sin(tau)))
    elif c > 1.0:
        theta = math.acosh(c)
        value = complex(theta / (mm * math.sinh(theta)))
    else:
        tau = math.pi + 1j * math.acosh(-c)
        value = tau / (mm * np.sin(tau))
    return IntegralValue(value=complex(value), abs_error=5e-15 * abs(value),
                         method=METHOD_CLOSED_FORM)


def _unit_config_sigma(config: KinematicConfig, N: int, n: float):
    if config.n_legs != N:
        raise ValueError(f"expected {N} legs, got {config.n_legs}")
    if config.dimension != n:
        raise ValueError(f"expected dimension {n}, got {config.dimension}")
    if any(p != 1 for p in config.powers):
        raise ValueError("unit propagator powers required here")
    return build_sigma(config).entries


def j2_2d(config: KinematicConfig) -> IntegralValue:
    return two_point_angle_form(_unit_config_sigma(config, 2, 2.0))


def j3_3d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 3, 3.0), 3, settings)


def j3_2d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 3, 2.0), 2, settings)


def j4_4d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 4, 4.0), 4, settings)


def j5_5d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 5, 5.0), 5, settings)


def j6_6d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 6, 6.0), 6, settings)


def j7_7d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 7, 7.0), 7, settings)


def j5_4d(config: KinematicConfig, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    return evaluate_unit(_unit_config_sigma(config, 5, 4.0), 4, settings)
