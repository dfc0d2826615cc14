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
from .matrixops import correlation_stack
from .quadrature import (
    DEFAULT_SETTINGS,
    IntegralValue,
    METHOD_CLOSED_FORM,
    METHOD_QUADRATURE,
    QuadratureSettings,
    convergence,
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


def unit_values(sigmas: np.ndarray, n: float,
                settings: QuadratureSettings = DEFAULT_SETTINGS, strict: bool = True):
    """Unit-power N-point values at integer dimension n in {N, N-1} for a
    stack of real positive-definite mass matrices, shaped (B, N, N).

    Returns (values, errors, converged), one entry per matrix.  The
    correlation data of the whole stack come from one set of numpy.linalg
    calls and every orthant probability from one
    ``orthant_probability_batch`` call; each inner integral still adapts on
    its own, so a matrix's value does not depend on its stack neighbours.
    Any matrix below the determinant floor or not positive definite raises
    SingularMatrix for the whole stack; ``strict=False`` relaxes the floor
    for internal regularized evaluations.  N = 2 at n = 2 uses the angle
    form, which needs no positive definiteness.
    """
    sigmas = np.asarray(sigmas)
    B, N = sigmas.shape[0], sigmas.shape[-1]
    if N == 2 and n == 2:
        values, errors = angle_form_values(sigmas)
        return values, errors, np.ones(B, dtype=bool)
    if n not in (N, N - 1):
        raise ValueError(f"no direct assembly for N={N}, n={n}; use the dimension shifts")
    r, rho, det = correlation_stack(sigmas, strict)
    isd = 1.0 / np.sqrt(det)
    if n == N:
        p0 = orthant_probability_batch(rho, settings)
        pref = (-1.0) ** N * 2.0 * math.pi ** (0.5 * N) * isd
        return pref * p0.value + 0j, np.abs(pref) * p0.abs_error, p0.converged
    # n = N - 1: row-sum weighted orthants with one leg integrated out.  Their
    # roundoff floors carry over to the weighted sum, so even the closed forms
    # (N <= 4) report a nonzero error.
    conditioned = np.stack([conditioned_correlation(rho, k) for k in range(N)], axis=1)
    p0 = orthant_probability_batch(conditioned.reshape(B * N, N - 1, N - 1), settings)
    w = r.sum(axis=2) / np.sqrt(np.diagonal(r, axis1=1, axis2=2))
    pref = (-1.0) ** N * math.pi ** (0.5 * (N - 1)) * isd
    total = (w * p0.value.reshape(B, N)).sum(axis=1)
    err = (np.abs(w) * p0.abs_error.reshape(B, N)).sum(axis=1)
    return (pref * total + 0j, np.abs(pref) * err,
            p0.converged.reshape(B, N).all(axis=1))


def unit_value_derivatives(sigmas: np.ndarray, direction: np.ndarray,
                           settings: QuadratureSettings = DEFAULT_SETTINGS):
    """d/dt of the unit-power value at n = N along Sigma + t*E, for a stack
    of real positive-definite mass matrices (B, N, N) with N >= 3 and a
    symmetric direction E, shaped (N, N) or (B, N, N).

    Returns (values, errors, converged) per matrix.  With R = Sigma^-1 and
    d_a = sqrt(R_aa) the chain rule runs through

        dR = -R E R,   d(prefactor) = -prefactor * tr(R E) / 2,
        drho_ab = dR_ab / (d_a d_b) - rho_ab (dd_a / d_a + dd_b / d_b),

    with dd_a = dR_aa / (2 d_a), and Plackett's identity (Biometrika 41,
    351, 1954) gives the orthant gradient in closed form:

        dP0 / drho_ij = P0(rho | x_i = x_j = 0) / (2 pi sqrt(1 - rho_ij**2)).

    The conditioned orthants have N - 2 variables; all (matrix, pair) ones go
    to one ``orthant_probability_batch`` call.  Their errors and that of P0
    are carried through the chain rule.  Matrices that ``correlation_stack``
    refuses raise SingularMatrix for the whole stack.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    B, N = sigmas.shape[0], sigmas.shape[-1]
    if N < 3:
        raise ValueError(f"mass derivatives need N >= 3, got N={N}")
    r, rho, det = correlation_stack(sigmas)
    p0 = orthant_probability_batch(rho, settings)
    # Gaussian conditioning on x_i = x_j = 0, for every pair i < j at once
    pairs = np.array(list(combinations(range(N), 2)))
    rest = np.array([[a for a in range(N) if a not in pair] for pair in pairs])
    r_ij = rho[:, pairs[:, 0], pairs[:, 1]]                      # (B, P)
    b_i = rho[:, rest, pairs[:, :1]]                             # (B, P, N-2)
    b_j = rho[:, rest, pairs[:, 1:]]
    cross = b_i[..., :, None] * b_j[..., None, :]
    cov = (rho[:, rest[:, :, None], rest[:, None, :]]
           - (b_i[..., :, None] * b_i[..., None, :] + b_j[..., :, None] * b_j[..., None, :]
              - r_ij[..., None, None] * (cross + np.swapaxes(cross, -1, -2)))
           / (1.0 - r_ij ** 2)[..., None, None])
    sd = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    cond = cov / (sd[..., :, None] * sd[..., None, :])
    cond[..., np.arange(N - 2), np.arange(N - 2)] = 1.0
    pc = orthant_probability_batch(cond.reshape(-1, N - 2, N - 2), settings)
    weight = 1.0 / (2.0 * math.pi * np.sqrt(1.0 - r_ij ** 2))
    # chain rule from Sigma through R to the correlations
    e = np.asarray(direction, dtype=float)
    dr = -r @ e @ r
    dg = np.sqrt(np.diagonal(r, axis1=1, axis2=2))
    rate = np.diagonal(dr, axis1=1, axis2=2) / (2.0 * dg * dg)          # dd_a / d_a
    drho = dr / (dg[:, :, None] * dg[:, None, :]) - rho * (rate[:, :, None] + rate[:, None, :])
    drho_ij = drho[:, pairs[:, 0], pairs[:, 1]]
    pref = (-1.0) ** N * 2.0 * math.pi ** (0.5 * N) / np.sqrt(det)
    dpref = -0.5 * pref * (r * e).sum(axis=(1, 2))
    grad = (drho_ij * weight * pc.value.reshape(B, -1)).sum(axis=1)
    grad_err = (np.abs(drho_ij) * weight * pc.abs_error.reshape(B, -1)).sum(axis=1)
    values = dpref * p0.value + pref * grad
    errors = np.abs(dpref) * p0.abs_error + np.abs(pref) * grad_err
    return values + 0j, errors, p0.converged & pc.converged.reshape(B, -1).all(axis=1)


def unit_method(N: int, n: float) -> str:
    """Method label of an N-point assembly at n: closed form when every
    orthant in it has at most three variables, quadrature otherwise."""
    return METHOD_CLOSED_FORM if N <= 3 or (N == 4 and n == 3) else METHOD_QUADRATURE


def evaluate_unit(sigma: np.ndarray, n: float,
                  settings: QuadratureSettings = DEFAULT_SETTINGS,
                  strict: bool = True) -> IntegralValue:
    """Unit-power N-point value at integer dimension n in {N, N-1} for a
    real positive-definite mass matrix: ``unit_values`` of a stack of one
    (N = 2 at n = 2 is the angle form)."""
    sigma = np.asarray(sigma)
    N = sigma.shape[0]
    values, errors, ok = unit_values(sigma[None], n, settings, strict)
    return IntegralValue(value=complex(values[0]), abs_error=float(errors[0]),
                         method=unit_method(N, n), **convergence(inner_ok=bool(ok[0])))


def rowsum_value(sigma: np.ndarray, settings: QuadratureSettings = DEFAULT_SETTINGS,
                 strict: bool = True) -> IntegralValue:
    """Unit powers at n = N - 1: row-sum weighted conditioned orthants,

        J = (-1)**N * pi**((N-1)/2) / sqrt(det)
            * sum_k rowsum_k / sqrt(R_kk) * P0(rho | leg k integrated out).
    """
    sigma = np.asarray(sigma)
    return evaluate_unit(sigma, sigma.shape[0] - 1, settings, strict)


def angle_form_values(sigmas: np.ndarray):
    """tau / (m1 m2 sin tau) for a stack of 2x2 matrices, valid on both
    continuation branches: (values, errors).  The pseudothreshold limit
    tau -> 0 gives 1/(m1 m2); the threshold tau -> pi is a genuine
    singularity."""
    sigmas = np.asarray(sigmas)
    mm = np.sqrt(sigmas[:, 0, 0]) * np.sqrt(sigmas[:, 1, 1])
    c = sigmas[:, 0, 1] / mm
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.iscomplexobj(sigmas):
            tau = np.arccos(c.astype(complex))
            small = np.abs(tau) < 1e-8
            values = np.where(small, (1.0 + np.abs(tau) ** 2 / 6.0) / mm, tau / (mm * np.sin(tau)))
        else:
            if np.any(np.abs(c + 1.0) <= 1e-12):
                raise SingularMatrix("two-point function diverges at threshold (c = -1)")
            inside = np.arccos(np.clip(c, -1.0, 1.0))
            theta = np.arccosh(np.maximum(c, 1.0))
            below = math.pi + 1j * np.arccosh(np.maximum(-c, 1.0))
            values = np.select(
                [np.abs(c - 1.0) <= 1e-12, np.abs(c) < 1.0, c > 1.0],
                [1.0 / mm, inside / (mm * np.sin(inside)), theta / (mm * np.sinh(theta))],
                below / (mm * np.sin(below))).astype(complex)
    return values, 5e-15 * np.abs(values)


def two_point_angle_form(sigma: np.ndarray) -> IntegralValue:
    """The angle form of one 2x2 matrix: ``angle_form_values`` of a stack of
    one."""
    values, errors = angle_form_values(np.asarray(sigma)[None])
    return IntegralValue(value=complex(values[0]), abs_error=float(errors[0]),
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
