"""Independent brute-force evaluators.

Nothing in this module reuses the arcsine-integral assemblies: the simplex
representation is integrated directly (deterministic nested quadrature for
up to three legs, Dirichlet-importance Monte Carlo above), orthant
probabilities are estimated by counting Cholesky-driven Gaussian samples,
and the truncated-moment and hypergeometric-expectation forms provide two
more routes to the same numbers.  Tests triangulate the production
evaluators against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln, roots_jacobi

from .errors import DivergentIntegral, InconsistentMomenta, ValidationError
from .kinematics import KinematicConfig, build_sigma
from .matrixops import cholesky, inverse_batch
from .quadrature import (
    DEFAULT_SETTINGS,
    IntegralValue,
    METHOD_MONTE_CARLO,
    METHOD_QUADRATURE,
    QuadratureSettings,
    adaptive_batch,
)

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class MCSettings:
    samples: int = 10_000_000
    seed: int = 20240405
    batch: int = 1_000_000

    def __post_init__(self):
        if self.samples < 10_000:
            raise ValidationError("need at least 1e4 samples")
        if self.batch < 1:
            raise ValidationError("batch must be positive")


DEFAULT_MC = MCSettings()


def _batch_rngs(settings: MCSettings):
    """Per-batch generators with seeds derived from (seed, batch index)."""
    n_batches = (settings.samples + settings.batch - 1) // settings.batch
    sizes = [min(settings.batch, settings.samples - i * settings.batch)
             for i in range(n_batches)]
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence([settings.seed, i])))
            for i in range(n_batches)]
    return list(zip(rngs, sizes))


def simplex_form(sigma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u^T . Sigma . u for rows of u."""
    return np.einsum("...i,ij,...j->...", u, sigma, u)


def feynman_oracle(config: KinematicConfig, settings: MCSettings = DEFAULT_MC,
                   quad: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """Direct evaluation of the Feynman-parameter simplex integral.

    Deterministic nested quadrature up to three legs; Dirichlet-importance
    Monte Carlo beyond that (the u**(nu-1) weights are matched exactly by
    Dirichlet(nu) sampling, so the estimator sees only the smooth kernel).
    """
    n = config.dimension
    nu = config.nu_total
    N = config.n_legs
    if 2 * nu - n <= 0:
        raise DivergentIntegral(f"2*nu - n = {2 * nu - n} <= 0: integral diverges")
    sigma = build_sigma(config).entries
    sign = (-1.0) ** nu
    expo = 0.5 * n - nu

    if N == 1:
        value = sign * gamma_fn(nu - 0.5 * n) / gamma_fn(nu) * sigma[0, 0] ** expo
        return IntegralValue(value=complex(value), abs_error=abs(value) * 1e-15,
                             method=METHOD_QUADRATURE)

    if N == 2:
        pref = sign * gamma_fn(nu - 0.5 * n) / math.prod(gamma_fn(p) for p in config.powers)

        def f(u):
            w = np.ones_like(u)
            if config.powers[0] > 1:
                w = w * u ** (config.powers[0] - 1)
            if config.powers[1] > 1:
                w = w * (1.0 - u) ** (config.powers[1] - 1)
            uu = np.stack([u, 1.0 - u], axis=-1)
            return w * simplex_form(sigma, uu) ** expo

        val, err, ok, _ = adaptive_batch(f, 0.0, 1.0, quad.rel_tol, quad.abs_tol,
                                         quad.max_subdivisions)
        return IntegralValue(value=complex(pref * float(val)), abs_error=abs(pref) * float(err),
                             method=METHOD_QUADRATURE, converged=bool(ok))

    if N == 3:
        pref = sign * gamma_fn(nu - 0.5 * n) / math.prod(gamma_fn(p) for p in config.powers)
        p1, p2, p3 = config.powers
        inner_quad = (quad.rel_tol * 0.1, quad.abs_tol * 0.1, quad.max_subdivisions)

        def outer(u1):
            span = 1.0 - u1

            def inner(v):
                u2 = span[:, None] * v[None, :]
                u3 = 1.0 - u1[:, None] - u2
                uu = np.stack([np.broadcast_to(u1[:, None], u2.shape), u2, u3], axis=-1)
                w = simplex_form(sigma, uu) ** expo
                if p1 > 1:
                    w = w * u1[:, None] ** (p1 - 1)
                if p2 > 1:
                    w = w * u2 ** (p2 - 1)
                if p3 > 1:
                    w = w * np.maximum(u3, 0.0) ** (p3 - 1)
                return w

            ival, _, _, _ = adaptive_batch(inner, 0.0, 1.0, *inner_quad)
            return span * ival

        val, err, ok, _ = adaptive_batch(outer, 0.0, 1.0, quad.rel_tol, quad.abs_tol,
                                         quad.max_subdivisions)
        return IntegralValue(value=complex(pref * float(val)), abs_error=abs(pref) * float(err),
                             method=METHOD_QUADRATURE, converged=bool(ok))

    # Monte Carlo with Dirichlet(nu) importance sampling.
    log_pref = gammaln(nu - 0.5 * n) - gammaln(nu)
    pref = sign * math.exp(log_pref)
    alphas = np.asarray(config.powers, dtype=float)
    total = 0.0
    total_sq = 0.0
    count = 0
    for rng, size in _batch_rngs(settings):
        u = rng.dirichlet(alphas, size=size)
        vals = simplex_form(sigma, u) ** expo
        total = math.fsum([total, float(vals.sum())])
        total_sq = math.fsum([total_sq, float((vals * vals).sum())])
        count += size
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    stderr = abs(pref) * math.sqrt(var / count)
    return IntegralValue(value=complex(pref * mean), abs_error=stderr,
                         method=METHOD_MONTE_CARLO)


def orthant_mc(correlation: np.ndarray, settings: MCSettings = DEFAULT_MC):
    """Fraction of correlated Gaussian samples with every component
    positive, with its binomial standard error."""
    corr = np.asarray(correlation, dtype=float)
    L = cholesky(corr)
    dim = corr.shape[0]
    hits = 0
    count = 0
    for rng, size in _batch_rngs(settings):
        z = rng.standard_normal((size, dim)) @ L.T
        hits += int(np.all(z > 0.0, axis=1).sum())
        count += size
    p = hits / count
    stderr = math.sqrt(max(p * (1.0 - p), 1e-300) / count)
    return p, stderr


def truncated_moment_mc(config: KinematicConfig, settings: MCSettings = DEFAULT_MC) -> IntegralValue:
    """Monte Carlo of the probabilistic form: correlated Gaussian vector with
    covariance inverse(Sigma), positive-part indicator on every component,
    power weights and the (sum)**(nu - n) factor."""
    sigma = build_sigma(config).entries
    N = config.n_legs
    n = config.dimension
    nu = config.nu_total
    r = inverse_batch(sigma)
    L = cholesky(r)
    det_sigma = float(np.linalg.det(sigma))
    pref = ((-1.0) ** nu * (2.0 * math.pi) ** (0.5 * N)
            / (math.sqrt(det_sigma) * 2.0 ** (nu - 0.5 * n - 1.0)
               * math.prod(gamma_fn(p) for p in config.powers)))
    powers = np.asarray(config.powers)
    expo = nu - n
    flags = []
    total = 0.0
    total_sq = 0.0
    count = 0
    half_vars = []
    for b, (rng, size) in enumerate(_batch_rngs(settings)):
        eps = rng.standard_normal((size, N)) @ L.T
        pos = np.all(eps > 0.0, axis=1)
        w = np.zeros(size)
        if np.any(pos):
            e = eps[pos]
            v = np.ones(e.shape[0])
            for i in range(N):
                if powers[i] > 1:
                    v = v * e[:, i] ** (powers[i] - 1)
            if expo != 0:
                v = v * e.sum(axis=1) ** expo
            w[pos] = v
        total = math.fsum([total, float(w.sum())])
        total_sq = math.fsum([total_sq, float((w * w).sum())])
        count += size
        half_vars.append(float((w * w).mean()))
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    if expo <= -2 and len(half_vars) >= 2:
        first = np.mean(half_vars[: len(half_vars) // 2])
        second = np.mean(half_vars[len(half_vars) // 2:])
        if second > 2.0 * first:
            flags.append("infinite_variance")
    stderr = abs(pref) * math.sqrt(var / count)
    return IntegralValue(value=complex(pref * mean), abs_error=stderr,
                         method=METHOD_MONTE_CARLO, flags=tuple(flags))


def lauricella_expectation_mc(config: KinematicConfig, settings: MCSettings = DEFAULT_MC,
                              t_nodes: int = 64) -> IntegralValue:
    """Expectation over Gaussian samples of the one-dimensional integral
    representation of the multivariate hypergeometric factor.

    Valid for nu < n < 2*nu: the 1D integral carries weights t**(2nu-n-1)
    and (1-t)**(n-nu-1), absorbed exactly by a Gauss-Jacobi rule, with the
    remaining product of integer powers evaluated at complex arguments 1-iZ.
    """
    n = config.dimension
    nu = config.nu_total
    N = config.n_legs
    a = 2.0 * nu - n
    c = float(nu)
    if not (nu < n and a > 0):
        raise DivergentIntegral(
            f"hypergeometric route needs nu < n < 2*nu, got nu={nu}, n={n}")
    sigma = build_sigma(config).entries
    L = cholesky(sigma)
    # Gauss-Jacobi on [-1,1] with weight (1-x)^alpha (1+x)^beta;
    # t = (1+x)/2 maps it onto t^(a-1) (1-t)^(c-a-1).
    x, w = roots_jacobi(t_nodes, c - a - 1.0, a - 1.0)
    t = 0.5 * (1.0 + x)
    jacobi_scale = 2.0 ** (1.0 - c)
    fd_pref = gamma_fn(c) / (gamma_fn(a) * gamma_fn(c - a))
    powers = np.asarray(config.powers, dtype=float)
    pref = ((-1.0) ** nu / 2.0 ** (nu - 0.5 * n - 1.0)
            * gamma_fn(2.0 * nu - n) / gamma_fn(nu))
    total = 0.0 + 0.0j
    total_sq = 0.0
    count = 0
    for rng, size in _batch_rngs(settings):
        z = rng.standard_normal((size, N)) @ L.T
        base = (1.0 - t[None, None, :]) + 1j * t[None, None, :] * z[:, :, None]
        prod = np.prod(base ** (-powers[None, :, None]), axis=1)
        fd = fd_pref * jacobi_scale * prod @ w
        total += complex(fd.sum())
        total_sq = math.fsum([total_sq, float((np.abs(fd) ** 2).sum())])
        count += size
    mean = total / count
    var = max(total_sq / count - abs(mean) ** 2, 0.0)
    stderr = abs(pref) * math.sqrt(var / count)
    return IntegralValue(value=complex(pref * mean), abs_error=stderr,
                         method=METHOD_MONTE_CARLO)


def momenta_to_invariants(momenta: np.ndarray) -> np.ndarray:
    """k2[j, l] = (p_j - p_l)^2 in the (+,-,-,-) metric.

    Accepts complex momenta; the squared differences of a consistent set are
    real, and a residual imaginary part is returned for the caller to judge.
    """
    p = np.asarray(momenta)
    N = p.shape[0]
    k2 = np.zeros((N, N), dtype=p.dtype)
    for j in range(N):
        for l in range(j + 1, N):
            d = p[j] - p[l]
            k2[j, l] = k2[l, j] = d @ MINKOWSKI_METRIC @ d
    return k2


def momenta_for_config(config: KinematicConfig) -> np.ndarray:
    """Momenta reproducing the config's invariants exactly, gauge p_1 = 0.

    The positive-definite mass matrices this library evaluates correspond to
    invariants whose momentum Gram matrix has more than one positive
    eigenvalue, which no real Minkowski vectors can produce (a real Gram in
    signature (1,3) has at most one).  Directions carrying surplus positive
    norm therefore get imaginary spatial components; all pairwise invariants
    stay exactly real.
    """
    N = config.n_legs
    if N > 5:
        raise ValidationError("momentum reconstruction implemented for up to five legs")
    k2 = np.asarray(config.invariants)
    # Gram of p_2..p_N in the p_1 = 0 gauge.
    g = np.empty((N - 1, N - 1))
    for a in range(1, N):
        for b in range(1, N):
            g[a - 1, b - 1] = 0.5 * (k2[0, a] + k2[0, b] - k2[a, b])
    w, v = np.linalg.eigh(g)
    # Descending: the largest norm goes on the time axis, the rest on the
    # spatial axes.  Signs that do not fit the metric become imaginary.
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    cols = v * np.sqrt(np.abs(w))[None, :]
    p = np.zeros((N, 4), dtype=complex)
    for a in range(N - 1):
        axis = a  # one eigen-direction per axis; N <= 5 guarantees a < 4
        metric_sign = 1.0 if axis == 0 else -1.0
        needs_imag = (w[a] >= 0) != (metric_sign > 0)
        p[1:, axis] = (1j if needs_imag else 1.0) * cols[:, a]
    return p


def check_momenta(config: KinematicConfig, momenta: np.ndarray, tol: float = 1e-10):
    k2 = momenta_to_invariants(momenta)
    scale = 1.0 + float(np.abs(config.invariants).max())
    if np.max(np.abs(k2 - config.invariants)) > tol * scale:
        raise InconsistentMomenta(
            "momenta do not reproduce the invariants matrix within tolerance")


def _dirichlet_p_dot(momenta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows of u combined with the momenta: P(u) = sum_i u_i p_i."""
    return u @ np.asarray(momenta)


def tensor_rank2_mc(config: KinematicConfig, momenta: np.ndarray, mu: int, nu_idx: int,
                    settings: MCSettings = DEFAULT_MC) -> IntegralValue:
    """Direct Monte Carlo of the rank-2 five-point tensor integral at n = 4,
    unit powers: the Feynman-parametrized numerator splits into a metric
    piece and a P^mu P^nu piece, both integrated over the simplex.  Momenta
    may carry imaginary spatial components (see momenta_for_config); the
    component value is then complex."""
    if config.n_legs != 5 or any(p != 1 for p in config.powers):
        raise ValidationError("direct tensor oracle implemented for five unit-power legs")
    check_momenta(config, momenta)
    sigma = build_sigma(config).entries
    p = np.asarray(momenta)
    g_piece = 0.5 * MINKOWSKI_METRIC[mu, nu_idx]
    total = 0.0 + 0.0j
    total_sq = 0.0
    count = 0
    for rng, size in _batch_rngs(settings):
        u = rng.dirichlet(np.ones(5), size=size)
        q = simplex_form(sigma, u)
        P = _dirichlet_p_dot(p, u)
        vals = g_piece / q ** 2 - 2.0 * P[:, mu] * P[:, nu_idx] / q ** 3
        total += complex(vals.sum())
        total_sq = math.fsum([total_sq, float((np.abs(vals) ** 2).sum())])
        count += size
    mean = total / count / 24.0
    var = max(total_sq / count - abs(total / count) ** 2, 0.0)
    stderr = math.sqrt(var / count) / 24.0
    return IntegralValue(value=mean, abs_error=stderr, method=METHOD_MONTE_CARLO)
