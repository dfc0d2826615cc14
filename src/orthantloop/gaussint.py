"""Gaussian-kernel integrals with reciprocal-coordinate denominators.

These are the building blocks of every explicit N-point assembly: the
integral over d Gaussian variables with unit-diagonal correlation matrix
``rho`` and a product of 1/omega denominators over some subset of the
variables.  Everything is expressed in the normalized convention (unit
diagonals); the sqrt(2*pi/R_jj) single-leg weights are factored out and
reapplied by the assembly layer.

Closed forms exist for zero and two denominators; four denominators reduce
to three one-dimensional arcsine integrals; six denominators reduce to an
outer integral whose integrand is a weighted sum of five four-denominator
evaluations on a conditioned coefficient matrix.  All entries may be
complex (shifted-mass continuations); principal branches are used
throughout, with an optional homotopy continuity check.  Unless told
otherwise, the four- and six-denominator integrals anchor on the leg whose
largest |rho| to the others is smallest, which keeps the poles at
u = 1/|rho_ip| of their partner weights farthest from the unit interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConditioning, NonPositiveDiagonal, OutOfRange, SingularMatrix
from .matrixops import cholesky
from .quadrature import (
    DEFAULT_SETTINGS,
    IntegralValue,
    METHOD_QUADRATURE,
    QuadratureSettings,
    adaptive_rows,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CorrelationSubmatrix:
    """A unit-diagonal correlation block with the original leg indices kept
    for bookkeeping.  Entries may be complex for shifted-mass inputs; real
    off-diagonals must sit strictly inside (-1, 1)."""

    rho: np.ndarray
    labels: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        rho = np.asarray(self.rho)
        d = rho.shape[0]
        if rho.ndim != 2 or rho.shape[1] != d or not 1 <= d <= 7:
            raise ValueError(f"need a square block of side 1..7, got {rho.shape}")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ValueError("correlation block must be symmetric")
        if not np.allclose(np.diagonal(rho), 1.0, atol=1e-12):
            raise ValueError("correlation block must have unit diagonal")
        if not np.iscomplexobj(rho):
            off = np.abs(rho[np.triu_indices(d, 1)])
            if d > 1 and np.max(off, initial=0.0) >= 1.0:
                raise OutOfRange("real off-diagonal correlations must lie in (-1, 1)")
        rho = rho.copy()
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(d)))
        elif len(self.labels) != d:
            raise ValueError("labels length must match the block size")


def _as_rho(rho) -> np.ndarray:
    return rho.rho if isinstance(rho, CorrelationSubmatrix) else np.asarray(rho)


def i_single(r_jj: float) -> float:
    """Gaussian integral of a single leg: sqrt(2*pi / r_jj)."""
    if np.real(r_jj) <= 0.0 and not np.iscomplexobj(r_jj):
        raise NonPositiveDiagonal(f"diagonal entry must be positive, got {r_jj}")
    return np.sqrt(TWO_PI / r_jj)


def i_pair(rho_ij):
    """Two denominators: -2*pi*arcsin(rho_ij)."""
    if not np.iscomplexobj(rho_ij):
        if abs(rho_ij) >= 1.0:
            raise OutOfRange(f"|rho| must be < 1, got {rho_ij}")
        return -TWO_PI * math.asin(rho_ij)
    return -TWO_PI * np.arcsin(complex(rho_ij))


def partial_correlation(rho: np.ndarray, i: int, j: int, k: int):
    """Correlation of legs (i, j) after integrating leg k out."""
    den_i = 1.0 - rho[i, k] ** 2
    den_j = 1.0 - rho[j, k] ** 2
    if min(abs(den_i), abs(den_j)) < 1e-14:
        raise DegenerateConditioning(
            f"conditioning on leg {k} degenerate: 1-rho^2 = {den_i}, {den_j}")
    return (rho[i, j] - rho[i, k] * rho[j, k]) / np.sqrt(den_i * den_j)


def i_pair_conditional(rho, pair: tuple[int, int], conditioned: int):
    """Three legs, two denominators; leg ``conditioned`` carries a plain
    Gaussian weight.  Normalized convention: -(2*pi)**(3/2) * arcsin of the
    partial correlation."""
    rho = _as_rho(rho)
    i, j = pair
    pc = partial_correlation(rho, i, j, conditioned)
    return i_single(1.0) * i_pair(pc if np.iscomplexobj(rho) else float(np.real(pc)))


def conditioned_correlation(rho: np.ndarray, k: int) -> np.ndarray:
    """Partial-correlation matrix of all remaining legs given leg k, for one
    matrix or a stack of them (shape (..., d, d))."""
    rho = np.asarray(rho)
    idx = [a for a in range(rho.shape[-1]) if a != k]
    sub = rho[..., idx, :][..., idx]
    col = rho[..., idx, k]
    den = 1.0 - col ** 2
    if np.min(np.abs(den), initial=np.inf) < 1e-14:
        raise DegenerateConditioning(f"conditioning on leg {k} degenerate")
    out = (sub - col[..., :, None] * col[..., None, :]) \
        / np.sqrt(den[..., :, None] * den[..., None, :])
    if not np.iscomplexobj(out):
        out[..., range(len(idx)), range(len(idx))] = 1.0
    return out


def _default_anchors(rhos: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (..., d, d), the label whose largest |rho| to
    its partners is smallest, ties going to the lowest label.

    An anchor i weights partner p by rho_ip / sqrt(1 - rho_ip**2 u**2), whose
    pole sits at u = 1/|rho_ip|.  The nearest pole to the unit interval is
    the one of the partner with the largest |rho_ip|; this minimax choice
    puts it as far beyond u = 1 as the matrix allows.  Complex entries are
    ranked by modulus.
    """
    off = np.abs(rhos) * (1.0 - np.eye(rhos.shape[-1]))
    return np.argmin(off.max(axis=-1), axis=-1)


def default_anchor(rho: np.ndarray) -> int:
    """The anchor label ``i_quad`` and ``i_hex`` pick when none is given: the
    leg whose strongest correlation to another leg is weakest, so that the
    poles u = 1/|rho_ip| of its partner weights stay farthest from [0, 1]."""
    return int(_default_anchors(np.asarray(rho)))


def _other_labels(d: int, *excluded) -> np.ndarray:
    """Labels 0..d-1 in ascending order without the excluded ones, per
    entry of the (broadcasting) integer arrays ``excluded``; on a new last
    axis."""
    labels = np.arange(d)
    hit = np.zeros(np.broadcast_shapes(*(np.shape(e) for e in excluded)) + (d,), dtype=bool)
    for e in excluded:
        hit |= labels == np.asarray(e)[..., None]
    return np.argsort(hit, axis=-1, kind="stable")[..., :d - len(excluded)]


# For each anchor of a 4x4 block: its three partners p, and per partner the
# two remaining labels (q, r).
_PARTNERS4 = _other_labels(4, np.arange(4))
_REMAINING4 = _other_labels(4, np.arange(4)[:, None], _PARTNERS4)


def _check_anchor_pairs(rip: np.ndarray) -> None:
    """Reject anchor/partner correlations for which 1 - rho**2 u**2 vanishes
    on the unit interval (|rho| at 1 for real entries, a root 1/rho on
    (0, 1] for complex ones)."""
    if np.iscomplexobj(rip):
        z = np.where(rip == 0, np.inf, 1.0 / np.where(rip == 0, 1.0, rip))
        if np.any((np.abs(z.imag) < 1e-8) & (z.real > 0.0) & (z.real < 1.0 + 1e-8)):
            raise DegenerateConditioning(
                "1 - rho^2 u^2 vanishes on the unit interval for an anchor pair")
    elif np.any(np.abs(rip) >= 1.0 - 1e-14):
        raise DegenerateConditioning("|rho| too close to 1 for the anchor leg")


def quartet_batch(rhos: np.ndarray, settings: QuadratureSettings = DEFAULT_SETTINGS,
                  anchors=None):
    """Four-denominator integrals, normalized by pi**4, for a batch of
    correlation matrices.

    ``rhos`` has shape (B, 4, 4).  Returns (values, errors, ok, nodes), one
    entry per matrix.  Each matrix is one row of ``adaptive_rows``: the sum
    of its three partner terms adapts on its own panels, and every step
    evaluates the new nodes of all unconverged matrices together, which is
    what makes the shifted-mass contour evaluations affordable.
    """
    rhos = np.asarray(rhos)
    B = rhos.shape[0]
    is_complex = np.iscomplexobj(rhos)
    anchors = _default_anchors(rhos) if anchors is None else np.asarray(anchors, dtype=int)
    b = np.arange(B)[:, None]
    i = anchors[:, None]
    p = _PARTNERS4[anchors]                                       # (B, 3)
    q, r = np.moveaxis(_REMAINING4[anchors], -1, 0)              # (B, 3) each
    rp, rq, rr = rhos[b, i, p], rhos[b, i, q], rhos[b, i, r]
    pq, pr, qr = rhos[b, p, q], rhos[b, p, r], rhos[b, q, r]
    _check_anchor_pairs(rp)
    weights = rp
    coeffs = np.stack([1.0 - pq ** 2,
                       2.0 * rp * rq * pq - rp ** 2 - rq ** 2,
                       1.0 - pr ** 2,
                       2.0 * rp * rr * pr - rp ** 2 - rr ** 2,
                       qr - pq * pr,
                       rp * rq * pr + rp * rr * pq - rq * rr - rp ** 2 * qr], axis=-1)

    def integrand(u, rows):
        u = u[:, None, :]
        u2 = u * u
        c = coeffs[rows][..., None]
        w = weights[rows][..., None]
        aq = c[:, :, 0] + c[:, :, 1] * u2
        ar = c[:, :, 2] + c[:, :, 3] * u2
        aqr = c[:, :, 4] + c[:, :, 5] * u2
        arg = aqr / np.sqrt(aq * ar)
        if not is_complex:
            arg = np.clip(arg, -1.0, 1.0)
        asin = np.arcsin(arg)
        return (w * asin / np.sqrt(1.0 - (w * u) ** 2)).sum(axis=1)

    vals, errs, ok, nodes = adaptive_rows(integrand, 0.0, 1.0, B, settings.rel_tol,
                                          settings.abs_tol, settings.max_subdivisions)
    scale = 4.0 / math.pi ** 2
    values = scale * vals
    if not is_complex:
        values = np.real(values)
    return values, scale * errs, ok, nodes


def _integral_value(values, errors, ok) -> IntegralValue:
    return IntegralValue(value=complex(values[0]), abs_error=float(errors[0]),
                         method=METHOD_QUADRATURE, converged=bool(ok[0]),
                         flags=() if ok[0] else ("non_converged",))


def i_quad(rho: np.ndarray, settings: QuadratureSettings = DEFAULT_SETTINGS,
           anchor: int | None = None) -> IntegralValue:
    """Four-denominator Gaussian integral divided by pi**4.

    The formula is anchored at one label and is not manifestly symmetric;
    the value is.  ``anchor=None`` picks ``default_anchor(rho)``.
    """
    rho = _as_rho(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"need a 4x4 matrix, got {rho.shape}")
    anchors = None if anchor is None else [anchor]
    return _integral_value(*quartet_batch(rho[None, :, :], settings, anchors)[:3])


def _rho_tilde_stack(rhos: np.ndarray, anchors: np.ndarray, partners: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
    """``rho_tilde`` for a stack: ``rhos`` (B, d, d), ``anchors`` (B,),
    ``partners`` (B, P) and nodes ``u`` (B, k); returns (B, P, k, d-2, d-2)."""
    d = rhos.shape[-1]
    if np.any(partners == anchors[:, None]):
        raise ValueError("anchor and partner must differ")
    b = np.arange(len(rhos))[:, None, None]
    i = anchors[:, None, None]
    rest = _other_labels(d, anchors[:, None], partners)           # (B, P, d-2)
    sub = rhos[b[..., None], rest[..., :, None], rest[..., None, :]]
    ri = rhos[b, rest, i]
    rj = rhos[b, rest, partners[..., None]]
    rij = rhos[b[..., 0], i[..., 0], partners]                    # (B, P)
    u2 = (u * u)[:, None, :]                                      # (B, 1, k)
    den = 1.0 - rij[..., None] ** 2 * u2                          # (B, P, k)
    if np.min(np.abs(den), initial=np.inf) < 1e-14:
        raise DegenerateConditioning("1 - rho_ij^2 u^2 vanished for an anchor pair")
    ri = ri[:, :, None, :]
    g = rj[:, :, None, :] - rij[..., None, None] * ri * u2[..., None]
    out = sub[:, :, None] - ri[..., :, None] * ri[..., None, :] * u2[..., None, None]
    out -= g[..., :, None] * g[..., None, :] / den[..., None, None]
    return out


def rho_tilde(rho: np.ndarray, anchor: int, partner: int, u) -> np.ndarray:
    """Conditioned quadratic-form coefficient matrix over the four labels
    left after integrating the anchor (at interpolation parameter u) and the
    partner out.  The diagonal is not 1; normalize before reuse.

    Vectorized over u: returns shape (4, 4) for scalar u, else (len(u), 4, 4).
    """
    rho = _as_rho(rho)
    u = np.asarray(u)
    out = _rho_tilde_stack(rho[None], np.array([anchor]), np.array([[partner]]),
                           np.atleast_1d(u)[None])[0, 0]
    return out[0] if u.ndim == 0 else out


def normalize_coefficient_matrix(m: np.ndarray) -> np.ndarray:
    """Divide entry (r, s) by sqrt(m_rr * m_ss); unit diagonal afterwards."""
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    if not np.iscomplexobj(m) and np.min(diag) <= 1e-14:
        raise DegenerateConditioning("conditioned matrix lost positivity on its diagonal")
    d = np.sqrt(diag)
    return m / (d[..., :, None] * d[..., None, :])


def i_hex_batch(rhos: np.ndarray, settings: QuadratureSettings = DEFAULT_SETTINGS,
                anchors=None):
    """Six-denominator integrals divided by pi**6 for a stack of 6x6
    correlation matrices.

    Per matrix, an outer integral over u of five partner terms, each a
    four-denominator evaluation on the conditioned coefficient matrix.  The
    outer integrals are the rows of one ``adaptive_rows`` run; the inner
    quartets of all new outer nodes of a step go to one ``quartet_batch``
    call at a ten times tighter tolerance.  Returns (values, errors, ok,
    nodes), one entry per matrix; the error and ``ok`` account for the inner
    quartets too, and ``nodes`` counts inner and outer nodes.
    """
    rhos = np.asarray(rhos)
    if rhos.shape[1:] != (6, 6):
        raise ValueError(f"need a stack of 6x6 matrices, got {rhos.shape}")
    B = rhos.shape[0]
    is_complex = np.iscomplexobj(rhos)
    anchors = _default_anchors(rhos) if anchors is None else np.asarray(anchors, dtype=int)
    partners = _other_labels(6, anchors)                          # (B, 5)
    w = rhos[np.arange(B)[:, None], anchors[:, None], partners]   # (B, 5)
    _check_anchor_pairs(w)
    inner_settings = settings.tighter(0.1)
    inner_ok = np.ones(B, dtype=bool)
    inner_nodes = np.zeros(B, dtype=int)
    # Per (matrix, partner): the largest inner error and partner weight
    # |w / sqrt(1 - w**2 u**2)| met at any outer node.
    inner_err = np.zeros((B, 5))
    weight_max = np.zeros((B, 5))

    def integrand(u, rows):
        n, k = u.shape
        mats = normalize_coefficient_matrix(
            _rho_tilde_stack(rhos[rows], anchors[rows], partners[rows], u))
        qv, qe, qok, qnodes = quartet_batch(mats.reshape(-1, 4, 4), inner_settings)
        inner_ok[rows] &= qok.reshape(n, -1).all(axis=1)
        inner_nodes[rows] += qnodes.reshape(n, -1).sum(axis=1)
        inner_err[rows] = np.maximum(inner_err[rows], qe.reshape(n, 5, k).max(axis=2))
        wr = w[rows][..., None]
        weight = wr / np.sqrt(1.0 - (wr * u[:, None, :]) ** 2)
        weight_max[rows] = np.maximum(weight_max[rows], np.abs(weight).max(axis=2))
        return (weight * qv.reshape(n, 5, k)).sum(axis=1)

    vals, errs, ok, nodes = adaptive_rows(integrand, 0.0, 1.0, B, settings.rel_tol,
                                          settings.abs_tol, settings.max_subdivisions)
    # The inner errors enter the outer integral through the partner weights,
    # whose integral over the unit interval is at most their largest value
    # and, for |w| < 1, at most arcsin|w| (as |1 - w**2 u**2| >= 1 - |w|**2 u**2).
    aw = np.abs(w)
    weight_integral = np.where(aw < 1.0, np.arcsin(np.minimum(aw, 1.0)), np.inf)
    inner = (inner_err * np.minimum(weight_max, weight_integral)).sum(axis=1)
    values = -(2.0 / math.pi) * vals
    if not is_complex:
        values = np.real(values)
    return values, (2.0 / math.pi) * (errs + inner), ok & inner_ok, nodes + inner_nodes


def i_hex(rho: np.ndarray, settings: QuadratureSettings = DEFAULT_SETTINGS,
          anchor: int | None = None) -> IntegralValue:
    """Six-denominator Gaussian integral divided by pi**6: ``i_hex_batch``
    for one matrix."""
    rho = _as_rho(rho)
    if rho.shape != (6, 6):
        raise ValueError(f"need a 6x6 matrix, got {rho.shape}")
    anchors = None if anchor is None else [anchor]
    return _integral_value(*i_hex_batch(rho[None, :, :], settings, anchors)[:3])


def homotopy_continuity_check(rho_complex: np.ndarray, evaluator, steps: int = 8,
                              jump_tol: float = 0.5) -> bool:
    """Walk from a real SPD proxy to the complex target and watch for value
    jumps, which indicate a principal-branch crossing.

    ``evaluator`` maps a correlation matrix to a complex number (for example
    a wrapped i_quad or i_hex).  Returns True when the walk looks continuous.
    """
    target = np.asarray(rho_complex, dtype=complex)
    start = np.real(target)
    # Shrink the real part toward the identity until it is a valid SPD
    # correlation matrix.
    lam = 1.0
    eye = np.eye(target.shape[0])
    for _ in range(60):
        cand = eye + lam * (start - eye)
        try:
            cholesky(0.5 * (cand + cand.T))
            break
        except SingularMatrix:
            lam *= 0.8
    start = eye + lam * (start - eye)
    prev = None
    for t in np.linspace(0.0, 1.0, steps + 1):
        val = evaluator((1.0 - t) * start + t * target)
        if prev is not None:
            scale = max(abs(prev), abs(val), 1e-30)
            if abs(val - prev) > jump_tol * scale + 10.0 / steps * scale:
                return False
        prev = val
    return True
