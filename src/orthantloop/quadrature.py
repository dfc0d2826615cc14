"""Deterministic integration engines.

One Gauss-Kronrod panel rule and error estimate drive two globally adaptive
bisection schemes, both vectorized over arrays of (complex) nodes:

* shared refinement (``adaptive_batch``): the components of one
  vector-valued integrand share every panel, and the panel with the worst
  error in any component is split next.  This suits components that need
  the same resolution anyway: the contour, half-line and epsilon integrands.
* per-row refinement (``adaptive_rows``): a stack of independent scalar
  integrals (one per matrix) each keeps its own panels, error total and
  subdivision count, as QUADPACK's global adaptivity does for one integral,
  while every step evaluates the new nodes of all unconverged rows in one
  call.  A shared refinement would split every matrix wherever the hardest
  one needs it; per row, an easy matrix stops as soon as it has converged.

On top of them sit the unit-interval rule (with an optional sine
substitution for arcsine-type endpoint weights), the half-line rule through
a rational or exponential map, and a truncated vertical-contour rule for
inverse Laplace transforms with adaptive height doubling and a
measured-ratio tail estimate, which runs a stack of contours as rows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonConvergence, TailDominates

# 15-point Kronrod extension of 7-point Gauss, nodes ascending on [-1, 1].
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

GK_NODES = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
GK_WEIGHTS = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
# Gauss-7 subset lives at the odd node positions.
G_WEIGHTS = np.zeros(15)
G_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])

METHOD_CLOSED_FORM = "closed_form"
METHOD_QUADRATURE = "quadrature"
METHOD_CONTOUR = "contour"
METHOD_MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class IntegralValue:
    """A numeric integral: complex value, absolute-error estimate, method tag."""

    value: complex
    abs_error: float
    method: str = METHOD_QUADRATURE
    normalization: str = "paper-J"
    converged: bool = True
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def real(self) -> float:
        return float(np.real(self.value))


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    contour_abscissa_c: float | None = None
    contour_halfheight_T: float | None = None
    infinite_domain_map: str = "rational"   # or "exponential"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.contour_abscissa_c is not None and self.contour_abscissa_c <= 0:
            raise ValueError("contour abscissa must be positive")

    def tighter(self, factor: float) -> "QuadratureSettings":
        return replace(self, rel_tol=self.rel_tol * factor, abs_tol=self.abs_tol * factor)


DEFAULT_SETTINGS = QuadratureSettings()

# Most nodes (rows times nodes per row) that ``adaptive_rows`` hands to one
# integrand call; bounds the integrand's working set on large stacks.
CALL_NODES = 2048


def _gk_nodes(a, b):
    """Kronrod nodes on the panels [a, b] and their half-widths.

    ``a`` and ``b`` are panel ends, scalars or arrays of one shape; the nodes
    gain a trailing axis of 15.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[..., None] + half[..., None] * GK_NODES
    # Keep nodes strictly interior: float rounding on very narrow panels can
    # land a node exactly on a singular endpoint.
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    x = np.clip(x, np.nextafter(lo, hi)[..., None], np.nextafter(hi, lo)[..., None])
    return x, half


def _gk_estimate(y, half):
    """Kronrod values and error estimates of panels from their node values.

    ``y`` carries the 15 node values on its last axis and ``half`` (the
    half-widths) broadcasts against the other axes.  The error estimate
    follows the usual practice of sharpening the raw Gauss/Kronrod difference
    against the total variation so smooth panels are not absurdly
    over-refined.
    """
    if not np.all(np.isfinite(y)):
        raise NonConvergence("integrand returned non-finite values")
    ik = half * (y @ GK_WEIGHTS)
    ig = half * (y @ G_WEIGHTS)
    diff = np.abs(ik - ig)
    mean = ik / (2.0 * half)
    resasc = np.abs(half) * (np.abs(y - mean[..., None]) @ GK_WEIGHTS)
    err = np.where(
        resasc > 0.0,
        resasc * np.minimum(1.0, (200.0 * diff / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
        diff,
    )
    return ik, err


def _roundoff_floor(total, err):
    """Never report an integral as known better than machine precision."""
    return np.maximum(err, 5e-16 * np.abs(total))


def _gk_panel(f, a: float, b: float):
    """One Gauss-Kronrod pass over [a, b] for a vector-valued integrand.

    Returns (kronrod, error, neval).
    """
    x, half = _gk_nodes(a, b)
    ik, err = _gk_estimate(np.asarray(f(x)), half)
    return ik, err, 15


def adaptive_batch(f, a: float, b: float, rel_tol: float, abs_tol: float,
                   max_subdivisions: int = 2000):
    """Globally adaptive bisection on [a, b] for a vector-valued integrand.

    ``f`` maps an array of nodes to an array shaped (..., n_nodes).  Returns
    (value, error, converged, neval) with value/error shaped like one
    integrand evaluation without the node axis.  All components share one
    refinement: the panel with the largest error in any component is split
    next, and the result converges only when every component does.
    """
    ik, err, neval = _gk_panel(f, a, b)
    counter = 0
    heap = [(-float(np.max(err)), counter, a, b, ik, err)]
    total = np.array(ik, dtype=complex if np.iscomplexobj(ik) else float, ndmin=max(ik.ndim, 0))
    total_err = np.array(err, dtype=float)
    n_split = 0
    while True:
        bound = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(total_err <= bound):
            return total, _roundoff_floor(total, total_err), True, neval
        if n_split >= max_subdivisions or not heap:
            return total, _roundoff_floor(total, total_err), False, neval
        _, _, pa, pb, pik, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:   # interval exhausted at machine precision
            continue
        lik, lerr, n1 = _gk_panel(f, pa, pm)
        rik, rerr, n2 = _gk_panel(f, pm, pb)
        neval += n1 + n2
        n_split += 1
        total = total - pik + lik + rik
        total_err = total_err - perr + lerr + rerr
        counter += 1
        heapq.heappush(heap, (-float(np.max(lerr)), counter, pa, pm, lik, lerr))
        counter += 1
        heapq.heappush(heap, (-float(np.max(rerr)), counter, pm, pb, rik, rerr))


def adaptive_rows(f, a: float, b: float, n_rows: int, rel_tol: float, abs_tol: float,
                  max_subdivisions: int = 2000):
    """Globally adaptive bisection on [a, b] for ``n_rows`` scalar integrands
    that refine independently of each other.

    ``f(x, rows)`` receives nodes ``x`` shaped (len(rows), k) for the row
    indices ``rows`` and returns the integrand values in the same shape.
    Every row keeps its own panels, error total and subdivision count, with
    the same strategy, error estimate and roundoff floor as
    ``adaptive_batch``: a step splits the worst panel of every unconverged
    row and evaluates the 30 new nodes of all of them together, in calls of
    at most ``CALL_NODES`` nodes.  So a row's result does not depend on
    which other rows share the stack.  Returns (value, error, converged,
    neval), one entry per row.
    """
    rows = np.arange(n_rows)
    ik, err = _gk_rows(f, np.full((n_rows, 1), float(a)), np.full((n_rows, 1), float(b)), rows)
    value = np.zeros(n_rows, dtype=ik.dtype)
    error = np.zeros(n_rows)
    converged = np.zeros(n_rows, dtype=bool)
    splits = np.zeros(n_rows, dtype=int)
    # Working state of the rows still refining, one panel per column; slots
    # beyond a row's panel count and panels exhausted at machine precision
    # carry error -inf, so they are never picked for splitting.
    total, total_err, n_split = ik[:, 0].copy(), err[:, 0].copy(), splits.copy()
    lo, hi = np.full((n_rows, 8), float(a)), np.full((n_rows, 8), float(b))
    pval = np.zeros((n_rows, 8), dtype=ik.dtype)
    perr = np.full((n_rows, 8), -np.inf)
    pval[:, 0], perr[:, 0] = total, total_err
    while len(rows):
        ok = total_err <= np.maximum(abs_tol, rel_tol * np.abs(total))
        k = np.argmax(perr, axis=1)
        at = np.arange(len(rows))
        stop = ok | (n_split >= max_subdivisions) | (perr[at, k] == -np.inf)
        if np.any(stop):
            done = rows[stop]
            value[done] = total[stop]
            error[done] = _roundoff_floor(total[stop], total_err[stop])
            converged[done] = ok[stop]
            splits[done] = n_split[stop]
            if np.all(stop):
                break
            keep = ~stop
            rows, total, total_err, n_split, lo, hi, pval, perr, k = (
                v[keep] for v in (rows, total, total_err, n_split, lo, hi, pval, perr, k))
            at = np.arange(len(rows))
        pa, pb = lo[at, k], hi[at, k]
        pm = 0.5 * (pa + pb)
        exhausted = (pm <= pa) | (pm >= pb)
        if np.any(exhausted):
            perr[at[exhausted], k[exhausted]] = -np.inf
            at, k, pa, pm, pb = (v[~exhausted] for v in (at, k, pa, pm, pb))
        if not len(at):
            continue
        ik, err = _gk_rows(f, np.stack([pa, pm], axis=1), np.stack([pm, pb], axis=1), rows[at])
        total[at] = total[at] - pval[at, k] + ik[:, 0] + ik[:, 1]
        total_err[at] = total_err[at] - perr[at, k] + err[:, 0] + err[:, 1]
        n_split[at] += 1
        if np.max(n_split[at]) >= lo.shape[1]:
            lo, hi, pval = (np.concatenate([v, v], axis=1) for v in (lo, hi, pval))
            perr = np.concatenate([perr, np.full_like(perr, -np.inf)], axis=1)
        new = n_split[at]
        hi[at, k], pval[at, k], perr[at, k] = pm, ik[:, 0], err[:, 0]
        lo[at, new], hi[at, new], pval[at, new], perr[at, new] = pm, pb, ik[:, 1], err[:, 1]
    return value, error, converged, 15 + 30 * splits


def _gk_rows(f, lo, hi, rows):
    """Kronrod values and errors of the panels [lo, hi], shaped (len(rows),
    panels), calling ``f(x, rows)`` on at most ``CALL_NODES`` nodes at a
    time."""
    n, p = lo.shape
    step = max(1, CALL_NODES // (15 * p))
    parts = []
    for i in range(0, n, step):
        x, half = _gk_nodes(lo[i:i + step], hi[i:i + step])
        y = np.asarray(f(x.reshape(len(x), 15 * p), rows[i:i + step]))
        parts.append(_gk_estimate(y.reshape(x.shape), half))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(q) for q in zip(*parts))


def convergence(ok: bool = True, inner_ok: bool = True) -> dict:
    """``converged`` and ``flags`` of an IntegralValue whose own quadrature
    converged (``ok``) and whose inner evaluations all converged
    (``inner_ok``)."""
    flags = (() if ok else ("non_converged",)) + (() if inner_ok else ("inner_non_converged",))
    return {"converged": bool(ok and inner_ok), "flags": flags}


def _scalar_result(value, err, converged, method=METHOD_QUADRATURE) -> IntegralValue:
    v = np.asarray(value).reshape(-1)
    e = np.asarray(err).reshape(-1)
    return IntegralValue(value=complex(v[0]), abs_error=float(e[0]), method=method,
                         **convergence(bool(converged)))


def integrate_01(f, settings: QuadratureSettings = DEFAULT_SETTINGS,
                 weight: str = "none") -> IntegralValue:
    """Adaptive integral of ``f`` over [0, 1].

    ``weight="arcsine"`` applies u = sin(theta) first, which removes the
    (1 - u**2)**(-1/2) endpoint behaviour the Gaussian-kernel integrands
    carry.  The integrand must accept numpy arrays.
    """
    if weight == "arcsine":
        def g(theta):
            u = np.sin(theta)
            return np.asarray(f(u)) * np.cos(theta)
        value, err, ok, _ = adaptive_batch(g, 0.0, 0.5 * math.pi, settings.rel_tol,
                                           settings.abs_tol, settings.max_subdivisions)
    else:
        value, err, ok, _ = adaptive_batch(f, 0.0, 1.0, settings.rel_tol,
                                           settings.abs_tol, settings.max_subdivisions)
    return _scalar_result(value, err, ok)


def integrate_0inf(f, settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """Adaptive integral of ``f`` over [0, inf) via a compactifying map.

    The default rational map x = t/(1-t) tolerates integrands with only
    polynomial decay; the exponential map x = -log(1-t) is better when the
    decay is genuinely exponential.
    """
    if settings.infinite_domain_map == "exponential":
        def g(t):
            t = np.clip(t, 0.0, 1.0 - 1e-16)
            x = -np.log1p(-t)
            return np.asarray(f(x)) / (1.0 - t)
    else:
        def g(t):
            t = np.clip(t, 0.0, 1.0 - 1e-16)
            x = t / (1.0 - t)
            return np.asarray(f(x)) / (1.0 - t) ** 2
    value, err, ok, _ = adaptive_batch(g, 0.0, 1.0, settings.rel_tol,
                                       settings.abs_tol, settings.max_subdivisions)
    return _scalar_result(value, err, ok)


def contour_rows(f, c, T0, settings: QuadratureSettings = DEFAULT_SETTINGS, *,
                 max_strips: int = 48):
    """(1/2*pi*i) times the integral of ``f`` along Re(s) = c[b], truncated,
    for a stack of independent rows b.

    ``f(s, rows)`` receives complex nodes ``s`` shaped (len(rows), k) for
    the row indices ``rows`` (a row may appear more than once) and returns
    the integrand values in the same shape.  Each row keeps its own abscissa
    ``c[b]``, first height ``T0[b]`` and tail test: its height grows in
    octaves [T, 2T] until the newest strip plus a geometric tail estimate
    (ratio measured from its last two strips) drops below tolerance.  Every
    strip maps onto [0, 1] and runs on ``adaptive_rows``, so a row's panels
    do not depend on its stack neighbours; a strip that exhausts its panel
    budget (oscillatory e**(s*x) factors) is retried as eight uniform
    sub-strips, up to three times.  The integrand is assumed to satisfy
    f(conj(s)) = conj(f(s)), so only the upper half is evaluated and the
    result is real.  Returns (value, error, converged) per row; raises
    TailDominates when the tail of any row refuses to decay.
    """
    c = np.asarray(c, dtype=float)
    T0 = np.asarray(T0, dtype=float)
    B = len(c)
    tol = (settings.rel_tol, settings.abs_tol, settings.max_subdivisions)

    def segment(rows, plo, phi):
        owner = rows
        depth = np.zeros(len(owner), dtype=int)
        sv = np.zeros(B, dtype=complex)
        se = np.zeros(B)
        sok = np.ones(B, dtype=bool)
        while len(owner):
            width = phi - plo

            def g(u, idx):
                t = plo[idx, None] + width[idx, None] * u
                return width[idx, None] * np.asarray(f(c[owner[idx], None] + 1j * t, owner[idx]))

            v, e, ok, _ = adaptive_rows(g, 0.0, 1.0, len(owner), *tol)
            retry = ~ok & (depth < 3)
            done = ~retry
            np.add.at(sv, owner[done], v[done])
            np.add.at(se, owner[done], e[done])
            sok[owner[done & ~ok]] = False
            edges = np.linspace(plo[retry], phi[retry], 9, axis=1)
            owner, depth = np.repeat(owner[retry], 8), np.repeat(depth[retry] + 1, 8)
            plo, phi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        return sv[rows], se[rows], sok[rows]

    value, err, ok = segment(np.arange(B), np.zeros(B), T0)
    last = np.zeros(B)
    prev = np.zeros(B)
    strips = np.zeros(B, dtype=int)
    tail = np.full(B, math.inf)
    converged_tail = np.zeros(B, dtype=bool)
    lo, hi = T0.copy(), 2.0 * T0
    for _ in range(max_strips):
        bound = np.maximum(settings.abs_tol * 2.0 * math.pi, settings.rel_tol * np.abs(value))
        checked = strips > 0
        ratio = np.where((strips >= 2) & (prev > 0),
                         np.minimum(last / np.where(prev > 0, prev, 1.0), 0.95), 0.5)
        tail = np.where(checked, np.where(last > 0, last * ratio / (1.0 - ratio), 0.0), tail)
        converged_tail |= checked & (last <= bound) & (tail <= bound)
        rows = np.flatnonzero(~converged_tail)
        if not len(rows):
            break
        sv, se, sok = segment(rows, lo[rows], hi[rows])
        value[rows] += sv
        err[rows] += se
        ok[rows] &= sok
        prev[rows], last[rows] = last[rows], np.abs(sv)
        strips[rows] += 1
        lo[rows], hi[rows] = hi[rows], 2.0 * hi[rows]
    for b in np.flatnonzero(~converged_tail):
        if not math.isfinite(tail[b]) \
                or tail[b] > 10.0 * settings.rel_tol * max(abs(value[b]), settings.abs_tol):
            raise TailDominates(
                f"contour tail estimate {tail[b]} exceeds 10x tolerance at height {lo[b]}")
    err = err + np.where(np.isfinite(tail), tail, 0.0)
    return np.real(value) / math.pi + 0j, err / math.pi, ok & converged_tail


def integrate_contour(f, settings: QuadratureSettings = DEFAULT_SETTINGS, *,
                      max_strips: int = 48) -> IntegralValue:
    """(1/2*pi*i) times the integral of ``f`` along Re(s) = c, truncated:
    ``contour_rows`` with one row.  The abscissa and first height default
    to 1 and 8."""
    c = settings.contour_abscissa_c
    if c is None:
        c = 1.0
    T0 = settings.contour_halfheight_T or 8.0
    value, err, ok = contour_rows(lambda s, rows: np.asarray(f(s.ravel())).reshape(s.shape),
                                  [c], [T0], settings, max_strips=max_strips)
    return _scalar_result(value, err, ok[0], METHOD_CONTOUR)
