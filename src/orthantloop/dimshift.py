"""Dimension shifts, propagator-power raising, epsilon expansion and the
hypergeometric recurrence consistency checks.

The central trick everywhere: a value at dimension n different from the
power sum nu is a one-dimensional integral (real half-line for n > nu, a
truncated vertical contour for n < nu) of values at n = nu with shifted
mass matrices.  Raised powers at n = nu are themselves contour integrals
over single-entry shifts, or equivalently plain assemblies on a matrix with
duplicated columns.

Branch handling on contours: determinants and diagonal minors of the
shifted matrices are polynomials of degree at most two in the contour
variable (the shifts are rank-one or rank-two updates), so their square
roots are factored through the polynomial roots and continued explicitly
along the contour instead of trusting the principal branch, which would
jump whenever a trajectory crosses the negative real axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np
from scipy.special import digamma, gamma as gamma_fn, polygamma

from .errors import AssemblyLimit, DivergentIntegral, SingularMatrix, ValidationError
from .kinematics import KinematicConfig, build_sigma
from .matrixops import det, inverse, inverse_batch, minor
from .npoint import evaluate_unit, orthant_probability_batch, two_point_angle_form
from .quadrature import (
    DEFAULT_SETTINGS,
    IntegralValue,
    METHOD_CONTOUR,
    METHOD_QUADRATURE,
    QuadratureSettings,
    adaptive_batch,
    integrate_contour,
)


class ShiftKind(enum.Enum):
    ALL_MASSES_PLUS_TAU = "all_masses_plus_tau"
    ALL_MASSES_MINUS_S = "all_masses_minus_s"
    SINGLE_DIAGONAL_MINUS_S = "single_diagonal_minus_s"
    SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S = "single_offdiagonal_invariant_plus_4s"
    COLUMN_AUGMENTED = "column_augmented"


@dataclass(frozen=True)
class ShiftedSigma:
    """A named one-parameter deformation of a mass matrix.

    ``materialize`` reproduces the concrete (possibly complex) matrix for a
    given parameter value; the stored ``parameter`` is just a default.
    """

    base: np.ndarray
    shift_kind: ShiftKind
    parameter: complex = 0.0
    legs: tuple[int, ...] = ()

    def materialize(self, parameter=None) -> np.ndarray:
        s = self.parameter if parameter is None else parameter
        if self.shift_kind is ShiftKind.COLUMN_AUGMENTED:
            return augment_sigma(np.asarray(self.base), self.legs, float(np.real(s)))
        return self.materialize_batch(np.asarray(s).reshape(1))[0]

    def materialize_batch(self, s: np.ndarray) -> np.ndarray:
        """Shifted matrices for an array of parameter values, shape
        (len(s), N, N)."""
        base = np.asarray(self.base)
        s = np.asarray(s)
        dtype = complex if (np.iscomplexobj(base) or np.iscomplexobj(s)) else float
        out = np.broadcast_to(base.astype(dtype), (len(s),) + base.shape).copy()
        kind = self.shift_kind
        if kind is ShiftKind.ALL_MASSES_PLUS_TAU:
            out += s[:, None, None]
        elif kind is ShiftKind.ALL_MASSES_MINUS_S:
            out -= s[:, None, None]
        elif kind is ShiftKind.SINGLE_DIAGONAL_MINUS_S:
            (k,) = self.legs
            out[:, k, k] -= s
        elif kind is ShiftKind.SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S:
            # k2 -> k2 + 4s translates to a -2s shift of the matrix entry
            k, kp = self.legs
            out[:, k, kp] -= 2.0 * s
            out[:, kp, k] -= 2.0 * s
        else:
            raise ValueError(f"no batch materialization for {kind}")
        return out

    def diagonal_bounds(self) -> list[float]:
        """Upper bounds on a contour abscissa from keeping the real parts of
        the shifted squared masses positive."""
        if self.shift_kind is ShiftKind.ALL_MASSES_MINUS_S:
            return [float(np.min(np.real(np.diag(self.base))))]
        if self.shift_kind is ShiftKind.SINGLE_DIAGONAL_MINUS_S:
            (k,) = self.legs
            return [float(np.real(self.base[k, k]))]
        return []


def augment_sigma(sigma: np.ndarray, powers, delta: float = 0.0) -> np.ndarray:
    """Duplicate leg i of the matrix powers[i] times; copies of the same leg
    get cosine 1 - delta between each other (delta = 0 is the exact,
    singular augmentation)."""
    sigma = np.asarray(sigma)
    idx = [i for i, p in enumerate(powers) for _ in range(int(p))]
    aug = sigma[np.ix_(idx, idx)].astype(float).copy()
    if delta:
        pos = 0
        blocks = []
        for i, p in enumerate(powers):
            blocks.append(range(pos, pos + int(p)))
            pos += int(p)
        for i, blk in enumerate(blocks):
            mii = sigma[i, i]
            for a in blk:
                for b in blk:
                    if a != b:
                        aug[a, b] = mii * (1.0 - delta)
    return aug


# ---------------------------------------------------------------------------
# Continuous square roots of shift polynomials along a vertical contour.

def _fit_poly(fn, scale: float):
    """Exact quadratic fit of a degree <= 2 polynomial from three samples."""
    xs = np.array([0.0, 0.37 * scale, 0.81 * scale])
    ys = np.array([fn(x) for x in xs], dtype=complex)
    v = np.vander(xs, 3, increasing=True)
    coeffs = np.linalg.solve(v, ys)
    return coeffs  # (c0, c1, c2)


def _poly_roots(coeffs) -> list[complex]:
    c0, c1, c2 = coeffs
    scale = max(abs(c0), abs(c1), abs(c2), 1e-300)
    if abs(c2) > 1e-12 * scale:
        disc = np.sqrt(complex(c1 * c1 - 4.0 * c2 * c0))
        return [(-c1 + disc) / (2.0 * c2), (-c1 - disc) / (2.0 * c2)]
    if abs(c1) > 1e-12 * scale:
        return [complex(-c0 / c1)]
    return []


def _poly_positive_real_roots(coeffs) -> list[float]:
    out = []
    for r in _poly_roots(coeffs):
        if abs(r.imag) < 1e-9 * (1.0 + abs(r)) and r.real > 0:
            out.append(float(r.real))
    return out


def _poly_eval(coeffs, s):
    c0, c1, c2 = coeffs
    return c0 + s * (c1 + s * c2)


def continuous_sqrt_on_contour(coeffs, abscissa: float):
    """sqrt of a degree <= 2 polynomial, continuous along Re(s) = abscissa
    and positive at s = abscissa.

    Each root factor uses the branch cut pointing away from the contour, so
    the product never jumps while s runs along the line.
    """
    roots = _poly_roots(coeffs)
    for r in roots:
        if abs(r.real - abscissa) < 1e-12 * (1.0 + abs(r)):
            raise SingularMatrix(f"shift polynomial root {r} sits on the contour")

    def raw(s):
        out = np.ones_like(np.asarray(s, dtype=complex))
        for r in roots:
            out = out * (np.sqrt(s - r) if r.real < abscissa else np.sqrt(r - s))
        return out

    base = _poly_eval(coeffs, abscissa)
    omega = np.sqrt(complex(base)) / raw(np.array(abscissa + 0.0j))
    return lambda s: omega * raw(s)


# ---------------------------------------------------------------------------
# Contour evaluation of unit-power values on shifted matrices.

def choose_abscissa(shift: ShiftedSigma, settings: QuadratureSettings) -> float:
    """Half the tightest positive constraint: shifted masses keep positive
    real part and no determinant or diagonal-minor root is crossed."""
    if settings.contour_abscissa_c is not None:
        return settings.contour_abscissa_c
    sigma = np.asarray(shift.base)
    n = sigma.shape[0]
    scale = float(np.max(np.abs(np.diag(sigma))))
    bounds = shift.diagonal_bounds()
    det_poly = _fit_poly(lambda s: det(shift.materialize(s)), scale)
    bounds += _poly_positive_real_roots(det_poly)
    for i in range(n):
        mpoly = _fit_poly(lambda s, i=i: det(minor(shift.materialize(s), i, i)), scale)
        bounds += _poly_positive_real_roots(mpoly)
    if not bounds:
        return 0.5 * scale
    return 0.5 * min(bounds)


def unit_contour_evaluator(shift: ShiftedSigma, abscissa: float,
                           settings: QuadratureSettings):
    """Vectorized s -> J^N(N; unit powers; shifted(s)) along the contour,
    with explicitly continued square roots."""
    sigma = np.asarray(shift.base)
    N = sigma.shape[0]
    scale = float(np.max(np.abs(np.diag(sigma))))
    if N == 2:
        def f2(s_nodes):
            return np.array([two_point_angle_form(shift.materialize(s)).value
                             for s in np.atleast_1d(s_nodes)])
        return f2
    det_poly = _fit_poly(lambda s: det(shift.materialize(s)), scale)
    det_sqrt = continuous_sqrt_on_contour(det_poly, abscissa)
    minor_sqrts = []
    for i in range(N):
        mpoly = _fit_poly(lambda s, i=i: det(minor(shift.materialize(s), i, i)), scale)
        minor_sqrts.append(continuous_sqrt_on_contour(mpoly, abscissa))

    def f(s_nodes):
        s_nodes = np.atleast_1d(s_nodes).astype(complex)
        B = len(s_nodes)
        mats = shift.materialize_batch(s_nodes)
        rinv = inverse_batch(mats)
        detv = _poly_eval(det_poly, s_nodes)
        dvec = np.stack([ms(s_nodes) for ms in minor_sqrts], axis=1)  # (B, N)
        rhos = detv[:, None, None] * rinv / (dvec[:, :, None] * dvec[:, None, :])
        ii = np.arange(N)
        rhos[:, ii, ii] = 1.0
        p0, _ = orthant_probability_batch(rhos, settings)
        return (-1.0) ** N * 2.0 * math.pi ** (0.5 * N) * p0 / det_sqrt(s_nodes)

    return f


# ---------------------------------------------------------------------------
# Large-shift asymptotics.  On the unit simplex the all-ones shift adds
# exactly x to the quadratic form, so for x beyond any matrix scale
#
#   J(nu; nu; Sigma + x*ones) = (-1)**nu * Gamma(nu/2)/prod(Gamma(nu_i))
#        * x**(-nu/2) * [S0 - (nu/2) S1/x + (nu/2)(nu/2+1)/2 * S2/x**2 + ...]
#
# with S_k the Dirichlet moments of (u.Sigma.u)**k.  The integrals over the
# shift then get an exact closed-form tail instead of sampling matrices so
# degenerate that their correlation structure is unresolvable.

def _dirichlet_moment(powers, extra) -> float:
    """Integral over the simplex of prod u_i**(nu_i - 1 + extra_i)."""
    num = math.prod(gamma_fn(p + e) for p, e in zip(powers, extra))
    return num / gamma_fn(sum(powers) + sum(extra))


def _form_moments(sigma: np.ndarray, powers):
    """S0, S1, S2: simplex moments of powers of the quadratic form."""
    N = len(powers)
    s0 = _dirichlet_moment(powers, (0,) * N)
    s1 = 0.0
    for i in range(N):
        for j in range(N):
            e = [0] * N
            e[i] += 1
            e[j] += 1
            s1 += sigma[i, j] * _dirichlet_moment(powers, e)
    s2 = 0.0
    for i in range(N):
        for j in range(N):
            for k_ in range(N):
                for l in range(N):
                    e = [0] * N
                    for idx in (i, j, k_, l):
                        e[idx] += 1
                    s2 += sigma[i, j] * sigma[k_, l] * _dirichlet_moment(powers, e)
    return s0, s1, s2


class _ShiftedFamily:
    """x -> J(n; powers; Sigma + x*ones) at some fixed inner dimension n,
    switching to the asymptotic series past x_switch, with closed-form
    weighted tail integrals."""

    def __init__(self, sigma: np.ndarray, powers, inner, n: float | None = None,
                 x_switch: float | None = None):
        self.sigma = np.asarray(sigma)
        self.powers = tuple(powers)
        self.inner = inner
        self.nu = float(sum(powers))
        self.beta = self.nu - 0.5 * (self.nu if n is None else float(n))
        scale = float(np.max(np.abs(self.sigma)))
        self.x_switch = x_switch if x_switch is not None else max(200.0 * scale, math.e ** 2)
        s0, s1, s2 = _form_moments(self.sigma, self.powers)
        b = self.beta
        pref = (-1.0) ** round(self.nu) * gamma_fn(b) / math.prod(
            gamma_fn(p) for p in self.powers)
        self.tail_coeffs = np.array([
            pref * s0,
            -pref * b * s1,
            pref * 0.5 * b * (b + 1.0) * s2,
        ])
        self.mean_form = s1 / s0

    def value(self, x: float) -> complex:
        if x <= self.x_switch:
            return self.inner(self.sigma + x * np.ones_like(self.sigma))
        return complex(sum(c * x ** (-self.beta - m)
                           for m, c in enumerate(self.tail_coeffs)))

    def tail_integral(self, k: float, j: int):
        """Closed form of int_X^inf x**(k-1) log(x)**j * asymptotic(x) dx and
        an estimate of its truncation error."""
        from scipy.special import gammaincc
        X = self.x_switch
        L = math.log(X)
        total = 0.0
        for m, c in enumerate(self.tail_coeffs):
            p = self.beta + m - k
            if p <= 0:
                raise DivergentIntegral("tail exponent not integrable")
            total += c * p ** (-(j + 1.0)) * gamma_fn(j + 1.0) * gammaincc(j + 1, p * L)
        trunc = abs(self.tail_coeffs[2]) * X ** (k - self.beta - 2.0) \
            * (3.0 * self.mean_form / X) * (L ** j + 1.0)
        return total, trunc


# ---------------------------------------------------------------------------
# Dimension shifts.

def _require_unit_powers(config: KinematicConfig, op: str):
    if any(p != 1 for p in config.powers):
        raise ValidationError(f"{op} requires unit propagator powers; "
                              "materialize raised powers with the duplicated-column route first")


def _base_at_nu(config: KinematicConfig, settings: QuadratureSettings):
    """Evaluator of the value at n = nu on an arbitrary shifted matrix."""
    N = config.n_legs
    if all(p == 1 for p in config.powers):
        return lambda mat: evaluate_unit(mat, N, settings).value
    if config.nu_total > 7:
        raise AssemblyLimit(f"augmented assembly needs nu <= 7, got {config.nu_total}")
    return lambda mat: _integrable_duplicate_value(mat, config.powers, settings)


def raise_dimension(config: KinematicConfig,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """n > nu: integral over a positive uniform mass shift of the value at
    n = nu, split into an adaptive part and a closed-form asymptotic tail."""
    n = config.dimension
    nu = config.nu_total
    if n - nu <= 0:
        raise ValidationError(f"raise_dimension needs n > nu, got n={n}, nu={nu}")
    if 2 * nu - n <= 0:
        raise DivergentIntegral(f"2*nu - n = {2 * nu - n} <= 0: value diverges")
    sigma = build_sigma(config).entries
    alpha = 0.5 * (n - nu)
    inner_settings = settings.tighter(0.1)
    family = _ShiftedFamily(sigma, config.powers, _base_at_nu(config, inner_settings))
    w_max = math.sqrt(family.x_switch)

    def integrand(w):
        w = np.atleast_1d(w)
        vals = np.array([family.value(float(wi * wi)) for wi in w])
        return 2.0 * w ** (2.0 * alpha - 1.0) * vals

    val, err, ok, _ = adaptive_batch(integrand, 0.0, w_max, settings.rel_tol,
                                     settings.abs_tol, settings.max_subdivisions)
    tail, trunc = family.tail_integral(alpha, 0)
    pref = 1.0 / gamma_fn(alpha)
    value = pref * (complex(val) + tail)
    error = abs(pref) * (float(err) + trunc) + 10.0 * inner_settings.rel_tol * abs(value)
    return IntegralValue(value=value, abs_error=error, method=METHOD_QUADRATURE,
                         converged=bool(ok))


def lower_dimension(config: KinematicConfig,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """n < nu: truncated-contour integral of the value at n = nu with all
    squared masses shifted into the complex plane."""
    n = config.dimension
    nu = config.nu_total
    N = config.n_legs
    if nu - n <= 0:
        raise ValidationError(f"lower_dimension needs nu > n, got n={n}, nu={nu}")
    _require_unit_powers(config, "lower_dimension")
    sigma = build_sigma(config).entries
    q = 0.5 * (nu - n)
    shift = ShiftedSigma(sigma, ShiftKind.ALL_MASSES_MINUS_S)
    c = choose_abscissa(shift, settings)
    inner = unit_contour_evaluator(shift, c, settings.tighter(0.1))
    gq = gamma_fn(q + 1.0)

    def f(s):
        return gq * inner(s) / s ** (q + 1.0)

    scale = float(np.max(np.diag(sigma)))
    csettings = QuadratureSettings(
        rel_tol=settings.rel_tol, abs_tol=settings.abs_tol,
        max_subdivisions=settings.max_subdivisions,
        contour_abscissa_c=c,
        contour_halfheight_T=settings.contour_halfheight_T or 8.0 * scale,
        infinite_domain_map=settings.infinite_domain_map)
    out = integrate_contour(f, csettings, scale=scale)
    error = out.abs_error + 10.0 * settings.rel_tol * abs(out.value)
    return IntegralValue(value=out.value, abs_error=error, method=METHOD_CONTOUR,
                         converged=out.converged, flags=out.flags)


# ---------------------------------------------------------------------------
# Propagator-power raising at n = nu.

def _power_contour(config: KinematicConfig, shift: ShiftedSigma, weight_power: float,
                   prefactor: float, settings: QuadratureSettings) -> IntegralValue:
    c = choose_abscissa(shift, settings)
    inner = unit_contour_evaluator(shift, c, settings.tighter(0.1))

    def f(s):
        return inner(s) / s ** weight_power

    scale = float(np.max(np.diag(np.asarray(shift.base))))
    csettings = QuadratureSettings(
        rel_tol=settings.rel_tol, abs_tol=settings.abs_tol,
        max_subdivisions=settings.max_subdivisions,
        contour_abscissa_c=c,
        contour_halfheight_T=settings.contour_halfheight_T or 8.0 * scale)
    out = integrate_contour(f, csettings, scale=scale)
    value = prefactor * out.value
    error = abs(prefactor) * (out.abs_error + 10.0 * settings.rel_tol * abs(out.value))
    return IntegralValue(value=value, abs_error=error, method=METHOD_CONTOUR,
                         converged=out.converged, flags=out.flags)


def raise_power_single(config: KinematicConfig, leg: int,
                       settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """One propagator power nu_k > 1, all others 1, at n = nu = N - 1 + nu_k:
    a contour integral over the single-diagonal mass shift."""
    nu_k = config.powers[leg]
    N = config.n_legs
    nu = config.nu_total
    if any(p != 1 for i, p in enumerate(config.powers) if i != leg):
        raise ValidationError("raise_power_single: all other powers must be 1")
    if config.dimension != nu or nu != N - 1 + nu_k:
        raise ValidationError(f"raise_power_single needs n = nu = N-1+nu_k, got n={config.dimension}")
    sigma = build_sigma(config).entries
    if nu_k == 1:
        return evaluate_unit(sigma, N, settings)
    shift = ShiftedSigma(sigma, ShiftKind.SINGLE_DIAGONAL_MINUS_S, legs=(leg,))
    pref = (-1.0) ** (nu_k - 1) * gamma_fn(0.5 * (nu_k + 1.0)) / gamma_fn(nu_k)
    return _power_contour(config, shift, 0.5 * (nu_k + 1.0), pref, settings)


def raise_power_pair(config: KinematicConfig, legs: tuple[int, int],
                     settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """Two equal powers nu_k = nu_k' > 1 at n = nu = N - 2 + 2 nu_k: a
    contour integral over the off-diagonal invariant shift k2 -> k2 + 4s."""
    k, kp = legs
    v = config.powers[k]
    N = config.n_legs
    nu = config.nu_total
    if config.powers[kp] != v:
        raise ValidationError("raise_power_pair needs equal powers on the two legs")
    if any(p != 1 for i, p in enumerate(config.powers) if i not in legs):
        raise ValidationError("raise_power_pair: all other powers must be 1")
    if config.dimension != nu or nu != N - 2 + 2 * v:
        raise ValidationError("raise_power_pair needs n = nu = N-2+2*nu_k")
    sigma = build_sigma(config).entries
    if v == 1:
        return evaluate_unit(sigma, N, settings)
    shift = ShiftedSigma(sigma, ShiftKind.SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S, legs=(k, kp))
    pref = 4.0 ** (1.0 - v) / gamma_fn(v)
    return _power_contour(config, shift, float(v), pref, settings)


def _duplicate_value(sigma: np.ndarray, powers, settings: QuadratureSettings,
                     deltas=(1e-4, 1e-5, 1e-6)) -> IntegralValue:
    """Unit-power assembly on the duplicated-column matrix, regularized and
    extrapolated to the singular limit.

    Shifted or ill-scaled inputs can push the smallest regularization below
    the determinant gate; the ladder then climbs to ten times larger deltas,
    which the extrapolation absorbs.
    """
    n_aug = int(sum(powers))
    if n_aug > 7:
        raise AssemblyLimit(f"duplicated assembly would need {n_aug} legs (max 7)")
    for attempt in range(3):
        try:
            vals = []
            errs = []
            for d in deltas:
                r = evaluate_unit(augment_sigma(sigma, powers, d), n_aug, settings,
                                  strict=False)
                vals.append(r.value)
                errs.append(r.abs_error)
            break
        except SingularMatrix:
            if attempt == 2:
                raise
            deltas = tuple(10.0 * d for d in deltas)
    d1 = vals[0] - vals[1]
    d2 = vals[1] - vals[2]
    ratio = deltas[0] / deltas[1]
    if abs(d2) < 1e3 * max(errs):
        value = vals[2]
        extra = abs(d2)
    else:
        p_hat = math.log(abs(d1 / d2)) / math.log(ratio)
        p_hat = min(max(p_hat, 0.25), 3.0)
        corr = d2 / (ratio ** p_hat - 1.0)
        value = vals[2] - corr
        extra = abs(corr) * 0.5
    return IntegralValue(value=value, abs_error=sum(errs) + extra,
                         method=METHOD_QUADRATURE)


def _integrable_duplicate_value(sigma: np.ndarray, powers,
                                settings: QuadratureSettings) -> complex:
    """``_duplicate_value`` as the integrand of an outer quadrature.

    The regularized orthant sums cancel to a tiny fraction of their terms,
    and the extrapolation amplifies the differences of what is left.  Each
    inner integral adapts only to its own tolerance, so ask for a hundred
    times more: looser values are too rough for the outer quadratures of the
    shift routes, which then fail to converge.
    """
    return _duplicate_value(sigma, powers, settings.tighter(0.01)).value


def raise_power_duplicate(config: KinematicConfig,
                          settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """Raised powers as duplicated propagators: the value at n = nu with any
    power vector equals the unit-power value with each leg repeated
    according to its power."""
    nu = config.nu_total
    if config.dimension != nu:
        raise ValidationError(f"duplicated-column route needs n = nu, got n={config.dimension}")
    sigma = build_sigma(config).entries
    if all(p == 1 for p in config.powers):
        return evaluate_unit(sigma, config.n_legs, settings)
    return _duplicate_value(sigma, config.powers, settings)


# ---------------------------------------------------------------------------
# Epsilon expansion.

@dataclass(frozen=True)
class EpsSeries:
    """Coefficients c_0..c_K of the expansion in the dimensional regulator
    around dies - 2*eps."""

    d_base: int
    k_shift: float
    coefficients: tuple[IntegralValue, ...]
    order: int = field(default=-1)

    def __post_init__(self):
        if self.order < 0:
            object.__setattr__(self, "order", len(self.coefficients) - 1)
        if len(self.coefficients) != self.order + 1:
            raise ValidationError("series length must be order + 1")

    def value_at(self, eps: float) -> complex:
        return sum(c.value * eps ** m for m, c in enumerate(self.coefficients))


def inv_gamma_series(k: float, order: int) -> np.ndarray:
    """Taylor coefficients of 1/Gamma(k - eps) in eps, up to ``order``."""
    logc = np.zeros(order + 1)
    for j in range(1, order + 1):
        pg = digamma(k) if j == 1 else polygamma(j - 1, k)
        logc[j] = (-1.0) ** (j + 1) * pg / math.factorial(j)
    out = np.zeros(order + 1)
    out[0] = 1.0
    for m in range(1, order + 1):
        out[m] = sum(j * logc[j] * out[m - j] for j in range(1, m + 1)) / m
    return out / gamma_fn(k)


def eps_expand(config: KinematicConfig, order: int = 2, k: float | None = None,
               settings: QuadratureSettings = DEFAULT_SETTINGS,
               inner=None, route: str = "contour") -> EpsSeries:
    """Expansion of the value at dimension d - 2*eps as log-moment integrals
    of integer-dimension values with uniformly shifted masses.

    The inverse-gamma prefactor's own series is multiplied in, so the
    coefficients are those of the value itself.  ``k`` defaults to the shift
    that lands the inner evaluations at dimension equal to the power sum.
    """
    if config.d is None:
        raise ValidationError("eps_expand needs a config built from (d, epsilon)")
    d = config.d
    nu = config.nu_total
    N = config.n_legs
    if k is None:
        k = 0.5 * (d - nu)
    if k <= 0:
        raise ValidationError(f"need a positive shift, got k={k}")
    base_dim = d - 2.0 * k
    sigma = build_sigma(config).entries
    unit = all(p == 1 for p in config.powers)
    if inner is None:
        if unit:
            if base_dim not in (N, N - 1):
                raise ValidationError(f"no direct assembly at base dimension {base_dim}")

            def inner(mat):
                return evaluate_unit(mat, base_dim, settings.tighter(0.1)).value
        else:
            if base_dim != nu:
                raise ValidationError("raised powers need base dimension = nu")
            inner = _raised_power_inner(config, settings, route)
    cache: dict[float, complex] = {}
    # Raised-power inners run on regularized near-singular matrices; hand
    # off to the asymptotic series earlier for them.
    switch = None if unit else 12.0 * float(np.max(np.abs(sigma)))
    family = _ShiftedFamily(sigma, config.powers, inner, n=base_dim, x_switch=switch)
    w_max = math.sqrt(family.x_switch)

    def shifted_value(w: float) -> complex:
        hit = cache.get(w)
        if hit is None:
            hit = family.value(w * w)
            cache[w] = hit
        return hit

    def integrand(w):
        w = np.atleast_1d(w)
        vals = np.array([shifted_value(float(wi)) for wi in w])
        logw = np.log(np.maximum(w, 1e-300))
        rows = []
        for j in range(order + 1):
            rows.append(2.0 ** (j + 1) * w ** (2.0 * k - 1.0) * logw ** j * vals)
        return np.stack(rows)

    lvals, lerrs, ok, _ = adaptive_batch(integrand, 0.0, w_max, settings.rel_tol,
                                         settings.abs_tol, settings.max_subdivisions)
    lvals = np.atleast_1d(lvals).astype(complex)
    lerrs = np.atleast_1d(lerrs).astype(float)
    for j in range(order + 1):
        tail, trunc = family.tail_integral(k, j)
        lvals[j] += tail
        lerrs[j] += trunc
    g = inv_gamma_series(k, order)
    coeffs = []
    for m in range(order + 1):
        val = 0.0 + 0.0j
        err = 0.0
        for j in range(m + 1):
            w_j = g[m - j] * (-1.0) ** j / math.factorial(j)
            val += w_j * complex(lvals[j])
            err += abs(w_j) * float(lerrs[j])
        err += 10.0 * settings.rel_tol * abs(val)
        coeffs.append(IntegralValue(value=val, abs_error=err, method=METHOD_QUADRATURE,
                                    converged=bool(ok)))
    return EpsSeries(d_base=d, k_shift=float(k), coefficients=tuple(coeffs))


def _raised_power_inner(config: KinematicConfig, settings: QuadratureSettings,
                        route: str):
    """Inner evaluator at n = nu for raised powers on shifted matrices."""
    powers = config.powers
    nu = config.nu_total
    inner_settings = settings.tighter(0.1)
    raised = [i for i, p in enumerate(powers) if p > 1]

    def by_duplicate(mat):
        return _integrable_duplicate_value(mat, powers, inner_settings)

    if route == "duplicate":
        return by_duplicate
    if len(raised) == 1 and nu == config.n_legs - 1 + powers[raised[0]]:
        leg = raised[0]
        nu_k = powers[leg]
        pref = (-1.0) ** (nu_k - 1) * gamma_fn(0.5 * (nu_k + 1.0)) / gamma_fn(nu_k)

        def by_contour(mat):
            shift = ShiftedSigma(mat, ShiftKind.SINGLE_DIAGONAL_MINUS_S, legs=(leg,))
            c = choose_abscissa(shift, inner_settings)
            f_unit = unit_contour_evaluator(shift, c, inner_settings.tighter(0.1))
            scale = float(np.max(np.diag(mat)))
            cs = QuadratureSettings(rel_tol=inner_settings.rel_tol,
                                    abs_tol=inner_settings.abs_tol,
                                    max_subdivisions=inner_settings.max_subdivisions,
                                    contour_abscissa_c=c, contour_halfheight_T=8.0 * scale)
            out = integrate_contour(lambda s: f_unit(s) / s ** (0.5 * (nu_k + 1.0)), cs,
                                    scale=scale)
            return pref * out.value

        return by_contour
    if len(raised) == 2 and powers[raised[0]] == powers[raised[1]] \
            and nu == config.n_legs - 2 + 2 * powers[raised[0]]:
        k1, k2 = raised
        v = powers[k1]
        pref = 4.0 ** (1.0 - v) / gamma_fn(v)

        def by_contour_pair(mat):
            shift = ShiftedSigma(mat, ShiftKind.SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S,
                                 legs=(k1, k2))
            c = choose_abscissa(shift, inner_settings)
            f_unit = unit_contour_evaluator(shift, c, inner_settings.tighter(0.1))
            scale = float(np.max(np.diag(mat)))
            cs = QuadratureSettings(rel_tol=inner_settings.rel_tol,
                                    abs_tol=inner_settings.abs_tol,
                                    max_subdivisions=inner_settings.max_subdivisions,
                                    contour_abscissa_c=c, contour_halfheight_T=8.0 * scale)
            out = integrate_contour(lambda s: f_unit(s) / s ** float(v), cs, scale=scale)
            return pref * out.value

        return by_contour_pair
    return by_duplicate


def eps_probe(config: KinematicConfig, eps_values=(0.02, 0.01),
              settings: QuadratureSettings = DEFAULT_SETTINGS):
    """Finite-regulator probe: evaluate at real dimension d - 2*eps through
    the shift machinery and fit a line; returns (c0, c1) estimates."""
    if config.d is None:
        raise ValidationError("eps_probe needs a config built from (d, epsilon)")
    vals = []
    for e in eps_values:
        cfg = config.with_dimension(config.d - 2.0 * e)
        vals.append(evaluate_any_dimension(cfg, settings).value)
    e1, e2 = eps_values
    c1 = (vals[0] - vals[1]) / (e1 - e2)
    c0 = vals[0] - c1 * e1
    return c0, c1


def evaluate_any_dimension(config: KinematicConfig,
                           settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """Dispatch on the relation between dimension and power sum."""
    n = config.dimension
    nu = config.nu_total
    N = config.n_legs
    unit = all(p == 1 for p in config.powers)
    if unit and (n == N or n == N - 1):
        return evaluate_unit(build_sigma(config).entries, n, settings)
    if n == nu:
        return raise_power_duplicate(config, settings)
    if n > nu:
        return raise_dimension(config, settings)
    if unit:
        return lower_dimension(config, settings)
    raise ValidationError(f"no route for n={n}, powers={config.powers}")


# ---------------------------------------------------------------------------
# Hypergeometric-recurrence consistency checks.

def _jbar_factor(nu: float, n: float) -> float:
    """Multiplying J by this gives the rescaled function the recurrences act
    on; diverges at 2*nu = n, which the checks must avoid."""
    return 2.0 ** (nu - 0.5 * n - 1.0) * gamma_fn(nu) * (-1.0) ** nu / gamma_fn(2.0 * nu - n)


def recurrence_check_lower(config: KinematicConfig,
                           settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Relative residual of the step-down recurrence: the N-point value at
    (n, nu) against the half-line integral of the (N-1)-point value at
    n - 2*nu_N with the last leg folded into the others."""
    N = config.n_legs
    n = config.dimension
    nu = config.nu_total
    nu_last = config.powers[-1]
    sigma = build_sigma(config).entries
    lhs = evaluate_any_dimension(config, settings).value
    c_out = _jbar_factor(nu, n)
    c_in = _jbar_factor(nu - nu_last, n - 2.0 * nu_last)
    beta = gamma_fn(nu - nu_last) * gamma_fn(nu_last) / gamma_fn(nu)
    inner_dim = n - 2.0 * nu_last
    inner_settings = settings.tighter(0.1)
    sub = sigma[:-1, :-1]
    col = sigma[:-1, -1]
    corner = sigma[-1, -1]

    def inner_value(t: float) -> complex:
        mat = sub + t * (col[:, None] + col[None, :]) + t * t * corner
        return evaluate_unit(mat, inner_dim, inner_settings).value

    def integrand(t):
        t = np.atleast_1d(t)
        vals = np.array([inner_value(float(ti)) for ti in t])
        return t ** (nu_last - 1.0) * (1.0 + t) ** (nu - n) * vals

    # Folded matrices degenerate towards perfect correlation at large t;
    # integrate in doubling strips and stop once the contribution is
    # negligible, well before the conditioning limit.
    total = 0.0 + 0.0j
    lo, hi = 0.0, 1.0
    for _ in range(40):
        try:
            sv, _, _, _ = adaptive_batch(integrand, lo, hi, settings.rel_tol,
                                         settings.abs_tol, settings.max_subdivisions)
        except SingularMatrix:
            # folded matrix too degenerate to evaluate; the remaining tail is
            # below the strip that still worked
            break
        total += complex(sv)
        if abs(complex(sv)) < settings.rel_tol * max(abs(total), 1e-300) and lo > 0:
            break
        lo, hi = hi, 2.0 * hi
    rhs = (c_in / c_out) / beta * total
    return abs(lhs - rhs) / abs(lhs)


def recurrence_check_merge(config: KinematicConfig,
                           settings: QuadratureSettings = DEFAULT_SETTINGS,
                           route: str = "contour"):
    """Relative residual of the leg-merging recurrence at fixed dimension.

    Returns (residual, skipped): merged matrices that lose positive
    definiteness anywhere on the u-grid skip the check with a flag instead
    of feeding an invalid matrix to the evaluators.
    """
    N = config.n_legs
    n = config.dimension
    sigma = build_sigma(config).entries
    p_a = config.powers[-2]
    p_b = config.powers[-1]
    merged_powers = tuple(config.powers[:-2]) + (p_a + p_b,)
    lhs = evaluate_any_dimension(config, settings).value
    beta = gamma_fn(p_a) * gamma_fn(p_b) / gamma_fn(p_a + p_b)
    inner_settings = settings.tighter(0.1)

    def merged_sigma(u: float) -> np.ndarray:
        keep = sigma[:-2, :-2]
        row = u * sigma[:-2, -2] + (1.0 - u) * sigma[:-2, -1]
        corner = (u * u * sigma[-2, -2] + (1.0 - u) ** 2 * sigma[-1, -1]
                  + 2.0 * u * (1.0 - u) * sigma[-2, -1])
        out = np.empty((N - 1, N - 1))
        out[:-1, :-1] = keep
        out[-1, :-1] = row
        out[:-1, -1] = row
        out[-1, -1] = corner
        return out

    from .matrixops import cholesky
    for u in np.linspace(0.0, 1.0, 21):
        try:
            cholesky(merged_sigma(float(u)))
        except SingularMatrix:
            return math.nan, True

    def inner_value(u: float) -> complex:
        mat = merged_sigma(u)
        if all(p == 1 for p in merged_powers):
            return evaluate_unit(mat, n, inner_settings).value
        masses = tuple(float(np.sqrt(mat[i, i])) for i in range(N - 1))
        k2 = np.zeros((N - 1, N - 1))
        for a in range(N - 1):
            for b in range(a + 1, N - 1):
                k2[a, b] = k2[b, a] = mat[a, a] + mat[b, b] - 2.0 * mat[a, b]
        cfg = KinematicConfig(masses=masses, invariants=k2, powers=merged_powers,
                              dimension=float(n))
        if route == "duplicate":
            return raise_power_duplicate(cfg, inner_settings).value
        leg = int(np.argmax(merged_powers))
        return raise_power_single(cfg, leg, inner_settings).value

    def integrand(u):
        u = np.atleast_1d(u)
        vals = np.array([inner_value(float(ui)) for ui in u])
        w = np.ones_like(u)
        if p_a > 1:
            w = w * u ** (p_a - 1.0)
        if p_b > 1:
            w = w * (1.0 - u) ** (p_b - 1.0)
        return w * vals / beta

    val, _, _, _ = adaptive_batch(integrand, 0.0, 1.0, settings.rel_tol, settings.abs_tol,
                                  settings.max_subdivisions)
    rhs = complex(val)
    return abs(lhs - rhs) / abs(lhs), False


# ---------------------------------------------------------------------------
# Power-excess expansion (nu - n = k > 0 with the dimension tied to nu).

def _rising(a: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= a + j
    return out


def expand_power_excess(config: KinematicConfig):
    """Rewrite a value whose power sum exceeds its dimension by a positive
    integer as a combination of raised-power values at n = nu.

    Returns a list of (coefficient, shifted config); summing coefficient
    times the evaluated config reproduces the input.
    """
    nu = config.nu_total
    n = config.dimension
    k = nu - n
    if not float(k).is_integer() or k < 1:
        raise ValidationError(f"power-excess expansion needs nu - n a positive integer, got {k}")
    k = int(k)
    N = config.n_legs
    out = []
    for comp in iter_product(range(k + 1), repeat=N):
        if sum(comp) != k:
            continue
        coeff = (-1.0) ** k * math.factorial(k)
        for nu_i, k_i in zip(config.powers, comp):
            coeff *= _rising(nu_i, k_i) / math.factorial(k_i)
        shifted = KinematicConfig(masses=config.masses,
                                  invariants=np.array(config.invariants),
                                  powers=tuple(p + c for p, c in zip(config.powers, comp)),
                                  dimension=float(nu + k))
        out.append((coeff, shifted))
    return out
