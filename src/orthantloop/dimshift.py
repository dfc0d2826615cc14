"""Dimension shifts, propagator-power raising, epsilon expansion and the
hypergeometric recurrence consistency checks.

The central trick everywhere: a value at dimension n different from the
power sum nu is a one-dimensional integral (real half-line for n > nu, a
truncated vertical contour for n < nu) of values at n = nu with shifted
mass matrices.  Raised powers at n = nu are themselves contour integrals
over single-entry shifts, or equivalently plain assemblies on a matrix with
duplicated columns.

A contour of weight 2 on a positive-definite matrix (N >= 3) closes on its
pole at s = 0 and is a closed-form first mass derivative of the unit value
(``unit_value_derivatives``): one leg at power 3 is -1/2 dJ/dSigma_kk, an
equal pair at power 2 is -1/2 dJ/dt along E_kk' + E_k'k, and n = N - 2 is
-dJ/dx along Sigma + x*ones.  Half-integer weights, second derivatives,
N = 2 and matrices that ``correlation_stack`` refuses keep the contour.

The nodes of every outer integral are independent evaluations of the same
kind, so each route hands all nodes of a quadrature step to one stacked
evaluation: ``unit_values`` for unit powers, ``_duplicate_values`` for the
duplicated columns and ``_shift_values`` for a stack of contours or mass
derivatives, each of which adapts per matrix.  Every route ANDs the
convergence of its inner evaluations into its own result (flag
``inner_non_converged``).

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
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product as iter_product

import numpy as np
from scipy.special import digamma, gamma as gamma_fn, polygamma

from .errors import AssemblyLimit, DivergentIntegral, SingularMatrix, ValidationError
from .kinematics import KinematicConfig, build_sigma
from .matrixops import cholesky, inverse_batch, rejected
from .npoint import (
    angle_form_values,
    evaluate_unit,
    orthant_probability_batch,
    unit_method,
    unit_value_derivatives,
    unit_values,
)
from .quadrature import (
    DEFAULT_SETTINGS,
    IntegralValue,
    METHOD_CONTOUR,
    METHOD_QUADRATURE,
    QuadratureSettings,
    adaptive_batch,
    contour_rows,
    convergence,
)


class ShiftKind(enum.Enum):
    ALL_MASSES_PLUS_TAU = "all_masses_plus_tau"
    ALL_MASSES_MINUS_S = "all_masses_minus_s"
    SINGLE_DIAGONAL_MINUS_S = "single_diagonal_minus_s"
    SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S = "single_offdiagonal_invariant_plus_4s"


@dataclass(frozen=True)
class ShiftedSigma:
    """A named one-parameter deformation of a mass matrix, or of each
    matrix of a stack (``base`` shaped (..., N, N)).  Every kind is linear
    in the parameter: shifted(s) = base + s * direction.

    ``materialize`` reproduces the concrete (possibly complex) matrix for a
    given parameter value; the stored ``parameter`` is just a default.
    """

    base: np.ndarray
    shift_kind: ShiftKind
    parameter: complex = 0.0
    legs: tuple[int, ...] = ()

    def materialize(self, parameter=None) -> np.ndarray:
        s = self.parameter if parameter is None else parameter
        return self.materialize_batch(np.asarray(s).reshape(1))[0]

    @property
    def direction(self) -> np.ndarray:
        """d shifted(s) / ds, shaped (N, N)."""
        N = np.asarray(self.base).shape[-1]
        kind = self.shift_kind
        if kind is ShiftKind.ALL_MASSES_PLUS_TAU:
            return np.ones((N, N))
        if kind is ShiftKind.ALL_MASSES_MINUS_S:
            return -np.ones((N, N))
        out = np.zeros((N, N))
        if kind is ShiftKind.SINGLE_DIAGONAL_MINUS_S:
            (k,) = self.legs
            out[k, k] = -1.0
        else:
            # k2 -> k2 + 4s translates to a -2s shift of the matrix entry
            k, kp = self.legs
            out[k, kp] = out[kp, k] = -2.0
        return out

    def materialize_batch(self, s: np.ndarray) -> np.ndarray:
        """Shifted matrices for an array of parameter values: ``s`` shaped
        base.shape[:-2] + (k,) gives matrices shaped s.shape + (N, N)."""
        s = np.asarray(s)
        return np.asarray(self.base)[..., None, :, :] + s[..., None, None] * self.direction

    def diagonal_bounds(self) -> np.ndarray:
        """Upper bounds on a contour abscissa from keeping the real parts of
        the shifted squared masses positive, shaped base.shape[:-2] + (m,)."""
        diag = np.real(np.diagonal(self.base, axis1=-2, axis2=-1))
        if self.shift_kind is ShiftKind.ALL_MASSES_MINUS_S:
            return np.min(diag, axis=-1, keepdims=True)
        if self.shift_kind is ShiftKind.SINGLE_DIAGONAL_MINUS_S:
            (k,) = self.legs
            return diag[..., k:k + 1]
        return diag[..., :0]

    @cached_property
    def polynomials(self) -> np.ndarray:
        """Coefficients (c0, c1, c2) of the determinant and the N diagonal
        minors of the shifted matrices, shaped base.shape[:-2] + (N + 1, 3).

        Each has degree <= 2 in the parameter, so three samples fit it
        exactly; the determinants of all samples come from one
        ``numpy.linalg.det`` call per size.
        """
        base = np.asarray(self.base)
        N = base.shape[-1]
        scale = np.max(np.abs(np.diagonal(base, axis1=-2, axis2=-1)), axis=-1)
        xs = scale[..., None] * np.array([0.0, 0.37, 0.81])
        mats = self.materialize_batch(xs)
        keep = np.array([[j for j in range(N) if j != i] for i in range(N)]).reshape(N, N - 1)
        minors = mats[..., keep[:, :, None], keep[:, None, :]]
        ys = np.concatenate([np.linalg.det(mats)[..., None], np.linalg.det(minors)], axis=-1)
        vander = xs[..., :, None] ** np.arange(3)
        return np.swapaxes(np.linalg.solve(vander, ys.astype(complex)), -1, -2)


def augment_sigma(sigma: np.ndarray, powers, delta=0.0) -> np.ndarray:
    """Duplicate leg i of the matrix (or of every matrix of a stack shaped
    (..., N, N)) powers[i] times; copies of the same leg get cosine
    1 - delta between each other (delta = 0 is the exact, singular
    augmentation).  An array of deltas broadcasts against the stack."""
    idx = np.repeat(np.arange(len(powers)), [int(p) for p in powers])
    aug = np.asarray(sigma)[..., idx[:, None], idx[None, :]].astype(float)
    same = (idx[:, None] == idx[None, :]) & ~np.eye(len(idx), dtype=bool)
    diag = np.diagonal(aug, axis1=-2, axis2=-1)
    delta = np.asarray(delta, dtype=float)[..., None, None]
    return np.where(same, diag[..., :, None] * (1.0 - delta), aug)


# ---------------------------------------------------------------------------
# Continuous square roots of shift polynomials along vertical contours.

def _poly_roots(coeffs):
    """Roots of the polynomials c0 + c1 s + c2 s**2 with ``coeffs`` shaped
    (..., 3): (roots, exists), both shaped (..., 2).  A leading coefficient
    below 1e-12 of the largest counts as zero."""
    c0, c1, c2 = np.moveaxis(np.asarray(coeffs, dtype=complex), -1, 0)
    scale = np.maximum(np.maximum(np.abs(c0), np.abs(c1)), np.maximum(np.abs(c2), 1e-300))
    quad = np.abs(c2) > 1e-12 * scale
    lin = ~quad & (np.abs(c1) > 1e-12 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        first = np.where(quad, (-c1 + disc) / (2.0 * c2), -c0 / c1)
        second = (-c1 - disc) / (2.0 * c2)
    exists = np.stack([quad | lin, quad], axis=-1)
    return np.where(exists, np.stack([first, second], axis=-1), 0.0), exists


def _poly_eval(coeffs, s):
    return coeffs[..., 0] + s * (coeffs[..., 1] + s * coeffs[..., 2])


def continuous_sqrt_on_contour(coeffs, abscissa):
    """sqrt of degree <= 2 polynomials, ``coeffs`` shaped (B, P, 3), each
    continuous along Re(s) = abscissa[b] and positive at s = abscissa[b].

    Each root factor uses the branch cut pointing away from the contour, so
    the product never jumps while s runs along the line.  Returns
    ``sqrt(s, rows)`` for nodes shaped (len(rows), k) on the contours of
    rows ``rows``, with values shaped (len(rows), k, P).
    """
    abscissa = np.asarray(abscissa, dtype=float)
    roots, exists = _poly_roots(coeffs)
    c = abscissa[:, None, None]
    if np.any(exists & (np.abs(roots.real - c) < 1e-12 * (1.0 + np.abs(roots)))):
        raise SingularMatrix("shift polynomial root sits on the contour")
    left = roots.real < c

    def raw(s, rows):
        s = s[:, :, None, None]
        r = roots[rows][:, None]
        factor = np.where(left[rows][:, None], np.sqrt(s - r), np.sqrt(r - s))
        return np.where(exists[rows][:, None], factor, 1.0).prod(axis=-1)

    at_c = abscissa[:, None] + 0.0j
    omega = np.sqrt(_poly_eval(coeffs, at_c)) / raw(at_c, np.arange(len(abscissa)))[:, 0]
    return lambda s, rows: omega[rows][:, None] * raw(s, rows)


# ---------------------------------------------------------------------------
# Contour evaluation of unit-power values on stacks of shifted matrices.

def choose_abscissa(shift: ShiftedSigma, settings: QuadratureSettings) -> np.ndarray:
    """Half the tightest positive constraint, per matrix of the shift's
    stack: shifted masses keep positive real part and no determinant or
    diagonal-minor root is crossed."""
    base = np.asarray(shift.base)
    if settings.contour_abscissa_c is not None:
        return np.full(base.shape[:-2], float(settings.contour_abscissa_c))
    scale = np.max(np.abs(np.diagonal(base, axis1=-2, axis2=-1)), axis=-1)
    roots, exists = _poly_roots(shift.polynomials)
    real = exists & (np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots))) & (roots.real > 0)
    crossings = np.where(real, roots.real, np.inf).reshape(base.shape[:-2] + (-1,))
    bounds = np.concatenate([shift.diagonal_bounds(), crossings], axis=-1)
    tightest = np.min(bounds, axis=-1, initial=np.inf)
    return np.where(np.isfinite(tightest), 0.5 * tightest, 0.5 * scale)


def unit_contour_evaluator(shift: ShiftedSigma, abscissa: np.ndarray,
                           settings: QuadratureSettings):
    """s -> J^N(N; unit powers; shifted(s)) along the contours of a stack of
    shifts (``base`` shaped (B, N, N)), with explicitly continued square
    roots.

    Returns ``(f, ok)``: ``f(s, rows)`` takes nodes shaped (len(rows), k)
    on the contours of rows ``rows`` and evaluates all of them with one
    ``orthant_probability_batch`` call; ``ok[b]`` stays True while every
    inner integral of row b has converged.
    """
    base = np.asarray(shift.base)
    B, N = base.shape[0], base.shape[-1]
    ok = np.ones(B, dtype=bool)

    def shifted(s, rows):
        return replace(shift, base=base[rows]).materialize_batch(s)

    if N == 2:
        def f2(s, rows):
            return angle_form_values(shifted(s, rows).reshape(-1, 2, 2))[0].reshape(s.shape)
        return f2, ok
    sqrts = continuous_sqrt_on_contour(shift.polynomials, abscissa)
    det_poly = shift.polynomials[:, 0]
    pref = (-1.0) ** N * 2.0 * math.pi ** (0.5 * N)
    ii = np.arange(N)

    def f(s, rows):
        s = np.asarray(s, dtype=complex)
        roots = sqrts(s, rows)                       # det, then the N minors
        dvec = roots[..., 1:].reshape(-1, N)
        detv = _poly_eval(det_poly[rows][:, None], s).reshape(-1)
        rinv = inverse_batch(shifted(s, rows).reshape(-1, N, N))
        rhos = detv[:, None, None] * rinv / (dvec[:, :, None] * dvec[:, None, :])
        rhos[:, ii, ii] = 1.0
        p0 = orthant_probability_batch(rhos, settings)
        ok[rows[~p0.converged.reshape(s.shape).all(axis=1)]] = False
        return pref * p0.value.reshape(s.shape) / roots[..., 0]

    return f, ok


def _contour_values(shift: ShiftedSigma, weight_power: float, prefactor: float,
                    settings: QuadratureSettings):
    """prefactor / (2*pi*i) times the contour integral of
    J^N(N; unit powers; shifted(s)) / s**weight_power, for every matrix of
    the shift's stack; each keeps its own abscissa, strips and tail test.
    Returns (values, errors, converged, inner_converged) per matrix."""
    base = np.asarray(shift.base)
    c = choose_abscissa(shift, settings)
    inner, inner_ok = unit_contour_evaluator(shift, c, settings.tighter(0.1))
    scale = np.max(np.real(np.diagonal(base, axis1=-2, axis2=-1)), axis=-1)
    T0 = np.full(len(base), settings.contour_halfheight_T) \
        if settings.contour_halfheight_T else 8.0 * scale
    value, err, ok = contour_rows(lambda s, rows: inner(s, rows) / s ** weight_power,
                                  c, T0, settings)
    return (prefactor * value,
            abs(prefactor) * (err + 10.0 * settings.rel_tol * np.abs(value)), ok, inner_ok)


def _pole_rows(shift: ShiftedSigma, weight_power: float) -> np.ndarray:
    """Rows of the shift's stack whose contour closes on its pole at s = 0.

    Every shift subtracts s times a non-negative form from u.Sigma.u, so for
    a positive-definite Sigma the only singularity left of the contour is
    the pole.  At weight 2 the contour is then the first Taylor coefficient
    of J(shifted(s)), a mass derivative along the shift.  Rows that
    ``correlation_stack`` refuses, N = 2 and every other weight keep the
    contour.
    """
    base = np.asarray(shift.base)
    if weight_power != 2.0 or base.shape[-1] < 3 or np.iscomplexobj(base):
        return np.zeros(base.shape[0], dtype=bool)
    return ~rejected(base)


def _shift_values(shift: ShiftedSigma, weight_power: float, prefactor: float,
                  settings: QuadratureSettings):
    """``_contour_values``, with the rows of ``_pole_rows`` evaluated as
    prefactor times the closed-form mass derivative ``unit_value_derivatives``.
    Its error carries the same 10 * rel_tol * |value| term as the contour's;
    its own quadrature has nothing to fail, so only inner convergence can."""
    base = np.asarray(shift.base)
    pole = _pole_rows(shift, weight_power)
    if not pole.any():
        return _contour_values(shift, weight_power, prefactor, settings)
    value, error = np.empty(len(base), dtype=complex), np.empty(len(base))
    ok, inner_ok = np.ones(len(base), dtype=bool), np.empty(len(base), dtype=bool)
    v, e, inner_ok[pole] = unit_value_derivatives(base[pole], shift.direction, settings)
    value[pole] = prefactor * v
    error[pole] = abs(prefactor) * (e + 10.0 * settings.rel_tol * np.abs(v))
    if not pole.all():
        rest = _contour_values(replace(shift, base=base[~pole]), weight_power, prefactor,
                               settings)
        for out, part in zip((value, error, ok, inner_ok), rest):
            out[~pole] = part
    return value, error, ok, inner_ok


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
    weighted tail integrals.

    ``inner`` maps a stack of matrices (B, N, N) to (values, errors,
    converged); ``values`` hands it every shift below x_switch at once.
    """

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

    def _series(self, xs: np.ndarray) -> np.ndarray:
        return sum(c * xs ** (-self.beta - m) for m, c in enumerate(self.tail_coeffs))

    def values(self, xs) -> tuple[np.ndarray, bool]:
        """The family at the shifts ``xs``, and whether every inner
        evaluation converged."""
        xs = np.asarray(xs, dtype=float)
        near = xs <= self.x_switch
        out = np.empty(len(xs), dtype=complex)
        out[~near] = self._series(xs[~near])
        if not np.any(near):
            return out, True
        out[near], _, ok = self.inner(self.sigma + xs[near, None, None])
        return out, bool(np.all(ok))

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
    """Stacked evaluator of the value at n = nu on shifted matrices."""
    N = config.n_legs
    if all(p == 1 for p in config.powers):
        return lambda mats: unit_values(mats, N, settings)
    if config.nu_total > 7:
        raise AssemblyLimit(f"augmented assembly needs nu <= 7, got {config.nu_total}")
    return lambda mats: _integrable_duplicate_values(mats, config.powers, settings)


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
    inner_ok = []

    def integrand(w):
        vals, ok = family.values(w * w)
        inner_ok.append(ok)
        return 2.0 * w ** (2.0 * alpha - 1.0) * vals

    val, err, ok, _ = adaptive_batch(integrand, 0.0, w_max, settings.rel_tol,
                                     settings.abs_tol, settings.max_subdivisions)
    tail, trunc = family.tail_integral(alpha, 0)
    pref = 1.0 / gamma_fn(alpha)
    value = pref * (complex(val) + tail)
    error = abs(pref) * (float(err) + trunc) + 10.0 * inner_settings.rel_tol * abs(value)
    return IntegralValue(value=value, abs_error=error, method=METHOD_QUADRATURE,
                         **convergence(bool(ok), all(inner_ok)))


def lower_dimension(config: KinematicConfig,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """n < nu: truncated-contour integral of the value at n = nu with all
    squared masses shifted into the complex plane."""
    n = config.dimension
    nu = config.nu_total
    if nu - n <= 0:
        raise ValidationError(f"lower_dimension needs nu > n, got n={n}, nu={nu}")
    _require_unit_powers(config, "lower_dimension")
    q = 0.5 * (nu - n)
    shift = ShiftedSigma(build_sigma(config).entries[None], ShiftKind.ALL_MASSES_MINUS_S)
    return _one_shift(shift, q + 1.0, gamma_fn(q + 1.0), settings)


# ---------------------------------------------------------------------------
# Propagator-power raising at n = nu.

def _one_shift(shift: ShiftedSigma, weight_power: float, prefactor: float,
               settings: QuadratureSettings) -> IntegralValue:
    """``_shift_values`` of a stack of one, labelled like ``evaluate_unit``
    when it is a mass derivative and as a contour otherwise."""
    value, error, ok, inner_ok = _shift_values(shift, weight_power, prefactor, settings)
    N = np.asarray(shift.base).shape[-1]
    method = unit_method(N, N) if _pole_rows(shift, weight_power)[0] else METHOD_CONTOUR
    return IntegralValue(value=complex(value[0]), abs_error=float(error[0]),
                         method=method, **convergence(ok[0], inner_ok[0]))


def _power_shift(sigmas: np.ndarray, legs: tuple[int, ...], power: int):
    """(shift, weight, prefactor) of raised powers at n = nu over a stack
    of mass matrices: power nu_k on one leg (single-diagonal mass shift,
    n = N - 1 + nu_k) or equal powers on two legs (off-diagonal invariant
    shift k2 -> k2 + 4s, n = N - 2 + 2 nu_k), all other powers 1."""
    if len(legs) == 1:
        shift = ShiftedSigma(sigmas, ShiftKind.SINGLE_DIAGONAL_MINUS_S, legs=legs)
        pref = (-1.0) ** (power - 1) * gamma_fn(0.5 * (power + 1.0)) / gamma_fn(power)
        return shift, 0.5 * (power + 1.0), pref
    shift = ShiftedSigma(sigmas, ShiftKind.SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S, legs=legs)
    return shift, float(power), 4.0 ** (1.0 - power) / gamma_fn(power)


def _power_contour(sigmas: np.ndarray, legs: tuple[int, ...], power: int,
                   settings: QuadratureSettings):
    """Raised powers at n = nu over a stack of mass matrices (see
    ``_power_shift``): (values, errors, converged, inner_converged)."""
    return _shift_values(*_power_shift(sigmas, legs, power), settings)


def _single_raised_power(powers, dimension: float, leg: int) -> int:
    """nu_k of ``raise_power_single``'s configuration, after checking it."""
    nu_k = powers[leg]
    nu = sum(powers)
    if any(p != 1 for i, p in enumerate(powers) if i != leg):
        raise ValidationError("raise_power_single: all other powers must be 1")
    if dimension != nu or nu != len(powers) - 1 + nu_k:
        raise ValidationError(f"raise_power_single needs n = nu = N-1+nu_k, got n={dimension}")
    return nu_k


def raise_power_single(config: KinematicConfig, leg: int,
                       settings: QuadratureSettings = DEFAULT_SETTINGS) -> IntegralValue:
    """One propagator power nu_k > 1, all others 1, at n = nu = N - 1 + nu_k:
    a contour integral over the single-diagonal mass shift."""
    nu_k = _single_raised_power(config.powers, config.dimension, leg)
    sigma = build_sigma(config).entries
    if nu_k == 1:
        return evaluate_unit(sigma, config.n_legs, settings)
    return _one_shift(*_power_shift(sigma[None], (leg,), nu_k), settings)


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
    return _one_shift(*_power_shift(sigma[None], (k, kp), v), settings)


def _duplicate_values(sigmas: np.ndarray, powers, settings: QuadratureSettings,
                      deltas=(1e-4, 1e-5, 1e-6)):
    """Unit-power assembly on the duplicated-column matrices of a stack,
    regularized and extrapolated to the singular limit: (values, errors,
    converged) per matrix.  The three regularized matrices of every input
    are evaluated as one stack.

    Shifted or ill-scaled inputs can push the smallest regularization below
    the determinant gate; such a matrix then climbs a ladder to ten times
    larger deltas, which the extrapolation absorbs.
    """
    n_aug = int(sum(powers))
    if n_aug > 7:
        raise AssemblyLimit(f"duplicated assembly would need {n_aug} legs (max 7)")
    sigmas = np.asarray(sigmas)
    B = len(sigmas)
    ladder = [np.asarray(deltas, dtype=float)]
    for _ in range(2):
        ladder.append(10.0 * ladder[-1])
    rung = np.full(B, -1)
    for a, rung_deltas in enumerate(ladder):
        todo = np.flatnonzero(rung < 0)
        if not len(todo):
            break
        trial = augment_sigma(sigmas[todo, None], powers, rung_deltas)
        bad = rejected(trial.reshape(-1, n_aug, n_aug), strict=False).reshape(-1, 3).any(axis=1)
        rung[todo[~bad]] = a
    if np.any(rung < 0):
        raise SingularMatrix(f"duplicated-column matrices stay singular up to delta = "
                             f"{ladder[-1][0]:g}")
    used = np.stack(ladder)[rung]                                  # (B, 3)
    aug = augment_sigma(sigmas[:, None], powers, used)
    vals, errs, ok = unit_values(aug.reshape(-1, n_aug, n_aug), n_aug, settings, strict=False)
    vals, errs = vals.reshape(B, 3), errs.reshape(B, 3)
    d1 = vals[:, 0] - vals[:, 1]
    d2 = vals[:, 1] - vals[:, 2]
    ratio = used[:, 0] / used[:, 1]
    plain = np.abs(d2) < 1e3 * np.max(errs, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_hat = np.clip(np.log(np.abs(d1 / d2)) / np.log(ratio), 0.25, 3.0)
        corr = d2 / (ratio ** p_hat - 1.0)
    value = np.where(plain, vals[:, 2], vals[:, 2] - corr)
    extra = np.where(plain, np.abs(d2), np.abs(corr) * 0.5)
    return value, errs.sum(axis=1) + extra, ok.reshape(B, 3).all(axis=1)


def _integrable_duplicate_values(sigmas: np.ndarray, powers,
                                 settings: QuadratureSettings):
    """``_duplicate_values`` as the integrand of an outer quadrature.

    The regularized orthant sums cancel to a tiny fraction of their terms,
    and the extrapolation amplifies the differences of what is left.  Each
    inner integral adapts only to its own tolerance, so ask for a hundred
    times more: looser values are too rough for the outer quadratures of the
    shift routes, which then fail to converge.
    """
    return _duplicate_values(sigmas, powers, settings.tighter(0.01))


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
    value, error, ok = _duplicate_values(sigma[None], config.powers, settings)
    return IntegralValue(value=complex(value[0]), abs_error=float(error[0]),
                         method=METHOD_QUADRATURE, **convergence(inner_ok=bool(ok[0])))


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
               route: str = "contour") -> EpsSeries:
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
    if unit:
        if base_dim not in (N, N - 1):
            raise ValidationError(f"no direct assembly at base dimension {base_dim}")
        inner_settings = settings.tighter(0.1)

        def inner(mats):
            return unit_values(mats, base_dim, inner_settings)
    else:
        if base_dim != nu:
            raise ValidationError("raised powers need base dimension = nu")
        inner = _raised_power_inner(config, settings, route)
    # Raised-power inners run on regularized near-singular matrices; hand
    # off to the asymptotic series earlier for them.
    switch = None if unit else 12.0 * float(np.max(np.abs(sigma)))
    family = _ShiftedFamily(sigma, config.powers, inner, n=base_dim, x_switch=switch)
    w_max = math.sqrt(family.x_switch)
    inner_ok = []

    def integrand(w):
        vals, ok = family.values(w * w)
        inner_ok.append(ok)
        logw = np.log(np.maximum(w, 1e-300))
        return np.stack([2.0 ** (j + 1) * w ** (2.0 * k - 1.0) * logw ** j * vals
                         for j in range(order + 1)])

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
                                    **convergence(bool(ok), all(inner_ok))))
    return EpsSeries(d_base=d, k_shift=float(k), coefficients=tuple(coeffs))


def _raised_power_inner(config: KinematicConfig, settings: QuadratureSettings,
                        route: str):
    """Stacked evaluator at n = nu for raised powers on shifted matrices:
    the contour route (a mass derivative at weight 2) where one leg, or two
    legs with equal powers, carry them, otherwise (or with
    ``route="duplicate"``) duplicated columns."""
    powers = config.powers
    nu = config.nu_total
    N = config.n_legs
    inner_settings = settings.tighter(0.1)
    raised = tuple(i for i, p in enumerate(powers) if p > 1)
    power = powers[raised[0]] if raised else 1
    single = len(raised) == 1 and nu == N - 1 + power
    pair = len(raised) == 2 and powers[raised[1]] == power and nu == N - 2 + 2 * power
    if route != "duplicate" and (single or pair):
        def by_contour(mats):
            value, error, ok, inner_ok = _power_contour(mats, raised, power, inner_settings)
            return value, error, ok & inner_ok

        return by_contour
    return lambda mats: _integrable_duplicate_values(mats, powers, inner_settings)


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
        # one leg at 3 or an equal pair at 2 is a first mass derivative on any
        # matrix it accepts; the duplicated columns take everything else
        raised = tuple(i for i, p in enumerate(config.powers) if p > 1)
        if tuple(config.powers[i] for i in raised) in ((3,), (2, 2)):
            shift, weight, pref = _power_shift(build_sigma(config).entries[None], raised,
                                               config.powers[raised[0]])
            if _pole_rows(shift, weight)[0]:
                return _one_shift(shift, weight, pref, settings)
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

    def integrand(t):
        mats = sub + t[:, None, None] * (col[:, None] + col[None, :]) \
            + (t * t)[:, None, None] * corner
        vals = unit_values(mats, inner_dim, inner_settings)[0]
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

    def merged_sigma(u):
        """Merged matrices for an array of u, shaped (len(u), N - 1, N - 1)."""
        u = np.asarray(u, dtype=float)[:, None]
        row = u * sigma[:-2, -2] + (1.0 - u) * sigma[:-2, -1]
        corner = (u * u * sigma[-2, -2] + (1.0 - u) ** 2 * sigma[-1, -1]
                  + 2.0 * u * (1.0 - u) * sigma[-2, -1])[:, 0]
        out = np.empty((len(u), N - 1, N - 1))
        out[:, :-1, :-1] = sigma[:-2, :-2]
        out[:, -1, :-1] = row
        out[:, :-1, -1] = row
        out[:, -1, -1] = corner
        return out

    try:
        cholesky(merged_sigma(np.linspace(0.0, 1.0, 21)))
    except SingularMatrix:
        return math.nan, True

    if route == "duplicate":
        if n != sum(merged_powers):
            raise ValidationError(f"duplicated-column route needs n = nu, got n={n}")

        def inner_values(mats):
            return _duplicate_values(mats, merged_powers, inner_settings)[0]
    else:
        leg = int(np.argmax(merged_powers))
        nu_k = _single_raised_power(merged_powers, n, leg)

        def inner_values(mats):
            return _power_contour(mats, (leg,), nu_k, inner_settings)[0]

    def integrand(u):
        vals = inner_values(merged_sigma(u))
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
