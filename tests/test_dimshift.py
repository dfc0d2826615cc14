import math

import numpy as np
import pytest

from orthantloop.dimshift import (
    EpsSeries,
    ShiftKind,
    ShiftedSigma,
    augment_sigma,
    eps_expand,
    eps_probe,
    evaluate_any_dimension,
    expand_power_excess,
    inv_gamma_series,
    lower_dimension,
    raise_dimension,
    raise_power_duplicate,
    raise_power_pair,
    raise_power_single,
    recurrence_check_lower,
    recurrence_check_merge,
)
from orthantloop.errors import DivergentIntegral, ValidationError
from orthantloop.kinematics import KinematicConfig, build_sigma, random_interior_config
from orthantloop.npoint import evaluate_unit, j3_2d, j5_4d, unit_values
from orthantloop.oracle import MCSettings, feynman_oracle
from orthantloop.quadrature import QuadratureSettings

from conftest import config_from

FAST = QuadratureSettings(rel_tol=1e-7, abs_tol=1e-11)


def test_shifted_sigma_materialize():
    base = np.array([[1.0, 0.3], [0.3, 1.2]])
    s = ShiftedSigma(base, ShiftKind.ALL_MASSES_PLUS_TAU, parameter=0.5)
    assert np.allclose(s.materialize(), base + 0.5)
    s = ShiftedSigma(base, ShiftKind.ALL_MASSES_MINUS_S, parameter=0.2 + 0.1j)
    out = s.materialize()
    assert np.allclose(out, base - (0.2 + 0.1j))
    s = ShiftedSigma(base, ShiftKind.SINGLE_DIAGONAL_MINUS_S, parameter=0.1, legs=(1,))
    out = s.materialize()
    assert out[1, 1] == pytest.approx(1.1) and out[0, 0] == 1.0
    s = ShiftedSigma(base, ShiftKind.SINGLE_OFFDIAGONAL_INVARIANT_PLUS_4S,
                     parameter=0.1, legs=(0, 1))
    out = s.materialize()
    # k2 -> k2 + 4s moves the entry by -2s and nothing else
    assert out[0, 1] == pytest.approx(0.3 - 0.2)
    assert out[0, 0] == 1.0 and out[1, 1] == 1.2


def test_augment_sigma_structure():
    base = np.array([[1.0, 0.3], [0.3, 1.2]])
    aug = augment_sigma(base, (2, 1), delta=1e-3)
    assert aug.shape == (3, 3)
    assert aug[0, 1] == pytest.approx(1.0 * (1.0 - 1e-3))
    assert aug[0, 2] == pytest.approx(0.3) and aug[1, 2] == pytest.approx(0.3)
    # duplicating a duplicate equals one duplication with higher multiplicity
    once = augment_sigma(base, (3, 1), delta=0.0)
    twice = augment_sigma(augment_sigma(base, (2, 1), delta=0.0), (2, 1, 1), delta=0.0)
    assert np.allclose(once, twice)


def test_raise_dimension_three_point(rng):
    cfg = random_interior_config(rng, 3, n=5)
    a = raise_dimension(cfg, FAST)
    b = feynman_oracle(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-5


def test_raise_dimension_two_point(rng):
    cfg = random_interior_config(rng, 2, n=3)
    a = raise_dimension(cfg, FAST)
    b = feynman_oracle(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-6


def test_raise_dimension_preconditions(rng):
    cfg = random_interior_config(rng, 2, n=2)
    with pytest.raises(ValidationError):
        raise_dimension(cfg)
    with pytest.raises(DivergentIntegral):
        raise_dimension(cfg.with_dimension(4.0))


def test_raise_dimension_tail_decay(rng):
    # the integrand of the mass-shift integral must decay with the declared
    # power nu/2 once the shift dominates every matrix scale
    from orthantloop.dimshift import _ShiftedFamily

    cfg = random_interior_config(rng, 3)
    sigma = build_sigma(cfg).entries
    fam = _ShiftedFamily(sigma, (1, 1, 1), lambda mats: unit_values(mats, 3, FAST))
    xs = np.array([40.0, 80.0, 160.0])
    vals = np.abs(fam.values(xs)[0])
    slopes = np.diff(np.log(vals)) / np.diff(np.log(xs))
    assert np.all(np.abs(slopes + 1.5) < 0.1)


def test_lower_dimension_three_point(rng):
    cfg = random_interior_config(rng, 3, n=2)
    a = lower_dimension(cfg, FAST)
    b = j3_2d(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-4


def test_lower_dimension_five_point(rng):
    cfg = random_interior_config(rng, 5, n=4)
    a = lower_dimension(cfg, FAST)
    b = j5_4d(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-4


def test_lower_dimension_six_point_4d(rng):
    # the six-leg value in four dimensions exists only through the contour
    cfg = random_interior_config(rng, 6, n=4)
    a = lower_dimension(cfg, QuadratureSettings(rel_tol=3e-6, abs_tol=1e-9))
    b = feynman_oracle(cfg, MCSettings(samples=4_000_000, seed=61, batch=1_000_000))
    assert abs(a.value.real - b.value.real) < 3.0 * b.abs_error


def test_roundtrip_raise_then_lower(rng):
    # lowering the raised value returns the original within tolerance
    cfg = random_interior_config(rng, 3, n=3)
    direct = evaluate_unit(build_sigma(cfg).entries, 3, FAST).value
    # raise to n = 4 via the real shift, then step back down via the contour
    up = raise_dimension(cfg.with_dimension(4.0), FAST).value
    down = lower_dimension(cfg.with_dimension(2.0), FAST).value
    direct2 = j3_2d(cfg.with_dimension(2.0)).value
    assert abs(down - direct2) / abs(direct2) < 1e-4
    oracle4 = feynman_oracle(cfg.with_dimension(4.0))
    assert abs(up - oracle4.value) / abs(oracle4.value) < 1e-5
    assert direct == pytest.approx(feynman_oracle(cfg).value, rel=1e-8)


def test_power_single_degenerate_identity(rng):
    cfg = random_interior_config(rng, 3, n=3)
    a = raise_power_single(cfg, 0, FAST)
    b = evaluate_unit(build_sigma(cfg).entries, 3, FAST)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_power_single_vs_oracle(rng):
    base = random_interior_config(rng, 3)
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (2, 1, 1), 4.0)
    a = raise_power_single(cfg, 0, FAST)
    b = feynman_oracle(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-6


def test_power_routes_agree_nu3(rng):
    base = random_interior_config(rng, 3)
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (3, 1, 1), 5.0)
    a = raise_power_single(cfg, 0, FAST)
    b = raise_power_duplicate(cfg, FAST)
    c = feynman_oracle(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-4
    assert abs(a.value - c.value) / abs(c.value) < 1e-6


def test_power_pair_routes_agree(rng):
    base = random_interior_config(rng, 3)
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (2, 2, 1), 5.0)
    a = raise_power_pair(cfg, (0, 1), FAST)
    b = raise_power_duplicate(cfg, FAST)
    c = feynman_oracle(cfg)
    assert abs(a.value - b.value) / abs(b.value) < 1e-4
    assert abs(a.value - c.value) / abs(c.value) < 1e-6


def test_power_routes_five_point(rng):
    base = random_interior_config(rng, 5)
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (3, 1, 1, 1, 1), 7.0)
    a = raise_power_single(cfg, 0, FAST)
    b = raise_power_duplicate(cfg, FAST)
    assert abs(a.value - b.value) / abs(b.value) < 1e-4
    cfgp = KinematicConfig(base.masses, np.array(base.invariants), (1, 2, 1, 2, 1), 7.0)
    ap = raise_power_pair(cfgp, (1, 3), FAST)
    bp = raise_power_duplicate(cfgp, FAST)
    assert abs(ap.value - bp.value) / abs(bp.value) < 1e-4


def test_inv_gamma_series_values():
    # 1/Gamma(1 - eps) = 1 + gamma_E eps + ... : check against finite differences
    g = inv_gamma_series(1.0, 3)
    eps = 1e-4
    from scipy.special import gamma as gamma_fn
    target = 1.0 / gamma_fn(1.0 - eps)
    series = sum(g[m] * eps ** m for m in range(4))
    assert series == pytest.approx(target, abs=1e-14)
    g_half = inv_gamma_series(0.5, 2)
    target = 1.0 / gamma_fn(0.5 - eps)
    series = sum(g_half[m] * eps ** m for m in range(3))
    assert series == pytest.approx(target, abs=1e-12)


@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 7.0])
def test_inv_gamma_series_matches_scipy(k):
    from scipy.special import digamma, gamma as gamma_fn, polygamma

    order = 4
    logc = [0.0] + [(-1.0) ** (j + 1) * (digamma(k) if j == 1 else polygamma(j - 1, k))
                    / math.factorial(j) for j in range(1, order + 1)]
    ref = [1.0]
    for m in range(1, order + 1):
        ref.append(sum(j * logc[j] * ref[m - j] for j in range(1, m + 1)) / m)
    ref = np.array(ref) / gamma_fn(k)
    np.testing.assert_allclose(inv_gamma_series(k, order), ref, rtol=1e-13, atol=0.0)


def test_closed_form_tail_matches_scipy():
    from scipy.special import gamma as gamma_fn, gammaincc

    from orthantloop.dimshift import _upper_gamma

    for j in range(5):
        for x in np.geomspace(0.1, 80.0, 41):
            ref = gamma_fn(j + 1.0) * gammaincc(j + 1, x)
            assert _upper_gamma(j, x) == pytest.approx(ref, rel=1e-13, abs=0.0)


def _form_moments_loop(sigma, powers):
    """Reference: one Dirichlet moment per index pair and quartet."""
    def moment(extra):
        num = math.prod(math.gamma(p + e) for p, e in zip(powers, extra))
        return num / math.gamma(sum(powers) + sum(extra))

    N = len(powers)
    s0 = moment((0,) * N)
    s1 = 0.0
    for i in range(N):
        for j in range(N):
            e = [0] * N
            e[i] += 1
            e[j] += 1
            s1 += sigma[i, j] * moment(e)
    s2 = 0.0
    for i in range(N):
        for j in range(N):
            for k_ in range(N):
                for l in range(N):
                    e = [0] * N
                    for idx in (i, j, k_, l):
                        e[idx] += 1
                    s2 += sigma[i, j] * sigma[k_, l] * moment(e)
    return s0, s1, s2


@pytest.mark.parametrize("N", range(2, 8))
def test_form_moments_match_loop(N):
    from orthantloop.dimshift import _form_moments

    rng = np.random.default_rng(700 + N)
    for _ in range(3):
        powers = tuple(int(p) for p in rng.integers(1, 4, size=N))
        sigma = build_sigma(random_interior_config(rng, N)).entries
        got = _form_moments(sigma, powers)
        for a, b in zip(got, _form_moments_loop(sigma, powers)):
            assert a == pytest.approx(b, rel=1e-13, abs=0.0)


def test_gamma_poles_stay_typed_refusals():
    # math.gamma raises ValueError at its poles; every route must refuse
    # such arguments with a typed error before reaching it
    cfg = random_interior_config(np.random.default_rng(0), 3, n=6)
    assert 2 * cfg.nu_total == cfg.dimension
    with pytest.raises(DivergentIntegral):
        recurrence_check_lower(cfg, FAST)
    for n in (6.0, 7.0, 8.0):
        with pytest.raises(DivergentIntegral):
            feynman_oracle(cfg.with_dimension(n))
    with pytest.raises(ValidationError):
        recurrence_check_lower(random_interior_config(np.random.default_rng(0), 1, n=1))
    for k in (0.0, -1.0):
        with pytest.raises(ValidationError):
            inv_gamma_series(k, 2)


def test_eps_expand_matches_raise(rng):
    base = random_interior_config(rng, 5)
    cfg = KinematicConfig.from_d_epsilon(base.masses, np.array(base.invariants),
                                         (1,) * 5, d=6)
    series = eps_expand(cfg, order=2, settings=FAST)
    up = raise_dimension(cfg.with_dimension(6.0), FAST)
    assert abs(series.coefficients[0].value - up.value) / abs(up.value) < 1e-4
    assert series.order == 2 and series.k_shift == pytest.approx(0.5)


def test_eps_expand_three_point_both_shifts(rng):
    base = random_interior_config(rng, 3)
    cfg = KinematicConfig.from_d_epsilon(base.masses, np.array(base.invariants),
                                         (1, 1, 1), d=4)
    oracle = feynman_oracle(cfg.with_dimension(4.0))
    for k in (1.0, 0.5):
        series = eps_expand(cfg, order=0, k=k, settings=FAST)
        assert abs(series.coefficients[0].value - oracle.value) / abs(oracle.value) < 1e-5


def test_eps_probe_reproduces_leading_coefficients(rng):
    base = random_interior_config(rng, 5)
    cfg = KinematicConfig.from_d_epsilon(base.masses, np.array(base.invariants),
                                         (1,) * 5, d=6)
    series = eps_expand(cfg, order=2, settings=FAST)
    c0p, c1p = eps_probe(cfg, settings=FAST)
    assert abs(c0p - series.coefficients[0].value) / abs(series.coefficients[0].value) < 0.05
    assert abs(c1p - series.coefficients[1].value) / abs(series.coefficients[1].value) < 0.05


def test_eps_series_coefficients_real(rng):
    base = random_interior_config(rng, 3)
    cfg = KinematicConfig.from_d_epsilon(base.masses, np.array(base.invariants),
                                         (1, 1, 1), d=4)
    series = eps_expand(cfg, order=2, settings=FAST)
    for c in series.coefficients:
        assert abs(c.value.imag) < 1e-8


def test_recurrence_lower_four_point(rng):
    cfg = random_interior_config(rng, 4, n=4)
    assert recurrence_check_lower(cfg, FAST) < 1e-5


def test_recurrence_lower_three_point(rng):
    cfg = random_interior_config(rng, 3, n=3)
    assert recurrence_check_lower(cfg, FAST) < 1e-4


def test_recurrence_lower_endpoint_identity(rng):
    # the folded matrix at t = 0 is the plain minor without the last leg
    cfg = random_interior_config(rng, 4, n=4)
    sigma = build_sigma(cfg).entries
    sub = sigma[:-1, :-1]
    col = sigma[:-1, -1]
    eta0 = sub + 0.0 * (col[:, None] + col[None, :])
    assert np.allclose(eta0, sigma[:3, :3])


def test_recurrence_merge_three_point():
    cfg = config_from((1.0, 1.0, 1.0),
                      [[0.0, 0.3, 0.2], [0.3, 0.0, 0.25], [0.2, 0.25, 0.0]], n=3)
    residual, skipped = recurrence_check_merge(cfg, FAST)
    assert not skipped
    assert residual < 1e-5
    residual_dup, _ = recurrence_check_merge(cfg, FAST, route="duplicate")
    assert residual_dup < 1e-5


def test_merge_endpoints():
    # u = 1 keeps the next-to-last leg, u = 0 keeps the last one
    sigma = build_sigma(config_from((1.0, 1.1, 1.2),
                                    [[0.0, 0.3, 0.2], [0.3, 0.0, 0.25],
                                     [0.2, 0.25, 0.0]], n=3)).entries

    def merged(u):
        keep = sigma[:-2, :-2]
        row = u * sigma[:-2, -2] + (1 - u) * sigma[:-2, -1]
        corner = (u * u * sigma[-2, -2] + (1 - u) ** 2 * sigma[-1, -1]
                  + 2 * u * (1 - u) * sigma[-2, -1])
        out = np.empty((2, 2))
        out[0, 0] = keep[0, 0]
        out[0, 1] = out[1, 0] = row[0]
        out[1, 1] = corner
        return out

    at1 = merged(1.0)
    assert np.allclose(at1, sigma[np.ix_([0, 1], [0, 1])])
    at0 = merged(0.0)
    assert np.allclose(at0, sigma[np.ix_([0, 2], [0, 2])])


def test_expand_power_excess_k1(rng):
    base = random_interior_config(rng, 3)
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (1, 1, 1), 2.0)
    terms = expand_power_excess(cfg)
    assert sorted(t.powers for _, t in terms) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert all(c == -1.0 for c, _ in terms)
    assert all(t.dimension == 4.0 for _, t in terms)


def test_expand_power_excess_k2_coefficients():
    cfg = config_from((1.0, 1.0), [[0.0, 1.0], [1.0, 0.0]], n=0)
    terms = expand_power_excess(cfg)
    got = {t.powers: c for c, t in terms}
    # k! * prod (nu_i)_{k_i} / prod k_i!: every composition of 2 gives 2
    assert got == {(3, 1): 2.0, (1, 3): 2.0, (2, 2): 2.0}
    total_multinomial = sum(math.factorial(2) / (math.factorial(a) * math.factorial(2 - a))
                            for a in range(3))
    assert total_multinomial == 2 ** 2


def test_expand_power_excess_identity(rng):
    base = random_interior_config(rng, 2)
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (1, 1), 1.0)
    lhs = evaluate_any_dimension(cfg, FAST).value
    rhs = sum(c * evaluate_any_dimension(t, FAST).value
              for c, t in expand_power_excess(cfg))
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_eps_series_validation():
    from orthantloop.quadrature import IntegralValue
    with pytest.raises(ValidationError):
        EpsSeries(d_base=6, k_shift=0.5,
                  coefficients=(IntegralValue(1.0, 0.0),), order=2)


def test_stacked_power_contour_matches_single_routes(rng):
    from orthantloop.dimshift import _power_contour

    bases = [random_interior_config(rng, 4) for _ in range(3)]
    for powers, legs in (((3, 1, 1, 1), (0,)), ((1, 2, 1, 2), (1, 3))):
        cfgs = [KinematicConfig(b.masses, np.array(b.invariants), powers, sum(powers))
                for b in bases]
        stack = np.stack([build_sigma(c).entries for c in cfgs])
        values, errors, ok, inner_ok = _power_contour(stack, legs, powers[legs[0]], FAST)
        assert np.all(ok) and np.all(inner_ok)
        for b, cfg in enumerate(cfgs):
            one = (raise_power_single(cfg, legs[0], FAST) if len(legs) == 1
                   else raise_power_pair(cfg, legs, FAST))
            assert one.converged
            assert abs(one.value - values[b]) <= errors[b] + one.abs_error


def _strongly_correlated(N, n):
    # at moderate correlations the real inner quartets meet the default
    # tolerance on their first panel, so starving them changes nothing
    return random_interior_config(np.random.default_rng(3), N, n=n, corr_scale=100.0)


def test_shift_routes_report_inner_non_convergence():
    starved = QuadratureSettings(max_subdivisions=1)
    down = lower_dimension(_strongly_correlated(5, 4), starved)
    assert not down.converged
    assert "inner_non_converged" in down.flags
    up = raise_dimension(_strongly_correlated(5, 6), starved)
    assert not up.converged
    assert "inner_non_converged" in up.flags
    assert raise_dimension(_strongly_correlated(5, 6), FAST).flags == ()


def test_mass_derivative_route_matches_the_contour(rng):
    from orthantloop.dimshift import _contour_values, _pole_rows, _power_shift, _shift_values

    for powers in ((3, 1, 1, 1), (3, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1), (1, 2, 1, 2, 1)):
        N = len(powers)
        stack = np.stack([build_sigma(random_interior_config(rng, N)).entries
                          for _ in range(2)])
        legs = tuple(i for i, p in enumerate(powers) if p > 1)
        shift, weight, pref = _power_shift(stack, legs, powers[legs[0]])
        assert weight == 2.0 and np.all(_pole_rows(shift, weight))
        value, error, ok, inner_ok = _shift_values(shift, weight, pref, FAST)
        c_value, c_error, c_ok, c_inner_ok = _contour_values(shift, weight, pref, FAST)
        assert np.all(ok & inner_ok & c_ok & c_inner_ok)
        assert np.all(np.abs(value - c_value) <= error + c_error)
    for N in (5, 6):
        cfg = random_interior_config(rng, N, n=N - 2)
        low = lower_dimension(cfg, FAST)
        assert low.method != "contour" and low.converged
        shift = ShiftedSigma(build_sigma(cfg).entries[None], ShiftKind.ALL_MASSES_MINUS_S)
        c_value, c_error, _, _ = _contour_values(shift, 2.0, 1.0, FAST)
        assert abs(low.value - c_value[0]) <= low.abs_error + c_error[0]


def test_mass_derivative_route_leaves_non_pd_rows_on_the_contour(rng):
    from orthantloop.dimshift import _contour_values, _power_contour, _power_shift

    k2 = np.full((3, 3), 4.5)
    np.fill_diagonal(k2, 0.0)
    above = KinematicConfig((1.0, 1.1, 0.9), k2, (3, 1, 1), 5.0)
    base = random_interior_config(rng, 3)
    below = KinematicConfig(base.masses, np.array(base.invariants), (3, 1, 1), 5.0)
    stack = np.stack([build_sigma(below).entries, build_sigma(above).entries])
    value, error, ok, inner_ok = _power_contour(stack, (0,), 3, FAST)
    assert np.all(ok & inner_ok)
    alone = _contour_values(*_power_shift(stack[1:], (0,), 3), FAST)
    assert (value[1], error[1]) == (alone[0][0], alone[1][0])
    assert value[1].real == pytest.approx(-0.25588, abs=1e-5)
    one = raise_power_single(above, 0, FAST)
    assert one.method == "contour" and one.value == alone[0][0]
    derived = raise_power_single(below, 0, FAST)
    assert derived.method == "closed_form" and derived.value == value[0]


def test_starved_mass_derivative_reports_inner_non_convergence():
    cfg = _strongly_correlated(6, 4)
    starved = lower_dimension(cfg, QuadratureSettings(max_subdivisions=1))
    assert starved.method == "quadrature"
    assert not starved.converged
    assert "inner_non_converged" in starved.flags
    assert lower_dimension(cfg, FAST).converged


def test_any_dimension_takes_first_mass_derivatives(rng):
    base = random_interior_config(rng, 4)
    for powers, direct in (((3, 1, 1, 1), lambda c: raise_power_single(c, 0, FAST)),
                           ((1, 2, 2, 1), lambda c: raise_power_pair(c, (1, 2), FAST))):
        cfg = KinematicConfig(base.masses, np.array(base.invariants), powers, 6.0)
        got = evaluate_any_dimension(cfg, FAST)
        assert got == direct(cfg) and got.method == "quadrature"
        columns = raise_power_duplicate(cfg, FAST)
        assert abs(got.value - columns.value) <= got.abs_error + columns.abs_error
    cfg = KinematicConfig(base.masses, np.array(base.invariants), (2, 1, 1, 1), 5.0)
    assert evaluate_any_dimension(cfg, FAST) == raise_power_duplicate(cfg, FAST)
