import math

import numpy as np
import pytest

from orthantloop.errors import SingularMatrix
from orthantloop.kinematics import KinematicConfig, build_sigma, random_interior_config
from orthantloop.matrixops import correlation_data
from orthantloop.npoint import (
    evaluate_unit,
    j2_2d,
    j3_2d,
    j3_3d,
    j4_4d,
    j5_4d,
    j5_5d,
    j6_6d,
    j7_7d,
    orthant_probability,
    orthant_probability_batch,
    two_point_angle_form,
    unit_values,
)
from orthantloop.oracle import MCSettings, feynman_oracle, orthant_mc
from orthantloop.quadrature import QuadratureSettings

from conftest import config_from, equicorrelated_config

MC_FAST = MCSettings(samples=2_000_000, seed=101, batch=500_000)


def test_two_point_examples():
    cfg = config_from((1.0, 1.0), [[0.0, 1.0], [1.0, 0.0]], n=2)
    assert j2_2d(cfg).value.real == pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)),
                                                  rel=1e-12)
    cfg = config_from((1.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], n=2)
    assert j2_2d(cfg).value.real == pytest.approx(0.5, rel=1e-12)
    cfg = config_from((1.0, 1.0), [[0.0, -2.0], [-2.0, 0.0]], n=2)
    expected = math.log(2.0 + math.sqrt(3.0)) / math.sqrt(3.0)
    out = j2_2d(cfg)
    assert out.value.real == pytest.approx(expected, rel=1e-12)
    assert out.value.imag == 0.0


def test_two_point_threshold_singularity():
    cfg = config_from((1.0, 1.0), [[0.0, 4.0], [4.0, 0.0]], n=2)
    with pytest.raises(SingularMatrix):
        j2_2d(cfg)


def test_two_point_euclidean_vs_oracle(rng):
    for _ in range(5):
        cfg = random_interior_config(rng, 2, n=2)
        a = j2_2d(cfg).value
        b = feynman_oracle(cfg).value
        assert abs(a - b) / abs(b) < 1e-9


def test_one_point_closed_form():
    # single leg in one dimension: the orthant assembly reduces to -sqrt(pi)/m
    out = evaluate_unit(np.array([[4.0]]), 1)
    assert out.value.real == pytest.approx(-math.sqrt(math.pi) / 2.0, rel=1e-14)


def test_three_point_3d_orthogonal_case():
    cfg = equicorrelated_config(3, 0.0, n=3)
    assert j3_3d(cfg).value.real == pytest.approx(-math.pi ** 1.5 / 4.0, rel=1e-12)


def test_three_point_3d_vs_oracle(rng):
    cfg = equicorrelated_config(3, 0.5, n=3)
    data = correlation_data(build_sigma(cfg))
    assert data.d_reduced == pytest.approx(0.5)
    a = j3_3d(cfg).value
    b = feynman_oracle(cfg).value
    assert abs(a - b) / abs(b) < 1e-6
    for _ in range(3):
        cfg = random_interior_config(rng, 3, n=3)
        a = j3_3d(cfg).value
        b = feynman_oracle(cfg).value
        assert abs(a - b) / abs(b) < 1e-9


def test_three_point_2d_vs_oracle(rng):
    cfg = equicorrelated_config(3, 0.4, n=2)
    a = j3_2d(cfg).value
    b = feynman_oracle(cfg).value
    assert abs(a - b) / abs(b) < 1e-6
    cfg = equicorrelated_config(3, 0.0, n=2)  # arcsine terms vanish
    a = j3_2d(cfg).value
    b = feynman_oracle(cfg).value
    assert abs(a - b) / abs(b) < 1e-8
    for _ in range(3):
        cfg = random_interior_config(rng, 3, n=2)
        assert abs(j3_2d(cfg).value - feynman_oracle(cfg).value) \
            < 1e-8 * abs(feynman_oracle(cfg).value)


def test_three_point_degenerate_raises():
    cfg = config_from((1.0, 1.0, 1.0),
                      [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], n=3)
    with pytest.raises(SingularMatrix):
        j3_3d(cfg)


def test_four_point_orthogonal_case():
    cfg = equicorrelated_config(4, 0.0, n=4)
    assert j4_4d(cfg).value.real == pytest.approx(2.0 * math.pi ** 2 / 16.0, rel=1e-12)


def test_four_point_vs_oracle(rng):
    cfg = random_interior_config(rng, 4, n=4)
    a = j4_4d(cfg).value.real
    b = feynman_oracle(cfg, MC_FAST)
    assert abs(a - b.value.real) < 3.0 * b.abs_error


def test_four_point_permutation_invariance(rng):
    cfg = random_interior_config(rng, 4, n=4)
    perm = rng.permutation(4)
    cfg_p = KinematicConfig(tuple(np.array(cfg.masses)[perm]),
                            np.array(cfg.invariants)[np.ix_(perm, perm)],
                            (1,) * 4, 4.0)
    assert j4_4d(cfg_p).value.real == pytest.approx(j4_4d(cfg).value.real, rel=1e-8)


def test_five_six_seven_point_vs_oracle(rng):
    for n_legs, fn, seed in ((5, j5_5d, 7), (6, j6_6d, 8), (7, j7_7d, 9)):
        cfg = random_interior_config(rng, n_legs)
        a = fn(cfg).value.real
        b = feynman_oracle(cfg, MCSettings(samples=2_000_000, seed=seed, batch=500_000))
        assert abs(a - b.value.real) < 3.0 * b.abs_error, f"N={n_legs}"


def test_five_point_4d_vs_oracle(rng):
    cfg = random_interior_config(rng, 5, n=4)
    a = j5_4d(cfg).value.real
    b = feynman_oracle(cfg, MC_FAST)
    assert abs(a - b.value.real) < 3.0 * b.abs_error


def test_five_point_4d_permutation_invariance(rng):
    cfg = random_interior_config(rng, 5, n=4)
    perm = rng.permutation(5)
    cfg_p = KinematicConfig(tuple(np.array(cfg.masses)[perm]),
                            np.array(cfg.invariants)[np.ix_(perm, perm)],
                            (1,) * 5, 4.0)
    assert j5_4d(cfg_p).value.real == pytest.approx(j5_4d(cfg).value.real, rel=1e-6)


def test_six_point_hexterm_sign_matters():
    # flipping the six-denominator term must break oracle agreement; strong
    # correlations make the term large enough to separate cleanly
    from itertools import combinations
    from orthantloop.gaussint import i_hex, i_quad

    cfg = equicorrelated_config(6, 0.45, n=6)
    data = correlation_data(build_sigma(cfg))
    rho = data.rho
    asum = sum(math.asin(rho[i, j]) for i, j in combinations(range(6), 2))
    i4sum = sum(i_quad(rho[np.ix_(s, s)]).value.real for s in combinations(range(6), 4))
    i6 = i_hex(rho).value.real
    pref = 2.0 * math.pi ** 3 / math.sqrt(data.det_sigma) / 64.0
    right = pref * (1.0 + 2.0 / math.pi * asum + i4sum - i6)
    wrong = pref * (1.0 + 2.0 / math.pi * asum + i4sum + i6)
    oracle = feynman_oracle(cfg, MCSettings(samples=10_000_000, seed=3, batch=1_000_000))
    assert abs(right - oracle.value.real) < 3.0 * oracle.abs_error
    assert abs(wrong - oracle.value.real) > 8.0 * oracle.abs_error


def test_scaling_law(rng):
    lam = 2.0
    for n_legs in range(2, 8):
        cfg = random_interior_config(rng, n_legs)
        scaled = KinematicConfig(tuple(lam * m for m in cfg.masses),
                                 lam * lam * np.array(cfg.invariants),
                                 (1,) * n_legs, float(n_legs))
        a = evaluate_unit(build_sigma(cfg).entries, n_legs).value
        b = evaluate_unit(build_sigma(scaled).entries, n_legs).value
        assert abs(b - a * lam ** (n_legs - 2 * n_legs)) < 1e-8 * abs(b)


def test_orthant_identity_constant(rng):
    # the overall constant relating the value at n = N to the orthant
    # probability, fixed once at N = 2 and asserted for N = 3, 4, 5
    for n_legs in (2, 3, 4, 5):
        cfg = random_interior_config(rng, n_legs)
        sigma = build_sigma(cfg).entries
        data = correlation_data(sigma)
        p_mc, err = orthant_mc(data.rho, MCSettings(samples=10_000_000, seed=40 + n_legs,
                                                    batch=1_000_000))
        pref = (-1.0) ** n_legs * 2.0 * math.pi ** (n_legs / 2.0) / math.sqrt(data.det_sigma)
        direct = evaluate_unit(sigma, n_legs).value.real
        assert abs(direct - pref * p_mc) < 3.0 * abs(pref) * err


def test_orthant_probability_batch_matches_single(rng):
    rhos = np.stack([correlation_data(build_sigma(random_interior_config(rng, 5))).rho
                     for _ in range(3)])
    batch, _ = orthant_probability_batch(rhos)
    for b in range(3):
        single, _ = orthant_probability(rhos[b])
        assert batch[b] == pytest.approx(single, rel=1e-12)


def test_inner_non_convergence_reaches_the_value():
    sigma = np.full((5, 5), -0.249)
    np.fill_diagonal(sigma, 1.0)
    starved = QuadratureSettings(max_subdivisions=1)
    out = evaluate_unit(sigma, 5, starved, strict=False)
    assert not out.converged
    assert out.flags == ("inner_non_converged",)
    assert evaluate_unit(sigma, 5, strict=False).converged
    # the row-sum route at n = N - 1 ANDs its conditioned orthants too
    one_panel = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-30, max_subdivisions=0)
    out = evaluate_unit(sigma, 4, one_panel, strict=False)
    assert out.flags == ("inner_non_converged",)
    rhos = np.stack([np.eye(5), correlation_data(sigma, strict=False).rho])
    assert list(orthant_probability_batch(rhos, starved).converged) == [True, False]


def test_error_covers_rounding_of_the_assembly():
    sigma = build_sigma(random_interior_config(np.random.default_rng(11), 4)).entries
    at_n = evaluate_unit(sigma, 4)
    assert at_n.abs_error >= 0.5 * np.spacing(abs(at_n.value))
    closed = evaluate_unit(sigma, 3)
    assert closed.abs_error > 0.0


def test_two_point_angle_form_complex():
    sigma = np.array([[1.0 - 0.2j, 0.4 + 0.1j], [0.4 + 0.1j, 1.1 - 0.3j]])
    out = two_point_angle_form(sigma)
    mm = np.sqrt(sigma[0, 0]) * np.sqrt(sigma[1, 1])
    tau = np.arccos(sigma[0, 1] / mm)
    assert out.value == pytest.approx(tau / (mm * np.sin(tau)), rel=1e-12)


def _near_floor(N: int, above: float = 2.0) -> np.ndarray:
    """Equicorrelated mass matrix whose reduced determinant sits ``above``
    times over the strict floor of 1e-12."""
    # det = (1 - c)**(N - 1) * (1 + (N - 1) * c) with unit masses
    gap = (above * 1e-12 / N) ** (1.0 / (N - 1))
    sigma = np.full((N, N), 1.0 - gap)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def test_unit_values_match_single_evaluations(rng):
    for N in range(3, 8):
        stack = np.stack([build_sigma(random_interior_config(rng, N)).entries
                          for _ in range(2)] + [_near_floor(N)])
        for n in (N, N - 1):
            values, errors, ok = unit_values(stack, n)
            assert values.shape == errors.shape == ok.shape == (3,)
            for b in range(3):
                one = evaluate_unit(stack[b], n)
                assert one.converged == ok[b]
                assert abs(one.abs_error - errors[b]) <= 4 * np.spacing(errors[b])
                assert abs(one.value - values[b]) <= errors[b]
                # near the floor, 1/sqrt(det) magnifies last-bit differences
                # of the orthant terms beyond the ulps of the value
                if b < 2:
                    assert abs(one.value - values[b]) <= 4 * np.spacing(abs(values[b]))


def test_unit_values_reject_a_stack_with_one_bad_matrix(rng):
    good = build_sigma(random_interior_config(rng, 4)).entries
    indefinite = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 2.0, 0.0],
                           [2.0, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(SingularMatrix):
        evaluate_unit(indefinite, 4)
    for n in (4, 3):
        with pytest.raises(SingularMatrix):
            unit_values(np.stack([good, indefinite, good]), n)
    below = _near_floor(4, above=0.5)
    with pytest.raises(SingularMatrix):
        unit_values(np.stack([good, below]), 4)
    values, _, _ = unit_values(np.stack([good, below]), 4, strict=False)
    assert np.all(np.isfinite(values))


def test_unit_value_derivatives_match_central_differences(rng):
    from orthantloop.npoint import unit_value_derivatives

    tight = QuadratureSettings(rel_tol=1e-10, abs_tol=1e-14)
    h = 1e-4
    for N in range(3, 8):
        stack = np.stack([build_sigma(random_interior_config(rng, N)).entries
                          for _ in range(2)])
        unit = np.eye(N)
        for direction in (np.outer(unit[0], unit[0]),
                          np.outer(unit[1], unit[2]) + np.outer(unit[2], unit[1]),
                          np.ones((N, N))):
            values, errors, ok = unit_value_derivatives(stack, direction, tight)
            assert np.all(ok)

            def at(t):
                return unit_values(stack + t * direction, N, tight)[0]

            # fourth-order central difference
            fd = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)
            assert np.all(np.abs(values - fd) <= 1e-7 * np.abs(values) + errors)
