import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from orthantloop.errors import DegenerateConditioning, NonPositiveDiagonal, OutOfRange
from orthantloop.gaussint import (
    conditioned_correlation,
    default_anchor,
    homotopy_continuity_check,
    i_hex,
    i_hex_batch,
    i_pair,
    i_pair_conditional,
    i_quad,
    i_single,
    normalize_coefficient_matrix,
    partial_correlation,
    quartet_batch,
    rho_tilde,
)
from orthantloop.oracle import MCSettings, orthant_mc
from orthantloop.quadrature import QuadratureSettings, adaptive_batch

TWO_PI = 2.0 * math.pi


def rand_corr(rng, n, ridge=2.0):
    a = rng.normal(size=(n, n))
    g = a @ a.T + ridge * n * np.eye(n)
    d = np.sqrt(np.diag(g))
    return g / np.outer(d, d)


def test_i_single_values():
    assert i_single(1.0) == pytest.approx(math.sqrt(TWO_PI))
    assert i_single(TWO_PI) == pytest.approx(1.0)
    assert i_single(0.5) == pytest.approx(2.0 * math.sqrt(math.pi))
    with pytest.raises(NonPositiveDiagonal):
        i_single(0.0)


def test_i_pair_values():
    assert i_pair(0.0) == 0.0
    assert i_pair(0.5) == pytest.approx(-math.pi ** 2 / 3.0)
    with pytest.raises(OutOfRange):
        i_pair(1.0)


def direct_pair_integral(rho: float) -> float:
    """2D quadrature of the defining Gaussian-kernel integral.

    Folding the plane onto the first quadrant pairs each point with its
    w2-reflection; the difference of exponentials removes the principal-value
    singularity analytically, leaving a smooth integrand.  The box must
    out-run the slow e**(-(1-|rho|) w**2) ridge at strong correlation.
    """
    L = 12.0 / math.sqrt(max(1.0 - abs(rho), 0.04))

    def outer(w1):
        def inner(w2):
            cross = w1[:, None] * w2[None, :]
            base = 0.5 * (w1[:, None] ** 2 + w2[None, :] ** 2)
            return (np.exp(-base - rho * cross) - np.exp(-base + rho * cross)) / cross
        val, _, _, _ = adaptive_batch(inner, 0.0, L, 1e-12, 1e-15)
        return val

    val, _, _, _ = adaptive_batch(outer, 0.0, L, 1e-11, 1e-14)
    return 2.0 * float(val)


@pytest.mark.parametrize("rho", [0.3, -0.5])
def test_i_pair_against_direct_double_integral(rho):
    assert direct_pair_integral(rho) == pytest.approx(i_pair(rho), abs=1e-8)


@given(st.floats(-0.95, 0.95))
@hyp_settings(max_examples=40, deadline=None)
def test_i_pair_odd(rho):
    assert i_pair(-rho) == pytest.approx(-i_pair(rho), abs=1e-14)


def test_partial_correlation_and_conditional():
    rho = np.eye(3)
    assert partial_correlation(rho, 0, 1, 2) == 0.0
    assert i_pair_conditional(rho, (0, 1), 2) == 0.0

    rho = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    expected = i_single(1.0) * i_pair(0.5)
    assert i_pair_conditional(rho, (0, 1), 2) == pytest.approx(expected, rel=1e-14)

    degenerate = np.array([[1.0, 0.1, 1.0 - 1e-16], [0.1, 1.0, 0.2],
                           [1.0 - 1e-16, 0.2, 1.0]])
    with pytest.raises(DegenerateConditioning):
        i_pair_conditional(degenerate, (0, 1), 2)


def test_i_pair_conditional_against_mc(rng):
    # E over leg k of the conditioned pair integral, versus a 3D Monte Carlo
    # of the defining integrand is heavy; instead check the exact identity
    # with the trivariate orthant probability:
    #   P0(rho3) = 1/8 + (asin r12 + asin r13 + asin r23) / (4 pi)
    rho = rand_corr(rng, 3)
    p_formula = 0.125 + (math.asin(rho[0, 1]) + math.asin(rho[0, 2])
                         + math.asin(rho[1, 2])) / (4.0 * math.pi)
    p_mc, err = orthant_mc(rho, MCSettings(samples=2_000_000, seed=5, batch=500_000))
    assert abs(p_formula - p_mc) < 3.0 * err


def test_i_quad_identity_is_zero():
    out = i_quad(np.eye(4))
    assert abs(out.value) < 1e-14


def test_i_quad_anchor_invariance(rng):
    rho = rand_corr(rng, 4)
    vals = [i_quad(rho, anchor=a).value.real for a in range(4)]
    assert max(vals) - min(vals) < 1e-6
    auto = i_quad(rho).value.real
    assert auto == pytest.approx(vals[default_anchor(rho)], rel=1e-12)


def test_i_quad_orthant_identity_equicorrelated():
    rho = np.full((4, 4), 0.5)
    np.fill_diagonal(rho, 1.0)
    i4 = i_quad(rho).value.real
    asum = sum(math.asin(0.5) for _ in range(6))
    p_formula = (1.0 + (2.0 / math.pi) * asum + i4) / 16.0
    p_mc, err = orthant_mc(rho, MCSettings(samples=10_000_000, seed=11, batch=1_000_000))
    assert abs(p_formula - p_mc) < 3.0 * err


def test_i_quad_permutation_invariance(rng):
    rho = rand_corr(rng, 4)
    perm = rng.permutation(4)
    a = i_quad(rho).value.real
    b = i_quad(rho[np.ix_(perm, perm)]).value.real
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_sign_flip_conjugation(rng):
    # flipping one Gaussian direction flips the sign of every pair term
    # involving it
    rho = rand_corr(rng, 4)
    d = np.diag([1.0, -1.0, 1.0, 1.0])
    flipped = d @ rho @ d
    assert i_pair(flipped[0, 1]) == pytest.approx(-i_pair(rho[0, 1]), rel=1e-14)
    # the four-denominator integral is invariant under flipping an even
    # number of directions
    both = np.diag([-1.0, -1.0, 1.0, 1.0])
    assert i_quad(both @ rho @ both).value.real == pytest.approx(
        i_quad(rho).value.real, rel=1e-9, abs=1e-12)


def test_rho_tilde_limits(rng):
    rho = rand_corr(rng, 6)
    # u = 0 removes the anchor and conditions on the partner alone
    out0 = rho_tilde(rho, 0, 1, 0.0)
    rest = [2, 3, 4, 5]
    expected = rho[np.ix_(rest, rest)] - np.outer(rho[rest, 1], rho[rest, 1])
    assert np.allclose(out0, expected, atol=1e-14)
    # u = 1 conditions on anchor and partner together (two-variable Schur)
    out1 = rho_tilde(rho, 0, 1, 1.0)
    pair = [0, 1]
    block = rho[np.ix_(rest, pair)] @ np.linalg.inv(rho[np.ix_(pair, pair)]) \
        @ rho[np.ix_(pair, rest)]
    assert np.allclose(out1, rho[np.ix_(rest, rest)] - block, atol=1e-12)


def test_rho_tilde_identity_input():
    out = rho_tilde(np.eye(6), 0, 1, 0.7)
    assert np.allclose(out, np.eye(4))


def test_rho_tilde_renormalized_positive_definite(rng):
    rho = rand_corr(rng, 6)
    tilde = rho_tilde(rho, 0, 1, 0.5)
    norm = normalize_coefficient_matrix(tilde)
    assert np.allclose(np.diag(norm), 1.0)
    assert np.all(np.linalg.eigvalsh(norm) > 0)


def test_i_hex_identity_is_zero():
    out = i_hex(np.eye(6))
    assert abs(out.value) < 1e-14


def test_i_hex_anchor_invariance(rng):
    rho = rand_corr(rng, 6)
    a = i_hex(rho, anchor=0).value.real
    b = i_hex(rho, anchor=3).value.real
    assert abs(a - b) < 1e-5 * max(1.0, abs(a))


def test_i_hex_orthant_identity_equicorrelated():
    rho = np.full((6, 6), 0.3)
    np.fill_diagonal(rho, 1.0)
    i6 = i_hex(rho).value.real
    asum = 15 * math.asin(0.3)
    i4sum = sum(i_quad(rho[np.ix_(s, s)]).value.real
                for s in combinations(range(6), 4))
    p_formula = (1.0 + (2.0 / math.pi) * asum + i4sum - i6) / 64.0
    p_mc, err = orthant_mc(rho, MCSettings(samples=10_000_000, seed=13, batch=1_000_000))
    assert abs(p_formula - p_mc) < 3.0 * err


def _shifted(rho, shift):
    """Complex correlation matrix with every off-diagonal moved by ``shift``."""
    return rho + shift * (1.0 - np.eye(rho.shape[-1]))


def _assert_rows_match_singles(batch, stack, anchors=None):
    """Every matrix of a stack gets its single-matrix value, error, ok and
    node count: node counts exactly, values and errors to a few ulp."""
    values, errors, ok, nodes = batch(stack, anchors=anchors)
    for b in range(len(stack)):
        one = None if anchors is None else anchors[b:b + 1]
        v, e, o, n = batch(stack[b:b + 1], anchors=one)
        assert n[0] == nodes[b] and o[0] == ok[b]
        assert abs(v[0] - values[b]) <= 4 * np.spacing(abs(values[b]))
        assert abs(e[0] - errors[b]) <= 4 * np.spacing(errors[b])


def test_quartet_rows_independent_of_stack(rng):
    real = np.stack([rand_corr(rng, 4, ridge=r) for r in (0.2, 0.5, 2.0, 8.0)])
    _assert_rows_match_singles(quartet_batch, real)
    _assert_rows_match_singles(quartet_batch, _shifted(real, 0.04j))
    _assert_rows_match_singles(quartet_batch, real, anchors=[0, 1, 2, 3])


def test_hex_rows_independent_of_stack(rng):
    real = np.stack([rand_corr(rng, 6, ridge=r) for r in (0.3, 1.0, 4.0)])
    _assert_rows_match_singles(i_hex_batch, real)
    _assert_rows_match_singles(i_hex_batch, _shifted(real, 0.03j))


def test_i_hex_batch_matches_i_hex(rng):
    real = np.stack([rand_corr(rng, 6, ridge=r) for r in (0.3, 1.0, 4.0)])
    for stack in (real, _shifted(real, 0.03j)):
        values, errors, ok, _ = i_hex_batch(stack)
        assert np.all(ok)
        for anchor in (0, 3):
            for b, rho in enumerate(stack):
                single = i_hex(rho, anchor=anchor)
                assert single.converged
                assert abs(single.value - values[b]) <= single.abs_error + errors[b]


def test_quartet_ok_is_per_matrix(rng):
    easy = rand_corr(rng, 4, ridge=8.0)
    hard = np.full((4, 4), -0.33)
    np.fill_diagonal(hard, 1.0)
    values, errors, ok, nodes = quartet_batch(np.stack([easy, hard]),
                                              QuadratureSettings(max_subdivisions=1))
    assert list(ok) == [True, False]
    assert nodes[0] < nodes[1] == 45


def test_complex_continuity_check(rng):
    rho = rand_corr(rng, 4).astype(complex)
    rho[0, 1] = rho[1, 0] = rho[0, 1] + 0.05j
    assert homotopy_continuity_check(rho, lambda r: i_quad(r).value)


def test_correlation_submatrix_type(rng):
    from orthantloop.gaussint import CorrelationSubmatrix

    rho = rand_corr(rng, 4)
    sub = CorrelationSubmatrix(rho, labels=(0, 2, 4, 5))
    assert i_quad(sub).value == i_quad(rho).value
    with pytest.raises(OutOfRange):
        CorrelationSubmatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(ValueError):
        CorrelationSubmatrix(rho, labels=(1, 2))


def test_default_anchor_is_minimax():
    # largest |rho| per leg: 0.6, 0.6, 0.3, 0.3; the lowest of the tied
    # labels wins
    rho = np.array([[1.0, 0.6, 0.2, 0.25],
                    [0.6, 1.0, 0.3, 0.1],
                    [0.2, 0.3, 1.0, -0.3],
                    [0.25, 0.1, -0.3, 1.0]])
    assert default_anchor(rho) == 2
    # complex entries rank by modulus: |0.3 + 0.5j| lifts leg 2 above leg 3
    shifted = rho.astype(complex)
    shifted[1, 2] = shifted[2, 1] = 0.3 + 0.5j
    assert default_anchor(shifted) == 3


def _near_degenerate(d, rng):
    """Correlation of a Gram matrix whose first two vectors nearly cancel:
    rho_01 sits within about 2e-6 of -1."""
    v = rng.normal(size=(d, d))
    v[1] = -v[0] + 1e-3 * rng.normal(size=d)
    g = v @ v.T
    s = np.sqrt(np.diag(g))
    return g / np.outer(s, s)


@pytest.mark.parametrize("d, batch", [(4, quartet_batch), (6, i_hex_batch)])
def test_default_anchor_avoids_near_degenerate_pair(d, batch):
    rho = _near_degenerate(d, np.random.default_rng(0))
    assert 0.0 < 1.0 + rho[0, 1] < 1e-5
    auto_value, auto_error, auto_ok, auto_nodes = batch(rho[None])
    value, error, ok, nodes = batch(rho[None], anchors=[0])
    assert auto_ok[0] and ok[0]
    assert abs(auto_value[0] - value[0]) <= auto_error[0] + error[0]
    assert 3 * auto_nodes[0] <= nodes[0]
