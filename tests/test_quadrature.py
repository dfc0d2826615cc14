import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from orthantloop.quadrature import (
    QuadratureSettings,
    adaptive_batch,
    adaptive_rows,
    contour_rows,
    integrate_01,
    integrate_0inf,
    integrate_contour,
)


def test_unit_interval_constant():
    assert integrate_01(lambda u: np.ones_like(u)).value == pytest.approx(1.0, rel=1e-12)


def test_arcsine_endpoint_singularity():
    f = lambda u: 1.0 / np.sqrt(np.maximum(1.0 - u * u, 1e-300))
    bare = integrate_01(f)
    assert bare.value.real == pytest.approx(math.pi / 2, rel=3e-8)
    weighted = integrate_01(f, weight="arcsine")
    assert weighted.value.real == pytest.approx(math.pi / 2, rel=1e-12)


def test_oversampled_reference_case():
    # arcsin(u)/sqrt(1 - u^2/4) against a frozen dense-trapezoid value
    f = lambda u: np.arcsin(u) / np.sqrt(1.0 - 0.25 * u * u)
    u = np.linspace(0.0, 1.0, 2_000_001)
    reference = np.trapezoid(f(u), u)
    out = integrate_01(f)
    assert out.value.real == pytest.approx(reference, abs=1e-9)


def test_half_line_examples():
    assert integrate_0inf(lambda x: np.exp(-x)).value == pytest.approx(1.0, rel=1e-9)
    g = integrate_0inf(lambda x: np.where(x > 0, x, 1e-300) ** -0.5 * np.exp(-x))
    assert g.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-8)
    h = integrate_0inf(lambda x: np.where(x > 0, x, 1e-300) ** -0.5 / (1.0 + x) ** 2)
    assert h.value.real == pytest.approx(math.pi / 2, rel=1e-8)


def test_half_line_exponential_map():
    settings = QuadratureSettings(infinite_domain_map="exponential")
    out = integrate_0inf(lambda x: np.exp(-x) * x, settings)
    assert out.value.real == pytest.approx(1.0, rel=1e-9)


def test_batch_integration():
    val, err, ok, _ = adaptive_batch(
        lambda x: np.stack([x ** 2, np.sin(x), np.exp(x)]), 0.0, 1.0, 1e-10, 1e-14)
    assert ok
    assert np.allclose(val, [1.0 / 3.0, 1.0 - math.cos(1.0), math.e - 1.0], rtol=1e-10)


def _power_rows(powers):
    """Rows of x**p on [0, 1]; a row's integrand never looks at the others."""
    powers = np.asarray(powers, dtype=float)
    return lambda x, rows: x ** powers[rows][:, None]


def test_rows_adapt_independently():
    powers = [0.5, 2.0, 7.0, -0.25, 3.0]
    val, err, ok, neval = adaptive_rows(_power_rows(powers), 0.0, 1.0, len(powers),
                                        1e-11, 1e-15)
    assert np.all(ok)
    exact = 1.0 / (np.array(powers) + 1.0)
    assert np.all(np.abs(val - exact) <= err + 1e-14)
    assert np.all(err >= 5e-16 * np.abs(val))
    assert np.all((neval - 15) % 30 == 0)
    # the endpoint singularity needs splits the polynomials do not
    assert neval[3] > neval[1] == 15
    for r, p in enumerate(powers):
        one = adaptive_rows(_power_rows([p]), 0.0, 1.0, 1, 1e-11, 1e-15)
        assert one[3][0] == neval[r] and one[2][0] == ok[r]
        assert abs(one[0][0] - val[r]) <= 4 * np.spacing(abs(val[r]))
        assert abs(one[1][0] - err[r]) <= 4 * np.spacing(err[r])


def test_rows_report_exhausted_budget():
    val, err, ok, neval = adaptive_rows(_power_rows([-0.5, 1.0]), 0.0, 1.0, 2,
                                        1e-12, 1e-16, max_subdivisions=3)
    assert list(ok) == [False, True]
    assert neval[0] == 15 + 30 * 3
    assert abs(val[0] - 2.0) <= err[0]


CONTOUR_SETTINGS = QuadratureSettings(rel_tol=1e-7, abs_tol=1e-11,
                                      contour_abscissa_c=1.0, contour_halfheight_T=8.0)


def test_contour_inverse_laplace_sqrt():
    out = integrate_contour(lambda s: gamma_fn(1.5) / s ** 1.5 * np.exp(s),
                            CONTOUR_SETTINGS)
    assert out.value.real == pytest.approx(1.0, abs=1e-6)


def test_contour_inverse_laplace_linear():
    out = integrate_contour(lambda s: np.exp(s) / s ** 2, CONTOUR_SETTINGS)
    assert out.value.real == pytest.approx(1.0, abs=1e-6)
    out2 = integrate_contour(lambda s: np.exp(2.0 * s) / s ** 2, CONTOUR_SETTINGS)
    assert out2.value.real == pytest.approx(2.0, abs=1e-6)


def test_contour_abscissa_doubling_invariance():
    for f, target in [
        (lambda s: gamma_fn(1.5) / s ** 1.5 * np.exp(s), 1.0),
        (lambda s: np.exp(s) / s ** 2, 1.0),
        (lambda s: np.exp(2.0 * s) / s ** 2, 2.0),
    ]:
        a = integrate_contour(f, CONTOUR_SETTINGS)
        doubled = QuadratureSettings(rel_tol=1e-7, abs_tol=1e-11,
                                     contour_abscissa_c=2.0, contour_halfheight_T=8.0)
        b = integrate_contour(f, doubled)
        assert abs(a.value - b.value) <= 5 * 1e-7 * max(abs(target), abs(a.value)) + 1e-9


def test_halving_tolerance_never_hurts():
    cases = [
        (lambda u: 1.0 / np.sqrt(np.maximum(1.0 - u * u, 1e-300)), math.pi / 2),
        (lambda u: np.arcsin(u), math.pi / 2 - 1.0),
        (lambda u: np.exp(u) * np.cos(3 * u),
         (math.e * (math.cos(3) + 3 * math.sin(3)) - 1) / 10.0),
    ]
    for f, exact in cases:
        loose = integrate_01(f, QuadratureSettings(rel_tol=1e-6, abs_tol=1e-10))
        tight = integrate_01(f, QuadratureSettings(rel_tol=5e-7, abs_tol=5e-11))
        assert abs(tight.value.real - exact) <= abs(loose.value.real - exact) + 1e-13


def test_sine_substitution_invariance():
    # applying u -> sin(theta) externally must not move the result
    f = lambda u: np.arcsin(u) / np.sqrt(np.maximum(1.0 - u * u, 1e-300))
    direct = integrate_01(f, weight="arcsine")
    bare = integrate_01(f)
    external, _, _, _ = adaptive_batch(lambda th: th, 0.0, math.pi / 2, 1e-10, 1e-14)
    assert direct.value.real == pytest.approx(math.pi ** 2 / 8.0, rel=1e-10)
    assert direct.value.real == pytest.approx(float(external), rel=1e-10)
    assert bare.value.real == pytest.approx(float(external), rel=1e-7)


def test_nonconverged_flag():
    settings = QuadratureSettings(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    out = integrate_01(lambda u: np.sin(37.0 * u) ** 2, settings)
    assert not out.converged
    assert "non_converged" in out.flags


def test_settings_validation():
    with pytest.raises(ValueError):
        QuadratureSettings(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSettings(contour_abscissa_c=0.0)


def test_tail_dominates_raises():
    from orthantloop.errors import TailDominates
    settings = QuadratureSettings(rel_tol=1e-8, abs_tol=1e-12,
                                  contour_abscissa_c=1.0, contour_halfheight_T=4.0)
    with pytest.raises(TailDominates):
        integrate_contour(lambda s: 1.0 / np.sqrt(s), settings, max_strips=12)


def test_contour_rows_independent_of_stack():
    # exp(a s) / s**2 inverts to a for a > 0; each row has its own abscissa,
    # first height and tail test
    rates = np.array([1.0, 2.0, 0.5])
    abscissae = np.array([1.0, 2.0, 0.7])
    heights = np.array([8.0, 8.0, 4.0])

    def f(s, rows):
        return np.exp(rates[rows][:, None] * s) / s ** 2

    val, err, ok = contour_rows(f, abscissae, heights, CONTOUR_SETTINGS)
    assert np.all(ok)
    assert np.all(np.abs(val - rates) <= err + 1e-6)
    for r in range(3):
        one = integrate_contour(
            lambda s: np.exp(rates[r] * s) / s ** 2,
            QuadratureSettings(rel_tol=1e-7, abs_tol=1e-11, contour_abscissa_c=abscissae[r],
                               contour_halfheight_T=heights[r]))
        assert abs(one.value - val[r]) <= 4 * np.spacing(abs(val[r]))
        assert abs(one.abs_error - err[r]) <= 4 * np.spacing(err[r])
