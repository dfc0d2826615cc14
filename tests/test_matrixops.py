import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from orthantloop.errors import IndexOutOfRange, SingularMatrix
from orthantloop.kinematics import build_sigma, random_interior_config
from orthantloop.matrixops import cholesky, correlation_data, delete_index, inverse_batch


def rand_spd(rng, n, ridge=2.0):
    a = rng.normal(size=(n, n))
    return a @ a.T + ridge * n * np.eye(n)


def test_correlation_data_identity():
    data = correlation_data(np.eye(3))
    assert np.allclose(data.r_matrix, np.eye(3))
    assert np.allclose(data.rho, np.eye(3))
    assert data.d_reduced == pytest.approx(1.0)


def test_correlation_data_two_by_two():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    data = correlation_data(sigma)
    assert data.det_sigma == pytest.approx(0.75)
    assert np.allclose(data.r_matrix, np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75)
    assert data.rho[0, 1] == pytest.approx(-0.5)


def test_reduced_determinant_equal_mass_half_correlations():
    # all cosines 1/2 at three equal unit masses
    sigma = np.full((3, 3), 0.5)
    np.fill_diagonal(sigma, 1.0)
    data = correlation_data(sigma)
    assert data.d_reduced == pytest.approx(0.5, rel=1e-14)


def test_correlation_data_consistency(rng):
    for n in (2, 3, 5, 7):
        sigma = build_sigma(random_interior_config(rng, n)).entries
        data = correlation_data(sigma)
        assert np.allclose(data.r_matrix @ sigma, np.eye(n), atol=1e-10)
        off = np.abs(data.rho[np.triu_indices(n, 1)])
        assert np.all(off < 1.0)
        assert data.det_sigma == pytest.approx(
            data.d_reduced * np.prod(np.diag(sigma)), rel=1e-12)


def test_singular_matrix_raises():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        correlation_data(sigma)


def test_indefinite_raises():
    sigma = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    assert np.linalg.det(sigma) != 0
    with pytest.raises(SingularMatrix):
        correlation_data(sigma)
    with pytest.raises(SingularMatrix):
        cholesky(sigma)


def test_cholesky_reconstruction(rng):
    for n in (2, 4, 7, 9):
        a = rand_spd(rng, n)
        L = cholesky(a)
        assert np.linalg.norm(L @ L.T - a) < 1e-12 * np.linalg.norm(a)


def test_delete_index():
    assert np.allclose(delete_index(np.eye(3), 0), np.eye(2))
    m = np.array([[1.0, 4.0, 5.0], [4.0, 2.0, 6.0], [5.0, 6.0, 3.0]])
    out = delete_index(m, 1)
    assert np.allclose(out, [[1.0, 5.0], [5.0, 3.0]])
    with pytest.raises(IndexOutOfRange):
        delete_index(m, 3)


@given(st.integers(0, 4), st.integers(0, 1000))
@hyp_settings(max_examples=30, deadline=None)
def test_delete_index_preserves_entries(i, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(5, 5))
    m = m + m.T
    out = delete_index(m, i)
    keep = [j for j in range(5) if j != i]
    assert np.array_equal(out, m[np.ix_(keep, keep)])
    assert np.array_equal(out, out.T)


def test_inverse_batch_matches_single(rng):
    mats = rng.normal(size=(6, 5, 5)) + 6 * np.eye(5)
    mats = mats + 0.2j * rng.normal(size=(6, 5, 5))
    out = inverse_batch(mats)
    for i in range(6):
        assert np.allclose(out[i] @ mats[i], np.eye(5), atol=1e-11)


def test_deletion_and_correlation_do_not_commute(rng):
    # conditioning differs from restriction: document the order dependence
    sigma = build_sigma(random_interior_config(rng, 4)).entries
    full = correlation_data(sigma)
    deleted_first = correlation_data(delete_index(sigma, 0)).rho
    deleted_after = delete_index(full.rho, 0)
    assert not np.allclose(deleted_first, deleted_after, atol=1e-6)


def test_inverse_batch_maps_singular_to_singular_matrix(rng):
    mats = rng.normal(size=(3, 4, 4)) + 4 * np.eye(4)
    mats[1, 2] = 0.0
    with pytest.raises(SingularMatrix):
        inverse_batch(mats)
