"""Small dense symmetric matrix numerics.

Everything here is sized for matrices up to 9x9 (seven legs plus the two
extra columns the duplicated-leg construction can add).  Single matrices
use routines written out directly: LU with partial pivoting for
determinants and inverses, an unpivoted Cholesky for positive-definite
inputs, and cofactors either from the adjugate or, when the matrix is badly
conditioned, from direct minor expansion; all of them accept complex
entries.  Stacks of matrices (the correlation data of every evaluated mass
matrix, the inverses of the contour evaluators) go through numpy.linalg in
one call per stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, SingularMatrix
from .kinematics import SigmaMatrix, PDStatus

MAX_SIZE = 9

# Conditioning beyond this switches cofactor evaluation to minor expansion.
COND_SWITCH = 1e8


def _check_size(a: np.ndarray):
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"square matrix expected, got shape {a.shape}")
    if n > MAX_SIZE:
        raise IndexOutOfRange(f"matrix size {n} exceeds the supported maximum {MAX_SIZE}")


def lu_factor(a: np.ndarray):
    """LU with partial pivoting. Returns (lu, piv, parity)."""
    _check_size(a)
    lu = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    n = lu.shape[0]
    piv = np.arange(n)
    parity = 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
            parity = -parity
        if lu[k, k] == 0:
            continue
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv, parity


def det(a: np.ndarray):
    lu, _, parity = lu_factor(a)
    return parity * np.prod(np.diag(lu))


def solve(a: np.ndarray, b: np.ndarray):
    lu, piv, _ = lu_factor(a)
    n = lu.shape[0]
    if np.any(np.diag(lu) == 0):
        raise SingularMatrix("zero pivot in LU solve")
    x = np.array(b, dtype=lu.dtype)[piv]
    for k in range(n):        # forward, unit lower triangle
        x[k + 1:] -= np.outer(lu[k + 1:, k], x[k]) if x.ndim > 1 else lu[k + 1:, k] * x[k]
    for k in range(n - 1, -1, -1):  # backward
        x[k] /= lu[k, k]
        if k:
            x[:k] -= np.outer(lu[:k, k], x[k]) if x.ndim > 1 else lu[:k, k] * x[k]
    return x


def inverse(a: np.ndarray):
    return solve(a, np.eye(a.shape[0]))


def inverse_batch(mats: np.ndarray) -> np.ndarray:
    """Inverses of a stack of small matrices (LAPACK through numpy); the hot
    path of the contour evaluators."""
    try:
        return np.linalg.inv(np.asarray(mats))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"singular matrix in batched inverse: {exc}") from exc


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a real positive-definite matrix."""
    _check_size(a)
    n = a.shape[0]
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j] - L[i, :j] @ L[j, :j]
            if i == j:
                if s <= 0.0:
                    raise SingularMatrix(f"non-positive pivot {s} at index {i}")
                L[i, i] = np.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


def minor(a: np.ndarray, i: int, j: int):
    return np.delete(np.delete(a, i, axis=0), j, axis=1)


def cofactor_matrix_by_minors(a: np.ndarray):
    n = a.shape[0]
    c = np.empty((n, n), dtype=complex if np.iscomplexobj(a) else float)
    for i in range(n):
        for j in range(n):
            c[i, j] = (-1) ** (i + j) * det(minor(a, i, j))
    return c


def cofactor_matrix(a: np.ndarray):
    """Cofactor matrix, via det * inverse unless conditioning is poor."""
    d = det(a)
    if d != 0:
        inv = inverse(a)
        cond = np.max(np.sum(np.abs(a), axis=1)) * np.max(np.sum(np.abs(inv), axis=1))
        if cond < COND_SWITCH:
            return (d * inv).T
    return cofactor_matrix_by_minors(a)


def delete_index(matrix: np.ndarray, i: int) -> np.ndarray:
    """Remove row and column ``i`` (0-based) from a symmetric matrix."""
    n = matrix.shape[0]
    if not 0 <= i < n:
        raise IndexOutOfRange(f"index {i} out of range for size {n}")
    return np.delete(np.delete(matrix, i, axis=0), i, axis=1)


@dataclass(frozen=True)
class CorrelationData:
    """Inverse, normalized correlations, cofactors and determinants of a
    positive-definite mass matrix."""

    r_matrix: np.ndarray     # inverse of the mass matrix
    rho: np.ndarray          # correlations of r_matrix, unit diagonal
    cofactors: np.ndarray
    det_sigma: float
    d_reduced: float         # det / prod(masses**2)

    @property
    def row_sums(self) -> np.ndarray:
        return self.r_matrix.sum(axis=1)


def _rejections(sigmas: np.ndarray, strict: bool) -> tuple[np.ndarray, list]:
    """Determinants of a stack of real mass matrices and, per matrix, why it
    is rejected (None when it is accepted)."""
    d = np.linalg.det(sigmas)
    diag_prod = np.prod(np.diagonal(sigmas, axis1=-2, axis2=-1), axis=-1)
    floor = 1e-12 * diag_prod if strict else np.full(len(d), 1e-150)
    why = [None] * len(d)
    for b in np.flatnonzero(np.abs(d) < floor):
        why[b] = f"determinant {d[b]} below threshold for diag product {diag_prod[b]}"
    for b in np.flatnonzero((d < 0.0) & (np.abs(d) >= floor)):
        why[b] = "negative determinant: matrix is not positive definite"
    kept = np.flatnonzero([w is None for w in why])
    try:
        np.linalg.cholesky(sigmas[kept])
    except np.linalg.LinAlgError:
        for b in kept:
            try:
                np.linalg.cholesky(sigmas[b])
            except np.linalg.LinAlgError:
                why[b] = "matrix is not positive definite"
    return d, why


def rejected(sigmas: np.ndarray, strict: bool = True) -> np.ndarray:
    """Which matrices of a stack ``correlation_stack`` would refuse."""
    return np.array([w is not None for w in _rejections(np.asarray(sigmas, dtype=float),
                                                        strict)[1]], dtype=bool)


def correlation_stack(sigmas: np.ndarray, strict: bool = True):
    """Inverses, normalized correlations and determinants of a stack of real
    positive-definite mass matrices, shaped (B, N, N), (B, N, N) and (B,).

    Raises SingularMatrix when any |det| falls below 1e-12 times the
    product of its squared masses, or any matrix is not positive definite.
    Internal callers evaluating deliberately regularized near-singular
    matrices pass ``strict=False`` to drop the determinant floor (positive
    definiteness is still required).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 3:
        raise ValueError(f"stack of square matrices expected, got shape {sigmas.shape}")
    _check_size(sigmas[0])
    d, why = _rejections(sigmas, strict)
    for w in why:
        if w is not None:
            raise SingularMatrix(w)
    r = inverse_batch(sigmas)
    r = 0.5 * (r + np.swapaxes(r, -1, -2))
    dd = np.sqrt(np.diagonal(r, axis1=-2, axis2=-1))
    rho = r / (dd[:, :, None] * dd[:, None, :])
    ii = np.arange(sigmas.shape[-1])
    rho[:, ii, ii] = 1.0
    return r, rho, d


def correlation_data(sigma: SigmaMatrix | np.ndarray, strict: bool = True) -> CorrelationData:
    """All derived matrix quantities for one positive-definite mass matrix:
    ``correlation_stack`` of a stack of one, plus the cofactors."""
    if isinstance(sigma, SigmaMatrix):
        if sigma.pd_status is not PDStatus.POSITIVE_DEFINITE:
            raise SingularMatrix(f"mass matrix is {sigma.pd_status.value}, need positive definite")
        entries = sigma.entries
    else:
        entries = np.asarray(sigma, dtype=float)
    _check_size(entries)
    r, rho, d = correlation_stack(entries[None], strict)
    det_sigma = float(d[0])
    cof = np.real(cofactor_matrix(entries))
    return CorrelationData(r_matrix=r[0], rho=rho[0], cofactors=cof, det_sigma=det_sigma,
                           d_reduced=det_sigma / float(np.prod(np.diag(entries))))
