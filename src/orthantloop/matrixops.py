"""Small dense symmetric matrix numerics on top of numpy.linalg.

Everything here is sized for matrices up to 9x9 (seven legs plus the two
extra columns the duplicated-leg construction can add).  The method needs
only inverses, determinants and positive-definiteness checks, so every
routine is one numpy.linalg call on a matrix or a whole stack of them, with
``LinAlgError`` mapped to ``SingularMatrix``.  What is added on top are the
evaluation checks (size limit, determinant floor, sign of the determinant)
and the correlations of the inverse mass matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, SingularMatrix
from .kinematics import SigmaMatrix, PDStatus

MAX_SIZE = 9


def _check_size(a: np.ndarray):
    """A square matrix, or a stack of them, of at most MAX_SIZE rows."""
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError(f"square matrix expected, got shape {a.shape}")
    if n > MAX_SIZE:
        raise IndexOutOfRange(f"matrix size {n} exceeds the supported maximum {MAX_SIZE}")


def inverse_batch(mats: np.ndarray) -> np.ndarray:
    """Inverse of a small matrix, or of each matrix of a stack (LAPACK
    through numpy); the hot path of the contour evaluators."""
    try:
        return np.linalg.inv(np.asarray(mats))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"singular matrix in batched inverse: {exc}") from exc


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a real positive-definite matrix, or of each
    matrix of a stack; raises SingularMatrix when any is not positive
    definite."""
    a = np.asarray(a)
    _check_size(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is not positive definite: {exc}") from exc


def delete_index(matrix: np.ndarray, i: int) -> np.ndarray:
    """Remove row and column ``i`` (0-based) from a symmetric matrix."""
    n = matrix.shape[0]
    if not 0 <= i < n:
        raise IndexOutOfRange(f"index {i} out of range for size {n}")
    return np.delete(np.delete(matrix, i, axis=0), i, axis=1)


@dataclass(frozen=True)
class CorrelationData:
    """Inverse, normalized correlations and determinants of a
    positive-definite mass matrix."""

    r_matrix: np.ndarray     # inverse of the mass matrix
    rho: np.ndarray          # correlations of r_matrix, unit diagonal
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
    _check_size(sigmas)
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
    ``correlation_stack`` of a stack of one."""
    if isinstance(sigma, SigmaMatrix):
        if sigma.pd_status is not PDStatus.POSITIVE_DEFINITE:
            raise SingularMatrix(f"mass matrix is {sigma.pd_status.value}, need positive definite")
        entries = sigma.entries
    else:
        entries = np.asarray(sigma, dtype=float)
    _check_size(entries)
    r, rho, d = correlation_stack(entries[None], strict)
    det_sigma = float(d[0])
    return CorrelationData(r_matrix=r[0], rho=rho[0], det_sigma=det_sigma,
                           d_reduced=det_sigma / float(np.prod(np.diag(entries))))
