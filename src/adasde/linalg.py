"""Symmetric PSD matrix helpers shared by the noise and diffusion code.

A noise factor of a covariance Sigma is any L with L L' = Sigma: w ~ N(0, I)
gives L w ~ N(0, Sigma) whichever factor is used. ``psd_sqrt`` is the
symmetric root (one ``eigh``), kept where a root is computed once, such as a
constant covariance. ``psd_cholesky`` is the lower-triangular factor, used
where a factor is needed per state: one batched LAPACK Cholesky, with an
``eigh`` path only for singular input.
"""
from __future__ import annotations

import numpy as np

# Eigenvalues in [-PSD_SLACK * lambda_max, 0) are treated as rounding noise
# and clamped to zero; anything below is a genuine negative eigenvalue.
PSD_SLACK = 1e-10
SYMMETRY_RTOL = 1e-10


def check_symmetric(mat: np.ndarray, rtol: float = SYMMETRY_RTOL, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within a relative tolerance and return the symmetrized matrix.

    The result is always a fresh array. An exactly symmetric input (such as
    C C') skips the tolerance check: its copy is what symmetrizing gives.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if (mat == np.swapaxes(mat, -1, -2)).all():
        return mat.copy()
    scale = np.max(np.abs(mat)) if mat.size else 0.0
    asym = np.max(np.abs(mat - np.swapaxes(mat, -1, -2))) if mat.size else 0.0
    if asym > rtol * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric: max asymmetry {asym:.3e} exceeds rtol {rtol:g}")
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def psd_eigh(mat: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with small negative eigenvalues clamped to zero.

    Eigenvalues below -PSD_SLACK * lambda_max are an error: the matrix is not
    positive semidefinite up to rounding.
    """
    sym = check_symmetric(mat, name=name)
    eigvals, eigvecs = np.linalg.eigh(sym)
    lam_max = np.max(eigvals, axis=-1, keepdims=True)
    floor = -PSD_SLACK * np.maximum(lam_max, 0.0)
    if np.any(eigvals < floor):
        worst = float(np.min(eigvals))
        raise ValueError(f"{name} is not PSD: eigenvalue {worst:.3e} below tolerance")
    return np.clip(eigvals, 0.0, None), eigvecs


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, S @ S = mat.

    Supports batched input of shape (..., d, d).
    """
    eigvals, eigvecs = psd_eigh(mat, name="covariance")
    root = eigvecs * np.sqrt(eigvals)[..., None, :]
    return root @ np.swapaxes(eigvecs, -1, -2)


def psd_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular L of a PSD matrix, L @ L.T = mat.

    Supports batched input of shape (..., d, d). A positive definite batch
    takes one LAPACK Cholesky; if any member is singular, the whole batch
    goes through ``_semidefinite_cholesky``.
    """
    sym = check_symmetric(mat, name="covariance")
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return _semidefinite_cholesky(sym)


def _semidefinite_cholesky(sym: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a symmetric PSD matrix that may be singular.

    R from the QR factorization of the symmetric root S = QR is upper
    triangular with R'R = S'S = sym; its rows are signed so that L = R' has
    a nonnegative diagonal, which makes L the Cholesky factor wherever that
    exists. Rounding-level negative eigenvalues are clamped and larger ones
    rejected, as in ``psd_sqrt``. An unpivoted semidefinite Cholesky loop
    cannot draw that line: after a small pivot, the rounding it amplifies
    can leave a later pivot of a PSD matrix far below zero.
    """
    r = np.linalg.qr(psd_sqrt(sym), mode="r")
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return np.swapaxes(r * sign[..., :, None], -1, -2)
