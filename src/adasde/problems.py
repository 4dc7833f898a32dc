"""Closed-form loss landscapes with exact gradients and exact noise covariance.

Every problem is immutable and all operations accept parameter arrays of
shape (..., d), broadcasting over leading axes so that whole ensembles can
be evaluated in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_symmetric, psd_eigh, psd_sqrt

__all__ = [
    "Problem",
    "LinearProblem",
    "QuadraticProblem",
    "LeastSquaresProblem",
    "CovarianceSpec",
    "IsotropicCovariance",
    "ConstantCovariance",
    "EmpiricalCovariance",
]


def _check_theta(theta, dim: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (dim,):
        raise ValueError(f"theta has trailing shape {theta.shape}, expected last axis {dim}")
    return theta


class Problem:
    """A differentiable loss with closed-form value and gradient."""

    dim: int

    def loss(self, theta) -> np.ndarray:
        raise NotImplementedError

    def full_gradient(self, theta) -> np.ndarray:
        raise NotImplementedError

    def per_datum_gradients(self, theta) -> np.ndarray:
        raise ValueError(f"{type(self).__name__} is not a finite-sum problem")

    @property
    def is_finite_sum(self) -> bool:
        return False


@dataclass(frozen=True)
class LinearProblem(Problem):
    """f(theta) = <theta, g_bar>; the gradient is constant."""

    g_bar: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.g_bar, dtype=float))
        if g.ndim != 1 or g.size == 0:
            raise ValueError("g_bar must be a nonempty vector")
        object.__setattr__(self, "g_bar", g)

    @property
    def dim(self) -> int:
        return self.g_bar.size

    def loss(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return theta @ self.g_bar

    def full_gradient(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return np.broadcast_to(self.g_bar, theta.shape).copy()


@dataclass(frozen=True)
class QuadraticProblem(Problem):
    """f(theta) = 0.5 theta' A theta - b' theta with symmetric PSD A."""

    a: np.ndarray
    b: np.ndarray | None = None

    def __post_init__(self):
        a = check_symmetric(np.asarray(self.a, dtype=float), rtol=1e-12, name="quadratic matrix")
        if a.ndim != 2:
            raise ValueError("quadratic matrix must be 2-d")
        psd_eigh(a, name="quadratic matrix")
        b = np.zeros(a.shape[0]) if self.b is None else np.asarray(self.b, dtype=float)
        if b.shape != (a.shape[0],):
            raise ValueError("b must match the matrix dimension")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def loss(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return 0.5 * np.einsum("...i,ij,...j->...", theta, self.a, theta) - theta @ self.b

    def full_gradient(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return theta @ self.a - self.b


@dataclass(frozen=True)
class LeastSquaresProblem(Problem):
    """Averaged finite-sum least squares.

    f_i(theta) = 0.5 (x_i' theta - y_i)^2 and f = (1/n) sum_i f_i, so the
    full gradient is the mean of the per-datum gradients.
    """

    data: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.data, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if x.ndim != 2:
            raise ValueError("data must be an n x d matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("targets must be an n-vector matching data rows")
        if x.shape[0] < 2:
            raise ValueError("finite-sum problem needs at least 2 data points")
        object.__setattr__(self, "data", x)
        object.__setattr__(self, "targets", y)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_points(self) -> int:
        return self.data.shape[0]

    @property
    def is_finite_sum(self) -> bool:
        return True

    def residuals(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        return theta @ self.data.T - self.targets

    def loss(self, theta) -> np.ndarray:
        r = self.residuals(theta)
        return 0.5 * np.mean(r * r, axis=-1)

    def full_gradient(self, theta) -> np.ndarray:
        return self.residuals(theta) @ self.data / self.n_points

    def per_datum_gradients(self, theta) -> np.ndarray:
        r = self.residuals(theta)
        return r[..., :, None] * self.data


class CovarianceSpec:
    """Noise covariance Sigma(theta) attached to a problem."""

    def matrix(self, problem: Problem, theta) -> np.ndarray:
        raise NotImplementedError

    def diagonal(self, problem: Problem, theta) -> np.ndarray:
        mat = self.matrix(problem, theta)
        return np.diagonal(mat, axis1=-2, axis2=-1).copy()

    def sqrt(self, problem: Problem, theta) -> np.ndarray:
        return psd_sqrt(self.matrix(problem, theta))

    def apply_sqrt(self, problem: Problem, theta, w) -> np.ndarray:
        """Sigma(theta)^{1/2} w for standard-normal draws w of shape (..., d)."""
        root = self.sqrt(problem, theta)
        if root.ndim == 2:
            return w @ root.T
        # theta-dependent covariance, one root per leading index
        return np.einsum("...ij,...j->...i", root, w)


@dataclass(frozen=True)
class IsotropicCovariance(CovarianceSpec):
    """Sigma = value * I, independent of theta."""

    value: float = 1.0

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("isotropic covariance needs a nonnegative value")

    def matrix(self, problem: Problem, theta=None) -> np.ndarray:
        return self.value * np.eye(problem.dim)

    def diagonal(self, problem: Problem, theta=None) -> np.ndarray:
        return np.full(problem.dim, self.value)

    def sqrt(self, problem: Problem, theta=None) -> np.ndarray:
        return np.sqrt(self.value) * np.eye(problem.dim)


@dataclass(frozen=True)
class ConstantCovariance(CovarianceSpec):
    """A fixed PSD matrix, validated at construction."""

    sigma: np.ndarray
    _sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = check_symmetric(np.asarray(self.sigma, dtype=float), name="covariance")
        object.__setattr__(self, "sigma", mat)
        object.__setattr__(self, "_sqrt", psd_sqrt(mat))

    def _check_dim(self, problem: Problem) -> None:
        if self.sigma.shape[0] != problem.dim:
            raise ValueError("covariance dimension does not match the problem")

    def matrix(self, problem: Problem, theta=None) -> np.ndarray:
        self._check_dim(problem)
        return self.sigma

    def diagonal(self, problem: Problem, theta=None) -> np.ndarray:
        self._check_dim(problem)
        return np.diagonal(self.sigma).copy()

    def sqrt(self, problem: Problem, theta=None) -> np.ndarray:
        self._check_dim(problem)
        return self._sqrt


@dataclass(frozen=True)
class EmpiricalCovariance(CovarianceSpec):
    """Covariance of the per-datum gradients around the full gradient.

    Sigma(theta) = (1/n) C'C, where the rows of C are the centred per-datum
    gradients grad f_i - grad f (the full gradient is their mean). ``matrix``
    is one batched matmul; ``diagonal`` is the column mean of C*C and never
    builds the d x d matrix. ``sqrt`` is the symmetric root of ``matrix``.
    Only defined for finite-sum problems.
    """

    @staticmethod
    def _centred(problem: Problem, theta) -> np.ndarray:
        """Per-datum gradients minus the full gradient, shape (..., n, d)."""
        return problem.per_datum_gradients(theta) - problem.full_gradient(theta)[..., None, :]

    def matrix(self, problem: Problem, theta) -> np.ndarray:
        c = self._centred(problem, theta)
        return np.swapaxes(c, -1, -2) @ c / c.shape[-2]

    def diagonal(self, problem: Problem, theta) -> np.ndarray:
        c = self._centred(problem, theta)
        return np.einsum("...ni,...ni->...i", c, c) / c.shape[-2]
