"""Closed-form loss landscapes with exact gradients and exact noise covariance.

Every problem is immutable: it keeps read-only copies of the arrays it is
given, so a caller that edits its own array later changes nothing here.
Problems and covariances that hold arrays compare and hash by identity, the
rule ``EmpiricalCovariance``'s memo keys on. All operations accept parameter
arrays of shape (..., d), broadcasting over leading axes so that whole
ensembles can be evaluated in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_symmetric, psd_cholesky, psd_eigh, psd_sqrt

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


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``, in ``a``'s memory layout."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _state_key(theta: np.ndarray) -> tuple:
    """theta's shape, dtype and exact bytes: a memo key that an in-place edit of theta misses."""
    return theta.shape, theta.dtype, theta.tobytes()


class Problem:
    """A differentiable loss with closed-form value and gradient."""

    dim: int

    def loss(self, theta) -> np.ndarray:
        raise NotImplementedError

    def full_gradient(self, theta) -> np.ndarray:
        raise NotImplementedError

    def per_datum_gradients(self, theta) -> np.ndarray:
        """Per-datum gradients, shape (..., n, d): row i is grad f_i(theta).

        Finite-sum problems return a fresh array that the caller may
        overwrite, in any memory layout. ``full_gradient`` is their row mean,
        up to rounding: ``EmpiricalCovariance`` centres them by it instead of
        reducing them over n a second time.
        """
        raise ValueError(f"{type(self).__name__} is not a finite-sum problem")


@dataclass(frozen=True, eq=False)
class LinearProblem(Problem):
    """f(theta) = <theta, g_bar>; the gradient is constant."""

    g_bar: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(_frozen(self.g_bar))
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


@dataclass(frozen=True, eq=False)
class QuadraticProblem(Problem):
    """f(theta) = 0.5 theta' A theta - b' theta with symmetric PSD A.

    ``b`` is optional: left out, it stays None and the problem has no linear
    term, so ``loss`` and ``full_gradient`` skip it. Their values are those
    of b = 0 bit for bit (x - 0.0 is x), without the broadcast of a (d,)
    zero over every leading index.
    """

    a: np.ndarray
    b: np.ndarray | None = None

    def __post_init__(self):
        a = check_symmetric(np.asarray(self.a, dtype=float), rtol=1e-12, name="quadratic matrix")
        if a.ndim != 2:
            raise ValueError("quadratic matrix must be 2-d")
        psd_eigh(a, name="quadratic matrix")
        if self.b is not None:
            b = _frozen(self.b)
            if b.shape != (a.shape[0],):
                raise ValueError("b must match the matrix dimension")
            object.__setattr__(self, "b", b)
        a.flags.writeable = False  # check_symmetric's result is already a copy
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def loss(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        value = 0.5 * np.einsum("...i,ij,...j->...", theta, self.a, theta)
        if self.b is not None:
            value -= theta @ self.b
        return value

    def full_gradient(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        grad = theta @ self.a
        if self.b is not None:
            grad -= self.b
        return grad


@dataclass(frozen=True, eq=False)
class LeastSquaresProblem(Problem):
    """Averaged finite-sum least squares.

    f_i(theta) = 0.5 (x_i' theta - y_i)^2 and f = (1/n) sum_i f_i, so the
    full gradient is the mean of the per-datum gradients. ``data`` and
    ``targets`` are read-only copies of the caller's arrays, and ``_data_t``
    is the data's transpose, C-contiguous and read-only; ``per_datum_gradients``
    and ``MinibatchOracle`` read it in that (d, n) layout.

    The last residuals are kept in a one-entry memo, so that ``loss``,
    ``full_gradient`` and ``per_datum_gradients`` at one theta share one
    evaluation of theta X' - y. Its key is theta's shape, dtype and exact
    bytes, so a theta changed in place since the last call misses. The
    residuals it holds are read-only, and a miss builds a fresh array, so
    no array it has returned is rewritten later. The memo is not locked;
    use one instance from one thread at a time. It takes no part in repr.
    """

    data: np.ndarray
    targets: np.ndarray
    _data_t: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _frozen(self.data)
        y = _frozen(self.targets)
        if x.ndim != 2:
            raise ValueError("data must be an n x d matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("targets must be an n-vector matching data rows")
        if x.shape[0] < 2:
            raise ValueError("finite-sum problem needs at least 2 data points")
        object.__setattr__(self, "data", x)
        object.__setattr__(self, "targets", y)
        data_t = np.ascontiguousarray(x.T)
        data_t.flags.writeable = False
        object.__setattr__(self, "_data_t", data_t)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_points(self) -> int:
        return self.data.shape[0]

    def residuals(self, theta) -> np.ndarray:
        """x_i' theta - y_i, shape (..., n): read-only, and shared by every call at this theta."""
        theta = _check_theta(theta, self.dim)
        key = _state_key(theta)
        if self._memo and self._memo[0] == key:
            return self._memo[1]
        self._memo.clear()  # an evaluation that fails leaves nothing stale behind
        r = theta @ self.data.T
        r -= self.targets
        r.flags.writeable = False
        self._memo[:] = (key, r)
        return r

    def loss(self, theta) -> np.ndarray:
        r = self.residuals(theta)
        return 0.5 * np.mean(r * r, axis=-1)

    def full_gradient(self, theta) -> np.ndarray:
        return self.residuals(theta) @ self.data / self.n_points

    def per_datum_gradients(self, theta) -> np.ndarray:
        """Shape (..., n, d), a view of fresh C-contiguous (..., d, n) memory.

        That is the layout ``EmpiricalCovariance`` reduces over: each
        coordinate's n gradients are contiguous.
        """
        return np.swapaxes(self.residuals(theta)[..., None, :] * self._data_t, -1, -2)


class CovarianceSpec:
    """Noise covariance Sigma(theta) attached to a problem; subclasses define ``diagonal``.

    ``matrix`` and ``diagonal`` may return the spec's own arrays or views of
    them (``ConstantCovariance.diagonal`` is a read-only view); callers only
    read them.

    ``sqrt`` returns a noise factor: some L with L L' = Sigma(theta), not
    necessarily the symmetric root. Every increment L w with w ~ N(0, I) has
    law N(0, Sigma) whichever factor is used, and draws that share w stay
    coupled as long as they share the covariance's ``sqrt``.
    """

    def matrix(self, problem: Problem, theta) -> np.ndarray:
        raise NotImplementedError

    def sqrt(self, problem: Problem, theta) -> np.ndarray:
        """Lower-triangular Cholesky factor of ``matrix`` (``linalg.psd_cholesky``)."""
        return psd_cholesky(self.matrix(problem, theta))

    def apply_sqrt(self, problem: Problem, theta, w) -> np.ndarray:
        """L(theta) w, with L = ``sqrt``, for standard-normal draws w of shape (..., d)."""
        factor = self.sqrt(problem, theta)
        if factor.ndim == 2:
            return w @ factor.T
        # theta-dependent covariance, one factor per leading index
        return np.einsum("...ij,...j->...i", factor, w)


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


@dataclass(frozen=True, eq=False)
class ConstantCovariance(CovarianceSpec):
    """A fixed PSD matrix, validated at construction; ``sqrt`` is its symmetric root, computed once.

    The root is stored column-major, so that ``apply_sqrt``'s w @ L' reads
    L' as a C-contiguous operand; the values are those of ``psd_sqrt``.
    """

    sigma: np.ndarray
    _sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = check_symmetric(np.asarray(self.sigma, dtype=float), name="covariance")
        if mat.ndim != 2:
            raise ValueError(f"covariance must be 2-d, got shape {mat.shape}")
        object.__setattr__(self, "sigma", mat)
        object.__setattr__(self, "_sqrt", np.asfortranarray(psd_sqrt(mat)))

    def _check_dim(self, problem: Problem) -> None:
        if self.sigma.shape[0] != problem.dim:
            raise ValueError("covariance dimension does not match the problem")

    def matrix(self, problem: Problem, theta=None) -> np.ndarray:
        self._check_dim(problem)
        return self.sigma

    def diagonal(self, problem: Problem, theta=None) -> np.ndarray:
        self._check_dim(problem)
        return self.sigma.diagonal()  # a read-only view

    def sqrt(self, problem: Problem, theta=None) -> np.ndarray:
        self._check_dim(problem)
        return self._sqrt


@dataclass(frozen=True)
class EmpiricalCovariance(CovarianceSpec):
    """Covariance of the per-datum gradients around the full gradient.

    Sigma(theta) = (1/n) C C', where C, shape (..., d, n), holds the centred
    per-datum gradients grad f_i - grad f as columns. ``matrix`` returns
    Sigma, one batched matmul; ``diagonal`` is a read-only view of Sigma's
    diagonal. ``sqrt`` is the Cholesky factor of ``matrix``. Only defined
    for finite-sum problems.

    Sigma is kept in a one-entry memo, so that a drift's ``diagonal`` and a
    diffusion's ``matrix`` at the same state share one build. Its key is the
    problem itself (held, and compared with ``is``) and theta's shape, dtype
    and exact bytes: an array changed in place since the last call misses,
    so the memo is never stale. Sigma is read-only and fresh on every miss,
    so no array the memo has returned is rewritten later. The memo is not
    locked; use one instance from one thread at a time. It takes no part in
    equality, hashing or repr.

    The uncentred moment form (1/n) sum_i g_i g_i' - grad f grad f' is
    cheaper but not used: when the mean gradient dominates the noise it
    cancels catastrophically, down to a matrix that is not PSD.
    """

    _memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def matrix(self, problem: Problem, theta) -> np.ndarray:
        """Sigma = C C' / n at theta, from the memo or built.

        C, shape (..., d, n), is the transpose of ``per_datum_gradients``
        minus ``problem.full_gradient``, which is their row mean by the
        ``Problem`` contract; for ``LeastSquaresProblem`` its residual memo
        makes that one (..., n) x (n, d) product, with the residuals shared
        by both. C is contiguous for ``LeastSquaresProblem``; any other
        layout gives the same Sigma, only slower. C lives only for the
        build: nothing reads it but the product that forms Sigma.
        """
        theta = np.asarray(theta)
        key = _state_key(theta)
        if self._memo and self._memo[0] is problem and self._memo[1] == key:
            return self._memo[2]
        self._memo.clear()  # a build that fails leaves no stale Sigma behind
        c = np.swapaxes(problem.per_datum_gradients(theta), -1, -2)
        c -= problem.full_gradient(theta)[..., None]
        sigma = c @ np.swapaxes(c, -1, -2)
        sigma /= c.shape[-1]
        sigma.flags.writeable = False
        self._memo[:] = (problem, key, sigma)
        return sigma

    def diagonal(self, problem: Problem, theta) -> np.ndarray:
        return np.diagonal(self.matrix(problem, theta), axis1=-2, axis2=-1)
