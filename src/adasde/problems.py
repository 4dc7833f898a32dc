"""Closed-form loss landscapes with exact gradients and exact noise covariance.

Every problem is immutable: it keeps read-only copies of the arrays it is
given, and anything it derives from them is computed once, at construction,
and kept read-only too, so a caller that edits its own array later changes
nothing here. Problems and covariances that hold arrays compare and hash by
identity, the rule ``EmpiricalCovariance``'s memo keys on. All operations
accept parameter arrays of shape (..., d), broadcasting over leading axes so
that whole ensembles can be evaluated in one call.

A finite-sum problem gives ``EmpiricalCovariance`` its noise covariance
Sigma(theta), the covariance of the per-datum gradients, through
``Problem.gradient_covariance``; ``per_datum_gradients`` is the reference
definition it is checked against. Least squares evaluates Sigma as a
quadratic form in theta - theta_LS with coefficients fixed at construction,
so a state costs the same whatever the number of data points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _upper_triangle(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of a dim x dim upper triangle, row by row, and its fill.

    ``fill`` has dim * dim entries: entry a dim + b is the position of (a, b)
    or (b, a) in the triangle, so ``upper[..., fill]`` is the full matrix,
    exactly symmetric.
    """
    rows, cols = np.triu_indices(dim)
    fill = np.empty((dim, dim), dtype=np.intp)
    fill[rows, cols] = fill[cols, rows] = np.arange(rows.size)
    for a in (rows, cols, fill):
        a.flags.writeable = False
    return rows, cols, fill.ravel()


def _frozen(a) -> np.ndarray:
    """A read-only float copy of ``a``, in ``a``'s memory layout."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class Problem:
    """A differentiable loss with closed-form value and gradient.

    A finite-sum problem f = (1/n) sum_i f_i also defines the two methods
    below; any other problem rejects them with a ValueError.
    """

    dim: int

    def loss(self, theta) -> np.ndarray:
        raise NotImplementedError

    def full_gradient(self, theta) -> np.ndarray:
        raise NotImplementedError

    def per_datum_gradients(self, theta) -> np.ndarray:
        """Per-datum gradients, shape (..., n, d): row i is grad f_i(theta).

        The reference definition: a fresh array, in any memory layout, whose
        row mean is ``full_gradient`` up to rounding.
        """
        raise ValueError(f"{type(self).__name__} is not a finite-sum problem")

    def gradient_covariance(self, theta) -> np.ndarray:
        """Sigma(theta), shape (..., d, d): the covariance of the per-datum gradients.

        (1/n) sum_i c_i c_i' with c_i = grad f_i(theta) - grad f(theta), up to
        rounding; a fresh array, exactly symmetric. ``EmpiricalCovariance``
        reads its noise covariance from here.
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
        # a fresh C-contiguous (..., d); tile copies rows faster than a (d,) broadcast
        return np.tile(self.g_bar, theta.shape[:-1] + (1,))


@dataclass(frozen=True, eq=False)
class QuadraticProblem(Problem):
    """f(theta) = 0.5 theta' A theta - b' theta with symmetric PSD A.

    ``b`` is optional: left out, it stays None and the problem has no linear
    term, so ``loss`` and ``full_gradient`` skip it. Their values are those
    of b = 0 bit for bit (x - 0.0 is x), without the broadcast of a (d,)
    zero over every leading index. With ``b``, ``full_gradient`` subtracts
    it tiled to theta's shape: on ensembles of thousands of rows that
    same-shape subtraction is faster than broadcasting the (d,) vector.
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
            grad -= np.tile(self.b, theta.shape[:-1] + (1,))
        return grad


@dataclass(frozen=True, eq=False)
class LeastSquaresProblem(Problem):
    """Averaged finite-sum least squares.

    f_i(theta) = 0.5 (x_i' theta - y_i)^2 and f = (1/n) sum_i f_i, so the
    full gradient is the mean of the per-datum gradients. ``data`` and
    ``targets`` are read-only copies of the caller's arrays and must be
    finite. ``_data_t`` is the data's transpose, C-contiguous and
    read-only; ``per_datum_gradients`` and ``MinibatchOracle`` read it in
    that (d, n) layout.

    Each gradient is affine in theta: grad f_i = x_i x_i' theta - y_i x_i,
    so grad f = P theta - q with P = X'X / n and q = X'y / n, one small
    matmul per state. The centred gradient is affine too. Written about
    theta_LS, the least-squares solution (``lstsq``'s minimum-norm one if X
    is rank-deficient), it is c_i = A_i delta + r_i, with delta =
    theta - theta_LS, A_i = x_i x_i' - P, and r_i the centred gradient at
    theta_LS. So Sigma = (1/n) sum_i c_i c_i' is a quadratic form in
    delta~ = [delta, 1]: its upper triangle is vech(delta~ delta~') @ W,
    where vech lists a matrix's upper triangle row by row. Construction
    computes W once, shape ((d+1)(d+2)/2, d(d+1)/2), and
    ``gradient_covariance`` is then one small GEMM per state, whatever n.
    W holds O(d^4) doubles: 150 at d = 4, about 4.5 million at d = 64.

    The expansion is about theta_LS, not 0. W's last row, the constant
    term, is then Sigma(theta_LS), the noise at the optimum, which
    noise-free data make zero up to rounding. Near the optimum every term
    is as small as Sigma itself, so no large terms cancel; about 0, terms
    of order |theta_LS|^2 would cancel down to a small Sigma. P, q,
    theta_LS and W are kept read-only, and no derived array takes part in
    equality or repr.
    """

    data: np.ndarray
    targets: np.ndarray
    _data_t: np.ndarray = field(init=False, repr=False, compare=False)
    _p_bar: np.ndarray = field(init=False, repr=False, compare=False)
    _q_bar: np.ndarray = field(init=False, repr=False, compare=False)
    _theta_ls: np.ndarray = field(init=False, repr=False, compare=False)
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = _frozen(self.data)
        y = _frozen(self.targets)
        if x.ndim != 2:
            raise ValueError("data must be an n x d matrix")
        if y.shape != (x.shape[0],):
            raise ValueError("targets must be an n-vector matching data rows")
        if x.shape[0] < 2:
            raise ValueError("finite-sum problem needs at least 2 data points")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("data and targets must be finite")
        n, d = x.shape
        data_t = np.ascontiguousarray(x.T)
        # b[j, a, i] = entry a of c_i's coefficient on delta~_j:
        # A_i's column j for j < d, and r_i for j = d
        b = np.empty((d + 1, d, n))
        coef = np.multiply(data_t[:, None, :], data_t, out=b[:d])  # [j, a, i] = x_ij x_ia
        p_bar = coef.mean(axis=-1)
        coef -= p_bar[..., None]
        q_bar = (y * data_t).mean(axis=-1)
        theta_ls = np.linalg.lstsq(x, y, rcond=None)[0]
        np.multiply(x @ theta_ls - y, data_t, out=b[d])
        b[d] -= b[d].mean(axis=-1, keepdims=True)
        # g[j, a, k, c] = (1/n) sum_i b[j, a, i] b[k, c, i], so that
        # Sigma_ac = sum_jk delta~_j delta~_k g[j, a, k, c]
        flat = b.reshape((d + 1) * d, n)
        g = (flat @ flat.T / n).reshape(d + 1, d, d + 1, d)
        rows, cols, _ = _upper_triangle(d + 1)
        j, k = rows[:, None], cols[:, None]
        a, c, _ = _upper_triangle(d)
        # delta~_j delta~_k with j < k stands for both (j, k) and (k, j)
        w = g[j, a, k, c] + np.where(j < k, g[k, a, j, c], 0.0)
        derived = dict(
            data=x, targets=y, _data_t=data_t, _p_bar=p_bar, _q_bar=q_bar,
            _theta_ls=theta_ls, _w=w,
        )
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_points(self) -> int:
        return self.data.shape[0]

    def loss(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        r = theta @ self.data.T
        r -= self.targets
        # squared in place: a second (..., n) temporary per call makes the
        # allocator hand back and re-fault its pages at large ensembles
        np.multiply(r, r, out=r)
        return 0.5 * np.mean(r, axis=-1)

    def full_gradient(self, theta) -> np.ndarray:
        theta = _check_theta(theta, self.dim)
        grad = theta @ self._p_bar
        grad -= self._q_bar
        return grad

    def per_datum_gradients(self, theta) -> np.ndarray:
        """Shape (..., n, d), a view of fresh C-contiguous (..., d, n) memory."""
        theta = _check_theta(theta, self.dim)
        r = theta @ self.data.T
        r -= self.targets
        return np.swapaxes(r[..., None, :] * self._data_t, -1, -2)

    def gradient_covariance(self, theta) -> np.ndarray:
        """Sigma's upper triangle vech(delta~ delta~') @ W, filled out to (..., d, d)."""
        theta = _check_theta(theta, self.dim)
        d = self.dim
        lead = theta.shape[:-1]
        delta = np.empty(lead + (d + 1,))
        np.subtract(theta, self._theta_ls, out=delta[..., :d])
        delta[..., d] = 1.0
        rows, cols, _ = _upper_triangle(d + 1)
        fill = _upper_triangle(d)[2]
        z = delta[..., rows]
        z *= delta[..., cols]
        upper = z.reshape(-1, rows.size) @ self._w
        return upper[:, fill].reshape(lead + (d, d))


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
        if not self.value >= 0:
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

    Sigma(theta) = (1/n) sum_i c_i c_i', with c_i = grad f_i - grad f the
    centred per-datum gradients, as the problem's ``gradient_covariance``
    returns it; least squares evaluates it as a quadratic form about its
    solution, at a cost free of n. ``matrix`` returns Sigma; ``diagonal`` is
    a read-only view of Sigma's diagonal. ``sqrt`` is the Cholesky factor of
    ``matrix``. Only defined for finite-sum problems.

    Sigma is kept in a one-entry memo, so that a drift's ``diagonal`` and a
    diffusion's ``matrix`` at the same state share one build. Its key is the
    problem itself (held, and compared with ``is``) and theta's shape, dtype
    and exact bytes: an array changed in place since the last call misses,
    so the memo is never stale. Sigma is read-only and fresh on every miss,
    so no array the memo has returned is rewritten later. The memo is not
    locked; use one instance from one thread at a time. It takes no part in
    equality, hashing or repr.

    No ``gradient_covariance`` may use the uncentred moment form
    (1/n) sum_i g_i g_i' - grad f grad f': when the mean gradient dominates
    the noise it cancels catastrophically, down to a matrix that is not PSD.
    Least squares' quadratic form avoids it twice over: its coefficients
    come from gradients centred before any product, and it is expanded about
    theta_LS, where the mean gradient is zero.
    """

    _memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def matrix(self, problem: Problem, theta) -> np.ndarray:
        """Sigma at theta, from the memo or ``problem.gradient_covariance``."""
        theta = np.asarray(theta)
        key = theta.shape, theta.dtype, theta.tobytes()
        if self._memo and self._memo[0] is problem and self._memo[1] == key:
            return self._memo[2]
        self._memo.clear()  # a build that fails leaves no stale Sigma behind
        sigma = problem.gradient_covariance(theta)
        sigma.flags.writeable = False
        self._memo[:] = (problem, key, sigma)
        return sigma

    def diagonal(self, problem: Problem, theta) -> np.ndarray:
        return np.diagonal(self.matrix(problem, theta), axis1=-2, axis2=-1)
