"""Linear-algebra substrate.

A matrix is a plain ``numpy.ndarray`` (row-major) or, for the sparse
graph chains, a SparseMatrix: canonical triplets that serve the ``@``
products, transposes, submatrices and reductions the package takes of
them.  The helpers here add the validation and the spectral utilities the
rest of the package builds on: the matrix exponential and eigenvalues,
which are dense solves and expand a sparse input first, and arnoldi, the
package's one Krylov loop, which takes a matrix only through ``m @ v``
and serves both the Lanczos extent in kernels and the oracles' Krylov
propagator.  Each object here is made one way and keeps no derived copy of
its data: a consumer derives what it needs where it uses it, as
kernels.lagrange_coeffs forms the left eigenvectors of a nonsymmetric
matrix from the right ones once it has checked that the eigenvalues are
distinct.  Everything here is numpy alone.
"""

import math
from dataclasses import dataclass

import numpy as np

GRID_ROUNDING_TOL = 1e-9
# Largest norm of one Taylor step of a matrix exponential
TAYLOR_STEP_NORM = 2.0
UNIT_ROUNDOFF = 2.0 ** -53
# Float64 values per block of the loops whose full size grows with a
# config value (Monte Carlo samples, Faber mode-table times): 2 MB, so
# their memory does not grow with n_samples or the number of steps
BLOCK_CELLS = 2 ** 18
# Arnoldi closes its Krylov space when the new residual is at most this
# times the largest |m v_j| so far: the space is then invariant to rounding
KRYLOV_CLOSE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Real sparse matrix as canonical (row, column, value) triplets.

    The triplets are sorted row-major, duplicates are summed and zeros
    dropped, so equal matrices hold equal arrays.  Entries must be finite
    (ValueError).  The constructor is the one way to make one: a
    transpose, product, submatrix or ``abs`` passes its triplets through
    it too, and no derived copy of the arrays is kept.  ``m @ x`` takes a
    float or complex vector x, each product one gather, one multiply and
    one np.add.at that adds every output's terms in the stored order (a
    row's in column order, as CSR does), or another SparseMatrix.  The
    matrix is the left factor only: m.T @ v gives v^T m, adding the same
    terms in the same order as a product on the right would.  Indexing
    takes an integer, a slice or an index array per axis, two arrays
    through ``np.ix_``; an integer on either axis gives a dense result.
    Numpy defers ``@`` to this class (``__array_ufunc__ = None``).
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    __array_ufunc__ = None

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {shape}")
        data = np.asarray(self.data, dtype=float).ravel()
        if not np.all(np.isfinite(data)):
            raise ValueError("matrix contains non-finite entries")
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        if not rows.size == cols.size == data.size:
            raise ValueError("rows, cols and data must have one length")
        if data.size and not (0 <= min(rows.min(), cols.min())
                              and rows.max() < shape[0] and cols.max() < shape[1]):
            raise ValueError(f"triplet index out of range for shape {shape}")
        key = rows * shape[1] + cols
        order = np.argsort(key, kind="stable")
        key, data = key[order], data[order]
        if key.size:
            first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, data = key[first], np.add.reduceat(data, first)
        keep = data != 0
        rows, cols = np.divmod(key[keep], max(shape[1], 1))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows.astype(np.intp))
        object.__setattr__(self, "cols", cols.astype(np.intp))
        object.__setattr__(self, "data", data[keep])

    @property
    def nnz(self):
        return self.data.size

    @property
    def T(self):
        return SparseMatrix(self.shape[::-1], self.cols, self.rows, self.data)

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return self._product(other)
        v = _operand(other, self.shape[1])
        return _sum_by(self.rows, self.data * v[self.cols], self.shape[0])

    def _product(self, other):
        """self @ other: every entry (i, k) of self meets row k of other."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not align")
        starts = np.searchsorted(other.rows, np.arange(other.shape[0] + 1))
        counts = (starts[1:] - starts[:-1])[self.cols]
        left = np.repeat(np.arange(self.nnz), counts)
        right = (np.repeat(starts[self.cols] - np.cumsum(counts) + counts, counts)
                 + np.arange(left.size))
        return SparseMatrix((self.shape[0], other.shape[1]), self.rows[left],
                            other.cols[right], self.data[left] * other.data[right])

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise IndexError("index both axes")
        if all(np.ndim(k) == 1 for k in key):
            raise IndexError("index both axes with arrays through np.ix_")
        picks = [np.arange(n)[k] for n, k in zip(self.shape, key)]
        sub = self._submatrix(*(p.ravel() for p in picks))
        if all(p.ndim for p in picks):
            return sub
        out = dense(sub).reshape([p.size for p in picks if p.ndim])
        return out if out.ndim else float(out)

    def _submatrix(self, row_picks, col_picks):
        """The submatrix at the row and column picks, each an array of
        distinct indices in the order they take; the kept triplets,
        renumbered, go through the constructor."""
        where = []
        for n, p in zip(self.shape, (row_picks, col_picks)):
            pos = np.full(n, -1)
            pos[p] = np.arange(p.size)
            if np.count_nonzero(pos >= 0) != p.size:
                raise IndexError("repeated indices are not supported")
            where.append(pos)
        rows, cols = where[0][self.rows], where[1][self.cols]
        keep = (rows >= 0) & (cols >= 0)
        return SparseMatrix((row_picks.size, col_picks.size), rows[keep], cols[keep],
                            self.data[keep])

    def diagonal(self):
        on = self.rows == self.cols
        out = np.zeros(min(self.shape))
        out[self.rows[on]] = self.data[on]
        return out

    def sum(self, axis):
        """Row sums (axis=1), as ndarray.sum gives them."""
        if axis != 1:
            raise ValueError("only row sums (axis=1) are supported")
        return _sum_by(self.rows, self.data, self.shape[0])

    def __abs__(self):
        return SparseMatrix(self.shape, self.rows, self.cols, np.abs(self.data))

    def max(self):
        """Largest entry, implicit zeros included."""
        full = self.nnz == self.shape[0] * self.shape[1]
        return self.data.max() if full else max(self.data.max(initial=0.0), 0.0)

    def min(self):
        """Least entry, implicit zeros included."""
        full = self.nnz == self.shape[0] * self.shape[1]
        return self.data.min() if full else min(self.data.min(initial=0.0), 0.0)


def _operand(v, length):
    """v as the 1-d ndarray operand of a product with a SparseMatrix."""
    v = np.asarray(v)
    if v.shape != (length,):
        raise ValueError(f"expected a vector of length {length}, got shape {v.shape}")
    return v


def _sum_by(index, terms, length):
    """Sums of terms grouped by index, each added in the terms' order."""
    out = np.zeros(length, dtype=terms.dtype)
    np.add.at(out, index, terms)
    return out


def is_symmetric(m):
    """Whether the square ndarray or SparseMatrix m equals its transpose
    exactly; a SparseMatrix compares its canonical triplets."""
    t = m.T
    if isinstance(m, SparseMatrix):
        return all(np.array_equal(x, y) for x, y in
                   ((m.rows, t.rows), (m.cols, t.cols), (m.data, t.data)))
    return np.array_equal(m, t)


def dense(m):
    """m as an ndarray: a SparseMatrix is expanded, anything else goes
    through np.asarray."""
    if not isinstance(m, SparseMatrix):
        return np.asarray(m)
    out = np.zeros(m.shape)
    out[m.rows, m.cols] = m.data
    return out


def sparse(m):
    """m, a SparseMatrix or an ndarray, as a SparseMatrix: an ndarray
    through its nonzero entries."""
    if isinstance(m, SparseMatrix):
        return m
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    rows, cols = np.nonzero(a)
    return SparseMatrix(a.shape, rows, cols, a[rows, cols])


def as_matrix(m):
    """Validate and return the square ``m``: a SparseMatrix as it is (no
    dense copy is made), an ndarray as a 2-d float ndarray.

    Raises ValueError on any other input, naming the two forms a matrix
    takes, and on non-finite entries, wrong rank or a non-square shape.
    """
    if isinstance(m, SparseMatrix):
        a = m
    elif isinstance(m, np.ndarray):
        a = np.asarray(m, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
    else:
        raise ValueError("expected a matrix as a numpy.ndarray or a "
                         f"linalg.SparseMatrix, got {type(m).__name__}")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_vector(v, length=None):
    """Validate and return ``v`` as a 1-d float ndarray."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"expected length {length}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains non-finite entries")
    return a


def _krylov_norm(v):
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(v)
    if not np.isfinite(norm):
        raise OverflowError("Krylov vector norm overflowed")
    return norm


def arnoldi(m, start, max_dim, converged=None):
    """Orthonormal rows V (k x n) of the Krylov space of the square m from
    start, and H = V m V^T (k x k, upper Hessenberg); None when max_dim
    vectors come before the run ends.

    Arnoldi through ``m @ v`` only, so a SparseMatrix stays sparse.  Each
    new vector is orthogonalised against the whole basis by classical
    Gram-Schmidt applied twice, so V stays orthonormal to rounding; on a
    symmetric m this is Lanczos with full reorthogonalisation, with no
    spurious copies of converged Ritz values (Saad, Numerical Methods for
    Large Eigenvalue Problems, SIAM 2011, ch. 6).  The run ends at the
    k-th vector when its residual beta closes, at most KRYLOV_CLOSE_TOL
    times the largest |m v_j| so far (the space is then invariant to
    rounding), when k = n, or when converged(H, beta) holds for the k x k
    H so far; otherwise the residual over beta is the next vector.  The
    caller's test sets what converged means: kernels stops on a Ritz
    residual bound, the oracles on Saad's estimate of the error of
    e^{tH} e_1 (an estimate, not a bound), each checked at the dimensions
    it chooses; with max_dim = n the run never returns None.  V and
    H double their rows together as they fill, so they hold fewer than
    twice the k rows used, not max_dim.  An empty start (n = 0) has no
    vector to start from and gives None; a norm that overflows raises
    OverflowError, since an infinite scale would close the run at once.
    """
    n = start.shape[0]
    if n == 0:
        return None
    rows = min(n, max_dim, 16)
    basis = np.empty((rows, n))
    hess = np.zeros((rows, rows))
    basis[0] = start / _krylov_norm(start)
    scale = 0.0
    for k in range(1, max_dim + 1):
        span = basis[:k]
        w = m @ basis[k - 1]
        scale = max(scale, _krylov_norm(w))
        h = span @ w
        w -= h @ span
        again = span @ w
        w -= again @ span
        hess[:k, k - 1] = h + again
        beta = _krylov_norm(w)
        if (beta <= KRYLOV_CLOSE_TOL * scale or k == n
                or converged is not None and converged(hess[:k, :k], beta)):
            return basis[:k], hess[:k, :k]
        if k == max_dim:
            break
        if k == rows:
            rows = min(2 * k, n, max_dim)
            basis = np.vstack((basis, np.empty((rows - k, n))))
            hess = np.pad(hess, (0, rows - k))
        basis[k] = w / beta
        hess[k, k - 1] = beta
    return None


def uniform_step(t):
    """Step of a grid, 0.0 for fewer than two points; ValueError unless
    every step matches it within GRID_ROUNDING_TOL relative."""
    if t.shape[0] < 2:
        return 0.0
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > GRID_ROUNDING_TOL * max(1.0, abs(dt)):
        raise ValueError("grid must be uniform")
    return dt


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real square matrix, multiplicity counted.

    Values are sorted by (real part, imag part) ascending so equal inputs
    produce identical spectra.  modes, when a solve was asked for
    eigenvectors, is the pair (values, vectors) in the solve's own order:
    the values and the right eigenvector columns that belong to them.
    kernels.reduced_spectrum pairs the values of M11^T with the
    eigenvectors of the half-size S E instead (see there).
    """

    eigenvalues: np.ndarray
    modes: tuple = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=complex)
        order = np.lexsort((lam.imag, lam.real))
        object.__setattr__(self, "eigenvalues", lam[order])


def taylor_terms(x):
    """Terms p of the Taylor series of e^X, ||X|| <= x, that leave a tail
    below the unit roundoff: the smallest p with x^(p+1) e^x / (p+1)! <=
    UNIT_ROUNDOFF (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011)."""
    terms, tail = 0, x
    while tail * math.exp(x) > UNIT_ROUNDOFF:
        terms += 1
        tail *= x / (terms + 1)
    return terms


def expm_dense(m, t):
    """Full matrix exponential ``e^{t m}``, dense for a sparse m too.

    A Taylor series with scaling and squaring: with x = |t| ||m||_1, t m
    is halved s times until x / 2^s <= TAYLOR_STEP_NORM, the series of
    e^{t m / 2^s} is summed by Horner to taylor_terms(x / 2^s) terms, and
    the sum is squared s times, each product through ``@``.  A non-finite
    t raises ValueError, and overflow (extreme ``t * norm(m)``) raises
    OverflowError instead of returning inf."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got t = {t}")
    m = dense(as_matrix(m))
    x = abs(t) * float(np.abs(m).sum(axis=0).max(initial=0.0))
    squarings = math.ceil(math.log2(x / TAYLOR_STEP_NORM)) if x > TAYLOR_STEP_NORM else 0
    step = math.ldexp(t, -squarings) * m
    eye = np.eye(m.shape[0])
    out = eye
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(taylor_terms(math.ldexp(x, -squarings)), 0, -1):
            out = step @ out
            out /= k
            out += eye
        for _ in range(squarings):
            out = out @ out
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed for t={t}")
    return out


def eigenvalues(m, vectors=False):
    """All eigenvalues of a real square matrix as a Spectrum, with its
    eigenvectors in Spectrum.modes when vectors=True.

    An exactly symmetric input takes the symmetric LAPACK path (tridiagonal
    reduction, ``np.linalg.eigvalsh``, or ``np.linalg.eigh`` with vectors,
    whose orthonormal eigenvectors are both left and right) and gets real
    eigenvalues; any other input takes the dense nonsymmetric path
    (Hessenberg reduction and shifted QR, ``np.linalg.eigvals``, or
    ``np.linalg.eig`` with vectors).  Either way modes holds the right
    eigenvectors R only: a caller that needs the left ones forms them, as
    the columns of inv(R)^H once it knows R is invertible.  A defective
    input returns too, with (numerically) dependent columns in R.  A
    sparse input is expanded first.  Non-convergence propagates as
    LinAlgError.
    """
    m = dense(as_matrix(m))
    symmetric = is_symmetric(m)
    if not vectors:
        return Spectrum(np.linalg.eigvalsh(m) if symmetric else np.linalg.eigvals(m))
    lam, vecs = np.linalg.eigh(m) if symmetric else np.linalg.eig(m)
    return Spectrum(lam, modes=(lam, vecs))
