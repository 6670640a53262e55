"""Linear-algebra substrate.

A matrix is a plain ``numpy.ndarray`` (row-major) or, for the sparse
graph chains, a ``scipy.sparse`` array in CSR form; the package's products
are all ``@``, which both forms serve.  The helpers here add the validation
and the spectral utilities the rest of the package builds on: the matrix
exponential and eigenvalues, which are dense solves and expand a sparse
input first.  The exponential is a Taylor series in numpy alone;
``scipy.linalg`` is imported only by the eigenvalue paths that need it.
``scipy.sparse`` is never imported here: an input can only be sparse once
a caller has imported it, so dense-only runs do without it.
"""

import math
import sys
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


def issparse(m):
    """Whether m is a scipy.sparse array or matrix, without importing
    scipy.sparse."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(m)


def dense(m):
    """m as an ndarray: a sparse input is expanded, anything else goes
    through np.asarray."""
    return m.toarray() if issparse(m) else np.asarray(m)


def as_matrix(m, square=False):
    """Validate and return ``m`` as a 2-d float ndarray, or as a float CSR
    array when ``m`` is sparse (no dense copy is made).

    Raises ValueError on non-finite entries, wrong rank, or (with
    ``square=True``) non-square shape.
    """
    sparse = issparse(m)
    a = m.tocsr().astype(float, copy=False) if sparse else np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.data if sparse else a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_vector(v, length=None):
    """Validate and return ``v`` as a 1-d float ndarray; a sparse input (a
    row or column cut from a sparse matrix) is expanded."""
    a = np.asarray(dense(v), dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"expected length {length}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains non-finite entries")
    return a


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
    eigenvectors, is the triple (values, left, right) in the solve's own
    order: the values and the left and right eigenvector columns that
    belong to them.  kernels.reduced_spectrum pairs the values of M11^T
    with the eigenvectors of the half-size S E instead (see there).
    """

    eigenvalues: np.ndarray
    modes: tuple = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=complex)
        order = np.lexsort((lam.imag, lam.real))
        object.__setattr__(self, "eigenvalues", lam[order])

    def __len__(self):
        return len(self.eigenvalues)


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
    m = dense(as_matrix(m, square=True))
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
    reduction, ``scipy.linalg.eigvalsh``, or ``scipy.linalg.eigh`` with
    vectors, whose one set of eigenvectors is both left and right) and
    gets real eigenvalues; any other input takes the dense nonsymmetric
    path (Hessenberg reduction and shifted QR, ``np.linalg.eigvals``, or
    ``scipy.linalg.eig`` with left and right eigenvectors).  Only the
    nonsymmetric values-only path, the wave model's, goes without SciPy;
    the others import ``scipy.linalg`` on first use.  A sparse input is
    expanded first.  Non-convergence propagates as LinAlgError.
    """
    m = dense(as_matrix(m, square=True))
    symmetric = np.array_equal(m, m.T)
    if not (symmetric or vectors):
        return Spectrum(np.linalg.eigvals(m))
    import scipy.linalg    # here, not at the top: the wave model's runs do without it
    if not vectors:
        return Spectrum(scipy.linalg.eigvalsh(m))
    # eigh gives (values, vectors), eig (values, left, right)
    lam, *vecs = scipy.linalg.eigh(m) if symmetric else scipy.linalg.eig(m, left=True)
    return Spectrum(lam, modes=(lam, vecs[0], vecs[-1]))

