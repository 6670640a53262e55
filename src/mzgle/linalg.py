"""Dense linear-algebra substrate.

Real dense matrices are plain ``numpy.ndarray`` objects (row-major).  The
helpers here add the validation and the spectral utilities the rest of the
package builds on: the dense matrix exponential and eigenvalues.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

GRID_ROUNDING_TOL = 1e-9
# Float64 values per block of the loops whose full size grows with a
# config value (Monte Carlo samples, Faber mode-table times): 2 MB, so
# their memory does not grow with n_samples or the number of steps
BLOCK_CELLS = 2 ** 18


def as_matrix(m, square=False):
    """Validate and return ``m`` as a 2-d float array.

    Raises ValueError on non-finite entries, wrong rank, or (with
    ``square=True``) non-square shape.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_vector(v, length=None):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"expected length {length}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains non-finite entries")
    return a


def uniform_step(t):
    """Step of a grid of at least two points; ValueError unless every step
    matches it within GRID_ROUNDING_TOL relative."""
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > GRID_ROUNDING_TOL * max(1.0, abs(dt)):
        raise ValueError("grid must be uniform")
    return dt


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real square matrix, multiplicity counted.

    Values are sorted by (real part, imag part) ascending so equal inputs
    produce identical spectra.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=complex)
        order = np.lexsort((lam.imag, lam.real))
        object.__setattr__(self, "eigenvalues", lam[order])

    def __len__(self):
        return len(self.eigenvalues)


def expm_dense(m, t):
    """Full matrix exponential ``e^{t m}`` (scaling and squaring with a Pade
    core).  Overflow (extreme ``t * norm(m)``) raises OverflowError instead
    of returning inf."""
    m = as_matrix(m, square=True)
    out = scipy.linalg.expm(t * m)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"matrix exponential overflowed for t={t}")
    return out


def eigenvalues(m):
    """All eigenvalues of a real square matrix as a Spectrum.

    An exactly symmetric input takes the symmetric LAPACK path (tridiagonal
    reduction, ``scipy.linalg.eigvalsh``) and gets real eigenvalues; any
    other input takes the dense nonsymmetric path (Hessenberg reduction and
    shifted QR, ``np.linalg.eigvals``).  Non-convergence propagates as
    LinAlgError.
    """
    m = as_matrix(m, square=True)
    if np.array_equal(m, m.T):
        return Spectrum(scipy.linalg.eigvalsh(m))
    return Spectrum(np.linalg.eigvals(m))

