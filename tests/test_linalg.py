"""Unit tests for the shared linear-algebra layer."""

import numpy as np
import pytest
import scipy.linalg

from mzgle.linalg import Spectrum, eigenvalues, expm_dense


def rng():
    return np.random.Generator(np.random.PCG64(1234))


def test_expm_dense_against_eigendecomposition():
    g = rng()
    sym = g.normal(size=(6, 6))
    sym = 0.5 * (sym + sym.T)
    lam, vecs = np.linalg.eigh(sym)
    v = g.normal(size=6)
    t = 0.7
    expected = vecs @ (np.exp(t * lam) * (vecs.T @ v))
    got = expm_dense(sym, t) @ v
    assert np.max(np.abs(got - expected)) < 1e-10


def test_expm_dense_inverse_pair():
    g = rng()
    m = g.normal(size=(4, 4))
    prod = expm_dense(m, 0.9) @ expm_dense(m, -0.9)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_expm_overflow_raises():
    with pytest.raises(OverflowError):
        expm_dense(np.eye(2) * 1000.0, 1000.0)


def test_eigenvalues_rotation_pair():
    spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    lam = spec.eigenvalues
    assert np.allclose(lam, [-1j, 1j], atol=1e-14)


def test_eigenvalues_symmetric_input_takes_symmetric_solve():
    m = rng().normal(size=(7, 7))
    m = m + m.T
    lam = eigenvalues(m).eigenvalues
    assert np.all(lam.imag == 0.0)
    assert np.array_equal(lam.real, scipy.linalg.eigvalsh(m))


def test_spectrum_sorted_deterministically():
    a = Spectrum(np.array([1 + 1j, -2.0, 1 - 1j]))
    b = Spectrum(np.array([1 - 1j, 1 + 1j, -2.0]))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert a.eigenvalues[0] == -2.0

