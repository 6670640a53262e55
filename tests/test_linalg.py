"""Unit tests for the shared linear-algebra layer."""

import numpy as np
import pytest
import scipy.linalg

from mzgle.linalg import Spectrum, eigenvalues, expm_dense
from mzgle.models import WaveModelSpec, build_wave_model


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


def jordan_block(n, lam):
    return np.diag(np.full(n, lam)) + np.diag(np.ones(n - 1), -1)


def negative_definite(n):
    q = rng().normal(size=(n, n))
    return -(q @ q.T) / n - np.eye(n)


@pytest.mark.parametrize("m, t", [
    # nonnormal: a Jordan block, at t ||m|| = 1.5 and 60
    (jordan_block(12, -0.5), 1.0),
    (jordan_block(12, -0.5), 40.0),
    # the wave model's A^T at the Monte Carlo oracle's step (t_final 5,
    # 201 points)
    (build_wave_model(WaveModelSpec(n_modes=25, n_random_modes=25)).system.A.T, 0.025),
    # t ||m||_1 = 637: nine squarings
    (negative_definite(8), 100.0),
], ids=["jordan", "jordan-long", "wave-oracle-step", "large-norm"])
def test_expm_dense_matches_scipy(m, t):
    ref = scipy.linalg.expm(t * m)
    err = np.linalg.norm(expm_dense(m, t) - ref, 1) / np.linalg.norm(ref, 1)
    assert err <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_dense_rejects_non_finite_t(bad):
    with pytest.raises(ValueError, match=f"t must be finite, got t = {bad}"):
        expm_dense(np.eye(3), bad)


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

