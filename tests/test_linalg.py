"""Unit tests for the shared linear-algebra layer."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mzgle.linalg import (SparseMatrix, Spectrum, arnoldi, as_matrix, as_vector,
                          dense, eigenvalues, expm_dense, sparse)
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
    assert np.array_equal(lam.real, np.linalg.eigvalsh(m))


def test_eigenvalues_nonsymmetric_left_vectors_are_biorthonormal():
    # the modes hold the right eigenvectors R only; the left ones that a
    # caller forms from them, inv(R)^H, must be left eigenvectors with
    # l_j^H r_k = delta_jk
    m = rng().normal(size=(7, 7))
    lam, right = eigenvalues(m, vectors=True).modes
    assert np.max(np.abs(m @ right - right * lam)) < 1e-13
    lh = np.linalg.inv(right)
    assert np.max(np.abs(lh @ m - lam[:, None] * lh)) < 1e-13
    assert np.max(np.abs(lh @ right - np.eye(7))) < 1e-13
    # a defective matrix, whose right eigenvectors are exactly singular,
    # returns its values and vectors without forming an inverse
    jordan = np.diag([1.0, 1.0], 1)
    lam, right = eigenvalues(jordan, vectors=True).modes
    assert np.array_equal(lam, np.zeros(3))
    assert np.max(np.abs(jordan @ right - right * lam)) < 1e-13


def test_spectrum_sorted_deterministically():
    a = Spectrum(np.array([1 + 1j, -2.0, 1 - 1j]))
    b = Spectrum(np.array([1 - 1j, 1 + 1j, -2.0]))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert a.eigenvalues[0] == -2.0



def random_sparse(g, shape, density=0.3):
    """A dense reference with about `density` nonzeros and its SparseMatrix
    from unsorted triplets that split every entry in two."""
    ref = np.where(g.random(shape) < density, g.normal(size=shape), 0.0)
    rows, cols = np.nonzero(ref)
    half = 0.5 * ref[rows, cols]
    order = g.permutation(2 * rows.size)
    triplets = (np.r_[rows, rows][order], np.r_[cols, cols][order],
                np.r_[half, ref[rows, cols] - half][order])
    return ref, SparseMatrix(shape, *triplets)


def test_sparse_triplets_are_canonical():
    # duplicates summed, cancelled and explicit zeros dropped, rows sorted
    # row-major: two constructions of one matrix hold equal arrays
    a = SparseMatrix((3, 4), [2, 0, 2, 1, 0, 1], [1, 3, 1, 0, 0, 2],
                     [1.0, 2.0, 3.0, 0.0, 5.0, 0.0])
    b = SparseMatrix((3, 4), [0, 2, 0, 1], [0, 1, 3, 2], [5.0, 4.0, 2.0, 7.0])
    b = SparseMatrix((3, 4), [*b.rows, 1], [*b.cols, 2], [*b.data, -7.0])
    for x in (a, b):
        assert x.nnz == 3
        assert np.array_equal(x.rows, [0, 0, 2])
        assert np.array_equal(x.cols, [0, 3, 1])
        assert np.array_equal(x.data, [5.0, 2.0, 4.0])
    ref, s = random_sparse(rng(), (7, 5))
    assert np.array_equal(dense(s), ref)
    assert np.array_equal(np.lexsort((s.cols, s.rows)), np.arange(s.nnz))


def test_sparse_input_conversions_agree():
    # a dense input stays an ndarray in as_matrix and a SparseMatrix stays
    # one; sparse() gives the same triplets from both, and so does the
    # SparseMatrix of a scipy.sparse matrix's COO triplets
    ref, s = random_sparse(rng(), (6, 6))
    assert isinstance(as_matrix(ref), np.ndarray)
    assert as_matrix(s) is s
    coo = scipy.sparse.csr_array(ref).tocoo()
    for t in (sparse(ref), sparse(s), SparseMatrix(coo.shape, coo.row, coo.col, coo.data)):
        assert np.array_equal(t.rows, s.rows) and np.array_equal(t.cols, s.cols)
        assert np.array_equal(t.data, s.data)


@pytest.mark.parametrize("kind", [float, complex])
def test_sparse_products_match_scipy(kind):
    g = rng()
    ref, s = random_sparse(g, (9, 6))
    ours = scipy.sparse.csr_array(ref)
    v, u = g.normal(size=6), g.normal(size=9)
    if kind is complex:
        v, u = v + 1j * g.normal(size=6), u + 1j * g.normal(size=9)
    # u^T s is taken as s.T @ u: the matrix is the left factor only
    right, left = s @ v, s.T @ u
    assert right.dtype == left.dtype == np.result_type(kind, float)
    assert np.allclose(right, ours @ v, rtol=1e-14, atol=1e-14)
    assert np.allclose(left, u @ ours, rtol=1e-14, atol=1e-14)
    assert np.allclose(right, ref @ v, rtol=1e-14, atol=1e-14)
    # a complex product is the two real products of its parts, bit for bit
    for part in (np.real, np.imag):
        assert np.array_equal(part(right), s @ part(v))
        assert np.array_equal(part(left), s.T @ part(u))
    with pytest.raises(ValueError, match="length 6"):
        s @ u
    with pytest.raises(TypeError):
        u @ s


def test_sparse_times_sparse_matches_dense():
    g = rng()
    ref_a, a = random_sparse(g, (8, 5))
    ref_b, b = random_sparse(g, (5, 7), density=0.5)
    prod = a @ b
    assert isinstance(prod, SparseMatrix) and prod.shape == (8, 7)
    assert np.allclose(dense(prod), ref_a @ ref_b, rtol=1e-14, atol=1e-14)
    assert np.allclose(dense(prod), (scipy.sparse.csr_array(ref_a)
                                     @ scipy.sparse.csr_array(ref_b)).toarray(),
                       rtol=1e-14, atol=1e-14)
    assert not np.any(prod.data == 0.0)
    with pytest.raises(ValueError, match="do not align"):
        a @ a


def test_sparse_transpose_and_submatrices():
    ref, s = random_sparse(rng(), (7, 6))
    assert np.array_equal(dense(s.T), ref.T)
    rows, cols = np.array([5, 0, 3]), np.array([4, 1])
    for key, want in (((np.ix_(rows, cols)), ref[np.ix_(rows, cols)]),
                      ((slice(2, None), slice(None, 3)), ref[2:, :3]),
                      ((slice(None), np.array([2, 0])), ref[:, [2, 0]]),
                      ((np.array([6, 1]), slice(1, 5)), ref[[6, 1], 1:5])):
        sub = s[key]
        assert isinstance(sub, SparseMatrix) and np.array_equal(dense(sub), want)
    # an integer on either axis gives a dense row, column or entry
    assert np.array_equal(s[3, cols], ref[3, cols])
    assert np.array_equal(s[rows, -1], ref[rows, -1])
    assert np.array_equal(s[2, :], ref[2])
    assert s[4, 2] == ref[4, 2] and isinstance(s[4, 2], float)
    with pytest.raises(IndexError, match="np.ix_"):
        s[rows, cols]
    with pytest.raises(IndexError, match="repeated"):
        s[np.ix_([1, 1], cols)]


@pytest.mark.parametrize("key", [
    (slice(None), slice(None)),
    (slice(2, None), slice(None, 3)),
    (slice(1, 7, 2), slice(None, None, 3)),
    (slice(4, 4), slice(None)),
    (slice(None), slice(3, 3)),
    np.ix_([0, 3, 6], [1, 2, 5]),
    np.ix_([2, 3, 4], [0, 1, 2, 3]),
    (np.array([1, 4, 5]), slice(1, None)),
    (3, slice(1, 5)),
    (slice(None), 4),
    (np.array([0, 2, 6]), 1),
    (6, 0),
    (slice(None, None, -2), slice(1, 5)),
    np.ix_([5, 0, 3], [4, 1, 2]),
], ids=["all", "blocks", "steps", "no-rows", "no-cols", "sorted-arrays",
        "contiguous-arrays", "array-slice", "int-slice", "slice-int", "array-int",
        "int-int", "reversed-slice", "unsorted-arrays"])
def test_submatrices_are_canonical_at_every_index_kind(key):
    # picks that keep the triplets' order (integers, slices of positive
    # step, strictly increasing arrays) take the kept triplets as they
    # stand; they must hold the arrays that re-canonicalising them gives
    ref, s = random_sparse(rng(), (7, 6), density=0.4)
    sub = s._submatrix(*(np.arange(n)[k].ravel() for n, k in zip(s.shape, key)))
    again = SparseMatrix(sub.shape, sub.rows, sub.cols, sub.data)
    for x, y in ((sub.rows, again.rows), (sub.cols, again.cols), (sub.data, again.data)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    got = s[key]
    assert np.array_equal(dense(got) if isinstance(got, SparseMatrix) else got, ref[key])


def test_sparse_diagonal_row_sums_and_extremes():
    ref, s = random_sparse(rng(), (6, 4))
    assert np.array_equal(s.diagonal(), np.diagonal(ref))
    assert np.allclose(s.sum(axis=1), ref.sum(axis=1), rtol=1e-15, atol=1e-15)
    assert np.array_equal(dense(abs(s)), np.abs(ref))
    assert s.max() == ref.max() and s.min() == ref.min()
    # the implicit zeros count: all-negative and all-positive stored entries
    neg = SparseMatrix((2, 2), [0, 1], [1, 0], [-3.0, -1.0])
    assert neg.max() == 0.0 and neg.min() == -3.0
    pos = SparseMatrix((2, 2), [0, 1], [1, 0], [3.0, 1.0])
    assert pos.max() == 3.0 and pos.min() == 0.0
    full = SparseMatrix((1, 2), [0, 0], [0, 1], [-2.0, -1.0])
    assert full.max() == -1.0 and full.min() == -2.0
    empty = SparseMatrix((3, 3), [], [], [])
    assert empty.max() == empty.min() == 0.0 and empty.nnz == 0
    assert np.array_equal(empty @ np.ones(3), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparse_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix((2, 2), [0, 1], [1, 0], [1.0, bad])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix(np.array([[0.0, bad], [1.0, 0.0]]))


def test_sparse_rejects_out_of_range_triplets():
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix((2, 2), [0, 2], [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix((2, 2), [0, 1], [-1, 0], [1.0, 1.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_vector(np.ones((2, 2))), ValueError, r"1-d vector, got shape \(2, 2\)"),
    (lambda: as_vector(np.ones(3), length=2), ValueError, "expected length 2, got 3"),
    (lambda: as_vector([1.0, np.nan]), ValueError, "vector contains non-finite"),
    (lambda: as_matrix(np.ones((2, 2, 2))), ValueError, r"2-d matrix, got shape \(2, 2, 2\)"),
    (lambda: sparse(np.ones((2, 2, 2))), ValueError, r"2-d matrix, got shape \(2, 2, 2\)"),
    (lambda: SparseMatrix((2, 2, 2), [0], [0], [1.0]), ValueError,
     r"2-d matrix, got shape \(2, 2, 2\)"),
    (lambda: SparseMatrix((2, 2), [0, 1], [0], [1.0, 1.0]), ValueError,
     "rows, cols and data must have one length"),
    (lambda: SparseMatrix((2, 2), [0], [1], [1.0])[0], IndexError, "index both axes"),
    (lambda: SparseMatrix((2, 2), [0], [1], [1.0]).sum(axis=0), ValueError,
     r"only row sums \(axis=1\)"),
], ids=["vector-2d", "vector-length", "vector-non-finite", "matrix-3d", "sparse-3d",
        "sparse-shape", "triplet-lengths", "one-index", "column-sums"])
def test_malformed_inputs_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_as_matrix_rejects_non_square():
    for m in (np.ones((2, 3)), SparseMatrix((2, 3), [0], [1], [1.0])):
        with pytest.raises(ValueError, match="square"):
            as_matrix(m)


def nonsymmetric(kind, n=40):
    """A nonsymmetric n x n matrix, dense or as a SparseMatrix."""
    g = rng()
    m = g.normal(size=(n, n)) * (g.random((n, n)) < 0.15) + np.diag(np.arange(n))
    assert not np.array_equal(m, m.T)
    return m if kind == "dense" else sparse(m)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("stop", [None, 12], ids=["whole-space", "converged"])
def test_arnoldi_basis_and_hessenberg(kind, stop):
    m = nonsymmetric(kind)
    n = m.shape[0]
    converged = None if stop is None else (lambda h, beta: h.shape[0] == stop)
    v, h = arnoldi(m, rng().normal(size=n), n, converged)
    k = n if stop is None else stop
    assert v.shape == (k, n) and h.shape == (k, k)
    norm = np.linalg.norm(dense(m), 2)
    assert np.linalg.norm(v @ v.T - np.eye(k), 2) <= 1e-14
    vmv = np.array([v @ (m @ row) for row in v]).T
    assert np.linalg.norm(vmv - h, 2) <= 1e-13 * norm
    assert np.all(np.tril(h, -2) == 0.0)


def test_arnoldi_gives_up_at_max_dim():
    for kind in ("dense", "sparse"):
        m = nonsymmetric(kind)
        assert arnoldi(m, rng().normal(size=m.shape[0]), 10) is None
        # a converged test that never holds changes nothing
        assert arnoldi(m, rng().normal(size=m.shape[0]), 10, lambda h, b: False) is None
    assert arnoldi(np.zeros((0, 0)), np.zeros(0), 10) is None


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_arnoldi_raises_when_a_norm_overflows(kind):
    # |m v| near 1e160 squares past the largest double: an infinite scale
    # would close the run at its first vector, so it must raise (without
    # a RuntimeWarning, which tier-1 turns into an error)
    m = 1e160 * dense(nonsymmetric("dense"))
    with pytest.raises(OverflowError, match="norm overflowed"):
        arnoldi(m if kind == "dense" else sparse(m), rng().normal(size=m.shape[0]), 10)
    with pytest.raises(OverflowError, match="norm overflowed"):
        arnoldi(np.eye(3), np.full(3, 1e160), 3)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_arnoldi_closes_on_an_invariant_block(kind):
    # a start in the first block of a block-diagonal matrix spans that
    # block's 6 dimensions and nothing outside it
    block = dense(nonsymmetric("dense", 6))
    m = scipy.linalg.block_diag(block, dense(nonsymmetric("dense", 14)))
    start = np.r_[rng().normal(size=6), np.zeros(14)]
    v, h = arnoldi(m if kind == "dense" else sparse(m), start, 20)
    assert v.shape == (6, 20) and np.all(v[:, 6:] == 0.0)
    assert np.linalg.norm(v[:, :6] @ block @ v[:, :6].T - h) <= 1e-13 * np.linalg.norm(block)


def test_arnoldi_memory_grows_with_the_steps_taken():
    # a run that closes after 10 steps, with max_dim = n = 4000, holds a
    # basis of 16 rows (it starts there and doubles): far below one
    # max_dim x max_dim Hessenberg matrix or basis (128 MB each)
    n, k = 4000, 10
    g = rng()
    block = g.normal(size=(k, k))
    rows, cols = np.divmod(np.arange(k * k), k)
    m = SparseMatrix((n, n), np.r_[rows, np.arange(k, n)], np.r_[cols, np.arange(k, n)],
                     np.r_[block.ravel(), np.ones(n - k)])
    start = np.zeros(n)
    start[:k] = g.normal(size=k)
    tracemalloc.start()
    try:
        v, h = arnoldi(m, start, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.shape == (k, n) and h.shape == (k, k)
    assert peak <= 32 * n * 8
