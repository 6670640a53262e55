"""Tests for the benchmark model builders.

Independent references: hand-counted graphs, binomial statistics for the
random-graph builder, energy conservation along matrix-exponential flows,
and direct residual checks of the wave discretization.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mzgle.kernels import StatsKind, SystemSpec
from mzgle.linalg import (BLOCK_CELLS, SparseMatrix, dense, eigenvalues, expm_dense,
                          sparse)
from mzgle.models import (GraphSpec, WaveModelSpec, bethe_node_count,
                          build_bethe, build_chain_system, build_erdos_renyi,
                          build_path, build_wave_model)

# ------------------------------------------------------------------ graphs


def test_path_graph_structure():
    g = build_path(5)
    assert g.n_nodes == 5
    deg = dense(g.adjacency).sum(axis=1)
    assert np.array_equal(deg, [1, 2, 2, 2, 1])
    assert np.array_equal(g.degree, deg)
    a = dense(g.adjacency)
    assert np.array_equal(a, a.T)


def test_tree_node_count_closed_form():
    # N = 1 + sum_{k=1}^{S} l (l-1)^{k-1}: root plus child shells
    assert bethe_node_count(2, 1) == 3
    assert bethe_node_count(2, 4) == 9
    assert bethe_node_count(3, 1) == 4
    assert bethe_node_count(3, 2) == 10
    assert bethe_node_count(3, 8) == 766
    assert bethe_node_count(4, 3) == 53


@pytest.mark.parametrize("l,shells", [(2, 3), (3, 2), (3, 4), (4, 3)])
def test_tree_builder_matches_count_and_degrees(l, shells):
    g = build_bethe(l, shells)
    assert g.n_nodes == bethe_node_count(l, shells)
    deg = dense(g.adjacency).sum(axis=1)
    n_leaves = l * (l - 1) ** (shells - 1)
    assert np.sum(deg == 1) == n_leaves
    inner = deg[deg != 1]
    assert np.all(inner == l)
    # tree: exactly n-1 edges and connectivity via matrix powers
    assert dense(g.adjacency).sum() == 2 * (g.n_nodes - 1)
    reach = np.linalg.matrix_power(dense(g.adjacency) + np.eye(g.n_nodes),
                                   g.n_nodes - 1)
    assert np.all(reach > 0)


def test_tree_ten_node_example():
    g = build_bethe(3, 2)
    deg = dense(g.adjacency).sum(axis=1)
    assert g.n_nodes == 10
    assert np.sum(deg == 3) == 4   # root and its three children
    assert np.sum(deg == 1) == 6   # leaves


def test_l2_tree_is_a_path():
    g = build_bethe(2, 3)
    p = build_path(7)
    deg = np.sort(dense(g.adjacency).sum(axis=1))
    assert np.array_equal(deg, np.sort(dense(p.adjacency).sum(axis=1)))
    assert g.n_nodes == 7


def test_random_graph_extremes_and_seeding():
    none = build_erdos_renyi(12, 0.0, seed=0)
    assert dense(none.adjacency).sum() == 0
    full = build_erdos_renyi(12, 1.0, seed=0)
    assert dense(full.adjacency).sum() == 12 * 11
    a = build_erdos_renyi(40, 0.3, seed=123)
    b = build_erdos_renyi(40, 0.3, seed=123)
    c = build_erdos_renyi(40, 0.3, seed=124)
    assert np.array_equal(dense(a.adjacency), dense(b.adjacency))
    assert not np.array_equal(dense(a.adjacency), dense(c.adjacency))


def test_random_graph_row_blocks_match_one_draw():
    # at n = 700 the draw takes two row blocks of BLOCK_CELLS // n rows;
    # consecutive blocks consume PCG64 as one (n, n) draw does, so the
    # edges are those of the dense formula, seed for seed
    n, p = 700, 0.01
    assert n > BLOCK_CELLS // n
    for seed in (0, 5):
        u = np.random.Generator(np.random.PCG64(seed)).random((n, n))
        upper = np.triu(u < p, k=1).astype(float)
        graph = build_erdos_renyi(n, p, seed=seed)
        assert np.array_equal(dense(graph.adjacency), upper + upper.T)
        assert graph.adjacency.nnz == 2 * np.count_nonzero(upper)


@pytest.mark.parametrize("form", [np.asarray, sparse],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("entries, message", [
    ([[0, 1, 0], [0, 0, 1], [0, 1, 0]], "symmetric"),
    ([[1, 1, 0], [1, 0, 1], [0, 1, 0]], "zero diagonal"),
    ([[0, 2, 0], [2, 0, 1], [0, 1, 0]], "0 or 1"),
], ids=["asymmetric", "diagonal", "weighted"])
def test_graph_spec_rejects_malformed_adjacency(form, entries, message):
    with pytest.raises(ValueError, match=message):
        GraphSpec(form(np.array(entries, dtype=float)))


def test_graph_spec_stores_csr_without_explicit_zeros():
    # a stored 0, here on the diagonal, is no edge: nnz counts edges twice
    given = SparseMatrix((3, 3), [0, 1, 2], [1, 0, 2], [1.0, 1.0, 0.0])
    g = GraphSpec(given)
    assert isinstance(g.adjacency, SparseMatrix) and g.adjacency.nnz == 2
    assert np.array_equal(dense(g.adjacency), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(g.degree, [1.0, 1.0, 0.0])


def test_scipy_sparse_input_names_the_two_matrix_forms():
    # a matrix enters as an ndarray or a SparseMatrix; a scipy.sparse array
    # is neither and is refused, not converted
    adjacency = scipy.sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="ndarray or a linalg.SparseMatrix, got csr_array"):
        GraphSpec(adjacency)
    with pytest.raises(ValueError, match="ndarray or a linalg.SparseMatrix, got csr_array"):
        SystemSpec(A=adjacency, init_mean=np.zeros(2), stats_kind=StatsKind.CHORIN_INITIAL)


def test_random_graph_edge_count_statistics():
    n, p = 60, 0.2
    n_pairs = n * (n - 1) // 2
    edges = dense(build_erdos_renyi(n, p, seed=7).adjacency).sum() / 2
    sigma = np.sqrt(n_pairs * p * (1 - p))
    assert abs(edges - n_pairs * p) < 4 * sigma


# ------------------------------------------------------------------ chains


def test_single_interior_node_blocks():
    # clamping both ends of a 3-path leaves one oscillator with both
    # springs attached: momentum equation p' = -2 k q
    sys_ = build_chain_system(build_path(3), k=1.5, m=2.0, clamp=(1, 3))
    assert sys_.dim == 2
    assert np.allclose(dense(sys_.A), [[0.0, -3.0], [0.5, 0.0]])
    assert sys_.stats_kind is StatsKind.BERNE_EQUILIBRIUM_QUADRATIC
    assert np.array_equal(sys_.init_mean, np.zeros(2))


@pytest.mark.parametrize("graph, kw", [
    (build_path(9), {"k": 1.5, "m": 2.0, "clamp": (1, 9)}),
    (build_bethe(3, 3), {"k": 1.3, "m": 0.7, "l_norm": 3}),
    (build_erdos_renyi(40, 0.1, seed=2), {"k": 0.9}),
], ids=["clamped-path", "tree-l-norm", "erdos-renyi"])
def test_chain_system_matches_dense_formula(graph, kw):
    # A = [[0, k_eff (B - D)], [I/m, 0]] from dense B and D, bit for bit
    free = np.setdiff1d(np.arange(graph.n_nodes), [c - 1 for c in kw.get("clamp", ())])
    nf = free.size
    adjacency = dense(graph.adjacency)
    b = adjacency[np.ix_(free, free)]
    d = np.diag(adjacency.sum(axis=1))[np.ix_(free, free)]
    ref = np.zeros((2 * nf, 2 * nf))
    ref[:nf, nf:] = kw.get("k", 1.0) / kw.get("l_norm", 1) * (b - d)
    ref[nf:, :nf] = np.eye(nf) / kw.get("m", 1.0)
    assert np.array_equal(dense(build_chain_system(graph, **kw).A), ref)


def test_chain_system_peak_memory():
    # A is assembled sparse from O(nnz) temporaries, never an n x n one: at
    # 190 nodes (dim 380) A holds 758 entries, 15 kB as CSR, where one
    # dense A would take 1.2 MB
    graph = build_bethe(3, 6)
    tracemalloc.start()
    try:
        a = build_chain_system(graph).A
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ten times A's size in CSR form: values, column indices, row pointers
    assert peak <= 10 * (a.data.nbytes + a.cols.nbytes + 8 * (a.shape[0] + 1))


def test_interior_three_node_chain_blocks():
    sys_ = build_chain_system(build_path(5), clamp=(1, 5))
    n = 3
    a = dense(sys_.A)
    upper = a[:n, n:]
    lower = a[n:, :n]
    assert np.allclose(lower, np.eye(3))
    assert np.allclose(upper, [[-2.0, 1.0, 0.0],
                               [1.0, -2.0, 1.0],
                               [0.0, 1.0, -2.0]])


def test_normalized_coupling_divides_k():
    g = build_bethe(3, 2)
    plain = build_chain_system(g, k=1.0)
    scaled = build_chain_system(g, k=1.0, l_norm=3)
    n = g.n_nodes
    assert np.allclose(dense(scaled.A[:n, n:]), dense(plain.A[:n, n:]) / 3.0)


def test_chain_spectrum_imaginary_pairs():
    sys_ = build_chain_system(build_path(8), clamp=(1, 8))
    lam = eigenvalues(sys_.A).eigenvalues
    assert np.max(np.abs(lam.real)) < 1e-10
    pos = np.sort(lam.imag[lam.imag > 0])
    neg = np.sort(-lam.imag[lam.imag < 0])
    assert np.allclose(pos, neg, atol=1e-10)


def chain_energy(system, state):
    """Hamiltonian p.p/(2m) + (k_eff/2) q.(D - B) q read off the generator."""
    n = system.dim // 2
    p, q = state[:n], state[n:]
    minv = system.A[n:, :n]
    upper = system.A[:n, n:]
    return float(0.5 * p @ (minv @ p) - 0.5 * q @ (upper @ q))


def test_chain_energy_conserved_along_flow():
    sys_ = build_chain_system(build_path(6), k=1.3, m=0.7, clamp=(1, 6))
    g = np.random.Generator(np.random.PCG64(2))
    state0 = g.normal(size=sys_.dim)
    e0 = chain_energy(sys_, state0)
    for t in (0.5, 2.0, 7.0):
        state = expm_dense(sys_.A, t) @ state0
        assert abs(chain_energy(sys_, state) - e0) < 1e-8 * max(1.0, abs(e0))


@pytest.mark.parametrize("call, message", [
    (lambda: build_path(0), "n must be >= 1"),
    (lambda: build_bethe(1, 2), "coordination number must be >= 2"),
    (lambda: build_bethe(3, 0), "shells must be >= 1"),
    (lambda: build_erdos_renyi(5, 1.5, seed=0), r"p must be in \[0, 1\]"),
    (lambda: build_chain_system(build_path(4), k=0.0), "k and m must be positive"),
    (lambda: build_chain_system(build_path(4), l_norm=0.0), "l_norm must be positive"),
    (lambda: build_chain_system(build_path(4), clamp=(2, 2)), "clamp labels must be distinct"),
    (lambda: build_chain_system(build_path(2), clamp=(1, 2)), "all nodes clamped"),
], ids=["path-0", "bethe-l-1", "bethe-shells-0", "er-p-1.5", "chain-k-0",
        "chain-l_norm-0", "chain-repeated-clamp", "chain-all-clamped"])
def test_builders_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_clamp_label_validation():
    with pytest.raises(ValueError):
        build_chain_system(build_path(4), clamp=(0,))
    with pytest.raises(ValueError):
        build_chain_system(build_path(4), clamp=(5,))


# ------------------------------------------------------------- wave model


@pytest.fixture(scope="module")
def wave25():
    return build_wave_model(WaveModelSpec(n_modes=25, n_random_modes=10))


def test_wave_mode_factorization(wave25):
    assert (wave25.n_radial, wave25.n_angular) == (5, 5)
    m12 = build_wave_model(WaveModelSpec(n_modes=12, n_random_modes=4))
    assert (m12.n_radial, m12.n_angular) == (4, 3)


def test_wave_doubled_block_structure(wave25):
    a = wave25.system.A
    n = 25
    assert a.shape == (50, 50)
    assert np.array_equal(a[:n, :n], np.zeros((n, n)))
    assert np.array_equal(a[:n, n:], np.eye(n))
    assert np.array_equal(a[n:, n:], np.zeros((n, n)))
    assert np.array_equal(a[n:, :n], wave25.nodal_b)


def test_wave_similarity_between_modal_and_nodal(wave25):
    lhs = wave25.nodal_b @ wave25.psi
    rhs = wave25.psi @ wave25.galerkin_a
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
    assert np.linalg.cond(wave25.psi) < 1e12


def test_wave_spectrum_oscillatory(wave25):
    lam = eigenvalues(wave25.galerkin_a).eigenvalues
    # spatial operator of a lossless wave equation: real and negative
    assert np.max(np.abs(lam.imag)) < 1e-8 * np.max(np.abs(lam))
    assert np.max(lam.real) < 0.0
    doubled = eigenvalues(wave25.system.A).eigenvalues
    assert np.max(np.abs(doubled.real)) < 1e-6 * np.max(np.abs(doubled))


def test_wave_sensor_is_nearest_node(wave25):
    rs, ts = wave25.spec.sensor_point
    px, py = rs * np.cos(ts), rs * np.sin(ts)
    nx = wave25.nodes[:, 0] * np.cos(wave25.nodes[:, 1])
    ny = wave25.nodes[:, 0] * np.sin(wave25.nodes[:, 1])
    dist = np.hypot(nx - px, ny - py)
    assert wave25.sensor_index == int(np.argmin(dist)) + 1
    assert abs(wave25.sensor_offset - dist.min()) < 1e-14


def test_wave_nodes_interior(wave25):
    r = wave25.nodes[:, 0]
    assert np.all(r > wave25.spec.r1)
    assert np.all(r < wave25.spec.r2)


def samples(wave, seed, n):
    """n initial states x(0) = mixing z of the wave model, as rows."""
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((n, wave.mixing.shape[1]))
    return z @ wave.mixing.T


def test_wave_sampler_shape_and_determinism(wave25):
    assert wave25.mixing.shape == (50, 10)
    assert np.array_equal(wave25.mixing[:25], wave25.psi[:, :10])
    s1 = samples(wave25, 9, 4)
    s2 = samples(wave25, 9, 4)
    assert s1.shape == (4, 50)
    assert np.array_equal(s1, s2)
    assert np.array_equal(s1[:, 25:], np.zeros((4, 25)))  # zero velocities
    # only n_random_modes amplitudes enter: rank of the w-block is 10
    assert np.linalg.matrix_rank(samples(wave25, 10, 40)[:, :25]) == 10


def test_wave_sampler_population_statistics(wave25):
    draws = samples(wave25, 17, 4000)[:, :25]
    mean = draws.mean(axis=0)
    # covariance of w0 = psi[:, :M] z is psi[:, :M] psi[:, :M]^T
    mix = wave25.psi[:, :10]
    cov_expected = mix @ mix.T
    cov = draws.T @ draws / draws.shape[0]
    scale = np.max(np.abs(cov_expected))
    assert np.max(np.abs(mean)) < 0.1 * np.sqrt(scale)
    assert np.max(np.abs(cov - cov_expected)) < 0.12 * scale


def test_wave_spec_validation():
    with pytest.raises(ValueError):
        WaveModelSpec(n_modes=0, n_random_modes=0)
    with pytest.raises(ValueError):
        WaveModelSpec(n_modes=9, n_random_modes=10)
    with pytest.raises(ValueError):
        WaveModelSpec(n_modes=9, n_random_modes=3, r1=2.0, r2=1.0)
