"""Tests for the benchmark model builders.

Independent references: hand-counted graphs, binomial statistics for the
random-graph builder, energy conservation along matrix-exponential flows,
and direct residual checks of the wave discretization.
"""

import tracemalloc

import numpy as np
import pytest

from mzgle.kernels import StatsKind
from mzgle.linalg import eigenvalues, expm_dense
from mzgle.models import (WaveModelSpec, bethe_node_count, build_bethe,
                          build_chain_system, build_erdos_renyi, build_path,
                          build_wave_model)

# ------------------------------------------------------------------ graphs


def test_path_graph_structure():
    g = build_path(5)
    assert g.n_nodes == 5
    deg = g.adjacency.sum(axis=1)
    assert np.array_equal(deg, [1, 2, 2, 2, 1])
    assert np.array_equal(g.degree, deg)
    assert np.array_equal(g.adjacency, g.adjacency.T)


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
    deg = g.adjacency.sum(axis=1)
    n_leaves = l * (l - 1) ** (shells - 1)
    assert np.sum(deg == 1) == n_leaves
    inner = deg[deg != 1]
    assert np.all(inner == l)
    # tree: exactly n-1 edges and connectivity via matrix powers
    assert g.adjacency.sum() == 2 * (g.n_nodes - 1)
    reach = np.linalg.matrix_power(g.adjacency + np.eye(g.n_nodes),
                                   g.n_nodes - 1)
    assert np.all(reach > 0)


def test_tree_ten_node_example():
    g = build_bethe(3, 2)
    deg = g.adjacency.sum(axis=1)
    assert g.n_nodes == 10
    assert np.sum(deg == 3) == 4   # root and its three children
    assert np.sum(deg == 1) == 6   # leaves


def test_l2_tree_is_a_path():
    g = build_bethe(2, 3)
    p = build_path(7)
    deg = np.sort(g.adjacency.sum(axis=1))
    assert np.array_equal(deg, np.sort(p.adjacency.sum(axis=1)))
    assert g.n_nodes == 7


def test_random_graph_extremes_and_seeding():
    none = build_erdos_renyi(12, 0.0, seed=0)
    assert none.adjacency.sum() == 0
    full = build_erdos_renyi(12, 1.0, seed=0)
    assert full.adjacency.sum() == 12 * 11
    a = build_erdos_renyi(40, 0.3, seed=123)
    b = build_erdos_renyi(40, 0.3, seed=123)
    c = build_erdos_renyi(40, 0.3, seed=124)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_random_graph_edge_count_statistics():
    n, p = 60, 0.2
    n_pairs = n * (n - 1) // 2
    edges = build_erdos_renyi(n, p, seed=7).adjacency.sum() / 2
    sigma = np.sqrt(n_pairs * p * (1 - p))
    assert abs(edges - n_pairs * p) < 4 * sigma


# ------------------------------------------------------------------ chains


def test_single_interior_node_blocks():
    # clamping both ends of a 3-path leaves one oscillator with both
    # springs attached: momentum equation p' = -2 k q
    sys_ = build_chain_system(build_path(3), k=1.5, m=2.0, clamp=(1, 3))
    assert sys_.dim == 2
    assert np.allclose(sys_.A, [[0.0, -3.0], [0.5, 0.0]])
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
    b = graph.adjacency[np.ix_(free, free)]
    d = np.diag(graph.adjacency.sum(axis=1))[np.ix_(free, free)]
    ref = np.zeros((2 * nf, 2 * nf))
    ref[:nf, nf:] = kw.get("k", 1.0) / kw.get("l_norm", 1) * (b - d)
    ref[nf:, :nf] = np.eye(nf) / kw.get("m", 1.0)
    assert np.array_equal(build_chain_system(graph, **kw).A, ref)


def test_chain_system_peak_memory():
    # the stiffness block is written into A, not assembled from n x n
    # temporaries beside it
    graph = build_bethe(3, 6)
    tracemalloc.start()
    try:
        a = build_chain_system(graph).A
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.nbytes


def test_interior_three_node_chain_blocks():
    sys_ = build_chain_system(build_path(5), clamp=(1, 5))
    n = 3
    upper = sys_.A[:n, n:]
    lower = sys_.A[n:, :n]
    assert np.allclose(lower, np.eye(3))
    assert np.allclose(upper, [[-2.0, 1.0, 0.0],
                               [1.0, -2.0, 1.0],
                               [0.0, 1.0, -2.0]])


def test_normalized_coupling_divides_k():
    g = build_bethe(3, 2)
    plain = build_chain_system(g, k=1.0)
    scaled = build_chain_system(g, k=1.0, l_norm=3)
    n = g.n_nodes
    assert np.allclose(scaled.A[:n, n:], plain.A[:n, n:] / 3.0)


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


def test_wave_sampler_shape_and_determinism(wave25):
    rng1 = np.random.Generator(np.random.PCG64(9))
    rng2 = np.random.Generator(np.random.PCG64(9))
    s1 = wave25.sampler(rng1, 4)
    s2 = wave25.sampler(rng2, 4)
    assert s1.shape == (4, 50)
    assert np.array_equal(s1, s2)
    assert np.array_equal(s1[:, 25:], np.zeros((4, 25)))  # zero velocities
    # only n_random_modes amplitudes enter: rank of the w-block is 10
    assert np.linalg.matrix_rank(wave25.sampler(rng1, 40)[:, :25]) == 10


def test_wave_sampler_population_statistics(wave25):
    rng = np.random.Generator(np.random.PCG64(17))
    draws = wave25.sampler(rng, 4000)[:, :25]
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
