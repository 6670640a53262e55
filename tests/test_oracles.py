"""Tests for the independent reference layer.

These routes must stay independent of the kernel-expansion code paths, so
they are validated against hand algebra, closed forms, and statistics of
the sampled initial states themselves.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.special
from scipy.sparse.csgraph import connected_components

from mzgle import oracles
from mzgle.faber import fit_ellipse
from mzgle.kernels import (StatsKind, SystemSpec, dyson_coeffs, faber_coeffs,
                           reduce, reduced_spectrum)
from mzgle.linalg import BLOCK_CELLS, dense, expm_dense
from mzgle.models import (build_bethe, build_chain_system, build_erdos_renyi,
                          build_path, build_wave_model, WaveModelSpec)
from mzgle.oracles import exact_mean, mc_mean, vacf_analytic_l2, vacf_matrix_exp
from affine_oracle import affine_rep, operator_oracle


def oscillator():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    return SystemSpec(A=a, init_mean=np.zeros(2),
                      stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


def random_system(dim=6, seed=21):
    g = np.random.Generator(np.random.PCG64(seed))
    a = g.normal(size=(dim, dim)) * 0.5
    mean = g.normal(size=dim)
    return SystemSpec(A=a, init_mean=mean, stats_kind=StatsKind.CHORIN_INITIAL)


# ------------------------------------------------------- operator algebra


def test_projection_idempotent_and_complementary():
    for sys_, idx in ((oscillator(), 1), (random_system(), 2)):
        rep = affine_rep(sys_, idx)
        p, q = rep.P_rep, rep.Q_rep
        assert np.max(np.abs(p @ p - p)) == 0.0
        assert np.max(np.abs(q @ q - q)) < 1e-15
        assert np.max(np.abs(p + q - np.eye(rep.dim))) == 0.0
        assert np.max(np.abs(p @ q)) < 1e-15


def test_generator_annihilates_constants():
    rep = affine_rep(random_system(), 1)
    const = np.zeros(rep.dim)
    const[0] = 1.0
    assert np.max(np.abs(rep.L_rep @ const)) == 0.0


def test_word_order_is_mathematical():
    sys_ = random_system()
    rep = affine_rep(sys_, 1)
    pl = operator_oracle(sys_, ("P", "L"), 1)
    assert np.max(np.abs(pl - rep.P_rep @ rep.L_rep)) == 0.0
    lq = operator_oracle(sys_, ("L", "Q"), 1)
    assert np.max(np.abs(lq - rep.L_rep @ rep.Q_rep)) == 0.0


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        operator_oracle(random_system(), ("P", "X"), 1)


def test_memory_coefficients_match_projected_words():
    # the reduced-formula coefficients g_j = bvec . (M11^T)^j avec and the
    # forcing coefficients must agree with matrix elements of P L (Q L)^j
    sys_ = random_system()
    for idx in (1, 4):
        r = reduce(sys_, idx)
        exp = dyson_coeffs(r, 6)
        rep = affine_rep(sys_, idx)
        o = idx
        for j in range(7):
            word = ("P", "L") + ("Q", "L") * (j + 1)
            vec = operator_oracle(sys_, word, idx) @ rep.observable(idx)
            assert abs(vec[o] - exp.g[j]) < 1e-10
            assert abs(vec[0] - exp.f[j]) < 1e-10
        # the bare P L word carries the streaming pair (a, b)
        vec0 = operator_oracle(sys_, ("P", "L"), idx) @ rep.observable(idx)
        assert abs(vec0[o] - r.a) < 1e-12
        assert abs(vec0[0] - r.b) < 1e-12


def test_berne_projection_drops_constants_and_positions():
    sys_ = build_chain_system(build_path(6), clamp=(1, 6))
    rep = affine_rep(sys_, 2)
    v = np.ones(rep.dim)
    proj = rep.P_rep @ v
    assert proj[0] == 0.0
    assert proj[2] == 1.0
    assert np.sum(np.abs(proj)) == 1.0


# ------------------------------------------------------------------- VACF


def test_oscillator_autocorrelation_is_cosine():
    tr = vacf_matrix_exp(oscillator(), 1, np.linspace(0.0, 10.0, 101))
    assert abs(tr.values[0] - 1.0) == 0.0
    assert np.max(np.abs(tr.values - np.cos(tr.times))) < 1e-12


def test_analytic_l2_values():
    assert abs(vacf_analytic_l2(0.0) - 1.0) == 0.0
    assert abs(vacf_analytic_l2(1.0) - 0.18989505933366718) < 1e-12
    grid = np.linspace(0.0, 5.0, 11)
    vals = vacf_analytic_l2(grid, omega=2.0)
    assert vals.shape == grid.shape
    with pytest.raises(ValueError):
        vacf_analytic_l2(-1.0)
    for bad, shown in (([np.nan], "nan"), ([0.0, np.nan], "nan"), ([np.inf], "inf")):
        with pytest.raises(ValueError, match=f"t must be finite, got t = {shown}"):
            vacf_analytic_l2(bad)
    for omega in (np.nan, np.inf):
        with pytest.raises(ValueError, match="omega must be finite"):
            vacf_analytic_l2([0.0, 1.0], omega=omega)


def test_analytic_l2_matches_scipy_bessel():
    # the midpoint rule on Bessel's integral against SciPy's jv, for x up
    # to 200 (264 nodes), over 21 blocks of linalg.BLOCK_CELLS cells: the
    # whole 20001 x 264 table would take 42 MB
    t = np.linspace(0.0, 100.0, 20001)
    ref = scipy.special.jv(0, 2.0 * t) - scipy.special.jv(4, 2.0 * t)
    tracemalloc.start()
    try:
        vals = vacf_analytic_l2(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(vals - ref)) <= 1e-14
    assert peak < 3 * 8 * BLOCK_CELLS + 4 * t.nbytes


def test_long_interior_chain_matches_analytic_form():
    # 100 interior oscillators with fixed walls: tagged-momentum
    # autocorrelation approaches the infinite-chain closed form
    sys_ = build_chain_system(build_path(102), clamp=(1, 102))
    grid = np.linspace(0.0, 10.0, 201)
    tr = vacf_matrix_exp(sys_, 1, grid)
    ref = vacf_analytic_l2(grid)
    assert np.max(np.abs(tr.values - ref)) < 5e-3


def test_autocorrelation_bounded_by_one():
    sys_ = build_chain_system(build_path(30), clamp=(1, 30))
    grid = np.linspace(0.0, 50.0, 501)
    tr = vacf_matrix_exp(sys_, 5, grid)
    assert np.max(np.abs(tr.values)) <= 1.0 + 1e-10


def test_vacf_requires_doubled_momentum_observable():
    with pytest.raises(ValueError):
        vacf_matrix_exp(oscillator(), 2, np.linspace(0.0, 1.0, 5))
    # Chorin statistics are refused, on the doubled layout too
    for a in ([[0.1, -1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]]):
        bad = SystemSpec(A=np.array(a), init_mean=np.zeros(2),
                         stats_kind=StatsKind.CHORIN_INITIAL)
        with pytest.raises(ValueError, match="equilibrium-quadratic statistics"):
            vacf_matrix_exp(bad, 1, np.linspace(0.0, 1.0, 5))


# ------------------------------------------------- invariant subspace


@pytest.fixture()
def expm_sizes(monkeypatch):
    """Sizes of the matrices the oracles exponentiate."""
    sizes = []

    def spy(m, t):
        sizes.append(np.shape(m)[0])
        return expm_dense(m, t)

    monkeypatch.setattr(oracles, "expm_dense", spy)
    return sizes


def subspace_basis(system, tag):
    """The oracle's Krylov basis V."""
    return oracles._propagate(system, tag, [0.0, 1.0])[2]


def assert_matches_dense(system, tag, grid):
    tr = vacf_matrix_exp(system, tag, grid)
    ref = [expm_dense(system.A, float(t))[tag - 1, tag - 1] for t in grid]
    assert np.max(np.abs(tr.values - ref)) <= 1e-13


def test_rooted_tree_oracle_exponentiates_the_shell_chain(expm_sizes):
    # the shell-symmetric states from the root momentum form a chain of
    # momenta and positions, one of each per shell
    shells = 6
    sys_ = build_chain_system(build_bethe(3, shells), k=1 / 3)
    vacf_matrix_exp(sys_, 1, np.linspace(0.0, 10.0, 11))
    assert len(expm_sizes) == 1
    assert expm_sizes[0] <= 2 * (shells + 1)


@pytest.mark.parametrize("tag", [1, 2, 60, 190], ids=lambda t: f"tag-{t}")
def test_tree_oracle_matches_dense_exponential(tag):
    sys_ = build_chain_system(build_bethe(3, 6), k=1 / 3)
    assert_matches_dense(sys_, tag, np.linspace(0.0, 10.0, 11))


def test_disconnected_graph_subspace_stays_in_component(expm_sizes):
    graph = build_erdos_renyi(40, 0.06, seed=0)
    sys_ = build_chain_system(graph)
    _, label = connected_components(dense(graph.adjacency))
    sizes = np.bincount(label)
    assert sizes.max() > 10 and np.count_nonzero(sizes) > 1
    for tag in range(1, graph.n_nodes + 1):
        assert_matches_dense(sys_, tag, np.linspace(0.0, 10.0, 11))
        inside = np.tile(label == label[tag - 1], 2)
        basis = subspace_basis(sys_, tag)
        assert basis.shape[0] < sys_.dim
        if sizes[label[tag - 1]] <= 4:
            assert expm_sizes[-1] <= 2 * sizes[label[tag - 1]]
        assert np.all(basis[:, ~inside] == 0.0)


def test_clamped_path_oracle_uses_the_whole_space(expm_sizes):
    # no small subspace: the Krylov basis fills the whole space, and the
    # values match the whole-space propagator to rounding
    sys_ = build_chain_system(build_path(12), clamp=(1, 12))
    grid = np.linspace(0.0, 5.0, 51)
    tr = vacf_matrix_exp(sys_, 2, grid)
    assert expm_sizes == [sys_.dim]
    step = expm_dense(sys_.A.T, grid[1])
    w = np.zeros(sys_.dim)
    w[1] = 1.0
    ref = []
    for _ in grid:
        ref.append(w[1])
        w = step @ w
    assert np.max(np.abs(tr.values - ref)) <= 1e-14


def test_er_graph_oracle_stays_in_a_small_krylov_space(expm_sizes):
    # tag 1 lies in the 2994-node giant component; the run stops on its
    # error estimate, far below one 6000 x 6000 array
    sys_ = build_chain_system(build_erdos_renyi(3000, 0.002, seed=5))
    tracemalloc.start()
    try:
        vacf_matrix_exp(sys_, 1, np.linspace(0.0, 10.0, 201))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert max(expm_sizes) <= 256


def normal_mode_vacf(system, tag, grid):
    """sum_i p_{tag,i}^2 cos(t sqrt(-mu_i)) over the eigenpairs (mu_i, p_i)
    of the symmetric S E, A = [[0, S], [E, 0]], by a dense eigh."""
    h = system.dim // 2
    a = dense(system.A)
    mu, p = np.linalg.eigh(a[:h, h:] @ a[h:, :h])
    freq = np.sqrt(np.maximum(-mu, 0.0))
    return np.cos(np.multiply.outer(grid, freq)) @ p[tag - 1] ** 2


def clamped_path_1000():
    """The 1000-interior clamped path and its middle tag."""
    return build_chain_system(build_path(1002), clamp=(1, 1002)), [500]


def er_400():
    """ER(400, 0.01) and two tags: one in the giant component, one in a
    component of a few nodes."""
    graph = build_erdos_renyi(400, 0.01, seed=3)
    _, label = connected_components(dense(graph.adjacency))
    sizes = np.bincount(label)
    giant = np.argmax(sizes)
    small = np.flatnonzero((label != giant) & (sizes[label] > 1))
    return build_chain_system(graph), [np.flatnonzero(label == giant)[0] + 1, small[0] + 1]


@pytest.mark.parametrize("case", [clamped_path_1000, er_400], ids=lambda c: c.__name__)
def test_graph_oracle_matches_normal_modes(expm_sizes, case):
    sys_, tags = case()
    grid = np.linspace(0.0, 10.0, 201)
    for tag in tags:
        got = vacf_matrix_exp(sys_, tag, grid).values
        assert np.max(np.abs(got - normal_mode_vacf(sys_, tag, grid))) <= 1e-13
    assert max(expm_sizes) <= 256


def test_wave_exact_mean_matches_dense_stepping():
    # 100 modes, 200 dimensions: the run stops on its error estimate before
    # the space fills
    wave, system, _ = shifted_wave(n_modes=100)
    idx = wave.sensor_index
    grid = np.linspace(0.0, 5.0, 201)
    step = expm_dense(system.A, grid[1])
    x, ref = system.init_mean, []
    for _ in grid:
        ref.append(x[idx - 1])
        x = step @ x
    got = exact_mean(system, idx, grid).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_oracle_memory_is_linear_in_dimension():
    # the basis and the rows are O(n (k + K)); an n x n step matrix or
    # basis would take four times this budget
    sys_ = build_chain_system(build_bethe(3, 7), k=1 / 3)
    assert sys_.dim == 764
    grid = np.linspace(0.0, 10.0, 21)
    tracemalloc.start()
    try:
        exact_mean(sys_, 1, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * sys_.dim ** 2 * 8


def test_sparse_tree_pipeline_stays_below_one_dense_matrix():
    # build_bethe(3, 9) gives dim 3068, where one dense A takes 75 MB; the
    # sparse A and M11 take the reduction, the half-size spectrum, an
    # order-20 Faber build and the oracle below that, the dense h x h
    # product S E and its eigenvalue solve being the largest arrays
    tracemalloc.start()
    try:
        sys_ = build_chain_system(build_bethe(3, 9), k=1 / 3)
        r = reduce(sys_, 1)
        spectrum = reduced_spectrum(r)
        faber_coeffs(r, fit_ellipse(spectrum), 20, spectrum=spectrum)
        vacf_matrix_exp(sys_, 1, np.linspace(0.0, 10.0, 201))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys_.dim == 3068
    assert peak < sys_.dim ** 2 * 8


@pytest.mark.parametrize("tag", [1, 20])
def test_krylov_coordinates_match_the_row_table(tag):
    # the autocorrelation and the exact mean read the subspace coordinates;
    # the rows themselves give the same values to rounding
    chain = build_chain_system(build_bethe(3, 6), k=1 / 3)
    mean = np.random.Generator(np.random.PCG64(tag)).normal(size=chain.dim)
    sys_ = SystemSpec(A=chain.A, init_mean=mean, stats_kind=StatsKind.CHORIN_INITIAL)
    grid = np.linspace(0.0, 10.0, 51)
    rows = observable_rows(sys_, tag, grid)
    assert rows.shape == (51, sys_.dim)
    assert subspace_basis(sys_, tag).shape[0] < sys_.dim
    vacf = vacf_matrix_exp(chain, tag, grid).values
    assert np.max(np.abs(vacf - rows[:, tag - 1])) <= 1e-14
    ref = rows @ mean
    got = exact_mean(sys_, tag, grid).values
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_tree_oracle_forms_no_row_table():
    # 2001 rows of the 6140-dimensional tree system would take 98 MB
    sys_ = build_chain_system(build_bethe(3, 10), k=1 / 3)
    grid = np.linspace(0.0, 10.0, 2001)
    tracemalloc.start()
    try:
        vacf_matrix_exp(sys_, 1, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * grid.shape[0] * sys_.dim * 8


# ------------------------------------------------------------------ means


def test_exact_mean_matches_dense_exponential():
    sys_ = random_system()
    grid = np.linspace(0.0, 3.0, 31)
    tr = exact_mean(sys_, 3, grid)
    for i, t in enumerate(grid):
        ref = (expm_dense(sys_.A, float(t)) @ sys_.init_mean)[2]
        assert abs(tr.values[i] - ref) < 1e-11


def test_mc_mean_deterministic_sampler_is_exact():
    # a zero mixing matrix: every sample is the mean itself
    sys_ = random_system()
    grid = np.linspace(0.0, 2.0, 21)
    mc = mc_mean(sys_, np.zeros((sys_.dim, 1)), 2, grid, n_samples=16, seed=0)
    exact = exact_mean(sys_, 2, grid)
    assert np.max(np.abs(mc.trajectory.values - exact.values)) < 1e-12
    assert np.max(mc.stderr) < 1e-13


def test_mc_mean_seeded_and_stderr_scaling():
    wave = build_wave_model(WaveModelSpec(n_modes=9, n_random_modes=9))
    grid = np.linspace(0.0, 1.0, 6)
    a = mc_mean(wave.system, wave.mixing, wave.sensor_index, grid,
                n_samples=400, seed=5)
    b = mc_mean(wave.system, wave.mixing, wave.sensor_index, grid,
                n_samples=400, seed=5)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
    wide = mc_mean(wave.system, wave.mixing, wave.sensor_index, grid,
                   n_samples=6400, seed=5)
    ratio = np.median(a.stderr[1:] / wide.stderr[1:])
    assert 2.5 < ratio < 5.5  # 16x samples: stderr shrinks ~4x


def test_mc_mean_covers_zero_mean_population():
    wave = build_wave_model(WaveModelSpec(n_modes=9, n_random_modes=9))
    grid = np.linspace(0.0, 2.0, 9)
    mc = mc_mean(wave.system, wave.mixing, wave.sensor_index, grid,
                 n_samples=2000, seed=11)
    # population mean is identically zero: the estimate must sit within a
    # few standard errors of it
    assert np.all(np.abs(mc.trajectory.values[1:]) < 4.0 * mc.stderr[1:])


@pytest.mark.parametrize("n_samples", [0, 1])
def test_mc_mean_needs_two_samples(n_samples):
    # one sample has no sample covariance, so no standard error
    wave = build_wave_model(WaveModelSpec(n_modes=9, n_random_modes=9))
    with pytest.raises(ValueError, match="n_samples"):
        mc_mean(wave.system, wave.mixing, wave.sensor_index,
                np.linspace(0.0, 1.0, 6), n_samples=n_samples, seed=0)


@pytest.mark.parametrize("oracle", ["exact_mean", "mc_mean"])
def test_mean_oracles_reject_index_out_of_range(oracle):
    sys_ = oscillator()
    with pytest.raises(ValueError, match=r"index must be in 1\.\.2"):
        if oracle == "exact_mean":
            exact_mean(sys_, 3, [0.0, 1.0])
        else:
            mc_mean(sys_, np.eye(2), 3, [0.0, 1.0], n_samples=8, seed=0)


@pytest.mark.parametrize("grid", [[1.0, 2.0, 3.0], [0.0]],
                         ids=["offset-start", "one-point"])
@pytest.mark.parametrize("oracle", ["exact_mean", "mc_mean"])
def test_mean_oracles_reject_bad_grid(oracle, grid):
    # the propagated rows are e^{t_k A} only on a grid starting at t = 0
    sys_ = oscillator()
    with pytest.raises(ValueError):
        if oracle == "exact_mean":
            exact_mean(sys_, 1, grid)
        else:
            mc_mean(sys_, np.eye(2), 1, grid, n_samples=8, seed=0)


def test_mc_mean_matches_explicit_sample_formula():
    # reference: every sample propagated to every grid point, then the
    # sample mean and ddof=1 standard deviation of the (n_samples, K) values
    wave, system, _ = shifted_wave()
    grid = np.linspace(0.0, 2.0, 41)
    n, seed, idx = 1237, 4, wave.sensor_index
    mc = mc_mean(system, wave.mixing, idx, grid, n_samples=n, seed=seed)
    x0 = system.init_mean + draw(wave.mixing, n, seed) @ wave.mixing.T
    rows = np.array([expm_dense(wave.system.A, float(t))[idx - 1] for t in grid])
    vals = x0 @ rows.T
    ref_mean = vals.mean(axis=0)
    ref_se = vals.std(axis=0, ddof=1) / np.sqrt(n)
    mean_err = np.max(np.abs(mc.trajectory.values - ref_mean)) / np.max(np.abs(ref_mean))
    se_err = np.max(np.abs(mc.stderr - ref_se) / ref_se)
    assert mean_err < 1e-12
    assert se_err < 1e-12


def test_mc_mean_in_a_krylov_subspace_matches_explicit_samples():
    # on the tree the rows live in a 9-dimensional subspace: the mean and
    # the mixing matrix are projected onto it, and the statistics agree
    # with every sample propagated by the whole-space exponential
    chain = build_chain_system(build_bethe(3, 4), k=1 / 3)
    rng = np.random.Generator(np.random.PCG64(3))
    mixing = rng.standard_normal((chain.dim, 3))
    sys_ = SystemSpec(A=chain.A, init_mean=rng.standard_normal(chain.dim),
                      stats_kind=StatsKind.CHORIN_INITIAL)
    assert subspace_basis(sys_, 1).shape == (9, sys_.dim)
    grid = np.linspace(0.0, 2.0, 21)
    n, seed = 500, 8
    mc = mc_mean(sys_, mixing, 1, grid, n_samples=n, seed=seed)
    x0 = sys_.init_mean + draw(mixing, n, seed) @ mixing.T
    rows = np.array([expm_dense(sys_.A, float(t))[0] for t in grid])
    vals = x0 @ rows.T
    ref_se = vals.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.max(np.abs(mc.trajectory.values - vals.mean(axis=0))) <= \
        1e-12 * np.max(np.abs(vals))
    assert np.max(np.abs(mc.stderr - ref_se) / ref_se) < 1e-12


def observable_rows(system, index, grid):
    """The rows w_k = (e^{t_k A})^T e_index themselves, (len(grid), dim)."""
    _, zs, basis = oracles._propagate(system, index, grid)
    return zs @ basis


def draw(mixing, n_samples, seed):
    """The (n_samples, d) standard normals mc_mean draws for seed."""
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(
        (n_samples, mixing.shape[1]))


def shifted_wave(n_modes=9):
    """The n_modes membrane, its system with the mean moved off zero by one
    draw as in the runner, and the rows per mc_mean block."""
    wave = build_wave_model(WaveModelSpec(n_modes=n_modes, n_random_modes=n_modes))
    mu = wave.mixing @ draw(wave.mixing, 1, 1)[0]
    system = SystemSpec(A=wave.system.A, init_mean=mu, stats_kind=StatsKind.CHORIN_INITIAL)
    return wave, system, BLOCK_CELLS // wave.mixing.shape[1]


def one_draw_mc(system, mixing, index, grid, n_samples, seed):
    """mc_mean's mean and stderr from a single draw of every sample."""
    _, zs, basis = oracles._propagate(system, index, grid)
    mean0 = basis @ system.init_mean
    w = zs @ (basis @ mixing)
    z = draw(mixing, n_samples, seed)
    zbar = z.mean(axis=0)
    zc = z - zbar
    cov = zc.T @ zc / (n_samples - 1)
    var = np.maximum(np.einsum("kd,kd->k", w @ cov, w), 0.0)
    return zs @ mean0 + w @ zbar, np.sqrt(var / n_samples)


def test_mc_mean_blocks_match_one_draw():
    # two full blocks and 3 rows: the merged mean and scatter agree with a
    # single draw of the same rows to rounding
    wave, system, block = shifted_wave()
    grid = np.linspace(0.0, 2.0, 41)
    n = 2 * block + 3
    mc = mc_mean(system, wave.mixing, wave.sensor_index, grid, n_samples=n, seed=4)
    mean, se = one_draw_mc(system, wave.mixing, wave.sensor_index, grid, n, 4)
    assert np.max(np.abs(mc.trajectory.values - mean)) <= 1e-13 * np.max(np.abs(mean))
    assert np.max(np.abs(mc.stderr - se) / se) <= 1e-13


@pytest.mark.parametrize("which", ["two", "odd", "one-block"])
def test_mc_mean_one_block_is_one_draw(which):
    wave, system, block = shifted_wave()
    n = {"two": 2, "odd": 1237, "one-block": block}[which]
    grid = np.linspace(0.0, 2.0, 21)
    mc = mc_mean(system, wave.mixing, wave.sensor_index, grid, n_samples=n, seed=6)
    mean, se = one_draw_mc(system, wave.mixing, wave.sensor_index, grid, n, 6)
    assert np.array_equal(mc.trajectory.values, mean)
    assert np.array_equal(mc.stderr, se)


def test_mc_mean_memory_does_not_grow_with_samples():
    wave, system, block = shifted_wave()
    grid = np.linspace(0.0, 1.0, 11)
    peaks = []
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            mc_mean(system, wave.mixing, wave.sensor_index, grid,
                    n_samples=blocks * block, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_mc_mean_holds_one_block_of_samples():
    # every block is drawn into one buffer: the next block is never
    # allocated while the previous one is alive
    wave, system, block = shifted_wave()
    tracemalloc.start()
    try:
        mc_mean(system, wave.mixing, wave.sensor_index, np.linspace(0.0, 1.0, 11),
                n_samples=4 * block, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * BLOCK_CELLS * 8
