"""Tests for reduction and the four kernel coefficient families.

The independent reference throughout is the closed form of the memory
kernel: g(t) = bvec . e^{t M11^T} avec and the forcing kernel
f(t) = (e^{t M11^T} M11^T avec) . mean_rest, both evaluated with dense
matrix exponentials, plus adaptive quadrature for Laplace transforms.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
import scipy.special

from mzgle.faber import EllipseMap, MAX_ORDER, faber_modes_grid, fit_ellipse
from mzgle import kernels
from mzgle.kernels import (UNIT_DISK, KernelExpansion, KernelFamily, ReducedData,
                           StatsKind, SystemSpec, _bidiagonal_expm,
                           _divided_diff_exp, _hamiltonian_blocks,
                           _require_hamiltonian_shape, dyson_coeffs,
                           faber_coeffs, kernel_eval_grid,
                           lagrange_coeffs, newton_coeffs,
                           newton_order, reduce, reduced_spectrum)
from mzgle.linalg import (BLOCK_CELLS, Spectrum, arnoldi, dense, eigenvalues,
                          expm_dense)
from mzgle.models import (WaveModelSpec, build_bethe, build_chain_system,
                          build_erdos_renyi, build_path, build_wave_model)
from series_forms import laplace_G


def rotation_system():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    return SystemSpec(A=a, init_mean=np.zeros(2),
                      stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


def damped_skew_system(dim=6, seed=5, damping=0.05):
    """Random stable system whose spectrum is imaginary-dominant, so the
    fitted ellipse is tall (c1 < 0) and all four families apply."""
    g = np.random.Generator(np.random.PCG64(seed))
    s = g.normal(size=(dim, dim))
    a = (s - s.T) - damping * np.eye(dim)
    mean = g.normal(size=dim)
    return SystemSpec(A=a, init_mean=mean, stats_kind=StatsKind.CHORIN_INITIAL)


def clamped_chain(n_interior):
    """Path of n_interior + 2 oscillators with both ends clamped; reducing
    it onto one coordinate leaves m = 2 n_interior - 1."""
    graph = build_path(n_interior + 2)
    return build_chain_system(graph, clamp=(1, n_interior + 2))


def exact_kernels(r, t):
    mt = np.ascontiguousarray(dense(r.M11).T)
    e = expm_dense(mt, t)
    g = float(r.bvec @ (e @ r.avec))
    f = float((e @ (mt @ r.avec)) @ r.mean_rest)
    return g, f


# ------------------------------------------------------------- reduction


def test_reduce_rotation_blocks():
    r = reduce(rotation_system(), 1)
    assert r.a == 0.0
    assert r.b == 0.0
    assert np.allclose(r.avec, [-1.0])
    assert np.allclose(r.bvec, [1.0])
    assert np.allclose(r.M11, [[0.0]])


def test_reduce_permutation_consistency():
    sys_ = damped_skew_system()
    for idx in (1, 3, 6):
        r = reduce(sys_, idx)
        a = sys_.A
        others = [j for j in range(a.shape[0]) if j != idx - 1]
        assert r.a == a[idx - 1, idx - 1]
        assert np.allclose(r.avec, a[idx - 1, others])
        assert np.allclose(r.bvec, a[others, idx - 1])
        assert np.allclose(r.M11, a[np.ix_(others, others)])
        assert np.allclose(r.mean_rest, sys_.init_mean[others])
        assert abs(r.b - r.avec @ r.mean_rest) < 1e-15


def test_reduce_berne_zero_forcing():
    r = reduce(rotation_system(), 1)
    assert r.b == 0.0
    assert np.allclose(r.mean_rest, 0.0)


def test_reduce_berne_rejects_position_observable():
    with pytest.raises(ValueError):
        reduce(rotation_system(), 2)


def test_berne_requires_hamiltonian_block_shape():
    a = np.array([[0.5, -1.0], [1.0, 0.0]])  # nonzero diagonal block
    with pytest.raises(ValueError, match="zero diagonal blocks"):
        SystemSpec(A=a, init_mean=np.zeros(2),
                   stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)
    # odd dimension, with zero diagonal blocks around row h = 1
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="odd dimension"):
        SystemSpec(A=a, init_mean=np.zeros(3),
                   stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


def test_hamiltonian_shape_check_makes_no_dim_squared_copy():
    # dim 1532: one dim x dim float array is 18.8 MB
    a = build_chain_system(build_bethe(3, 8), k=1 / 3).A
    assert a.shape == (1532, 1532)
    tracemalloc.start()
    try:
        _require_hamiltonian_shape(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_reduce_index_bounds():
    with pytest.raises(ValueError):
        reduce(rotation_system(), 0)
    with pytest.raises(ValueError):
        reduce(damped_skew_system(), 7)


def no_rest():
    """Reduced data with no unresolved coordinate, built by hand: reduce
    refuses to make it."""
    return ReducedData(a=0.0, b=0.0, M11=np.zeros((0, 0)), avec=np.zeros(0),
                       bvec=np.zeros(0), mean_rest=np.zeros(0),
                       stats_kind=StatsKind.CHORIN_INITIAL)


@pytest.mark.parametrize("call, error, message", [
    (lambda: SystemSpec(A=np.zeros((2, 2)), init_mean=np.zeros(2), stats_kind="chorin"),
     TypeError, "stats_kind must be a StatsKind"),
    (lambda: reduce(SystemSpec(A=np.zeros((1, 1)), init_mean=np.zeros(1),
                               stats_kind=StatsKind.CHORIN_INITIAL), 1),
     ValueError, "at least one unresolved coordinate"),
    (lambda: lagrange_coeffs(no_rest(), Spectrum(np.zeros(0), (np.zeros(0), np.zeros((0, 0))))),
     ValueError, "no unresolved coordinates"),
    (lambda: newton_coeffs(no_rest(), Spectrum(np.zeros(0))),
     ValueError, "no unresolved coordinates"),
    (lambda: kernel_eval_grid(KernelExpansion(family=KernelFamily.DYSON, order=1,
                                              g=np.ones(2), f=np.zeros(2),
                                              mode_params=UNIT_DISK), [0.0, -0.5]),
     ValueError, "t must be >= 0"),
], ids=["stats-kind-string", "one-dimensional", "lagrange-no-rest", "newton-no-rest",
        "negative-t"])
def test_kernel_inputs_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


# -------------------------------------------------------- Dyson / scalar


def test_dyson_rotation_order_zero():
    r = reduce(rotation_system(), 1)
    exp = dyson_coeffs(r, 0)
    assert exp.g.shape == (1,)
    assert exp.g[0] == -1.0
    assert exp.f[0] == 0.0
    (g0,), _ = kernel_eval_grid(exp, [5.0])
    assert g0 == -1.0  # order zero: kernel is the constant g_0


def test_dyson_scalar_monomials():
    # M11 = [[c]]: g_j = bvec . c^j . avec exactly
    c = -0.7
    a = np.array([[0.2, 0.5], [1.5, c]])
    sys_ = SystemSpec(A=a, init_mean=np.array([0.0, 2.0]),
                      stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(sys_, 1)
    exp = dyson_coeffs(r, 4)
    for j in range(5):
        assert abs(exp.g[j] - 1.5 * 0.5 * c**j) < 1e-14
        assert abs(exp.f[j] - 2.0 * c ** (j + 1) * 0.5) < 1e-14


def test_dyson_partial_sums_converge_for_small_t():
    r = reduce(damped_skew_system(), 1)
    t = 0.4
    g_ref, f_ref = exact_kernels(r, t)
    errs = []
    for n in (4, 8, 16):
        (g,), (f,) = kernel_eval_grid(dyson_coeffs(r, n), [t])
        errs.append(abs(g - g_ref) + abs(f - f_ref))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-8


# ------------------------------------------------- four-family agreement


@pytest.mark.parametrize("family, system", [
    ("dyson", damped_skew_system),
    ("faber", damped_skew_system),
    ("lagrange", damped_skew_system),
    ("newton", damped_skew_system),
    # m = 199: products of 198 interpolation factors lose every digit here,
    # the spectral projectors do not
    ("lagrange", lambda: clamped_chain(100)),
], ids=["dyson", "faber", "lagrange", "newton", "lagrange-clamped-chain"])
def test_families_match_exact_kernel(family, system):
    r = reduce(system(), 2)
    spectrum = eigenvalues(np.ascontiguousarray(dense(r.M11).T))
    if family == "dyson":
        exp = dyson_coeffs(r, 40)
        tmax = 1.5  # truncated power series: keep t modest
    elif family == "faber":
        exp = faber_coeffs(r, fit_ellipse(spectrum), 40, spectrum)
        tmax = 3.0
    elif family == "lagrange":
        exp = lagrange(r)
        tmax = 3.0
    else:
        exp = newton_coeffs(r, spectrum)
        tmax = 3.0
    for t in np.linspace(0.0, tmax, 7):
        g_ref, f_ref = exact_kernels(r, float(t))
        (g,), (f,) = kernel_eval_grid(exp, [t])
        assert abs(g - g_ref) < 1e-8
        assert abs(f - f_ref) < 1e-8


def test_kernel_at_zero_is_inner_product():
    r = reduce(damped_skew_system(), 1)
    expected = float(r.bvec @ r.avec)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    for exp in (dyson_coeffs(r, 10),
                faber_coeffs(r, fit_ellipse(spectrum), 10, spectrum),
                lagrange(r),
                newton_coeffs(r, spectrum)):
        (g0,), (f0,) = kernel_eval_grid(exp, [0.0])
        assert abs(g0 - expected) < 1e-10
        assert abs(f0 - float((r.M11.T @ r.avec) @ r.mean_rest)) < 1e-10


def dyson_6(r):
    return dyson_coeffs(r, 6)


def newton(r):
    return newton_coeffs(r, reduced_spectrum(r))


def lagrange(r):
    return lagrange_coeffs(r, reduced_spectrum(r, "modes"))


@pytest.mark.parametrize("coeffs, tmax", [
    # Dyson modes are pointwise in t, so the grid and the single points agree
    # to the rounding of the final sums; the order and t stay modest all the
    # same, as the coefficients reach 1e6 by order 12
    (dyson_6, 1.0), (lagrange, 2.0), (newton, 2.0)],
    ids=["dyson", "lagrange", "newton"])
def test_kernel_eval_grid_matches_pointwise(coeffs, tmax):
    # 1001 points: blocks of 32, the last block row holds 9 of its 32
    exp = coeffs(reduce(damped_skew_system(), 1))
    tgrid = np.linspace(0.0, tmax, 1001)
    g, f = kernel_eval_grid(exp, tgrid)
    assert g.shape == tgrid.shape and f.shape == tgrid.shape
    for i, t in enumerate(tgrid):
        (gi,), (fi,) = kernel_eval_grid(exp, [t])
        assert abs(g[i] - gi) < 1e-13
        assert abs(f[i] - fi) < 1e-13


def test_newton_grid_matches_expm_on_long_chain_grid():
    # m = 199, K = 10001: 101 mode columns stepped by e^{dt Z} and 100
    # coefficient rows stepped by e^{101 dt Z}; the table must stay at rounding
    r = reduce(clamped_chain(100), 2)
    t = 1e-3 * np.arange(10001)
    g, _ = kernel_eval_grid(newton(r), t)
    err = max(abs(g[i] - exact_kernels(r, t[i])[0]) for i in range(0, t.size, 500))
    assert err < 5e-14


def test_faber_table_blocks_match_one_block_product():
    # three full blocks of BLOCK_CELLS // 25 times and a partial fourth:
    # the modes are pointwise in t, so only the final sums' rounding moves
    r = reduce(damped_skew_system(), 1)
    spectrum = reduced_spectrum(r)
    emap = fit_ellipse(spectrum, padding=0.1)
    exp = faber_coeffs(r, emap, 24, spectrum)
    t = np.linspace(0.0, 5.0, 3 * (BLOCK_CELLS // 25) + 7)
    g, f = kernel_eval_grid(exp, t)
    modes = faber_modes_grid(emap, t, 24)
    for got, coef in ((g, exp.g), (f, exp.f)):
        ref = coef @ modes
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # Dyson is the same table on the unit disk, whose modes are t^j / j!;
    # squaring the grid makes it non-uniform, and Dyson takes any ascending grid
    exp = dyson_coeffs(r, 24)
    t = t * t / 5.0
    g, f = kernel_eval_grid(exp, t)
    powers = t ** np.arange(25)[:, None] / scipy.special.factorial(np.arange(25))[:, None]
    assert np.all(np.abs(faber_modes_grid(UNIT_DISK, t, 24) - powers) <= 1e-14 * powers)
    for got, coef in ((g, exp.g), (f, exp.f)):
        ref = coef @ powers
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_faber_table_non_finite_in_later_block_raises():
    # at order 80, t^80 overflows past t = 7e3 while the first block stops
    # near t = 3.3e3: only the last block's modes are non-finite
    emap = EllipseMap(c0=0.0, c1=-1.0, capacity=1.0, semi_real=0.0, semi_imag=2.0)
    exp = KernelExpansion(family=KernelFamily.FABER, order=MAX_ORDER,
                          g=np.ones(MAX_ORDER + 1), f=np.zeros(MAX_ORDER + 1),
                          mode_params=emap)
    t = np.linspace(0.0, 1e4, 3 * (BLOCK_CELLS // (MAX_ORDER + 1)))
    assert np.all(np.isfinite(faber_modes_grid(emap, t[:t.size // 3], MAX_ORDER)))
    with pytest.raises(ValueError, match=f"order {MAX_ORDER} "):
        kernel_eval_grid(exp, t)


# ------------------------------------------------------ Lagrange / Newton


def repeated_blocks():
    """Block-diagonal repetition: an exactly repeated eigenvalue of M11^T,
    which stays diagonalizable."""
    blk = np.array([[0.0, 1.0], [-1.0, -0.2]])
    a = np.zeros((5, 5))
    a[1:3, 1:3] = blk
    a[3:5, 3:5] = blk
    a[0, 1:] = 0.3
    a[1:, 0] = -0.3
    return a


def nilpotent_jordan():
    """M11^T is the 3 x 3 nilpotent Jordan block: exactly defective, its
    right eigenvectors exactly singular."""
    a = np.zeros((4, 4))
    a[1:, 1:] = np.diag([1.0, 1.0], -1)
    a[0, 1:] = [0.3, -0.2, 0.1]
    a[1:, 0] = [-0.3, 0.5, 0.2]
    return a


def test_lagrange_rejects_degenerate_spectrum():
    for a in (repeated_blocks(), nilpotent_jordan()):
        sys_ = SystemSpec(A=a, init_mean=np.zeros(a.shape[0]),
                          stats_kind=StatsKind.CHORIN_INITIAL)
        r = reduce(sys_, 1)
        spectrum = reduced_spectrum(r, "modes")
        with pytest.raises(ValueError, match="near-degenerate eigenvalues"):
            lagrange_coeffs(r, spectrum)
        # Newton handles the same confluent spectrum, from the same solve
        exp = newton_coeffs(r, spectrum)
        g_ref, _ = exact_kernels(r, 1.3)
        (g,), _ = kernel_eval_grid(exp, [1.3])
        assert abs(g - g_ref) < 1e-9


def test_newton_confluent_jordan_block():
    # M11 is a true Jordan block: kernel contains t e^{lam t}
    lam = -0.5
    a = np.array([[0.0, 1.0, 0.0],
                  [0.5, lam, 1.0],
                  [0.25, 0.0, lam]])
    sys_ = SystemSpec(A=a, init_mean=np.zeros(3),
                      stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(sys_, 1)
    exp = newton(r)
    for t in (0.0, 0.7, 2.0):
        g_ref, _ = exact_kernels(r, t)
        (g,), _ = kernel_eval_grid(exp, [t])
        assert abs(g - g_ref) < 1e-10


def as_chorin(r):
    """The same blocks under Chorin statistics with no mean: the generic
    full-size eigendecomposition of reduced_spectrum for lagrange_coeffs."""
    return ReducedData(a=r.a, b=r.b, M11=r.M11, avec=r.avec, bvec=r.bvec,
                       mean_rest=r.mean_rest, stats_kind=StatsKind.CHORIN_INITIAL)


@pytest.mark.parametrize("n_interior, tag", [(1, 1), (5, 1), (12, 2), (30, 7)])
def test_lagrange_half_size_matches_full_eig(n_interior, tag):
    r = reduce(clamped_chain(n_interior), tag)
    half, full = lagrange(r), lagrange(as_chorin(r))
    # the full solve's values carry rounding-level real parts, which sort
    # them by sign; the half-size values are exactly imaginary
    lam_half, lam_full = (np.sort_complex(1j * k.mode_params) for k in (half, full))
    assert np.max(np.abs(lam_half - lam_full)) < 1e-12
    assert not np.any(half.mode_params.real)
    t = 0.01 * np.arange(301)
    g_half, f_half = kernel_eval_grid(half, t)
    g_full, _ = kernel_eval_grid(full, t)
    assert np.max(np.abs(g_half - g_full)) < 1e-12
    assert not np.any(f_half)


def test_lagrange_nonsymmetric_product_takes_the_full_size_path(monkeypatch):
    # unequal masses make S E nonsymmetric: Lagrange then takes the general
    # m x m solve with left eigenvectors, and the kernel must still be exact
    r = reduce(unequal_masses(), 3)
    shapes = []
    real = np.linalg.eig

    def eig(a, *args, **kw):
        shapes.append(a.shape)
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eig", eig)
    exp = lagrange(r)
    assert shapes == [(r.dim_rest, r.dim_rest)]
    for t in (0.0, 0.9, 2.5):
        (g,), _ = kernel_eval_grid(exp, [t])
        assert abs(g - exact_kernels(r, t)[0]) < 1e-12


def test_lagrange_on_the_wave_model_matches_lapack_left_eigenvectors():
    # the general solve takes its left eigenvectors from the inverse of the
    # right ones; the kernel must equal the one built from LAPACK's own
    # left eigenvectors (scipy.linalg.eig(left=True)) on the wave model,
    # m = 49 with forcing
    wave = build_wave_model(WaveModelSpec(n_modes=25, n_random_modes=25,
                                          sensor_point=(1.1, 0.1)))
    mean = wave.mixing @ np.random.Generator(np.random.PCG64(3)).standard_normal(25)
    r = reduce(SystemSpec(A=wave.system.A, init_mean=mean,
                          stats_kind=StatsKind.CHORIN_INITIAL), wave.sensor_index)
    lam, left, right = scipy.linalg.eig(dense(r.M11).T, left=True)
    lh = left.conj()
    weight = (r.avec @ lh) / np.sum(lh * right, axis=0)
    order = np.lexsort((lam.imag, lam.real))
    ref = KernelExpansion(family=KernelFamily.LAGRANGE, order=r.dim_rest - 1,
                          g=((r.bvec @ right) * weight)[order],
                          f=(lam * (r.mean_rest @ right) * weight)[order],
                          mode_params=lam[order])
    t = np.linspace(0.0, 5.0, 201)
    for got, want in zip(kernel_eval_grid(lagrange(r), t), kernel_eval_grid(ref, t)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert r.dim_rest == 49 and np.any(ref.f)


def test_newton_overflow_names_the_first_bad_coefficient():
    # scaled by 1e55, the basis products reach about 1e250 at j = 3 and
    # overflow at j = 4: a clear ValueError, not inf/NaN coefficients (and
    # no RuntimeWarning, which tier-1 turns into an error)
    small = damped_skew_system()
    r = reduce(SystemSpec(A=1e55 * small.A, init_mean=small.init_mean,
                          stats_kind=small.stats_kind), 1)
    with pytest.raises(ValueError, match="overflowed: coefficient j = 4 of 5 "):
        newton(r)


@pytest.mark.parametrize("graph", [lambda: build_bethe(3, 3),
                                   lambda: build_erdos_renyi(40, 0.06, seed=0)],
                         ids=["bethe-3-shells", "erdos-renyi-40"])
def test_lagrange_half_size_rejects_repeated_modes(graph):
    # the tree's symmetry repeats eigenvalues and the random graph's
    # isolated nodes give zeros of S E; both must be rejected before any
    # division by a root (tier-1 turns a divide warning into an error)
    r = reduce(build_chain_system(graph()), 1)
    spectrum = reduced_spectrum(r, "modes")
    with pytest.raises(ValueError, match="near-degenerate"):
        lagrange_coeffs(r, spectrum)


def test_spectral_families_at_graph_scale():
    # m = 1999: no m x m complex array (61 MiB) is formed in the build or
    # the table of either family
    r = reduce(clamped_chain(1000), 2)
    assert r.dim_rest == 1999
    t = 0.01 * np.arange(201)
    mt = r.M11.T
    mt = scipy.sparse.csc_array((mt.data, (mt.rows, mt.cols)), shape=mt.shape)
    ref = scipy.sparse.linalg.expm_multiply(mt, r.avec, start=0.0,
                                            stop=2.0, num=201, endpoint=True) @ r.bvec
    spectrum = reduced_spectrum(r)
    for coeffs in (lagrange, lambda r: newton_coeffs(r, spectrum=spectrum)):
        tracemalloc.start()
        try:
            g, _ = kernel_eval_grid(coeffs(r), t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(g - ref)) < 1e-12
        assert peak < 1999 ** 2 * 16


def bidiagonal(nodes):
    return np.diag(nodes) + np.eye(len(nodes), k=-1)


@pytest.mark.parametrize("nodes", [
    np.full(6, -0.5 + 0j),
    newton_order(np.r_[-0.2 + 1j * np.sqrt(np.arange(1, 9.0)),
                       -0.2 - 1j * np.sqrt(np.arange(1, 9.0))]),
    newton_order(np.linspace(-3.0, 2.0, 10) + 0j),
], ids=["confluent", "conjugate", "real"])
def test_bidiagonal_action_matches_expm(nodes):
    # h ||Z|| from 0.4 to 60: up to 30 Taylor steps; columns and rows
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, len(nodes))) + 1j * rng.normal(size=(3, len(nodes)))
    norm = np.max(np.abs(nodes)) + 1.0
    for h in (0.4 / norm, 5.0, 60.0 / norm):
        e = scipy.linalg.expm(h * bidiagonal(nodes))
        for got, ref in ((_bidiagonal_expm(nodes, h, v), v @ e.T),
                         (_bidiagonal_expm(nodes, h, v, rows=True), v @ e)):
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_bidiagonal_action_clustered_nodes_at_large_step():
    # scipy.linalg.expm is itself off by about 1.5e-13 here (Pade on a near
    # Jordan block), so the reference is 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    nodes = -0.5 + 1e-5 * np.arange(8) + 0j
    h = 40.0
    got = _bidiagonal_expm(nodes, h, np.eye(8, dtype=complex)).T
    with mpmath.workdps(50):
        z = mpmath.matrix(bidiagonal(nodes).tolist())
        e = mpmath.expm(z * h)
        ref = np.array([[complex(e[i, j]) for j in range(8)] for i in range(8)])
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def test_newton_single_point_matches_expm():
    # a single t > 0 takes one bidiagonal action of t Z on e_0, with
    # t ||Z|| = 40, and one coefficient row
    r = reduce(damped_skew_system(), 1)
    exp = newton(r)
    t = 40.0 / (np.max(np.abs(exp.mode_params)) + 1.0)
    col = _divided_diff_exp(exp.mode_params, np.array([t]))[:, 0]
    ref = scipy.linalg.expm(t * bidiagonal(exp.mode_params))[:, 0]
    assert np.linalg.norm(col - ref) <= 1e-14 * np.linalg.norm(ref)
    (g,), (f,) = kernel_eval_grid(exp, [t])
    g_ref, f_ref = exact_kernels(r, t)
    assert abs(g - g_ref) < 1e-10 and abs(f - f_ref) < 1e-10


@pytest.mark.parametrize("coeffs", [lagrange, newton],
                         ids=["lagrange", "newton"])
def test_newton_table_memory_linear_in_modes(coeffs):
    # the block product holds O(m sqrt K) values at once, not an m x K
    # mode table: its peak stays below a quarter of one such complex table
    r = reduce(clamped_chain(30), 2)
    m = r.dim_rest
    assert m == 59
    exp = coeffs(r)
    t = 1e-3 * np.arange(10001)
    tracemalloc.start()
    try:
        kernel_eval_grid(exp, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * t.size * 16 / 4


@pytest.mark.parametrize("coeffs", [lagrange, newton],
                         ids=["lagrange", "newton"])
def test_newton_basis_tables_reject_nonuniform_grid(coeffs):
    exp = coeffs(reduce(damped_skew_system(), 1))
    with pytest.raises(ValueError, match="uniform"):
        kernel_eval_grid(exp, [0.0, 0.1, 0.3])


@pytest.mark.parametrize("t", [[np.nan], [np.inf], [0.0, np.nan]], ids=["nan", "inf", "0-nan"])
@pytest.mark.parametrize("family", ["dyson", "faber", "lagrange", "newton"])
def test_kernel_eval_grid_refuses_non_finite_times(family, t):
    # every family refuses before its own arithmetic, which would return
    # NaN (Lagrange) or fail on a NaN step count (Newton)
    r = reduce(clamped_chain(8), 1)
    spectrum = reduced_spectrum(r, "modes")
    exp = {"dyson": lambda: dyson_coeffs(r, 6),
           "faber": lambda: faber_coeffs(r, fit_ellipse(spectrum), 6, spectrum),
           "lagrange": lambda: lagrange_coeffs(r, spectrum),
           "newton": lambda: newton_coeffs(r, spectrum)}[family]()
    with pytest.raises(ValueError, match="t must be finite, got t = (nan|inf)"):
        kernel_eval_grid(exp, t)


@pytest.mark.parametrize("nodes", [
    -0.5 + 1e-5 * np.arange(8),
    newton_order([-0.2 - 1j, -0.2 + 1j, -0.2 - (1 + 1e-6) * 1j, -0.2 + (1 + 1e-6) * 1j]),
], ids=["real-cluster", "conjugate-clusters"])
def test_divided_diff_exp_clustered_nodes(nodes):
    # reference: the first column of e^{t Z} in 50-digit arithmetic; a
    # difference table divided by node gaps of 1e-5 or 1e-6 loses digits
    mpmath = pytest.importorskip("mpmath")
    m = len(nodes)
    for t in (np.array([1.3]), np.linspace(0.0, 2.0, 5)):
        got = _divided_diff_exp(nodes, t)
        ref = np.empty_like(got, dtype=complex)
        with mpmath.workdps(50):
            z = mpmath.matrix(m, m)
            for i in range(m):
                z[i, i] = mpmath.mpc(complex(nodes[i]))
                if i:
                    z[i, i - 1] = 1
            for k, tk in enumerate(t):
                col = mpmath.expm(z * tk)
                ref[:, k] = [complex(col[i, 0]) for i in range(m)]
        err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(err) <= 1e-14


def test_newton_order_canonical():
    # Leja: largest modulus first, then the farthest from the chosen nodes
    # (-2 is at distance 5 from 3, 1 -+ i at sqrt 5); 1 - i and 1 + i tie
    # and go in (real desc, imag asc) order
    lam = np.array([1.0 + 1j, -2.0, 1.0 - 1j, 3.0])
    assert np.array_equal(newton_order(lam), [3.0, -2.0, 1.0 - 1j, 1.0 + 1j])


def er_chain_spectrum():
    # the chain of ER(40, 0.05, seed 5) tagged at 4: nine zero nodes, and
    # the Newton kernel there still matched expm_dense to 7e-15
    r = reduce(build_chain_system(build_erdos_renyi(40, 0.05, seed=5)), 4)
    return reduced_spectrum(r, "values").eigenvalues


@pytest.mark.parametrize("nodes", [lambda: [1.0, 1.0, 2.0],
                                   lambda: [0.0, 0.0, 0.0, 1j, -1j],
                                   er_chain_spectrum],
                         ids=["double", "triple-zero", "er-40"])
def test_newton_order_is_a_permutation_with_repeated_nodes(nodes):
    # once every untaken node copies a taken one all scores are -inf; the
    # first untaken node must follow, never a taken one again
    lam = np.asarray(nodes(), dtype=complex)
    assert len(np.unique(lam)) < len(lam)
    got = newton_order(lam)
    assert np.array_equal(np.sort_complex(got), np.sort_complex(lam))


def test_newton_on_exactly_imaginary_chain_spectrum():
    # chain-all's model with its spectrum from the symmetric stiffness: with
    # every real part 0, ordering by real part walks the imaginary axis in
    # one direction and the basis products grow to 1e80
    sys_ = clamped_chain(100)
    r = reduce(sys_, 2)
    n = sys_.dim // 2
    keep = np.delete(np.arange(n), 1)
    w = np.sqrt(-scipy.linalg.eigvalsh(dense(sys_.A[:n, n:])[np.ix_(keep, keep)]))
    exp = newton_coeffs(r, spectrum=Spectrum(np.r_[1j * w, -1j * w, 0.0]))
    t = 0.01 * np.arange(1001)
    g, _ = kernel_eval_grid(exp, t)
    for k in range(0, t.size, 100):
        g_ref, _ = exact_kernels(r, float(t[k]))
        assert abs(g[k] - g_ref) <= 1e-6


def test_newton_carries_its_leja_nodes(monkeypatch):
    # the expansion holds the ordered nodes, so tabulating it orders nothing
    r = reduce(clamped_chain(12), 2)
    spectrum = reduced_spectrum(r)
    exp = newton_coeffs(r, spectrum)
    assert np.array_equal(exp.mode_params, newton_order(spectrum.eigenvalues))
    g_ref, f_ref = kernel_eval_grid(exp, 1e-2 * np.arange(301))

    def no_order(lam):
        raise AssertionError("nodes ordered again")

    monkeypatch.setattr("mzgle.kernels.newton_order", no_order)
    g, f = kernel_eval_grid(exp, 1e-2 * np.arange(301))
    assert np.array_equal(g, g_ref) and np.array_equal(f, f_ref)


def test_newton_expansion_needs_order_plus_one_nodes():
    exp = newton(reduce(damped_skew_system(), 1))
    with pytest.raises(ValueError, match="order"):
        KernelExpansion(family=KernelFamily.NEWTON, order=exp.order, g=exp.g,
                        f=exp.f, mode_params=exp.mode_params[:-1])


def test_newton_reuses_given_spectrum(monkeypatch):
    r = reduce(damped_skew_system(), 1)
    fresh = newton(r)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))

    def no_solve(m):
        raise AssertionError("eigenvalues recomputed")

    monkeypatch.setattr("mzgle.kernels.eigenvalues", no_solve)
    given = newton_coeffs(r, spectrum=spectrum)
    assert np.array_equal(given.g, fresh.g)
    assert np.array_equal(given.f, fresh.f)


def test_expansion_validation():
    with pytest.raises(ValueError):
        KernelExpansion(family=KernelFamily.DYSON, order=2,
                        g=np.zeros(2), f=np.zeros(3), mode_params=UNIT_DISK)
    # Dyson's modes are t^j / j! only on a map with c0 = c1 = 0
    with pytest.raises(ValueError, match="c1"):
        KernelExpansion(family=KernelFamily.DYSON, order=2, g=np.zeros(3),
                        f=np.zeros(3), mode_params=EllipseMap.from_axes(0.0, 2.0, 1.0))
    with pytest.raises(TypeError):
        KernelExpansion(family=KernelFamily.DYSON, order=2, g=np.zeros(3),
                        f=np.zeros(3), mode_params=None)
    # every family refuses a coefficient that is not finite
    with pytest.raises(ValueError, match="Dyson expansion overflowed: coefficient j = 1 of 3 "):
        KernelExpansion(family=KernelFamily.DYSON, order=2, g=np.zeros(3),
                        f=np.array([0.0, np.nan, np.inf]), mode_params=UNIT_DISK)


# ---------------------------------------------------------------- Laplace


def quad_laplace(exp, s, upper=60.0):
    def integrand_re(t):
        return float(np.real(np.exp(-s * t) * kernel_eval_grid(exp, [t])[0][0]))

    def integrand_im(t):
        return float(np.imag(np.exp(-s * t) * kernel_eval_grid(exp, [t])[0][0]))

    re, _ = scipy.integrate.quad(integrand_re, 0.0, upper, limit=400)
    im, _ = scipy.integrate.quad(integrand_im, 0.0, upper, limit=400)
    return re + 1j * im


def test_laplace_rotation_closed_form():
    # g(t) = -1 for the order-zero constant kernel: G(s) = -1/s
    r = reduce(rotation_system(), 1)
    exp = dyson_coeffs(r, 0)
    assert abs(laplace_G(exp, 2.0) - (-0.5)) < 1e-15
    assert abs(laplace_G(exp, 1.0 + 1.0j) - (-1.0 / (1.0 + 1.0j))) < 1e-15


def test_laplace_dyson_is_power_sum():
    r = reduce(damped_skew_system(), 3)
    exp = dyson_coeffs(r, 12)
    s = 3.0 + 0.5j
    expected = sum(exp.g[j] / s ** (j + 1) for j in range(13))
    assert abs(laplace_G(exp, s) - expected) < 1e-12


def test_laplace_faber_matches_quadrature():
    r = reduce(damped_skew_system(), 1)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    exp = faber_coeffs(r, fit_ellipse(spectrum), 40, spectrum)
    for s in (2.0, 3.0 + 1.0j):
        got = laplace_G(exp, s)
        ref = quad_laplace(exp, s)
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))


def test_laplace_large_s_asymptotics():
    # s G(s) -> g(0) as s -> +inf
    r = reduce(damped_skew_system(), 1)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    exp = faber_coeffs(r, fit_ellipse(spectrum), 30, spectrum)
    g0 = kernel_eval_grid(exp, [0.0])[0][0]
    assert abs(1e6 * laplace_G(exp, 1e6) - g0) < 1e-4 * max(1.0, abs(g0))


def test_laplace_domain_checks():
    r = reduce(rotation_system(), 1)
    exp = dyson_coeffs(r, 2)
    with pytest.raises(ValueError):
        laplace_G(exp, -1.0)
    with pytest.raises(ValueError):
        laplace_G(exp, 1.0j)
    with pytest.raises(ValueError):
        laplace_G(lagrange(reduce(damped_skew_system(), 1)), 2.0)


# ------------------------------------------------- spectrum of M11^T


def assert_matches_dense_solve(r, n_zero, exact_real=True):
    lam = reduced_spectrum(r).eigenvalues
    ref = np.linalg.eigvals(dense(r.M11).T)
    radius = np.max(np.abs(ref))
    assert lam.shape == ref.shape
    assert np.max(np.abs(lam.real)) <= 1e-12 * radius
    if exact_real:
        assert np.all(lam.real == 0.0)
    # a zero mode is a 2x2 Jordan block of M11, which a dense solver
    # resolves only to about sqrt(eps); the structured spectrum has exact 0
    near = np.abs(ref) < 1e-6 * radius
    assert np.count_nonzero(lam == 0) == np.count_nonzero(near) == n_zero
    assert np.max(np.abs(np.sort(lam[lam != 0].imag) - np.sort(ref[~near].imag))) \
        <= 1e-12 * radius
    assert np.max(np.abs(ref[~near].real)) <= 1e-12 * radius


@pytest.mark.parametrize("system, tag", [
    (lambda: clamped_chain(30), 2),
    (lambda: build_chain_system(build_bethe(3, 4), k=1 / 3), 1),
    (lambda: build_chain_system(build_bethe(3, 4), k=1 / 3), 46),
], ids=["clamped-path", "tree-root", "tree-leaf"])
def test_reduced_spectrum_connected_chain(system, tag):
    assert_matches_dense_solve(reduce(system(), tag), n_zero=1)


def test_reduced_spectrum_disconnected_graph_zero_modes():
    # every component that does not hold the tag keeps one zero stiffness
    # mode, so M11 has 2 per such component plus the structural one
    graph = build_erdos_renyi(40, 0.06, seed=0)
    n_comp, _ = scipy.sparse.csgraph.connected_components(dense(graph.adjacency))
    assert n_comp > 2
    assert_matches_dense_solve(reduce(build_chain_system(graph), 1),
                               n_zero=2 * (n_comp - 1) + 1)


def test_reduced_spectrum_rotation_is_zero():
    # h = 0: M11 is the 1x1 zero block
    assert np.array_equal(reduced_spectrum(reduce(rotation_system(), 1)).eigenvalues, [0.0])


def test_reduced_spectrum_nonscalar_mass():
    # unequal masses make S E nonsymmetric, so it takes the dense
    # nonsymmetric solve; the determinant identity holds all the same
    sys_ = clamped_chain(12)
    n = sys_.dim // 2
    a = dense(sys_.A)
    a[n:, :n] = np.diag(1.0 / np.linspace(0.5, 2.0, n))
    r = reduce(SystemSpec(A=a, init_mean=np.zeros(2 * n),
                          stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC), 3)
    h = r.dim_rest // 2
    p = r.M11[:h, h:] @ r.M11[h:, :h]
    assert not np.array_equal(p, p.T)
    assert_matches_dense_solve(r, n_zero=1, exact_real=False)


def test_reduced_spectrum_generic_statistics():
    r = reduce(damped_skew_system(), 2)
    assert np.array_equal(reduced_spectrum(r).eigenvalues,
                          eigenvalues(np.ascontiguousarray(r.M11.T)).eigenvalues)


@pytest.mark.parametrize("system, tag", [(damped_skew_system, 2),
                                         (lambda: clamped_chain(12), 2)],
                         ids=["generic", "chain"])
def test_reduced_spectrum_modes_match_values(system, tag):
    # the eigenvector solve (eig or eigh) gives the eigenvalue-only
    # solve's spectrum to rounding, and only it carries modes
    r = reduce(system(), tag)
    values, modes = reduced_spectrum(r), reduced_spectrum(r, "modes")
    assert values.modes is None and len(modes.modes[0]) == r.dim_rest
    assert np.max(np.abs(modes.eigenvalues - values.eigenvalues)) < 1e-13


def test_reduced_spectrum_rejects_unknown_need():
    with pytest.raises(ValueError, match="need"):
        reduced_spectrum(reduce(clamped_chain(3), 1), "vectors")


# ---------------------------------------------- the spectrum's extent


ELLIPSE_FIELDS = ("c0", "c1", "capacity", "semi_real", "semi_imag")


def er_isolated_components():
    graph = build_erdos_renyi(60, 0.03, seed=1)
    n_comp, _ = scipy.sparse.csgraph.connected_components(dense(graph.adjacency))
    assert n_comp > 2 and np.any(graph.degree == 0)
    return build_chain_system(graph)


@pytest.mark.parametrize("system, tag", [
    (lambda: clamped_chain(12), 1),
    (lambda: clamped_chain(100), 2),
    (lambda: build_chain_system(build_bethe(3, 5), k=1 / 3), 1),
    (lambda: build_chain_system(build_bethe(3, 5), k=1 / 3), 7),
    (lambda: build_chain_system(build_bethe(4, 4), k=2.0 / 3.0), 3),
    (er_isolated_components, 1),
    (lambda: build_chain_system(build_erdos_renyi(200, 0.02, seed=5)), 4),
    (lambda: build_chain_system(build_erdos_renyi(6, 0.0, seed=0)), 2),
], ids=["path-12", "path-100", "bethe-root", "bethe-inner", "bethe-mass",
        "er-isolated-components", "er-200", "er-no-edges"])
def test_extent_gives_the_dense_ellipse(system, tag):
    # +-i sqrt|mu_min| and 0 fit the ellipse of the whole spectrum
    r = reduce(system(), tag)
    extent = reduced_spectrum(r, "extent")
    full = reduced_spectrum(r)
    assert len(extent.eigenvalues) == 3 and len(full.eigenvalues) == r.dim_rest
    assert not np.any(extent.eigenvalues.real)
    a, b = fit_ellipse(extent, padding=0.1), fit_ellipse(full, padding=0.1)
    for field in ELLIPSE_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert abs(x - y) <= 1e-14 * abs(y), field
    assert a.contains(full.eigenvalues)


def splitmix64(seed, n):
    """The first n outputs of SplitMix64 from seed, in Python integers
    (Steele, Lea and Flood, OOPSLA 2014)."""
    mask, out, state = (1 << 64) - 1, [], seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_lanczos_start_is_fixed_splitmix64():
    # the start is SplitMix64 from LANCZOS_SEED, each output's top 53 bits
    # mapped to [-1, 1): the same vector on every call, a prefix of every
    # longer one, and with no zero entry (a zero would drop that
    # coordinate's eigenvector components from the start)
    start = kernels._lanczos_start(10 ** 5)
    assert start.dtype == np.float64 and start.shape == (10 ** 5,)
    assert np.array_equal(start[:4], [0.15366218266908582, -0.6397070127598095,
                                      -0.6249804576060847, -0.13290511467645905])
    ref = [(z >> 11) * 2.0 ** -52 - 1.0 for z in splitmix64(kernels.LANCZOS_SEED, 256)]
    assert np.array_equal(start[:256], ref)
    assert np.array_equal(kernels._lanczos_start(1), start[:1])
    assert kernels._lanczos_start(0).shape == (0,)
    assert np.all(start >= -1.0) and np.all(start < 1.0) and np.all(start != 0.0)


def lanczos(se, start):
    """Lanczos as _extent_mu runs it, from start: the steps taken and the
    least Ritz value of the final tridiagonal."""
    _, hess = arnoldi(se, start, kernels.LANCZOS_MAX_DIM, kernels._ritz_converged)
    return hess.shape[0], np.linalg.eigvalsh(kernels._tridiagonal(hess))[0]


def test_extent_start_leaves_the_shell_symmetric_subspace():
    # With the tag at the root of a Bethe tree, a start constant on each
    # shell spans a Krylov space of at most one vector per shell.  On a
    # tree the extreme mode lies in it (the sign-flipped Perron vector of
    # a bipartite graph), so that start still finds mu_min; the fixed
    # start must reach past it all the same.
    shells = 5
    r = reduce(build_chain_system(build_bethe(3, shells), k=1 / 3), 1)
    s, e = _hamiltonian_blocks(r)
    se = s @ e
    h = se.shape[0]
    # breadth-first labels: shell d holds 3 * 2^(d-1) nodes
    depth = np.arange(1, shells + 1)
    shell_of = np.repeat(depth, 3 * 2 ** (depth - 1))
    assert shell_of.shape == (h,)
    radial = lanczos(se, np.ones(h))
    fixed = lanczos(se, kernels._lanczos_start(h))
    assert radial[0] <= shells < fixed[0]
    start = kernels._lanczos_start(h)
    shell_means = np.bincount(shell_of, start)[shell_of] / np.bincount(shell_of)[shell_of]
    assert np.linalg.norm(start - shell_means) > 0.5 * np.linalg.norm(start)
    mu_min = scipy.linalg.eigvalsh(dense(se))[0]
    assert abs(fixed[1] - mu_min) <= 1e-14 * abs(mu_min)


def test_extent_start_is_not_symmetric_on_a_complete_graph():
    # On the complete graph K_n rooted at the tag, the grounded Laplacian is
    # n I - J: the all-ones vector is its eigenvector of 1, and mu_min
    # (-n) lives on the vectors that sum to zero.  A symmetric start
    # stops at once at the wrong value; the fixed start does not.
    n = 12
    r = reduce(build_chain_system(build_erdos_renyi(n, 1.0, seed=0)), 1)
    s, e = _hamiltonian_blocks(r)
    se = s @ e
    h = se.shape[0]
    assert lanczos(se, np.ones(h))[1] == pytest.approx(-1.0, rel=1e-14)
    assert lanczos(se, kernels._lanczos_start(h))[1] == pytest.approx(-n, rel=1e-14)
    lam = reduced_spectrum(r, "extent").eigenvalues
    assert np.max(lam.imag) == pytest.approx(np.sqrt(n), rel=1e-14)


def failing_certificate():
    # S = +I and E the stiffness make S E positive definite: the chain's
    # sign flipped, so max mu > 0 and the real roots widen the ellipse
    sys_ = clamped_chain(12)
    n = sys_.dim // 2
    a = dense(sys_.A)
    a[:n, n:], a[n:, :n] = np.eye(n), -a[:n, n:]
    return SystemSpec(A=a, init_mean=np.zeros(2 * n),
                      stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


def unequal_masses():
    sys_ = clamped_chain(12)
    n = sys_.dim // 2
    a = dense(sys_.A)
    a[n:, :n] = np.diag(1.0 / np.linspace(0.5, 2.0, n))
    return SystemSpec(A=a, init_mean=np.zeros(2 * n),
                      stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


@pytest.mark.parametrize("system", [failing_certificate, unequal_masses],
                         ids=["gershgorin-fails", "nonsymmetric"])
def test_extent_falls_back_to_the_dense_solve(system):
    r = reduce(system(), 3)
    extent = reduced_spectrum(r, "extent")
    assert np.array_equal(extent.eigenvalues, reduced_spectrum(r).eigenvalues)
    assert len(extent.eigenvalues) == r.dim_rest


def test_failing_certificate_has_real_roots():
    lam = reduced_spectrum(reduce(failing_certificate(), 3), "extent").eigenvalues
    assert np.max(lam.real) > 1.0


def test_extent_of_one_oscillator_is_the_dense_spectrum():
    # a clamped chain of one oscillator leaves S E empty (h = 0): Lanczos
    # has no vector to start from, and the dense solve gives the one zero
    r = reduce(clamped_chain(1), 1)
    assert r.dim_rest == 1
    assert np.array_equal(reduced_spectrum(r, "extent").eigenvalues, [0.0])


def test_extent_falls_back_when_lanczos_does_not_converge(monkeypatch):
    # the 99-dimensional path product needs all 99 Lanczos steps
    r = reduce(clamped_chain(100), 2)
    monkeypatch.setattr(kernels, "LANCZOS_MAX_DIM", 50)
    assert len(reduced_spectrum(r, "extent").eigenvalues) == r.dim_rest


def test_extent_solves_one_tridiagonal(monkeypatch):
    # the final tridiagonal's Ritz values take the one eigenvalues call
    calls = []
    real = kernels.eigenvalues

    def eigenvalues(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(kernels, "eigenvalues", eigenvalues)
    r = reduce(build_chain_system(build_bethe(3, 6), k=1 / 3), 1)
    reduced_spectrum(r, "extent")
    (t,) = calls
    assert isinstance(t, np.ndarray) and t.shape[0] < r.dim_rest // 4
    assert np.array_equal(t, np.triu(np.tril(t, 1), -1))


def test_faber_containment_check_uses_the_extent():
    # the extent decides containment as the whole spectrum does: the fitted
    # ellipse passes (tier-1 turns a warning into an error), a narrower one
    # warns
    r = reduce(build_chain_system(build_bethe(3, 6), k=1 / 3), 1)
    extent = reduced_spectrum(r, "extent")
    assert len(extent.eigenvalues) == 3
    emap = fit_ellipse(extent)
    faber_coeffs(r, emap, 8, extent)
    with pytest.warns(RuntimeWarning, match="not contained"):
        faber_coeffs(r, EllipseMap.from_axes(0.0, 0.1, 0.5 * emap.semi_imag), 8, extent)


@pytest.mark.parametrize("coeffs", [lagrange, newton],
                         ids=["lagrange", "newton"])
def test_zero_forcing_table_skips_the_forcing_row(coeffs):
    # under equilibrium statistics f is all zero: its table is zeros, and
    # the g table is the one computed alongside a forcing row, bit for bit
    exp = coeffs(reduce(clamped_chain(12), 2))
    assert not np.any(exp.f)
    forced = KernelExpansion(family=exp.family, order=exp.order, g=exp.g,
                             f=exp.g, mode_params=exp.mode_params)
    t = 0.01 * np.arange(401)
    g, f = kernel_eval_grid(exp, t)
    g_forced, _ = kernel_eval_grid(forced, t)
    assert np.array_equal(g, g_forced)
    assert f.shape == t.shape and not np.any(f)
