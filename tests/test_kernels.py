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
import scipy.sparse.csgraph
import scipy.special

from mzgle.faber import EllipseMap, MAX_ORDER, faber_modes_grid, fit_ellipse
from mzgle.kernels import (UNIT_DISK, KernelExpansion, KernelFamily, StatsKind,
                           SystemSpec, _divided_diff_exp,
                           _require_hamiltonian_shape, dyson_coeffs,
                           faber_coeffs, kernel_eval_grid,
                           lagrange_coeffs, laplace_G, newton_coeffs,
                           newton_order, reduce, reduced_spectrum)
from mzgle.linalg import BLOCK_CELLS, Spectrum, eigenvalues, expm_dense
from mzgle.models import (build_bethe, build_chain_system, build_erdos_renyi,
                          build_path)


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
    mt = np.ascontiguousarray(r.M11.T)
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
    with pytest.raises(ValueError):
        SystemSpec(A=a, init_mean=np.zeros(2),
                   stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)


def test_hamiltonian_shape_check_makes_no_dim_squared_copy():
    # dim 1532: one dim x dim float array is 18.8 MB
    a = build_chain_system(build_bethe(3, 8), l_norm=3).A
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
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    if family == "dyson":
        exp = dyson_coeffs(r, 40)
        tmax = 1.5  # truncated power series: keep t modest
    elif family == "faber":
        exp = faber_coeffs(r, fit_ellipse(spectrum), 40)
        tmax = 3.0
    elif family == "lagrange":
        exp = lagrange_coeffs(r)
        tmax = 3.0
    else:
        exp = newton_coeffs(r)
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
                faber_coeffs(r, fit_ellipse(spectrum), 10),
                lagrange_coeffs(r),
                newton_coeffs(r)):
        (g0,), (f0,) = kernel_eval_grid(exp, [0.0])
        assert abs(g0 - expected) < 1e-10
        assert abs(f0 - float((r.M11.T @ r.avec) @ r.mean_rest)) < 1e-10


def dyson_6(r):
    return dyson_coeffs(r, 6)


@pytest.mark.parametrize("coeffs, tmax", [
    # Dyson modes are pointwise in t, so the grid and the single points agree
    # to the rounding of the final sums; the order and t stay modest all the
    # same, as the coefficients reach 1e6 by order 12
    (dyson_6, 1.0), (lagrange_coeffs, 2.0), (newton_coeffs, 2.0)],
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
    g, _ = kernel_eval_grid(newton_coeffs(r), t)
    err = max(abs(g[i] - exact_kernels(r, t[i])[0]) for i in range(0, t.size, 500))
    assert err < 5e-14


def test_faber_table_blocks_match_one_block_product():
    # three full blocks of BLOCK_CELLS // 25 times and a partial fourth:
    # the modes are pointwise in t, so only the final sums' rounding moves
    r = reduce(damped_skew_system(), 1)
    emap = fit_ellipse(reduced_spectrum(r), padding=0.1)
    exp = faber_coeffs(r, emap, 24)
    t = np.linspace(0.0, 5.0, 3 * (BLOCK_CELLS // 25) + 7)
    g, f = kernel_eval_grid(exp, t)
    modes = faber_modes_grid(emap, t, 24)
    for got, coef in ((g, exp.g), (f, exp.f)):
        ref = coef @ modes
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # Dyson is the same table on the unit disk, whose modes are t^j / j!;
    # squaring the grid makes it non-uniform, and Dyson takes any grid
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


def test_lagrange_rejects_degenerate_spectrum():
    # block-diagonal repetition gives an exactly repeated eigenvalue
    blk = np.array([[0.0, 1.0], [-1.0, -0.2]])
    a = np.zeros((5, 5))
    a[1:3, 1:3] = blk
    a[3:5, 3:5] = blk
    a[0, 1:] = 0.3
    a[1:, 0] = -0.3
    sys_ = SystemSpec(A=a, init_mean=np.zeros(5),
                      stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(sys_, 1)
    with pytest.raises(ValueError):
        lagrange_coeffs(r)
    # Newton handles the same confluent spectrum
    exp = newton_coeffs(r)
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
    exp = newton_coeffs(r)
    for t in (0.0, 0.7, 2.0):
        g_ref, _ = exact_kernels(r, t)
        (g,), _ = kernel_eval_grid(exp, [t])
        assert abs(g - g_ref) < 1e-10


@pytest.mark.parametrize("coeffs", [lagrange_coeffs, newton_coeffs],
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


@pytest.mark.parametrize("coeffs", [lagrange_coeffs, newton_coeffs],
                         ids=["lagrange", "newton"])
def test_newton_basis_tables_reject_nonuniform_grid(coeffs):
    exp = coeffs(reduce(damped_skew_system(), 1))
    with pytest.raises(ValueError, match="uniform"):
        kernel_eval_grid(exp, [0.0, 0.1, 0.3])


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


def test_newton_on_exactly_imaginary_chain_spectrum():
    # chain-all's model with its spectrum from the symmetric stiffness: with
    # every real part 0, ordering by real part walks the imaginary axis in
    # one direction and the basis products grow to 1e80
    sys_ = clamped_chain(100)
    r = reduce(sys_, 2)
    n = sys_.dim // 2
    keep = np.delete(np.arange(n), 1)
    w = np.sqrt(-scipy.linalg.eigvalsh(sys_.A[:n, n:][np.ix_(keep, keep)]))
    exp = newton_coeffs(r, spectrum=Spectrum(np.r_[1j * w, -1j * w, 0.0]))
    t = 0.01 * np.arange(1001)
    g, _ = kernel_eval_grid(exp, t)
    for k in range(0, t.size, 100):
        g_ref, _ = exact_kernels(r, float(t[k]))
        assert abs(g[k] - g_ref) <= 1e-6


def test_newton_carries_its_leja_nodes(monkeypatch):
    # the expansion holds the ordered nodes, so tabulating it orders nothing
    r = reduce(clamped_chain(12), 2)
    exp = newton_coeffs(r)
    assert np.array_equal(exp.mode_params, newton_order(reduced_spectrum(r).eigenvalues))
    g_ref, f_ref = kernel_eval_grid(exp, 1e-2 * np.arange(301))

    def no_order(lam):
        raise AssertionError("nodes ordered again")

    monkeypatch.setattr("mzgle.kernels.newton_order", no_order)
    g, f = kernel_eval_grid(exp, 1e-2 * np.arange(301))
    assert np.array_equal(g, g_ref) and np.array_equal(f, f_ref)


def test_newton_expansion_needs_order_plus_one_nodes():
    exp = newton_coeffs(reduce(damped_skew_system(), 1))
    with pytest.raises(ValueError, match="order"):
        KernelExpansion(family=KernelFamily.NEWTON, order=exp.order, g=exp.g,
                        f=exp.f, mode_params=exp.mode_params[:-1])


def test_newton_reuses_given_spectrum(monkeypatch):
    r = reduce(damped_skew_system(), 1)
    fresh = newton_coeffs(r)
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
    exp = faber_coeffs(r, fit_ellipse(spectrum), 40)
    for s in (2.0, 3.0 + 1.0j):
        got = laplace_G(exp, s)
        ref = quad_laplace(exp, s)
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))


def test_laplace_large_s_asymptotics():
    # s G(s) -> g(0) as s -> +inf
    r = reduce(damped_skew_system(), 1)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    exp = faber_coeffs(r, fit_ellipse(spectrum), 30)
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
        laplace_G(lagrange_coeffs(reduce(damped_skew_system(), 1)), 2.0)


# ------------------------------------------------- spectrum of M11^T


def assert_matches_dense_solve(r, n_zero, exact_real=True):
    lam = reduced_spectrum(r).eigenvalues
    ref = np.linalg.eigvals(r.M11.T)
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
    (lambda: build_chain_system(build_bethe(3, 4), l_norm=3), 1),
    (lambda: build_chain_system(build_bethe(3, 4), l_norm=3), 46),
], ids=["clamped-path", "tree-root", "tree-leaf"])
def test_reduced_spectrum_connected_chain(system, tag):
    assert_matches_dense_solve(reduce(system(), tag), n_zero=1)


def test_reduced_spectrum_disconnected_graph_zero_modes():
    # every component that does not hold the tag keeps one zero stiffness
    # mode, so M11 has 2 per such component plus the structural one
    graph = build_erdos_renyi(40, 0.06, seed=0)
    n_comp, _ = scipy.sparse.csgraph.connected_components(graph.adjacency)
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
    a = sys_.A.copy()
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
