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

from mzgle.faber import fit_ellipse
from mzgle.kernels import (KernelExpansion, KernelFamily, StatsKind,
                           SystemSpec, dyson_coeffs, faber_coeffs,
                           kernel_eval, kernel_eval_grid, lagrange_coeffs,
                           laplace_G, newton_coeffs, newton_order, reduce)
from mzgle.linalg import eigenvalues, expm_dense
from mzgle.models import build_chain_system, build_path


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
    g0, _ = kernel_eval(exp, 5.0)
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
        g, f = kernel_eval(dyson_coeffs(r, n), t)
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
        g, f = kernel_eval(exp, float(t))
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
        g0, f0 = kernel_eval(exp, 0.0)
        assert abs(g0 - expected) < 1e-10
        assert abs(f0 - float((r.M11.T @ r.avec) @ r.mean_rest)) < 1e-10


def test_kernel_eval_grid_matches_pointwise():
    r = reduce(damped_skew_system(), 1)
    exp = newton_coeffs(r)
    tgrid = np.linspace(0.0, 2.0, 9)
    g, f = kernel_eval_grid(exp, tgrid)
    assert g.shape == tgrid.shape and f.shape == tgrid.shape
    for i, t in enumerate(tgrid):
        gi, fi = kernel_eval(exp, float(t))
        assert abs(g[i] - gi) < 1e-13
        assert abs(f[i] - fi) < 1e-13


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
    g, _ = kernel_eval(exp, 1.3)
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
        g, _ = kernel_eval(exp, t)
        assert abs(g - g_ref) < 1e-10


def test_newton_table_memory_linear_in_modes():
    # the divided-difference table must hold O(m) rows of the time grid at
    # once, not O(m^2)
    r = reduce(clamped_chain(30), 2)
    m = r.dim_rest
    assert m == 59
    exp = newton_coeffs(r)
    t = 1e-3 * np.arange(2001)
    tracemalloc.start()
    try:
        kernel_eval_grid(exp, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * m * t.size * 16


def test_newton_order_canonical():
    lam = np.array([1.0 + 1j, -2.0, 1.0 - 1j, 3.0])
    ordered = newton_order(lam)
    assert ordered[0] == 3.0
    assert ordered[-1] == -2.0
    assert ordered[1].imag < ordered[2].imag  # conjugates adjacent, -i first


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


def test_full_order_argument_validation():
    r = reduce(damped_skew_system(), 1)
    with pytest.raises(ValueError):
        newton_coeffs(r, n_full=0)
    # Newton allows genuine truncation
    exp = newton_coeffs(r, n_full=3)
    assert exp.order == 2


def test_expansion_validation():
    with pytest.raises(ValueError):
        KernelExpansion(family=KernelFamily.DYSON, order=2,
                        g=np.zeros(2), f=np.zeros(3), mode_params=None)


# ---------------------------------------------------------------- Laplace


def quad_laplace(exp, s, upper=60.0):
    def integrand_re(t):
        return float(np.real(np.exp(-s * t) * kernel_eval(exp, t)[0]))

    def integrand_im(t):
        return float(np.imag(np.exp(-s * t) * kernel_eval(exp, t)[0]))

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
    g0 = kernel_eval(exp, 0.0)[0]
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
