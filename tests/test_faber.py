"""Tests for Bessel evaluation, ellipse fitting, Faber polynomial modes,
and the a-priori convergence bound.

Independent references used here: the integral representation
J_j(x) = (1/pi) * int_0^pi cos(j*theta - x*sin(theta)) dtheta evaluated by
high-order quadrature, hand-checked series values, and dense matrix
exponentials.
"""

import numpy as np
import pytest

from mzgle.faber import (FOV_ANGLES, BoundParams, EllipseMap, bessel_j,
                         bessel_j_table, bound_params_for_vector, convergence_bound,
                         expm_faber, faber_modes, faber_modes_grid,
                         faber_recurrence_apply, field_of_values_radius,
                         fit_ellipse, log_norm)
from mzgle.linalg import Spectrum, expm_apply


def bessel_quadrature(order, x, n_quad=4000):
    theta = (np.arange(n_quad) + 0.5) * np.pi / n_quad
    return float(np.mean(np.cos(order * theta - x * np.sin(theta))))


# ---------------------------------------------------------------- Bessel


def test_bessel_known_values():
    assert abs(bessel_j(0, 2.0) - 0.22389077914123567) < 1e-14
    assert abs(bessel_j(1, 1.0) - 0.44005058574493355) < 1e-14
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


@pytest.mark.parametrize("x", [0.3, 2.0, 8.0, 11.9, 12.1, 25.0, 60.0])
def test_bessel_matches_quadrature(x):
    for order in (0, 1, 2, 5, 12, 30):
        ref = bessel_quadrature(order, x)
        assert abs(bessel_j(order, x) - ref) < 1e-10


def test_bessel_table_consistent_with_scalar():
    x = np.array([0.0, 1.5, 13.0, 40.0])
    table = bessel_j_table(20, x)
    assert table.shape == (21, 4)
    for j in range(21):
        for col, xv in enumerate(x):
            assert abs(table[j, col] - bessel_j(j, float(xv))) < 1e-13


def test_bessel_negative_argument_parity():
    for order in (0, 1, 2, 7):
        x = 3.7
        expected = (-1.0) ** order * bessel_j(order, x)
        assert abs(bessel_j(order, -x) - expected) < 1e-14


def test_bessel_normalization_sum():
    # J_0(x) + 2 * sum_k J_{2k}(x) telescopes to 1 for every x
    for x in (0.5, 5.0, 11.0, 20.0):
        table = bessel_j_table(80, np.array([x]))[:, 0]
        total = table[0] + 2.0 * np.sum(table[2::2])
        assert abs(total - 1.0) < 1e-10


# ------------------------------------------------------------- EllipseMap


def test_from_axes_recovers_geometry():
    emap = EllipseMap.from_axes(-0.4, 2.0, 1.0)
    assert abs(emap.c0 - (-0.4)) < 1e-15
    assert abs(emap.capacity - 1.5) < 1e-15
    assert abs(emap.c1 - 0.75) < 1e-15
    # psi maps the circle |w| = capacity onto the ellipse boundary
    w = emap.capacity * np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5]) * np.pi)
    z = emap.psi(w)
    assert abs(np.max(z.real) - (-0.4 + 2.0)) < 1e-12
    assert abs(np.max(z.imag) - 1.0) < 1e-12


def test_positive_c1_modes_rejected():
    # semi_real > semi_imag makes c1 positive; the temporal modes for that
    # branch are outside this release's domain
    emap = EllipseMap.from_axes(0.0, 2.0, 1.0)
    assert emap.c1 > 0
    with pytest.raises(ValueError):
        faber_modes(emap, 1.0, 4)


def test_ellipse_contains():
    emap = EllipseMap.from_axes(0.0, 2.0, 1.0)
    assert emap.contains(np.array([1.9, 0.5j, -1.0 + 0.5j]))
    assert not emap.contains(np.array([2.1]))


def test_fit_ellipse_pure_imaginary_pair():
    emap = fit_ellipse(Spectrum(np.array([1j, -1j])), padding=0.0)
    assert abs(emap.c0) < 1e-15
    assert emap.contains(np.array([1j, -1j]))
    assert emap.c1 < 0.0


def test_fit_ellipse_real_interval():
    emap = fit_ellipse(Spectrum(np.array([1.0, 3.0])), padding=0.0)
    assert abs(emap.c0 - 2.0) < 1e-14
    assert emap.semi_real >= 1.0
    assert emap.contains(np.array([1.0, 3.0, 2.5]))


def test_fit_ellipse_padding_grows_axes():
    spec = Spectrum(np.array([2j, -2j]))
    tight = fit_ellipse(spec, padding=0.0)
    padded = fit_ellipse(spec, padding=0.1)
    assert padded.semi_imag > tight.semi_imag
    assert padded.capacity > tight.capacity


# ------------------------------------------------------- temporal modes


def test_taylor_branch_matches_series():
    # degenerate ellipse: modes reduce to e^{t c0} t^j / j!
    emap = EllipseMap.from_axes(-0.3, 1e-13, 1e-13 / 2)
    t = 1.7
    modes = faber_modes(emap, t, 6)
    fac = 1.0
    for j in range(7):
        if j > 0:
            fac *= j
        expected = np.exp(-0.3 * t) * t**j / fac
        assert abs(modes[j] - expected) < 1e-12 * max(1.0, abs(expected))


def test_modes_small_and_large_argument_branches_agree():
    # evaluate just below and above the series/Miller switch and compare
    # against the independent quadrature Bessel values; tall ellipses
    # (semi_imag > semi_real) give the oscillatory c1 < 0 branch
    t = 2.0
    for x in (11.9, 12.1):
        semi_imag = np.sqrt(x**2 / 4.0 + 0.04)  # so that 2 t sqrt(-c1) = x
        emap = EllipseMap.from_axes(0.0, 0.2, semi_imag)
        assert emap.c1 < 0
        assert abs(2.0 * t * np.sqrt(-emap.c1) - x) < 1e-12
        modes = faber_modes(emap, t, 8)
        for j in range(9):
            ref = bessel_quadrature(j, x) / np.sqrt(-emap.c1) ** j
            assert abs(modes[j] - ref) < 1e-10 * max(1.0, abs(ref))


def test_modes_grid_matches_scalar_calls():
    emap = EllipseMap.from_axes(-0.1, 0.7, 1.5)
    tgrid = np.array([0.0, 0.5, 1.5, 4.0])
    grid = faber_modes_grid(emap, tgrid, 5)
    assert grid.shape == (6, 4)
    for col, t in enumerate(tgrid):
        single = faber_modes(emap, float(t), 5)
        assert np.max(np.abs(grid[:, col] - single)) < 1e-13


def test_mode_identity_reconstructs_exponential():
    # sum_j a_j(t) F_j(lambda) = e^{t lambda} for lambda inside the ellipse
    emap = EllipseMap.from_axes(0.0, 0.5, 1.0)
    lam = np.array([0.9j, -0.9j, 0.3 + 0.2j, -0.4])
    n = 40
    modes = faber_modes(emap, 3.0, n)
    # Faber polynomials at scalar points via the recurrence
    vals = np.zeros((n + 1, len(lam)), dtype=complex)
    vals[0] = 1.0
    vals[1] = lam - emap.c0
    for j in range(2, n + 1):
        vals[j] = (lam - emap.c0) * vals[j - 1] - emap.c1 * vals[j - 2]
        if j == 2:
            vals[j] -= emap.c1
    recon = modes @ vals
    assert np.max(np.abs(recon - np.exp(3.0 * lam))) < 1e-9


# ------------------------------------------------- recurrence on matrices


def test_recurrence_scalar_polynomials():
    # for the 1x1 matrix [z] the rows are F_j(z); check degree 2 by hand:
    # F_2(z) = (z - c0)^2 - 2 c1
    emap = EllipseMap.from_axes(0.0, 1.0, 0.5)
    z = 2.0
    rows = faber_recurrence_apply(emap, np.array([[z]]), np.array([1.0]), 3)
    f2_expected = (z - emap.c0) ** 2 - 2 * emap.c1
    f3_expected = (z - emap.c0) * f2_expected - emap.c1 * (z - emap.c0)
    assert abs(rows[2, 0] - f2_expected) < 1e-12
    assert abs(rows[3, 0] - f3_expected) < 1e-12


def test_expm_faber_matches_dense_exponential():
    g = np.random.Generator(np.random.PCG64(7))
    m = g.normal(size=(12, 12)) * 0.4
    m = m - m.T  # skew: imaginary spectrum, well inside a fitted ellipse
    from mzgle.linalg import eigenvalues
    emap = fit_ellipse(eigenvalues(m), padding=0.1)
    v = g.normal(size=12)
    for t in (0.5, 2.0):
        exact = expm_apply(m, t, v)
        approx = expm_faber(emap, m, t, v, order=50)
        assert np.max(np.abs(approx - exact)) < 1e-9


# ------------------------------------------------------ convergence bound


def test_field_of_values_radius_dominates_spectrum():
    g = np.random.Generator(np.random.PCG64(11))
    m = g.normal(size=(9, 9))
    q = field_of_values_radius(m)
    lam = np.linalg.eigvals(m)
    assert q >= np.max(np.abs(lam)) - 1e-9
    assert q <= np.linalg.norm(m, 2) + 1e-9


def test_field_of_values_radius_bounds_off_axis_numerical_radius():
    # [[1, -1], [1, 1]] padded with zeros: its numerical radius sqrt(2) is
    # reached off both axes, where sampled Rayleigh quotients missed it
    m = np.zeros((102, 102))
    m[:2, :2] = [[1.0, -1.0], [1.0, 1.0]]
    q = field_of_values_radius(m)
    assert np.sqrt(2.0) <= q <= np.sqrt(2.0) / np.cos(np.pi / FOV_ANGLES) + 1e-12


def test_log_norm_is_max_symmetric_part_eigenvalue():
    m = np.array([[0.0, 3.0], [-1.0, -2.0]])
    sym = 0.5 * (m + m.T)
    assert abs(log_norm(m) - np.max(np.linalg.eigvalsh(sym))) < 1e-13


def test_bound_rejects_low_order():
    emap = EllipseMap.from_axes(0.0, 1.0, 0.5)
    params = BoundParams(q=2.0, K=1.0, beta=0.0)
    with pytest.raises(ValueError):
        convergence_bound(emap, params, t=1.0, n=7)  # needs n >= 4 q


def test_bound_zero_time_is_zero():
    emap = EllipseMap.from_axes(0.0, 1.0, 0.5)
    params = BoundParams(q=1.0, K=2.0, beta=0.0)
    assert convergence_bound(emap, params, t=0.0, n=10) == 0.0


def test_bound_decays_in_order():
    emap = EllipseMap.from_axes(0.0, 1.0, 0.5)
    params = BoundParams(q=1.5, K=3.0, beta=0.0)
    values = [convergence_bound(emap, params, 1.0, n) for n in (6, 10, 20, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


def test_bound_dominates_measured_error_skew_matrix():
    g = np.random.Generator(np.random.PCG64(3))
    m = g.normal(size=(10, 10)) * 0.5
    m = m - m.T
    v = g.normal(size=10)
    v /= np.linalg.norm(v)
    from mzgle.linalg import eigenvalues
    emap = fit_ellipse(eigenvalues(m), padding=0.1)
    params = bound_params_for_vector(m, v)
    n_min = int(np.ceil(4 * params.q))
    for t in (1.0, 2.0):
        exact = expm_apply(m, t, v)
        for n in range(n_min, n_min + 12, 4):
            approx = expm_faber(emap, m, t, v, order=n)
            measured = np.linalg.norm(approx - exact)
            bound = convergence_bound(emap, params, t, n)
            assert measured <= bound + 1e-14
