"""Tests for ellipse fitting, Faber polynomial modes, and the a-priori
convergence bound of tests/apriori_bound.py.

Independent references used here: the integral representation
J_j(x) = (1/pi) * int_0^pi cos(j*theta - x*sin(theta)) dtheta evaluated by
high-order quadrature, hand-checked Bessel values, mpmath's 0F1 at 30
digits, and dense matrix exponentials.
"""

import tracemalloc

import numpy as np
import pytest

from mzgle.faber import (MAX_ORDER, EllipseMap, faber_modes_grid,
                         faber_recurrence_apply, fit_ellipse)
from mzgle.kernels import (faber_coeffs, kernel_eval_grid, reduce,
                           reduced_spectrum)
from mzgle.linalg import Spectrum, dense, expm_dense
from mzgle.models import build_chain_system, build_path
from apriori_bound import (FOV_ANGLES, BoundParams, bound_params_for_kernel,
                           bound_params_for_vector, convergence_bound,
                           field_of_values_radius, log_norm)
from series_forms import expm_faber

# c1 = -1 and c0 = 0: the modes are the Bessel values a_j(t) = J_j(2t)
UNIT_BESSEL = EllipseMap.from_axes(0.0, 0.0, 2.0)


def bessel_quadrature(order, x, n_quad=4000):
    theta = (np.arange(n_quad) + 0.5) * np.pi / n_quad
    return float(np.mean(np.cos(order * theta - x * np.sin(theta))))


def modes_mpmath(emap, t, n):
    """a_j(t) = e^{t c0} t^j 0F1(; j+1; c1 t^2) / j! at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    out = np.empty((n + 1, len(t)))
    with mpmath.workdps(30):
        c0, c1 = mpmath.mpf(emap.c0), mpmath.mpf(emap.c1)
        for col, tv in enumerate(t):
            tv = mpmath.mpf(float(tv))
            pref = mpmath.exp(tv * c0)
            for j in range(n + 1):
                out[j, col] = float(pref * tv**j * mpmath.hyp0f1(j + 1, c1 * tv * tv)
                                    / mpmath.factorial(j))
    return out


def normwise_error(modes, ref):
    """Largest error of a time column relative to that column's max norm."""
    return float(np.max(np.max(np.abs(modes - ref), axis=0)
                        / np.max(np.abs(ref), axis=0)))


# ------------------------------------------------------ Bessel values


def test_bessel_known_values():
    modes = faber_modes_grid(UNIT_BESSEL, np.array([0.0, 0.5, 1.0]), 3)
    assert abs(modes[0, 2] - 0.22389077914123567) < 1e-14    # J_0(2)
    assert abs(modes[1, 1] - 0.44005058574493355) < 1e-14    # J_1(1)
    assert modes[0, 0] == 1.0
    assert modes[3, 0] == 0.0


@pytest.mark.parametrize("x", [0.3, 2.0, 8.0, 11.9, 12.1, 25.0, 60.0])
def test_bessel_matches_quadrature(x):
    modes = faber_modes_grid(UNIT_BESSEL, [0.5 * x], 30)[:, 0]
    for order in (0, 1, 2, 5, 12, 30):
        assert abs(modes[order] - bessel_quadrature(order, x)) < 1e-10


# ------------------------------------------------------------- EllipseMap


def test_from_axes_recovers_geometry():
    emap = EllipseMap.from_axes(-0.4, 2.0, 1.0)
    assert abs(emap.c0 - (-0.4)) < 1e-15
    assert abs(emap.capacity - 1.5) < 1e-15
    assert abs(emap.c1 - 0.75) < 1e-15
    # psi maps the circle |w| = capacity onto the ellipse boundary
    w = emap.capacity * np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5]) * np.pi)
    z = w + emap.c0 + emap.c1 / w
    assert abs(np.max(z.real) - (-0.4 + 2.0)) < 1e-12
    assert abs(np.max(z.imag) - 1.0) < 1e-12


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


@pytest.mark.parametrize("call, message", [
    (lambda: EllipseMap.from_axes(0.0, -1.0, 1.0), "semi-axes must be nonnegative"),
    (lambda: EllipseMap.from_axes(0.0, 0.0, 0.0), "both semi-axes are zero"),
    (lambda: fit_ellipse(Spectrum(np.zeros(0))), "empty spectrum"),
    (lambda: fit_ellipse(Spectrum(np.array([1j, -1j])), padding=-0.1),
     "padding must be >= 0"),
    (lambda: faber_modes_grid(UNIT_BESSEL, np.array([0.0, -1.0]), 4), "t must be >= 0"),
    (lambda: faber_recurrence_apply(UNIT_BESSEL, np.eye(2), np.ones(2), -1),
     "n must be >= 0"),
], ids=["negative-axis", "zero-axes", "empty-spectrum", "negative-padding",
        "negative-t", "negative-order"])
def test_faber_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_fit_ellipse_padding_grows_axes():
    spec = Spectrum(np.array([2j, -2j]))
    tight = fit_ellipse(spec, padding=0.0)
    padded = fit_ellipse(spec, padding=0.1)
    assert padded.semi_imag > tight.semi_imag
    assert padded.capacity > tight.capacity


# ------------------------------------------------------- temporal modes


def test_taylor_branch_matches_series():
    # degenerate ellipses, c1 tiny positive and tiny negative: modes reduce
    # to e^{t c0} t^j / j!
    t = 1.7
    for semi_real, semi_imag in ((1e-13, 1e-13 / 2), (1e-13 / 2, 1e-13)):
        emap = EllipseMap.from_axes(-0.3, semi_real, semi_imag)
        modes = faber_modes_grid(emap, [t], 6)[:, 0]
        fac = 1.0
        for j in range(7):
            if j > 0:
                fac *= j
            expected = np.exp(-0.3 * t) * t**j / fac
            assert abs(modes[j] - expected) < 1e-12 * max(1.0, abs(expected))


def test_modes_small_and_large_argument_branches_agree():
    # a tall ellipse (semi_imag > semi_real, so c1 < 0) at Bessel arguments
    # either side of x = 12, against the independent quadrature values
    t = 2.0
    for x in (11.9, 12.1):
        semi_imag = np.sqrt(x**2 / 4.0 + 0.04)  # so that 2 t sqrt(-c1) = x
        emap = EllipseMap.from_axes(0.0, 0.2, semi_imag)
        assert emap.c1 < 0
        assert abs(2.0 * t * np.sqrt(-emap.c1) - x) < 1e-12
        modes = faber_modes_grid(emap, [t], 8)[:, 0]
        for j in range(9):
            ref = bessel_quadrature(j, x) / np.sqrt(-emap.c1) ** j
            assert abs(modes[j] - ref) < 1e-10 * max(1.0, abs(ref))


def test_positive_c1_modes_match_mpmath():
    # semi_real > semi_imag makes c1 positive: modified Bessel modes
    emap = EllipseMap.from_axes(-0.3, 2.0, 1.0)
    assert emap.c1 > 0
    t = np.linspace(0.0, 3.0, 9)
    assert normwise_error(faber_modes_grid(emap, t, 30), modes_mpmath(emap, t, 30)) < 1e-13


def test_large_argument_modes_match_mpmath():
    # x = 2 t sqrt|c1| up to 1000, far past the orders: J_j oscillates for
    # c1 < 0; for c1 > 0, e^{t c0} = e^-1000 underflows while the modes
    # e^-x I_j(x) do not, which the folding of e^x into e^{t c0} covers
    t = np.array([0.0, 1.0, 50.0, 250.0, 499.0, 500.0])
    n = 24
    for emap in (UNIT_BESSEL, EllipseMap.from_axes(-2.0, 2.0, 0.0)):
        modes = faber_modes_grid(emap, t, n)
        assert normwise_error(modes, modes_mpmath(emap, t, n)) < 1e-13


@pytest.mark.parametrize("axes,dt,t_final,n", [
    ((-8.431957535863888e-17, 0.0019997482553477516, 1.9997482553477517), 1e-3, 10.0, 18),
    ((-1.9949319973733282e-16, 0.001507376786452633, 1.507376786452633), 2e-3, 10.0, 20),
    ((-5.898059818321144e-17, 0.001829535797986085, 1.829535797986085), 1.25e-4, 5.0, 24),
], ids=["chain-all", "tree-faber", "wave-long"])
def test_benchmark_ellipse_modes_match_mpmath(axes, dt, t_final, n):
    # the fitted ellipses, step grids and top orders of perfbench's three
    # workloads at seed 3, checked on 41 of the grid's times
    emap = EllipseMap.from_axes(*axes)
    k = int(round(t_final / dt))
    t = dt * np.arange(k + 1)
    cols = np.arange(0, k + 1, k // 40)
    modes = faber_modes_grid(emap, t, n)[:, cols]
    assert normwise_error(modes, modes_mpmath(emap, t[cols], n)) <= 1e-14


@pytest.mark.parametrize("c1", [-1.0, 1.0])
def test_max_order_modes_match_mpmath(c1):
    # at MAX_ORDER the modes hold from z = 0 through a dense scan of small
    # |c1 t^2|, for either sign of c1
    emap = EllipseMap(c0=-0.1, c1=c1, capacity=1.0, semi_real=1.0, semi_imag=1.0)
    t = np.concatenate(([0.0], np.logspace(-6, 0.5, 60)))
    modes = faber_modes_grid(emap, t, MAX_ORDER)
    assert normwise_error(modes, modes_mpmath(emap, t, MAX_ORDER)) < 2e-13
    with pytest.raises(ValueError):
        faber_modes_grid(emap, t, MAX_ORDER + 1)


def test_non_finite_modes_raise():
    # at t = 1e4, t^80 overflows while S_80 underflows, though the mode
    # J_80(2e4) = 5.6e-3 is an ordinary number: refuse rather than return inf
    t = np.array([0.0, 1.0, 1e4])
    with pytest.raises(ValueError, match=r"order 80 .* t = 10000"):
        faber_modes_grid(UNIT_BESSEL, t, MAX_ORDER)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_modes_reject_non_finite_t(bad):
    with pytest.raises(ValueError, match=f"t must be finite, got t = {bad}"):
        faber_modes_grid(UNIT_BESSEL, np.array([0.0, bad, 1.0]), 4)


def test_modes_refuse_overlong_recurrence():
    # x = 2e7 would take Miller's loop 2e7 steps per time
    with pytest.raises(ValueError, match="more than 1000000 recurrence steps"):
        faber_modes_grid(UNIT_BESSEL, np.array([0.0, 1e7]), 4)


def test_modes_grid_matches_scalar_calls():
    emap = EllipseMap.from_axes(-0.1, 0.7, 1.5)
    tgrid = np.array([0.0, 0.5, 1.5, 4.0])
    grid = faber_modes_grid(emap, tgrid, 5)
    assert grid.shape == (6, 4)
    for col, t in enumerate(tgrid):
        single = faber_modes_grid(emap, [t], 5)[:, 0]
        assert np.max(np.abs(grid[:, col] - single)) < 1e-13


def test_modes_grid_rejects_descending_times():
    # the recurrence works on ascending times, each step on a suffix of
    # them; a repeated time is ascending
    emap = EllipseMap.from_axes(-0.1, 0.7, 1.5)
    assert faber_modes_grid(emap, [0.0, 1.5, 1.5], 5).shape == (6, 3)
    with pytest.raises(ValueError, match="t must be ascending"):
        faber_modes_grid(emap, np.array([4.0, 0.0, 1.5, 0.5, 1.5]), 5)


def test_modes_grid_peak_memory():
    # the powers t^j scale the recurrence table row by row: no second
    # (n+1) x K table of them.  Beside the table, the loop keeps z, x/2
    # (which holds -z for J_j), the Neumann sum and three spare rows, and
    # the final scale reuses z and the sum: 1.36 tables measured, 1.47 when
    # the loop kept a copy of -z and the start orders and the scale went
    # through temporaries
    emap = EllipseMap.from_axes(-0.1, 0.7, 1.5)
    t = np.linspace(0.0, 5.0, 10001)
    n = 24
    faber_modes_grid(emap, t[:2], n)          # one-time set-up untraced
    tracemalloc.start()
    try:
        faber_modes_grid(emap, t, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * (n + 2) * t.size * 8


def test_mode_identity_reconstructs_exponential():
    # sum_j a_j(t) F_j(lambda) = e^{t lambda} for lambda inside the ellipse
    emap = EllipseMap.from_axes(0.0, 0.5, 1.0)
    lam = np.array([0.9j, -0.9j, 0.3 + 0.2j, -0.4])
    n = 40
    modes = faber_modes_grid(emap, [3.0], n)[:, 0]
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
        exact = expm_dense(m, t) @ v
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
        exact = expm_dense(m, t) @ v
        for n in range(n_min, n_min + 12, 4):
            approx = expm_faber(emap, m, t, v, order=n)
            measured = np.linalg.norm(approx - exact)
            bound = convergence_bound(emap, params, t, n)
            assert measured <= bound + 1e-14


def test_kernel_bound_dominates_faber_kernel_error_on_clamped_chain():
    # every admissible order n >= 4q until the bound reaches rounding scale
    # (accept 05's 1e-12 cutoff): max_{s<=t} |g(s) - g_n(s)| <= R(t, n), with
    # the exact kernel g(s) = bvec . e^{s M11^T} avec
    r = reduce(build_chain_system(build_path(12), clamp=(1, 12)), 1)
    mt = dense(r.M11.T)
    spectrum = reduced_spectrum(r)
    emap = fit_ellipse(spectrum)
    params = bound_params_for_kernel(mt, r.avec, r.bvec, r.mean_rest)
    checked = 0
    for t in (0.5, 1.0):
        s = np.linspace(0.0, t, 101)
        exact = np.array([r.bvec @ expm_dense(mt, si) @ r.avec for si in s])
        n = int(np.ceil(4.0 * params.q))
        while (bound := convergence_bound(emap, params, t, n)) > 1e-12:
            approx = kernel_eval_grid(faber_coeffs(r, emap, n, spectrum), s)[0]
            assert np.max(np.abs(exact - approx)) <= bound, (t, n)
            checked += 1
            n += 1
    assert checked >= 15
