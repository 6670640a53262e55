"""Tests for the memory-equation integrator.

Independent references: closed-form solutions of scalar linear ODEs, an
augmented-ODE reformulation of exponential-kernel memory integrated by
dense matrix exponentials, direct high-resolution quadrature, and
np.convolve for the blocked history sum.
"""

import numpy as np
import pytest

from mzgle.gle import (NEAR_LAGS, BlowupError, HistoryConvolution,
                       ReducedModel, SolverConfig, Trajectory, observed_order,
                       read_trajectory_csv, solve_gle)
from mzgle.kernels import (KernelExpansion, KernelFamily, StatsKind,
                           SystemSpec, dyson_coeffs, lagrange_coeffs, reduce)
from mzgle.linalg import expm_dense


def zero_kernel(order=0):
    return KernelExpansion(family=KernelFamily.DYSON, order=order,
                           g=np.zeros(order + 1), f=np.zeros(order + 1),
                           mode_params=None)


def dyson_kernel(g=(), f=()):
    order = max(len(g), len(f), 1) - 1
    gg = np.zeros(order + 1)
    ff = np.zeros(order + 1)
    gg[: len(g)] = g
    ff[: len(f)] = f
    return KernelExpansion(family=KernelFamily.DYSON, order=order,
                           g=gg, f=ff, mode_params=None)


# ------------------------------------------------------------- validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, t_final=1.0)  # not a whole number of steps
    cfg = SolverConfig(dt=0.25, t_final=1.0)
    assert cfg.n_steps == 4


def test_trajectory_validation_and_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.1, 0.3]),
                   values=np.zeros(3))  # non-uniform grid
    tr = Trajectory(times=np.linspace(0.0, 1.0, 11),
                    values=np.sin(np.linspace(0.0, 1.0, 11)))
    path = tmp_path / "tr.csv"
    tr.write_csv(path)
    assert path.read_text().splitlines()[0] == "t,y"
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.values, tr.values)


def test_rejects_nonfinite_y0():
    model = ReducedModel(a=0.0, b=0.0, kernel=zero_kernel())
    with pytest.raises(ValueError):
        solve_gle(model, np.inf, SolverConfig(dt=0.1, t_final=1.0))


# ----------------------------------------------------------- plain ODEs


def test_linear_ode_third_order_convergence():
    model = ReducedModel(a=-1.3, b=0.7, kernel=zero_kernel())
    y0 = 2.0
    # y(t) = (y0 - ys) e^{a t} + ys with ys = -b/a
    ys = 0.7 / 1.3

    def exact(t):
        return (y0 - ys) * np.exp(-1.3 * t) + ys

    errs = []
    for dt in (0.02, 0.01, 0.005):
        tr = solve_gle(model, y0, SolverConfig(dt=dt, t_final=2.0))
        errs.append(abs(tr.values[-1] - exact(2.0)))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert 2.6 < order[0] < 3.4
    assert 2.6 < order[1] < 3.4


def test_observed_order_memory_free():
    model = ReducedModel(a=-0.8, b=0.0, kernel=zero_kernel())
    cfgs = [SolverConfig(dt=d, t_final=2.0) for d in (0.02, 0.01, 0.005, 0.0025)]
    p = observed_order(model, 1.0, cfgs,
                       reference=lambda t: np.exp(-0.8 * t))
    assert abs(p - 3.0) < 0.3


def test_observed_order_inconclusive_raises():
    # constant solution: all errors are identically zero
    model = ReducedModel(a=0.0, b=0.0, kernel=zero_kernel())
    cfgs = [SolverConfig(dt=d, t_final=1.0) for d in (0.1, 0.05, 0.025)]
    with pytest.raises(ValueError):
        observed_order(model, 1.0, cfgs, reference=lambda t: 1.0)


def test_observed_order_input_validation():
    model = ReducedModel(a=-1.0, b=0.0, kernel=zero_kernel())
    with pytest.raises(ValueError):
        observed_order(model, 1.0, [SolverConfig(dt=0.1, t_final=1.0)] * 2)
    mixed = [SolverConfig(dt=0.1, t_final=1.0),
             SolverConfig(dt=0.05, t_final=2.0),
             SolverConfig(dt=0.025, t_final=1.0)]
    with pytest.raises(ValueError):
        observed_order(model, 1.0, mixed)
    non_geometric = [SolverConfig(dt=0.1, t_final=1.0),
                     SolverConfig(dt=0.05, t_final=1.0),
                     SolverConfig(dt=0.04, t_final=1.0)]
    with pytest.raises(ValueError):
        observed_order(model, 1.0, non_geometric)


# ------------------------------------------------------------ memory term


def test_constant_memory_kernel_against_quadrature():
    # y' = int_0^t (-1) y(s) ds  with y(0) = 1  has solution cos(t)
    model = ReducedModel(a=0.0, b=0.0, kernel=dyson_kernel(g=[-1.0]))
    tr = solve_gle(model, 1.0, SolverConfig(dt=0.001, t_final=10.0))
    assert np.max(np.abs(tr.values - np.cos(tr.times))) < 1e-4


def test_exponential_kernel_against_augmented_ode():
    # kernel g(t) = g0 e^{lam t} makes the memory equation equivalent to
    # the 2x2 ODE  y' = a y + z,  z' = lam z + g0 y,  z(0) = 0
    a, lam, g0 = -0.4, -1.1, -0.8
    sys_a = np.array([[a, 1.0], [g0, lam]])
    # exponential kernel from a 2x2 system through the full-spectrum family
    big = np.array([[a, 1.0], [g0, lam]])
    # reduced memory model with the exact exponential expansion
    system = SystemSpec(A=big, init_mean=np.zeros(2),
                        stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(system, 1)
    model = ReducedModel(a=r.a, b=r.b, kernel=lagrange_coeffs(r))
    errs = []
    for dt in (0.02, 0.01, 0.005):
        tr = solve_gle(model, 1.0, SolverConfig(dt=dt, t_final=3.0))
        exact = np.array([
            (expm_dense(sys_a, float(t)) @ np.array([1.0, 0.0]))[0]
            for t in tr.times[:: len(tr.times) // 10]
        ])
        errs.append(np.max(np.abs(tr.values[:: len(tr.times) // 10] - exact)))
    assert errs[-1] < 1e-5
    order = np.log2(errs[1] / errs[2])
    assert order > 1.6  # trapezoid memory limits the scheme to ~2


def test_forcing_kernel_quadrature():
    # a = 0, g = 0, f(t) = cos t:  y(t) = y0 + int_0^t sin = y0 + 1 - cos t
    f = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0]
    model = ReducedModel(a=0.0, b=0.0, kernel=dyson_kernel(f=f))
    tr = solve_gle(model, 0.5, SolverConfig(dt=0.002, t_final=2.0))
    expected = 0.5 + 1.0 - np.cos(tr.times)
    assert np.max(np.abs(tr.values - expected)) < 1e-6


def test_linearity_in_initial_condition():
    model = ReducedModel(a=-0.2, b=0.0, kernel=dyson_kernel(g=[-0.5, 0.1]))
    cfg = SolverConfig(dt=0.01, t_final=2.0)
    one = solve_gle(model, 1.0, cfg)
    three = solve_gle(model, 3.0, cfg)
    assert np.max(np.abs(three.values - 3.0 * one.values)) < 1e-12


def test_blowup_reports_last_valid_index():
    model = ReducedModel(a=30.0, b=0.0, kernel=zero_kernel())
    with pytest.raises(BlowupError) as info:
        solve_gle(model, 1.0, SolverConfig(dt=0.5, t_final=200.0))
    assert info.value.last_valid_index >= 0
    assert info.value.last_valid_index < 400


def test_deterministic_rerun_bitwise():
    model = ReducedModel(a=-0.3, b=0.1, kernel=dyson_kernel(g=[-0.4, 0.2]))
    cfg = SolverConfig(dt=0.01, t_final=1.0)
    a = solve_gle(model, 1.0, cfg)
    b = solve_gle(model, 1.0, cfg)
    assert np.array_equal(a.values, b.values)


# ------------------------------------------------------ blocked history sum


def push_all(g, y):
    conv = HistoryConvolution(g)
    return np.array([conv.push(v) for v in y])


# table lengths K + 1 for K in {1, 2, 3, B-1, B, B+1}, and K crossing five
# FFT levels (B, 2B, .., 16B) without being a multiple of B
@pytest.mark.parametrize("k", [1, 2, 3, NEAR_LAGS - 1, NEAR_LAGS, NEAR_LAGS + 1,
                               16 * NEAR_LAGS + 37])
def test_history_convolution_matches_direct_sum(k):
    rng = np.random.Generator(np.random.PCG64(k))
    g = rng.standard_normal(k + 1)
    y = rng.standard_normal(k + 1)
    want = np.convolve(g, y)[: k + 1]
    assert np.max(np.abs(push_all(g, y) - want)) <= 1e-13 * np.max(np.abs(want))


def test_history_convolution_zero_blocks_and_large_values():
    # leading all-zero blocks, then values up to 1.7e308, past the largest
    # power of two 2^1023: their block sums would overflow an unscaled FFT,
    # while the convolution itself stays finite
    k = 64 * NEAR_LAGS + 5
    rng = np.random.Generator(np.random.PCG64(1))
    g = 1e-6 * rng.random(k + 1)
    y = 1.7e308 * rng.random(k + 1)
    y[: 3 * NEAR_LAGS] = 0.0
    want = np.convolve(g, y)[: k + 1]
    got = push_all(g, y)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_blowup_step_matches_direct_sum():
    # g(t) = 3 + 2t + t^2/2 with a = 0.1 drives y to the overflow threshold
    # after 33656 steps of the direct O(K^2) sum; without power-of-two
    # block scaling the FFT overflows first, at step 32768
    model = ReducedModel(a=0.1, b=0.0, kernel=dyson_kernel(g=[3.0, 2.0, 1.0]))
    with pytest.raises(BlowupError) as info:
        solve_gle(model, 1.0, SolverConfig(dt=0.01, t_final=400.0))
    assert info.value.last_valid_index == 33656
