"""Tests for the memory-equation integrator.

Independent references: closed-form solutions of scalar linear ODEs, an
augmented-ODE reformulation of exponential-kernel memory integrated by
dense matrix exponentials, direct high-resolution quadrature, the same
scheme stepped one step at a time with the O(K^2) trapezoid sum, and
np.convolve for the blocked history sum.
"""

import tracemalloc

import numpy as np
import pytest

from mzgle import gle
from mzgle.gle import (AB3_WEIGHTS, NEAR_LAGS, WRITE_ROWS, BlowupError,
                       HistoryConvolution, ReducedModel, SolverConfig,
                       Trajectory, read_trajectory_csv, solve_gle, write_table)
from mzgle.kernels import (UNIT_DISK, KernelExpansion, KernelFamily,
                           StatsKind, SystemSpec, dyson_coeffs,
                           kernel_eval_grid, lagrange_coeffs, reduce,
                           reduced_spectrum)
from mzgle.linalg import expm_dense
from solver_order import observed_order


def zero_kernel(order=0):
    return KernelExpansion(family=KernelFamily.DYSON, order=order,
                           g=np.zeros(order + 1), f=np.zeros(order + 1),
                           mode_params=UNIT_DISK)


def dyson_kernel(g=(), f=()):
    order = max(len(g), len(f), 1) - 1
    gg = np.zeros(order + 1)
    ff = np.zeros(order + 1)
    gg[: len(g)] = g
    ff[: len(f)] = f
    return KernelExpansion(family=KernelFamily.DYSON, order=order,
                           g=gg, f=ff, mode_params=UNIT_DISK)


# ------------------------------------------------------------- validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, t_final=1.0)  # not a whole number of steps
    cfg = SolverConfig(dt=0.25, t_final=1.0)
    assert cfg.n_steps == 4
    with pytest.raises(ValueError, match="at least one step"):
        SolverConfig(dt=1.0, t_final=1e-10)  # rounds to zero steps


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


def test_trajectory_csv_matches_format_spec(tmp_path):
    values = [-0.0, 5e-324, 1e308, float(2**53 + 1), -1.0 / 3.0]
    tr = Trajectory(times=0.1 * np.arange(5), values=values)
    tr.write_csv(tmp_path / "edge.csv")
    expected = "t,y\n" + "".join(f"{t:.17g},{y:.17g}\n"
                                 for t, y in zip(tr.times, tr.values))
    assert (tmp_path / "edge.csv").read_text() == expected


def test_write_table_matches_savetxt(tmp_path):
    # an integer column and the edge values, against np.savetxt's bytes
    cols = (np.arange(5), [-0.0, 5e-324, 1e308, float(2**53 + 1), -1.0 / 3.0],
            np.linspace(-1.0, 1.0, 5))
    write_table(tmp_path / "ours.csv", ("j", "a", "b"), cols)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), fmt="%.17g",
               delimiter=",", header="j,a,b", comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_table_blocks_match_savetxt(tmp_path):
    # two full blocks of WRITE_ROWS rows and a partial third
    n = 2 * WRITE_ROWS + 3
    cols = (np.arange(n), np.random.default_rng(0).normal(size=n) * np.logspace(-300, 300, n))
    write_table(tmp_path / "ours.csv", ("j", "x"), cols)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), fmt="%.17g",
               delimiter=",", header="j,x", comments="")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_table_zero_rows(tmp_path):
    write_table(tmp_path / "empty.csv", ("t", "y"), ([], []))
    assert (tmp_path / "empty.csv").read_text() == "t,y\n"


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
    model = ReducedModel(a=r.a, b=r.b,
                         kernel=lagrange_coeffs(r, reduced_spectrum(r, "modes")))
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


def test_taylor_start_local_error_fourth_order():
    # y_1 and y_2 alone, on a model with memory and forcing (nonzero
    # unresolved mean); the mean pipeline's y(t) is (e^{tA} mean)_1
    big = np.array([[-0.3, 1.0, 0.4], [-0.8, -0.5, 0.6], [0.5, -0.7, -0.2]])
    mean = np.array([1.0, 0.6, -0.9])
    system = SystemSpec(A=big, init_mean=mean,
                        stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(system, 1)
    model = ReducedModel(a=r.a, b=r.b,
                         kernel=lagrange_coeffs(r, reduced_spectrum(r, "modes")))
    errs = []
    for dt in (0.02, 0.01):
        y = solve_gle(model, mean[0], SolverConfig(dt=dt, t_final=2 * dt)).values
        exact = [(expm_dense(big, k * dt) @ mean)[0] for k in (1, 2)]
        errs.append(np.abs(y[1:] - exact))
    ratio = errs[0] / errs[1]
    assert np.all((12.0 <= ratio) & (ratio <= 20.0)), ratio


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


# ------------------------------------------- block solve vs. direct stepping


def direct_solve(model, y0, cfg):
    """Third-order Taylor start at t = 0, then AB3 with the O(K^2)
    trapezoid memory sum, one step at a time.  Returns
    (y, last_valid_index), the index None without blowup."""
    a, b, dt, kk = model.a, model.b, cfg.dt, cfg.n_steps
    g, f = kernel_eval_grid(model.kernel, dt * np.arange(kk + 1))
    fint = np.concatenate(([0.0], np.cumsum(0.5 * dt * (f[1:] + f[:-1]))))
    y = np.zeros(kk + 1)
    y[0] = y0
    d1 = a * y0 + b
    d2 = a * d1 + g[0] * y0 + f[0]
    d3 = a * d2 + g[0] * d1 + ((g[1] - g[0]) * y0 + f[1] - f[0]) / dt

    def rhs(k):
        mem = np.dot(g[k::-1], y[: k + 1]) - 0.5 * (g[k] * y[0] + g[0] * y[k])
        return a * y[k] + b + dt * mem + fint[k]

    r = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(kk):
            r.append(rhs(k))
            if k < 2:
                h = (k + 1) * dt
                y[k + 1] = y0 + h * (d1 + h / 2 * (d2 + h / 3 * d3))
            else:
                w0, w1, w2 = AB3_WEIGHTS
                y[k + 1] = y[k] + dt * (w0 * r[k] + w1 * r[k - 1] + w2 * r[k - 2])
            if not np.isfinite(y[k + 1]):
                return y, k
    return y, None


# K in {1, 2, 3, 4} (Taylor start only, then a first block of 1 or 2 steps),
# around B, past 2B, and across four FFT levels without being a multiple of B
@pytest.mark.parametrize("k", [1, 2, 3, 4, NEAR_LAGS - 1, NEAR_LAGS, NEAR_LAGS + 1,
                               NEAR_LAGS + 2, 2 * NEAR_LAGS + 5,
                               16 * NEAR_LAGS + 37])
def test_block_solve_matches_direct_stepping(k):
    kernel = dyson_kernel(g=[-0.6, 0.3, -0.05], f=[0.4, -0.2, 0.03])
    model = ReducedModel(a=-0.2, b=0.3, kernel=kernel)
    cfg = SolverConfig(dt=5.0 / (k + 3), t_final=5.0 * k / (k + 3))
    assert cfg.n_steps == k
    want, stop = direct_solve(model, 1.0, cfg)
    assert stop is None
    got = solve_gle(model, 1.0, cfg).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_solve_peak_memory(monkeypatch):
    # the solver's own state beside the kernel table: the trajectory is the
    # history's storage and only r[s-3:s] carries from block to block.
    # 13.4 arrays of K + 1 floats here, 15.4 with a second copy of y and r
    # stored at every step
    kk = 40000
    kernel = dyson_kernel(g=[-0.6, 0.3, -0.05], f=[0.4, -0.2, 0.03])
    model = ReducedModel(a=-0.2, b=0.3, kernel=kernel)
    cfg = SolverConfig(dt=1e-3, t_final=kk * 1e-3)
    assert cfg.n_steps == kk
    table = kernel_eval_grid(kernel, cfg.dt * np.arange(kk + 1))
    solve_gle(model, 1.0, SolverConfig(dt=cfg.dt, t_final=3 * cfg.dt))   # set-up untraced
    monkeypatch.setattr(gle, "kernel_eval_grid", lambda kernel, times: table)
    tracemalloc.start()
    try:
        solve_gle(model, 1.0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14.0 * (kk + 1) * 8


def stiff(a):
    return ReducedModel(a=a, b=0.0, kernel=zero_kernel())


STIFF_STEPS = SolverConfig(dt=5.0, t_final=1000.0)


@pytest.mark.parametrize("model, y0, cfg", [
    # inside the first block
    (stiff(30.0), 1.0, STIFF_STEPS),
    # after step 2B; the memory sum c_k overflows before y does
    (ReducedModel(a=2.0, b=0.5, kernel=dyson_kernel(g=[1.0], f=[0.1])), 1.0,
     SolverConfig(dt=0.1, t_final=400.0)),
    # stiff steps from a tiny start: the block's inverse column overflows
    # well before the solution does (steps 136, 126, 151 and 151)
    (stiff(100.0), 1e-100, STIFF_STEPS),
    (stiff(1000.0), 1e-200, STIFF_STEPS),
    (stiff(1000.0), 1e-300, STIFF_STEPS),
    (stiff(-1000.0), 1e-300, STIFF_STEPS),
    # inside the Taylor start: y(dt) ~ (a dt)^3 / 6 is finite, y(2 dt) not
    (stiff(1.6e102), 1.0, STIFF_STEPS),
], ids=["first-block", "after-2B", "stiff-100", "stiff-1000", "stiff-1000-tiny",
        "stiff-minus-1000-tiny", "taylor-start"])
def test_blowup_index_matches_direct_stepping(model, y0, cfg):
    _, stop = direct_solve(model, y0, cfg)
    with pytest.raises(BlowupError) as info:
        solve_gle(model, y0, cfg)
    assert info.value.last_valid_index == stop


# ------------------------------------------------------ blocked history sum


def push_all(g, y):
    conv = HistoryConvolution(g)
    out = np.empty(len(y))
    for n, v in enumerate(y):
        lagged = conv.lagged(1)
        conv.values[n] = v
        out[n] = conv.extend(lagged)[0]
    return out


# table lengths K + 1 for K in {1, 2, 3, B-1, B, B+1}, around the near band's
# end 2B and the first FFT level's first steps (3B + 5), and K crossing four
# FFT levels (2B, .., 16B) without being a multiple of B
@pytest.mark.parametrize("k", [1, 2, 3, NEAR_LAGS - 1, NEAR_LAGS, NEAR_LAGS + 1,
                               2 * NEAR_LAGS - 1, 2 * NEAR_LAGS, 2 * NEAR_LAGS + 1,
                               3 * NEAR_LAGS + 5, 16 * NEAR_LAGS + 37])
def test_history_convolution_matches_direct_sum(k):
    rng = np.random.Generator(np.random.PCG64(k))
    g = rng.standard_normal(k + 1)
    y = rng.standard_normal(k + 1)
    want = np.convolve(g, y)[: k + 1]
    assert np.max(np.abs(push_all(g, y) - want)) <= 1e-13 * np.max(np.abs(want))


def test_history_convolution_aligned_blocks():
    # three single values, then the solver's blocks [3, B), [B, 2B), ...,
    # a partial last one; lagged(m) sums over the committed values only,
    # and extend adds the block's own lags to it
    k = 5 * NEAR_LAGS + 17
    rng = np.random.Generator(np.random.PCG64(7))
    g = rng.standard_normal(k + 1)
    y = rng.standard_normal(k + 1)
    want = np.convolve(g, y)[: k + 1]
    conv = HistoryConvolution(g)
    edges = [0, 1, 2, 3] + list(range(NEAR_LAGS, k + 1, NEAR_LAGS)) + [k + 1]
    for s, e in zip(edges, edges[1:]):
        before = np.convolve(g, np.where(np.arange(k + 1) < s, y, 0.0))[s:e]
        lagged = conv.lagged(e - s)
        assert np.max(np.abs(lagged - before)) <= 1e-13 * np.max(np.abs(want))
        conv.values[s:e] = y[s:e]
        assert np.max(np.abs(conv.extend(lagged) - want[s:e])) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="cross"):
        HistoryConvolution(g).extend(np.zeros(NEAR_LAGS + 1))
    conv = HistoryConvolution(g)
    conv.extend(conv.lagged(3))
    with pytest.raises(ValueError, match="cross"):
        conv.extend(np.zeros(NEAR_LAGS - 2))


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
