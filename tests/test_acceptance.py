"""Acceptance gate: twelve end-to-end checks, each printing one pass/fail
line (mirrored to the real stdout so the lines survive output capture).

Every tolerance is pinned as a literal in its test.  Reference routes are
independent of the code paths they judge: dense matrix exponentials,
closed forms, adaptive quadrature, and sample statistics.  Deviations of
test parameters from their nominal sources are catalogued in the decisions
ledger kept outside the package.
"""

import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from mzgle.faber import EllipseMap, faber_modes_grid, fit_ellipse
from mzgle.gle import BlowupError, ReducedModel, SolverConfig, solve_gle
from mzgle.kernels import (StatsKind, SystemSpec, dyson_coeffs, faber_coeffs,
                           kernel_eval_grid, lagrange_coeffs,
                           newton_coeffs, reduce, reduced_spectrum)
from mzgle.linalg import dense, eigenvalues, expm_dense
from mzgle.models import (WaveModelSpec, bethe_node_count, build_bethe,
                          build_chain_system, build_path, build_wave_model)
from mzgle.oracles import exact_mean, mc_mean, vacf_analytic_l2, vacf_matrix_exp
from affine_oracle import affine_rep, operator_oracle
from apriori_bound import bound_params_for_vector, convergence_bound
from series_forms import expm_faber, laplace_G
from solver_order import observed_order


_capman = None


@pytest.fixture(autouse=True)
def _route_reports_past_capture(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num, ok, detail):
    line = f"[accept {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    return ok


# --------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def chain100():
    """100 interior oscillators between fixed walls, with a memoized
    per-(family, order) solve-error table shared by several checks."""
    sys_ = build_chain_system(build_path(102), clamp=(1, 102))
    tag = 2
    r = reduce(sys_, tag)
    spectrum = eigenvalues(dense(r.M11.T))
    emap = fit_ellipse(spectrum, padding=0.0)
    cfg = SolverConfig(dt=1e-3, t_final=10.0)
    grid = cfg.dt * np.arange(cfg.n_steps + 1)
    oracle = vacf_matrix_exp(sys_, tag, grid).values
    cache = {}

    def abs_err(family, order):
        key = (family, order)
        if key not in cache:
            if family == "faber":
                exp = faber_coeffs(r, emap, order, spectrum=spectrum)
            elif family == "dyson":
                exp = dyson_coeffs(r, order)
            else:
                exp = lagrange_coeffs(r, reduced_spectrum(r, "modes"))
            model = ReducedModel(a=r.a, b=r.b, kernel=exp)
            try:
                cache[key] = np.abs(solve_gle(model, 1.0, cfg).values - oracle)
            except (BlowupError, OverflowError):
                cache[key] = None
        return cache[key]

    def err(family, order, t_max=10.0):
        e = abs_err(family, order)
        if e is None:
            return np.inf
        return float(np.max(e[grid <= t_max + 1e-12]))

    return SimpleNamespace(system=sys_, tag=tag, reduced=r, emap=emap,
                           spectrum=spectrum, cfg=cfg, grid=grid,
                           oracle=oracle, err=err)


@pytest.fixture(scope="session")
def wave25():
    spec = WaveModelSpec(n_modes=25, n_random_modes=25)
    model = build_wave_model(spec)
    rng = np.random.Generator(np.random.PCG64(0))
    init_mean = model.mixing @ rng.standard_normal(model.mixing.shape[1])
    system = SystemSpec(A=model.system.A, init_mean=init_mean,
                        stats_kind=StatsKind.CHORIN_INITIAL)
    return SimpleNamespace(model=model, system=system, init_mean=init_mean,
                           mixing=model.mixing, sensor=model.sensor_index)


# --------------------------------------------------------------- criteria


def test_accept_01_taylor_limit_of_temporal_modes():
    t0 = time.perf_counter()
    tgrid = np.linspace(0.0, 2.0, 41)
    jmax = 10
    factorials = np.cumprod(np.concatenate(([1.0], np.arange(1.0, jmax + 1))))
    monomials = tgrid[None, :] ** np.arange(jmax + 1)[:, None] / factorials[:, None]
    worst = 0.0
    for c1 in (-1e-8, -1e-12, 0.0, 1e-12):
        emap = EllipseMap(c0=0.0, c1=c1, capacity=1.0,
                          semi_real=1.0 + c1, semi_imag=1.0 - c1)
        modes = faber_modes_grid(emap, tgrid, jmax)
        worst = max(worst, float(np.max(np.abs(modes - monomials))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    assert report(1, ok, f"degenerate-ellipse modes vs t^j/j!: "
                         f"max dev {worst:.3g} (tol 1e-6), {elapsed:.2f}s")


def test_accept_02_harmonic_oscillator_exactness():
    t0 = time.perf_counter()
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys_ = SystemSpec(A=a, init_mean=np.zeros(2),
                      stats_kind=StatsKind.BERNE_EQUILIBRIUM_QUADRATIC)
    r = reduce(sys_, 1)
    exp = dyson_coeffs(r, 0)
    constant_ok = exp.g.shape == (1,) and exp.g[0] == -1.0
    model = ReducedModel(a=r.a, b=r.b, kernel=exp)
    tr = solve_gle(model, 1.0, SolverConfig(dt=1e-3, t_final=10.0))
    dev = float(np.max(np.abs(tr.values - np.cos(tr.times))))
    elapsed = time.perf_counter() - t0
    ok = constant_ok and dev < 1e-4 and elapsed < 5.0
    assert report(2, ok, f"order-0 kernel is -1 and solution tracks cos t: "
                         f"max dev {dev:.3g} (tol 1e-4), {elapsed:.2f}s")


def test_accept_03_interior_chain_convergence_and_analytic_form(chain100):
    t0 = time.perf_counter()
    e6 = chain100.err("faber", 6)
    e18 = chain100.err("faber", 18)
    e20 = chain100.err("faber", 20)
    ratio_ok = e18 * 10.0 <= e6
    tail_ok = e20 < 5e-2
    # the wall-adjacent oscillator has the closed Bessel-difference form
    ana = vacf_analytic_l2(chain100.grid)
    end = vacf_matrix_exp(chain100.system, 1, chain100.grid).values
    ana_dev = float(np.max(np.abs(end - ana)))
    ana_ok = ana_dev < 1e-2
    elapsed = time.perf_counter() - t0
    ok = ratio_ok and tail_ok and ana_ok and elapsed < 60.0
    assert report(3, ok,
                  f"errors {e6:.3g}/{e18:.3g}/{e20:.3g} at orders 6/18/20 "
                  f"(10x drop {ratio_ok}, tail tol 5e-2), closed-form dev "
                  f"{ana_dev:.3g} (tol 1e-2), {elapsed:.1f}s")


def test_accept_04_faber_no_worse_than_dyson(chain100):
    t0 = time.perf_counter()
    pairs = {}
    ok = True
    for n in (6, 10, 14, 18):
        ef = chain100.err("faber", n)
        ed = chain100.err("dyson", n)
        pairs[n] = (ef, ed)
        ok = ok and ef <= ed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    summary = ", ".join(f"n={n}: {f:.2g}<={d:.2g}" for n, (f, d) in pairs.items())
    assert report(4, ok, f"matched-order max errors ({summary}), {elapsed:.1f}s")


def test_accept_05_superlinear_decay_and_a_priori_bound(chain100):
    t0 = time.perf_counter()
    # (a) benchmark errors strictly decrease in order.  The nominal ratio
    # staircase err(n+4)/err(n) is unobservable here: the solved error
    # saturates at the integrator floor (~2e-7) within one step of the
    # pre-asymptotic/asymptotic turnover, so at most one pre-floor ratio
    # exists at any feasible dt (ledger item 5, measured tables).
    orders = (6, 10, 14, 18, 22)
    errs = {n: chain100.err("faber", n) for n in orders}
    decreasing_ok = all(errs[b] < errs[a]
                        for a, b in zip(orders, orders[1:]))
    # (b) the a-priori bound itself is R-superlinear: successive ratios
    # R(t, n+4)/R(t, n) strictly decrease, and the measured polynomial
    # exponential error stays below the bound for every admissible order
    # until the bound reaches rounding scale (1e-12 cutoff, ledger item 6)
    g = np.random.Generator(np.random.PCG64(20))
    m = g.normal(size=(20, 20)) * 0.5
    m = (m - m.T) - 0.25 * np.eye(20)
    v = g.normal(size=20)
    v /= np.linalg.norm(v)
    emap = fit_ellipse(eigenvalues(m), padding=0.1)
    params = bound_params_for_vector(m, v)
    n_min = int(np.ceil(4.0 * params.q))
    bound_ok = True
    ratio_ok = True
    checked = 0
    for t in (1.0, 2.0):
        exact = expm_dense(m, t) @ v
        bounds = []
        for n in range(n_min, 200):
            bound = convergence_bound(emap, params, t, n)
            if bound <= 1e-12:
                break
            bounds.append(bound)
            measured = float(np.linalg.norm(expm_faber(emap, m, t, v, n) - exact))
            bound_ok = bound_ok and measured <= bound
            checked += 1
        ratios = [bounds[i + 4] / bounds[i] for i in range(len(bounds) - 4)]
        ratio_ok = ratio_ok and len(ratios) >= 4 and all(
            b < a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = decreasing_ok and ratio_ok and bound_ok and checked > 10 and elapsed < 60.0
    assert report(5, ok,
                  f"benchmark errors decrease in order {decreasing_ok} "
                  f"(amended, see ledger); bound ratios strictly decreasing "
                  f"{ratio_ok}; measured <= bound in {checked} (t, n) cases "
                  f"{bound_ok}, {elapsed:.1f}s")


def test_accept_06_four_families_agree():
    t0 = time.perf_counter()
    g = np.random.Generator(np.random.PCG64(6))
    s = g.normal(size=(8, 8))
    a = 0.5 * (s - s.T) - 0.05 * np.eye(8)
    sys_ = SystemSpec(A=a, init_mean=g.normal(size=8),
                      stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(sys_, 1)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    expansions = {
        "dyson": dyson_coeffs(r, 40),
        "faber": faber_coeffs(r, fit_ellipse(spectrum), 40, spectrum),
        "lagrange": lagrange_coeffs(r, reduced_spectrum(r, "modes")),
        "newton": newton_coeffs(r, spectrum),
    }
    tgrid = np.linspace(0.0, 3.0, 61)
    tables = {name: kernel_eval_grid(exp, tgrid)
              for name, exp in expansions.items()}
    names = sorted(tables)
    worst = 0.0
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            worst = max(worst,
                        float(np.max(np.abs(tables[na][0] - tables[nb][0]))),
                        float(np.max(np.abs(tables[na][1] - tables[nb][1]))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    assert report(6, ok, f"pairwise kernel agreement on [0,3]: max dev "
                         f"{worst:.3g} (tol 1e-6), {elapsed:.2f}s")


def test_accept_07_projected_words_match_reduction_formulas():
    t0 = time.perf_counter()
    g = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for case in range(20):
        dim = int(g.integers(2, 11))
        a = g.normal(size=(dim, dim))
        sys_ = SystemSpec(A=a, init_mean=g.normal(size=dim),
                          stats_kind=StatsKind.CHORIN_INITIAL)
        r = reduce(sys_, 1)
        exp = dyson_coeffs(r, 6)
        rep = affine_rep(sys_, 1)
        u = rep.observable(1)
        coeffs = g.normal(size=7)
        # operator route: P L p(QL) QL u with p random of degree <= 6
        acc = np.zeros(rep.dim)
        for j, c in enumerate(coeffs):
            word = ("P", "L") + ("Q", "L") * (j + 1)
            acc = acc + c * (operator_oracle(sys_, word, 1) @ u)
        # reduction route: the same contraction from the block formulas
        g_sum = float(coeffs @ exp.g)
        f_sum = float(coeffs @ exp.f)
        worst = max(worst, abs(acc[1] - g_sum), abs(acc[0] - f_sum))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(7, ok, f"20 random systems, polynomial words vs block "
                         f"formulas: max dev {worst:.3g} (tol 1e-10), "
                         f"{elapsed:.2f}s")


def test_accept_08_laplace_transforms_match_quadrature(chain100):
    t0 = time.perf_counter()
    r = chain100.reduced
    exp = faber_coeffs(r, chain100.emap, 40, spectrum=chain100.spectrum)

    def quad(s):
        def re_part(t):
            return float(np.real(np.exp(-s * t) * kernel_eval_grid(exp, [t])[0][0]))

        def im_part(t):
            return float(np.imag(np.exp(-s * t) * kernel_eval_grid(exp, [t])[0][0]))

        re, _ = scipy.integrate.quad(re_part, 0.0, 60.0, limit=800)
        im, _ = scipy.integrate.quad(im_part, 0.0, 60.0, limit=800)
        return re + 1j * im

    worst = 0.0
    for s in (2.0, 3.0 + 1.0j):
        got = laplace_G(exp, s)
        ref = quad(s)
        worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    assert report(8, ok, f"closed-form vs quadrature transforms: max rel dev "
                         f"{worst:.3g} (tol 1e-4), {elapsed:.1f}s")


def test_accept_09_tree_node_counts():
    t0 = time.perf_counter()
    big_ok = bethe_node_count(3, 8) == 766
    # the 10-oscillator example tree (4 inner nodes, 6 leaves) is the
    # 2-child-shell lattice under the closed-form shell sum; the nominal
    # (3, 3) -> 10 pairing is inconsistent with 766 under any single shell
    # convention (ledger item 7)
    small = build_bethe(3, 2)
    deg = dense(small.adjacency).sum(axis=1)
    small_ok = (small.n_nodes == 10
                and bethe_node_count(3, 2) == 10
                and int(np.sum(deg == 3)) == 4
                and int(np.sum(deg == 1)) == 6)
    consistency_ok = bethe_node_count(3, 3) == 22  # same convention as 766
    elapsed = time.perf_counter() - t0
    ok = big_ok and small_ok and consistency_ok and elapsed < 1.0
    assert report(9, ok, "node counts: shells=8 -> 766 exact; 10-node "
                         "example tree (4 inner + 6 leaves) at shells=2 "
                         f"(amended, see ledger), {elapsed:.2f}s")


def test_accept_10_tree_benchmark_convergence():
    t0 = time.perf_counter()
    graph = build_bethe(3, 8)
    sys_ = build_chain_system(graph, k=1.0, m=1.0, l_norm=3)
    r = reduce(sys_, 1)   # center (root) oscillator
    spectrum = eigenvalues(dense(r.M11.T))
    emap = fit_ellipse(spectrum, padding=0.1)
    cfg = SolverConfig(dt=2e-3, t_final=10.0)
    stride = 25
    cgrid = cfg.dt * np.arange(0, cfg.n_steps + 1, stride)
    oracle = vacf_matrix_exp(sys_, 1, cgrid).values
    errs = []
    for order in (8, 14, 20):
        exp = faber_coeffs(r, emap, order, spectrum=spectrum)
        tr = solve_gle(ReducedModel(a=r.a, b=r.b, kernel=exp), 1.0, cfg)
        errs.append(float(np.max(np.abs(tr.values[::stride] - oracle))))
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    tail_ok = errs[-1] < 5e-2
    elapsed = time.perf_counter() - t0
    ok = decreasing and tail_ok and elapsed < 300.0
    assert report(10, ok, f"766-node lattice, center tag: errors "
                          f"{[f'{e:.3g}' for e in errs]} at orders 8/14/20 "
                          f"(tail tol 5e-2), {elapsed:.1f}s")


def test_accept_11_wave_mean_pipeline(wave25):
    t0 = time.perf_counter()
    r = reduce(wave25.system, wave25.sensor)
    spectrum = eigenvalues(np.ascontiguousarray(r.M11.T))
    emap = fit_ellipse(spectrum, padding=0.1)
    exp = faber_coeffs(r, emap, 20, spectrum=spectrum)
    cfg = SolverConfig(dt=1e-3, t_final=5.0)
    tr = solve_gle(ReducedModel(a=r.a, b=r.b, kernel=exp),
                   float(wave25.init_mean[wave25.sensor - 1]), cfg)
    exact = exact_mean(wave25.system, wave25.sensor, tr.times).values
    dev = float(np.max(np.abs(tr.values - exact)))
    mean_ok = dev < 5e-2
    # Monte Carlo over the recentered population must straddle the exact
    # mean within 3 standard errors (away from t = 0 the spread is finite)
    cgrid = np.linspace(0.0, 5.0, 51)
    mc = mc_mean(wave25.system, wave25.mixing, wave25.sensor, cgrid,
                 n_samples=10000, seed=1)
    exact_c = exact_mean(wave25.system, wave25.sensor, cgrid).values
    gap = np.abs(mc.trajectory.values - exact_c)
    mc_ok = bool(np.all(gap <= 3.0 * mc.stderr + 1e-12))
    elapsed = time.perf_counter() - t0
    ok = mean_ok and mc_ok and elapsed < 300.0
    assert report(11, ok, f"sensor-mean deviation {dev:.3g} (tol 5e-2); "
                          f"MC within 3 SE: {mc_ok} "
                          f"(max gap/SE {np.max(gap[1:] / mc.stderr[1:]):.2f}), "
                          f"{elapsed:.1f}s")


def test_accept_12_solver_convergence_orders():
    t0 = time.perf_counter()
    from mzgle.kernels import UNIT_DISK, KernelExpansion, KernelFamily
    zero = KernelExpansion(family=KernelFamily.DYSON, order=0,
                           g=np.zeros(1), f=np.zeros(1), mode_params=UNIT_DISK)
    plain = ReducedModel(a=-0.8, b=0.0, kernel=zero)
    cfgs = [SolverConfig(dt=d, t_final=2.0)
            for d in (0.02, 0.01, 0.005, 0.0025)]
    p_plain = observed_order(plain, 1.0, cfgs,
                             reference=lambda t: np.exp(-0.8 * t))
    # exponential memory kernel, reference from the augmented 2x2 system
    big = np.array([[-0.4, 1.0], [-0.8, -1.1]])
    sys_ = SystemSpec(A=big, init_mean=np.zeros(2),
                      stats_kind=StatsKind.CHORIN_INITIAL)
    r = reduce(sys_, 1)
    memory = ReducedModel(a=r.a, b=r.b,
                          kernel=lagrange_coeffs(r, reduced_spectrum(r, "modes")))

    def ref(t):
        return float((expm_dense(big, t) @ np.array([1.0, 0.0]))[0])

    p_mem = observed_order(memory, 1.0, cfgs, reference=ref)
    elapsed = time.perf_counter() - t0
    ok = abs(p_plain - 3.0) < 0.3 and p_mem >= 1.7 and elapsed < 30.0
    assert report(12, ok, f"observed orders: memory-free {p_plain:.2f} "
                          f"(target 3 +- 0.3), exponential kernel "
                          f"{p_mem:.2f} (floor 1.7), {elapsed:.1f}s")
