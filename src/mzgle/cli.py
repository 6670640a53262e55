"""Config-driven experiment runner.

Wires a benchmark model through reduction, kernel expansion, and the
Volterra solve, then compares against an independent oracle and writes CSV
tables plus a JSON summary.  Subcommands:

    mzgle run <config>        full pipeline
    mzgle kernel <config>     kernel coefficient tables only
    mzgle oracle <config>     oracle trajectory only
    mzgle compare <a> <b>     diff two run directories

Config files are INI text (section headers, key = value).  Exit codes:
0 success, 1 config error, 2 numerical failure (including regressions
found by compare).  The environment variable MZGLE_OUTPUT_ROOT overrides
the root under which output_dir is created.
"""

import argparse
import configparser
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import models, oracles
from .faber import MAX_ORDER, fit_ellipse
from .gle import (BlowupError, ReducedModel, SolverConfig, Trajectory,
                  read_trajectory_csv, solve_gle, write_table)
from .kernels import (KernelFamily, StatsKind, dyson_coeffs, faber_coeffs,
                      lagrange_coeffs, newton_coeffs, reduce, reduced_spectrum)

OUTPUT_ROOT_ENV = "MZGLE_OUTPUT_ROOT"

MODEL_KINDS = ("chain_bethe", "chain_er", "wave_annulus")
PROJECTIONS = ("chorin", "berne")
ORACLE_KINDS = ("matrix_exp", "analytic_l2", "mc")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the file format)."""

    model_kind: str
    projection: str
    families: list
    orders: list
    dt: float
    t_final: float
    output_dir: str
    seed: int = 0
    oracle_kind: str = "matrix_exp"
    n_samples: int = 10000
    padding: float = 0.1
    compare_points: int = 201
    model_params: dict = field(default_factory=dict)
    name: str = "experiment"


def _get(cp, section, key, cast, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    raw = cp.get(section, key)
    try:
        if cast is bool:
            return cp.getboolean(section, key)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def parse_config(path):
    """Read and validate an experiment config file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in ("experiment", "model", "expansion", "solver"):
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")

    kind = _get(cp, "model", "kind", str, required=True)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"[model] kind must be one of {MODEL_KINDS}, got {kind!r}")
    projection = _get(cp, "experiment", "projection", str,
                      default="berne" if kind.startswith("chain") else "chorin")
    if projection not in PROJECTIONS:
        raise ConfigError(f"[experiment] projection must be one of {PROJECTIONS}")
    if kind.startswith("chain") and projection != "berne":
        raise ConfigError("chain models run the autocorrelation pipeline; "
                          "set projection = berne")
    if kind == "wave_annulus" and projection != "chorin":
        raise ConfigError("the wave model runs the mean pipeline; "
                          "set projection = chorin")

    fam_raw = _get(cp, "expansion", "families", str, required=True)
    families = []
    for tok in fam_raw.replace(",", " ").split():
        try:
            families.append(KernelFamily(tok.strip().lower()))
        except ValueError:
            raise ConfigError(f"[expansion] unknown family {tok!r}") from None
    if not families:
        raise ConfigError("[expansion] families must be non-empty")
    if len(set(families)) != len(families):
        raise ConfigError("[expansion] families must be distinct")

    orders_raw = _get(cp, "expansion", "orders", str, default="")
    orders = []
    for tok in orders_raw.replace(",", " ").split():
        try:
            orders.append(int(tok))
        except ValueError:
            raise ConfigError(f"[expansion] bad order {tok!r}") from None
    needs_orders = any(f in (KernelFamily.DYSON, KernelFamily.FABER) for f in families)
    if needs_orders and not orders:
        raise ConfigError("[expansion] orders is required for the Dyson/Faber families")
    if any(o <= 0 for o in orders):
        raise ConfigError("[expansion] orders must be positive")
    if orders != sorted(orders):
        raise ConfigError("[expansion] orders must be sorted ascending")
    if needs_orders and orders[-1] > MAX_ORDER:
        raise ConfigError(f"[expansion] Dyson/Faber orders must be <= {MAX_ORDER}")

    oracle_kind = _get(cp, "experiment", "oracle", str, default="matrix_exp")
    if oracle_kind not in ORACLE_KINDS:
        raise ConfigError(f"[experiment] oracle must be one of {ORACLE_KINDS}")

    stochastic = kind == "chain_er" or oracle_kind == "mc" or kind == "wave_annulus"
    if stochastic and not cp.has_option("experiment", "seed"):
        raise ConfigError("[experiment] seed is required for stochastic models/oracles")

    params = {}
    if kind == "chain_bethe":
        params["l"] = _get(cp, "model", "l", int, required=True)
        if params["l"] < 2:
            raise ConfigError("[model] l must be >= 2")
        params["n_interior"] = _get(cp, "model", "n_interior", int)
        params["shells"] = _get(cp, "model", "shells", int)
        if (params["n_interior"] is None) == (params["shells"] is None):
            raise ConfigError("[model] give exactly one of n_interior (clamped "
                              "path, l = 2) or shells (free lattice)")
        if params["n_interior"] is not None and params["l"] != 2:
            raise ConfigError("[model] n_interior applies only to l = 2")
    elif kind == "chain_er":
        params["n"] = _get(cp, "model", "n", int, required=True)
        params["p"] = _get(cp, "model", "p", float, required=True)
        if not 0.0 <= params["p"] <= 1.0:
            raise ConfigError("[model] p must be in [0, 1]")
    else:
        params["n_modes"] = _get(cp, "model", "n_modes", int, required=True)
        params["n_random_modes"] = _get(cp, "model", "n_random_modes", int,
                                        default=params["n_modes"])
        params["r1"] = _get(cp, "model", "r1", float, default=1.0)
        params["r2"] = _get(cp, "model", "r2", float, default=11.0)
        params["sensor_r"] = _get(cp, "model", "sensor_r", float, default=1.1)
        params["sensor_theta"] = _get(cp, "model", "sensor_theta", float, default=0.1)
        try:
            models.WaveModelSpec(n_modes=params["n_modes"],
                                 n_random_modes=params["n_random_modes"],
                                 r1=params["r1"], r2=params["r2"],
                                 sensor_point=(params["sensor_r"], params["sensor_theta"]))
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from exc
    if kind.startswith("chain"):
        params["k"] = _get(cp, "model", "k", float, default=1.0)
        params["m"] = _get(cp, "model", "m", float, default=1.0)
        params["normalize_k"] = _get(cp, "model", "normalize_k", bool, default=False)
        params["tag_index"] = _get(cp, "model", "tag_index", int, default=1)
        if params["k"] <= 0 or params["m"] <= 0:
            raise ConfigError("[model] k and m must be positive")
        for key in ("n_interior", "shells", "n"):
            if params.get(key) is not None and params[key] < 1:
                raise ConfigError(f"[model] {key} must be >= 1")
        if kind == "chain_er":
            n_osc = params["n"]
        elif params["n_interior"] is not None:
            n_osc = params["n_interior"]
        else:
            n_osc = models.bethe_node_count(params["l"], params["shells"])
        if not 1 <= params["tag_index"] <= n_osc:
            raise ConfigError(f"[model] tag_index must be in 1..{n_osc}, the "
                              "number of oscillators")
    if oracle_kind == "analytic_l2" and not (
            kind == "chain_bethe" and params["n_interior"] is not None
            and params["tag_index"] == 1):
        raise ConfigError("oracle analytic_l2 applies only to tag_index = 1 "
                          "of the clamped l = 2 chain (n_interior)")
    if oracle_kind == "mc" and kind != "wave_annulus":
        raise ConfigError("oracle mc applies only to the wave model")

    dt = _get(cp, "solver", "dt", float, required=True)
    t_final = _get(cp, "solver", "t_final", float, required=True)

    cfg = ExperimentConfig(
        model_kind=kind,
        projection=projection,
        families=families,
        orders=orders,
        dt=dt,
        t_final=t_final,
        output_dir=_get(cp, "experiment", "output_dir", str, required=True),
        seed=_get(cp, "experiment", "seed", int, default=0),
        oracle_kind=oracle_kind,
        n_samples=_get(cp, "experiment", "n_samples", int, default=10000),
        padding=_get(cp, "expansion", "padding", float, default=0.1),
        compare_points=_get(cp, "experiment", "compare_points", int, default=201),
        model_params=params,
        name=_get(cp, "experiment", "name", str, default="experiment"),
    )
    try:
        SolverConfig(dt=cfg.dt, t_final=cfg.t_final)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc
    if cfg.n_samples < 2:
        raise ConfigError("[experiment] n_samples must be >= 2")
    if cfg.padding < 0:
        raise ConfigError("[expansion] padding must be >= 0")
    if cfg.compare_points < 2:
        raise ConfigError("[experiment] compare_points must be >= 2")
    if oracle_kind == "analytic_l2":
        # the far wall's echo J_{4n}(2wt) <= (wt)^{4n}/(4n)! (DLMF 10.14.4)
        nu = 4 * params["n_interior"]
        log_echo = nu * math.log(chain_frequency(params) * t_final) - math.lgamma(nu + 1)
        if log_echo > math.log(1e-10):
            raise ConfigError(f"oracle analytic_l2: the far wall's echo may exceed 1e-10 "
                              f"by t_final = {t_final:g}; use oracle = matrix_exp")
    return cfg


def chain_frequency(p):
    """Bond frequency w = sqrt(k_eff / m), with k_eff = k / l under normalize_k."""
    k_eff = p["k"] / p["l"] if p["normalize_k"] else p["k"]
    return math.sqrt(k_eff / p["m"])


@dataclass
class Assembled:
    """Everything the pipeline stages share for one experiment."""

    config: ExperimentConfig
    system: object
    observable_index: int
    y0: float
    reduced: object
    spectrum: object
    emap: object
    meta: dict
    sampler: object = None    # initial-state sampler of the wave model


def assemble(cfg):
    """Build the model, reduce it, and precompute shared spectral data."""
    p = cfg.model_params
    sampler = None
    meta = {"model": cfg.model_kind, "projection": cfg.projection, "seed": cfg.seed}
    if cfg.model_kind.startswith("chain_"):
        clamp = ()
        if cfg.model_kind == "chain_er":
            graph = models.build_erdos_renyi(p["n"], p["p"], seed=cfg.seed)
            meta["n_edges"] = int(graph.adjacency.sum() / 2)
        elif p["n_interior"] is not None:
            graph = models.build_path(p["n_interior"] + 2)
            clamp = (1, p["n_interior"] + 2)
        else:
            graph = models.build_bethe(p["l"], p["shells"])
        l_norm = p.get("l") if p["normalize_k"] else None    # none for ER graphs
        system = models.build_chain_system(graph, k=p["k"], m=p["m"],
                                           l_norm=l_norm, clamp=clamp)
        del graph    # free the dense adjacency before the spectrum's solve
        observable_index = p["tag_index"]
        y0 = 1.0
        meta["n_oscillators"] = system.dim // 2
    else:
        wspec = models.WaveModelSpec(
            n_modes=p["n_modes"], n_random_modes=p["n_random_modes"],
            r1=p["r1"], r2=p["r2"],
            sensor_point=(p["sensor_r"], p["sensor_theta"]))
        wave = models.build_wave_model(wspec)
        # the mean pipeline needs a nonzero initial mean: one seeded draw
        # from the model's own sampler serves as <x(0)>
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        init_mean = wave.sampler(rng, 1)[0]
        system = models.SystemSpec(A=wave.system.A, init_mean=init_mean,
                                   stats_kind=StatsKind.CHORIN_INITIAL)
        observable_index = wave.sensor_index
        y0 = float(init_mean[observable_index - 1])
        meta["sensor_index"] = wave.sensor_index
        meta["sensor_offset"] = wave.sensor_offset

        def shifted_sampler(rng, n_samples=1, _base=wave.sampler, _mu=init_mean):
            # recenter the zero-mean population on the drawn initial mean so
            # the sample mean targets the same trajectory the solver propagates
            x0 = _base(rng, n_samples)
            x0 += _mu
            return x0

        sampler = shifted_sampler
    reduced = reduce(system, observable_index)
    spectrum = reduced_spectrum(reduced)
    emap = fit_ellipse(spectrum, padding=cfg.padding)
    meta["ellipse"] = {"c0": emap.c0, "c1": emap.c1, "capacity": emap.capacity,
                       "semi_real": emap.semi_real, "semi_imag": emap.semi_imag}
    return Assembled(config=cfg, system=system, observable_index=observable_index,
                     y0=y0, reduced=reduced, spectrum=spectrum, emap=emap, meta=meta,
                     sampler=sampler)


def comparison_grid(cfg):
    solver = SolverConfig(dt=cfg.dt, t_final=cfg.t_final)
    kk = solver.n_steps
    stride = max(1, int(np.ceil(kk / (cfg.compare_points - 1))))
    idx = np.arange(0, kk + 1, stride)
    return idx, cfg.dt * idx


def oracle_trajectory(asm):
    """Reference trajectory on the comparison grid, plus optional stderr."""
    cfg = asm.config
    idx, grid = comparison_grid(cfg)
    if cfg.oracle_kind == "analytic_l2":
        vals = oracles.vacf_analytic_l2(grid, chain_frequency(cfg.model_params))
        return Trajectory(times=grid, values=vals), None
    if cfg.model_kind.startswith("chain"):
        return oracles.vacf_matrix_exp(asm.system, asm.observable_index, grid), None
    if cfg.oracle_kind == "mc":
        mc = oracles.mc_mean(asm.system, asm.sampler,
                             asm.observable_index, grid,
                             n_samples=cfg.n_samples, seed=cfg.seed + 1)
        return mc.trajectory, mc.stderr
    return oracles.exact_mean(asm.system, asm.observable_index, grid), None


def expansion_tasks(cfg):
    """(family, order-or-None) pairs: Dyson/Faber per listed order,
    Lagrange/Newton once on the full spectrum."""
    tasks = []
    for fam in cfg.families:
        if fam in (KernelFamily.DYSON, KernelFamily.FABER):
            tasks.extend((fam, n) for n in cfg.orders)
        else:
            tasks.append((fam, None))
    return tasks


def build_expansion(asm, family, order):
    r = asm.reduced
    if family is KernelFamily.DYSON:
        return dyson_coeffs(r, order)
    if family is KernelFamily.FABER:
        return faber_coeffs(r, asm.emap, order, spectrum=asm.spectrum)
    if family is KernelFamily.LAGRANGE:
        return lagrange_coeffs(r)
    return newton_coeffs(r, spectrum=asm.spectrum)


def task_label(family, order):
    return f"{family.value}_{'full' if order is None else f'{order:02d}'}"


def write_columns(path, header, columns):
    write_table(path, header, columns)


def write_kernel_csv(out_dir, label, exp):
    """kernel_<label>.csv: the coefficient table j, g_j, f_j."""
    write_columns(os.path.join(out_dir, f"kernel_{label}.csv"),
                  ("j", "g_j", "f_j"),
                  (np.arange(exp.order + 1), np.real(exp.g), np.real(exp.f)))


def write_oracle_csv(out_dir, oracle_tr, stderr):
    """oracle.csv: t, y, and the Monte Carlo stderr when there is one."""
    header, cols = ["t", "y"], [oracle_tr.times, oracle_tr.values]
    if stderr is not None:
        header.append("stderr")
        cols.append(stderr)
    path = os.path.join(out_dir, "oracle.csv")
    write_columns(path, header, cols)
    return path


def run_task(asm, family, order, out_dir, oracle_tr):
    """One (family, order) pipeline stage; returns its summary dict."""
    cfg = asm.config
    label = task_label(family, order)
    entry = {"family": family.value, "order": order, "label": label}
    try:
        exp = build_expansion(asm, family, order)
        entry["order"] = exp.order
        write_kernel_csv(out_dir, label, exp)
        model = ReducedModel(a=asm.reduced.a, b=asm.reduced.b, kernel=exp)
        solver = SolverConfig(dt=cfg.dt, t_final=cfg.t_final)
        traj = solve_gle(model, asm.y0, solver)
        traj.write_csv(os.path.join(out_dir, f"trajectory_{label}.csv"))
        idx, grid = comparison_grid(cfg)
        yc = traj.values[idx]
        err = np.abs(yc - oracle_tr.values)
        write_columns(os.path.join(out_dir, f"error_{label}.csv"),
                      ("t", "y_model", "y_oracle", "abs_err"),
                      (grid, yc, oracle_tr.values, err))
        entry["status"] = "ok"
        entry["max_error"] = float(np.max(err))
        entry["rms_error"] = float(np.sqrt(np.mean(err**2)))
    except (BlowupError, OverflowError, ValueError, FloatingPointError) as exc:
        entry["status"] = "failed"
        entry["error"] = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, BlowupError):
            entry["last_valid_index"] = exc.last_valid_index
    return entry


def output_dir_for(cfg):
    root = os.environ.get(OUTPUT_ROOT_ENV, os.getcwd())
    out = os.path.join(root, cfg.output_dir)
    os.makedirs(out, exist_ok=True)
    return out


def _write_summary(out_dir, cfg, asm, entries, elapsed, stage_seconds):
    summary = {
        "name": cfg.name,
        "model": cfg.model_kind,
        "projection": cfg.projection,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "t_final": cfg.t_final,
        "padding": cfg.padding,
        "runs": sorted(entries, key=lambda e: e["label"]),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    meta = dict(asm.meta)
    meta["elapsed_seconds"] = elapsed
    meta["stage_seconds"] = stage_seconds
    # the process's peak resident set so far (ru_maxrss is in KiB on Linux)
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta["oracle"] = cfg.oracle_kind
    if cfg.oracle_kind == "mc":
        meta["n_samples"] = cfg.n_samples
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def cmd_run(config_path):
    cfg = parse_config(config_path)
    marks = [time.perf_counter()]
    asm = assemble(cfg)
    marks.append(time.perf_counter())
    out_dir = output_dir_for(cfg)
    oracle_tr, stderr = oracle_trajectory(asm)
    write_oracle_csv(out_dir, oracle_tr, stderr)
    marks.append(time.perf_counter())
    entries = [run_task(asm, family, order, out_dir, oracle_tr)
               for family, order in expansion_tasks(cfg)]
    marks.append(time.perf_counter())
    stage_seconds = {stage: end - start for stage, start, end
                     in zip(("assemble", "oracle", "tasks"), marks, marks[1:])}
    summary = _write_summary(out_dir, cfg, asm, entries, marks[-1] - marks[0],
                             stage_seconds)
    failed = [e for e in summary["runs"] if e["status"] != "ok"]
    for e in summary["runs"]:
        if e["status"] == "ok":
            print(f"{e['label']}: max_error={e['max_error']:.6g} "
                  f"rms_error={e['rms_error']:.6g}")
        else:
            print(f"{e['label']}: FAILED ({e['error']})")
    print(f"wrote {out_dir}")
    return 2 if failed else 0


def cmd_kernel(config_path):
    cfg = parse_config(config_path)
    asm = assemble(cfg)
    out_dir = output_dir_for(cfg)
    entries = []
    for family, order in expansion_tasks(cfg):
        label = task_label(family, order)
        entry = {"family": family.value, "label": label}
        try:
            exp = build_expansion(asm, family, order)
            write_kernel_csv(out_dir, label, exp)
            entry["status"] = "ok"
            entry["order"] = exp.order
        except ValueError as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
        entries.append(entry)
        print(f"{label}: {entry['status']}")
    with open(os.path.join(out_dir, "kernel_summary.json"), "w") as fh:
        json.dump({"runs": sorted(entries, key=lambda e: e["label"]),
                   "ellipse": asm.meta["ellipse"]}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_dir}")
    return 2 if any(e["status"] != "ok" for e in entries) else 0


def cmd_oracle(config_path):
    cfg = parse_config(config_path)
    asm = assemble(cfg)
    out_dir = output_dir_for(cfg)
    oracle_tr, stderr = oracle_trajectory(asm)
    print(f"wrote {write_oracle_csv(out_dir, oracle_tr, stderr)}")
    return 0


def _load_run(path):
    spath = os.path.join(path, "summary.json")
    try:
        with open(spath) as fh:
            runs = json.load(fh)["runs"]
        for e in runs:
            fields = ("label", "max_error", "rms_error") if e["status"] == "ok" else ("label",)
            missing = [key for key in fields if key not in e]
            if missing:
                raise KeyError(", ".join(missing))
    except (OSError, ValueError) as exc:     # json.JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read {spath}: {exc}") from exc
    except (KeyError, TypeError) as exc:     # no runs list, or an entry lacks a field
        raise ConfigError(f"malformed {spath}: {exc!r}") from exc
    return runs


def _load_trajectory(run_path, label):
    path = os.path.join(run_path, f"trajectory_{label}.csv")
    try:
        return read_trajectory_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def cmd_compare(path_a, path_b, tol):
    runs_a = {e["label"]: e for e in _load_run(path_a)}
    runs_b = {e["label"]: e for e in _load_run(path_b)}
    if set(runs_a) != set(runs_b):
        print("run sets differ:", sorted(set(runs_a) ^ set(runs_b)))
        return 1
    regressions = []
    for label in sorted(runs_a):
        ea, eb = runs_a[label], runs_b[label]
        if ea["status"] != "ok" or eb["status"] != "ok":
            status = f"{ea['status']} vs {eb['status']}"
            print(f"{label}: {status}")
            if ea["status"] == "ok" and eb["status"] != "ok":
                regressions.append(label)
            continue
        ta, tb = (_load_trajectory(path, label) for path in (path_a, path_b))
        if len(ta) != len(tb) or np.max(np.abs(ta.times - tb.times)) > 0:
            print(f"{label}: grid mismatch")
            return 1
        point_diff = float(np.max(np.abs(ta.values - tb.values)))
        dmax = eb["max_error"] - ea["max_error"]
        drms = eb["rms_error"] - ea["rms_error"]
        print(f"{label}: max|y_a-y_b|={point_diff:.6g} "
              f"d(max_error)={dmax:+.6g} d(rms_error)={drms:+.6g}")
        if dmax > tol or drms > tol:
            regressions.append(label)
    if regressions:
        print(f"regressions beyond tol={tol:g}: {', '.join(regressions)}")
        return 2
    print("no regressions")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mzgle",
        description="Memory-kernel experiment runner for linear systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "kernel", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
    spc = sub.add_parser("compare")
    spc.add_argument("run_a")
    spc.add_argument("run_b")
    spc.add_argument("--tol", type=float, default=0.0,
                     help="allowed error-metric increase before flagging")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "kernel":
            return cmd_kernel(args.config)
        if args.command == "oracle":
            return cmd_oracle(args.config)
        return cmd_compare(args.run_a, args.run_b, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (BlowupError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
