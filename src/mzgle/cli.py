"""Config-driven experiment runner.

Wires a benchmark model through reduction, kernel expansion, and the
Volterra solve, then compares against an independent oracle and writes CSV
tables plus a JSON summary.  Subcommands:

    mzgle run <config>        full pipeline
    mzgle kernel <config>     kernel coefficient tables only
    mzgle oracle <config>     oracle trajectory only
    mzgle compare <a> <b>     diff two run directories

run and kernel take every (family, order) task through run_task, so a
task is built, written and reported one way: kernel writes the kernel CSVs
that run writes, and kernel_summary.json's entries are summary.json's
without the error metrics.  Each task builds its own expansion from the
assembled model, so one task's failure is its own.  When run's oracle
fails, every task still goes through run_task without it, and summary.json
reports the oracle's error for each task that built.  Every JSON file goes
through write_json.

Config files are UTF-8 INI text (section headers, key = value).  Exit codes:
0 success, 1 config error, 2 numerical failure (a failed task or oracle,
and regressions found by compare).  The environment variable
MZGLE_OUTPUT_ROOT overrides the root under which output_dir is created.
"""

import argparse
import configparser
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import models, oracles
from .faber import DEFAULT_PADDING, MAX_ORDER, fit_ellipse
from .gle import (BlowupError, ReducedModel, SolverConfig, Trajectory,
                  read_trajectory_csv, solve_gle, write_table)
from .kernels import (KernelFamily, StatsKind, dyson_coeffs, faber_coeffs,
                      lagrange_coeffs, newton_coeffs, reduce, reduced_spectrum)

OUTPUT_ROOT_ENV = "MZGLE_OUTPUT_ROOT"
# Points of the comparison grid, at most: every ceil(K / 200)-th solver step
COMPARE_POINTS = 201

REQUIRED = object()    # the default of a key that the file must give
# Every config key, declared once: section -> key -> (cast, default).  A key
# missing from KEYS is rejected as unknown, and every key a file gives must
# parse as its cast.  [model] holds the keys of every model kind, so a key
# of another kind is accepted; MODEL_KEYS names the ones each kind reads.
KEYS = {
    "experiment": {"name": (str, "experiment"), "projection": (str, None),
                   "oracle": (str, "matrix_exp"), "seed": (int, None),
                   "n_samples": (int, 10000), "output_dir": (str, REQUIRED)},
    "model": {"kind": (str, REQUIRED), "l": (int, None), "n_interior": (int, None),
              "shells": (int, None), "n": (int, None), "p": (float, None),
              "n_modes": (int, None), "n_random_modes": (int, None),
              "r1": (float, 1.0), "r2": (float, 11.0), "sensor_r": (float, 1.1),
              "sensor_theta": (float, 0.1), "k": (float, 1.0),
              "normalize_k": (bool, False), "tag_index": (int, 1)},
    "expansion": {"families": (str, REQUIRED), "orders": (str, ""),
                  "padding": (float, DEFAULT_PADDING)},
    "solver": {"dt": (float, REQUIRED), "t_final": (float, REQUIRED)},
}
# the [model] keys each kind reads: (required, optional)
MODEL_KEYS = {
    "chain_bethe": ("l", "n_interior shells k normalize_k tag_index"),
    "chain_er": ("n p", "k normalize_k tag_index"),
    "wave_annulus": ("n_modes", "n_random_modes r1 r2 sensor_r sensor_theta"),
}
# the values a choice key may take, and the least value of a bounded number
CHOICES = {("model", "kind"): tuple(MODEL_KEYS),
           ("experiment", "projection"): ("chorin", "berne"),
           ("experiment", "oracle"): ("matrix_exp", "analytic_l2", "mc")}
MINIMUM = {("model", "l"): 2, ("model", "n_interior"): 1, ("model", "shells"): 1,
           ("model", "n"): 1, ("experiment", "seed"): 0, ("experiment", "n_samples"): 2,
           ("expansion", "padding"): 0}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the file format)."""

    model_kind: str
    projection: str
    families: list
    orders: list
    solver: SolverConfig
    output_dir: str
    seed: int
    oracle_kind: str
    n_samples: int
    padding: float
    model_params: dict    # the [model] keys model_kind reads (see MODEL_KEYS)
    name: str


def _get(cp, section, key, cast, default):
    if not cp.has_option(section, key):
        if default is REQUIRED:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    raw = cp.get(section, key)
    try:
        value = cp.getboolean(section, key) if cast is bool else cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _split(raw, section, what, parse):
    """The comma- or space-separated items of raw, each through parse."""
    items = []
    for tok in raw.replace(",", " ").split():
        try:
            items.append(parse(tok))
        except ValueError:
            raise ConfigError(f"[{section}] {what} {tok!r}") from None
    return items


def parse_config(path):
    """Read and validate an experiment config file, UTF-8 INI text.

    Every key in KEYS is read with its cast and default, those of other
    model kinds too, before any value is checked."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    # a [DEFAULT] key shows up in every section, so it is checked in each
    unknown = [f"[{s}]" for s in cp.sections() if s not in KEYS]
    unknown += [f"[{s}] {key}" for s in cp.sections() if s in KEYS
                for key in cp.options(s) if key not in KEYS[s]]
    if unknown:
        raise ConfigError(f"unknown {', '.join(unknown)}")
    for section in KEYS:
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    values = {section: {key: _get(cp, section, key, cast, default)
                        for key, (cast, default) in keys.items()}
              for section, keys in KEYS.items()}
    exp, model = values["experiment"], values["model"]
    kind = model["kind"]
    pipeline = "berne" if kind.startswith("chain") else "chorin"
    if exp["projection"] is None:
        exp["projection"] = pipeline
    for (section, key), choices in CHOICES.items():
        if values[section][key] not in choices:
            raise ConfigError(f"[{section}] {key} must be one of {choices}, "
                              f"got {values[section][key]!r}")
    required, optional = MODEL_KEYS[kind]
    for key in required.split():
        if model[key] is None:
            raise ConfigError(f"[model] {key} is required")
    # the kind keeps only the keys it reads, and only those are bounded
    params = {key: model[key] for key in (required + " " + optional).split()}
    values["model"] = params
    for (section, key), low in MINIMUM.items():
        if values[section].get(key) is not None and values[section][key] < low:
            raise ConfigError(f"[{section}] {key} must be >= {low}")

    projection, oracle_kind = exp["projection"], exp["oracle"]
    if projection != pipeline:
        raise ConfigError(("chain models run the autocorrelation" if pipeline == "berne"
                           else "the wave model runs the mean")
                          + f" pipeline; set projection = {pipeline}")

    families = _split(values["expansion"]["families"], "expansion", "unknown family",
                      lambda tok: KernelFamily(tok.lower()))
    if not families:
        raise ConfigError("[expansion] families must be non-empty")
    if len(set(families)) != len(families):
        raise ConfigError("[expansion] families must be distinct")
    orders = _split(values["expansion"]["orders"], "expansion", "bad order", int)
    needs_orders = any(f in (KernelFamily.DYSON, KernelFamily.FABER) for f in families)
    if needs_orders and not orders:
        raise ConfigError("[expansion] orders is required for the Dyson/Faber families")
    if any(o <= 0 for o in orders):
        raise ConfigError("[expansion] orders must be positive")
    if any(a >= b for a, b in zip(orders, orders[1:])):
        raise ConfigError("[expansion] orders must be strictly ascending")
    if needs_orders and orders[-1] > MAX_ORDER:
        raise ConfigError(f"[expansion] Dyson/Faber orders must be <= {MAX_ORDER}")

    stochastic = kind == "chain_er" or oracle_kind == "mc" or kind == "wave_annulus"
    if stochastic and exp["seed"] is None:
        raise ConfigError("[experiment] seed is required for stochastic models/oracles")

    if kind == "chain_bethe":
        if (params["n_interior"] is None) == (params["shells"] is None):
            raise ConfigError("[model] give exactly one of n_interior (clamped "
                              "path, l = 2) or shells (free lattice)")
        if params["n_interior"] is not None and params["l"] != 2:
            raise ConfigError("[model] n_interior applies only to l = 2")
        n_osc = params["n_interior"] or models.bethe_node_count(params["l"], params["shells"])
    elif kind == "chain_er":
        if not 0.0 <= params["p"] <= 1.0:
            raise ConfigError("[model] p must be in [0, 1]")
        if params["normalize_k"]:
            raise ConfigError("[model] normalize_k divides k by the coordination "
                              "number l, which chain_er has none of")
        n_osc = params["n"]
    else:
        if params["n_random_modes"] is None:
            params["n_random_modes"] = params["n_modes"]
        params["sensor_point"] = (params.pop("sensor_r"), params.pop("sensor_theta"))
        try:
            params = {"wave": models.WaveModelSpec(**params)}
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from exc
    if kind.startswith("chain"):
        if params["k"] <= 0:
            raise ConfigError("[model] k must be positive")
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

    try:
        solver = SolverConfig(**values["solver"])
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc
    if oracle_kind == "analytic_l2":
        # the far wall's echo J_{4n}(2wt) <= (wt)^{4n}/(4n)! (DLMF 10.14.4),
        # with w = sqrt(k_eff)
        nu = 4 * params["n_interior"]
        log_echo = (nu * math.log(math.sqrt(spring_constant(params)) * solver.t_final)
                    - math.lgamma(nu + 1))
        if log_echo > math.log(1e-10):
            raise ConfigError(f"oracle analytic_l2: the far wall's echo may exceed 1e-10 "
                              f"by t_final = {solver.t_final:g}; use oracle = matrix_exp")
    return ExperimentConfig(
        model_kind=kind, projection=projection, families=families, orders=orders,
        solver=solver, output_dir=exp["output_dir"], seed=exp["seed"] or 0,
        oracle_kind=oracle_kind, n_samples=exp["n_samples"],
        padding=values["expansion"]["padding"], model_params=params, name=exp["name"])


def spring_constant(p):
    """The chain's spring constant k_eff: k, or k / l under normalize_k.

    normalize_k is the Hamiltonian normalization k/(2l) sum B_ij (q_i - q_j)^2
    of the Bethe lattice with coordination number l, whose every bond then
    has spring constant k / l.  The bond frequency is sqrt(k_eff)."""
    return p["k"] / p["l"] if p["normalize_k"] else p["k"]


@dataclass
class Assembled:
    """Everything the pipeline stages share for one experiment."""

    config: ExperimentConfig
    system: object
    observable_index: int
    y0: float
    reduced: object
    spectrum: object    # of M11^T: values, extent or modes (see kernels.reduced_spectrum)
    emap: object
    meta: dict
    mixing: object = None    # the wave model's Gaussian mixing matrix


def assemble(cfg):
    """Build the model, reduce it, and precompute shared spectral data."""
    p = cfg.model_params
    mixing = None
    meta = {"model": cfg.model_kind, "projection": cfg.projection, "seed": cfg.seed}
    if cfg.model_kind.startswith("chain_"):
        clamp = ()
        if cfg.model_kind == "chain_er":
            graph = models.build_erdos_renyi(p["n"], p["p"], seed=cfg.seed)
            meta["n_edges"] = graph.adjacency.nnz // 2
        elif p["n_interior"] is not None:
            graph = models.build_path(p["n_interior"] + 2)
            clamp = (1, p["n_interior"] + 2)
        else:
            graph = models.build_bethe(p["l"], p["shells"])
        system = models.build_chain_system(graph, k=spring_constant(p), clamp=clamp)
        observable_index = p["tag_index"]
        y0 = 1.0
        meta["n_oscillators"] = system.dim // 2
    else:
        wave = models.build_wave_model(p["wave"])
        # the mean pipeline needs a nonzero initial mean: one seeded draw
        # of the model's Gaussian initial state serves as <x(0)>, and the
        # Monte Carlo population is centred on it
        mixing = wave.mixing
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        init_mean = mixing @ rng.standard_normal(mixing.shape[1])
        system = models.SystemSpec(A=wave.system.A, init_mean=init_mean,
                                   stats_kind=StatsKind.CHORIN_INITIAL)
        observable_index = wave.sensor_index
        y0 = float(init_mean[observable_index - 1])
        meta["sensor_index"] = wave.sensor_index
        meta["sensor_offset"] = wave.sensor_offset
    reduced = reduce(system, observable_index)
    # Lagrange reads the eigenvectors and Newton every eigenvalue; the
    # ellipse and the Faber containment check need the extent alone
    need = ("modes" if KernelFamily.LAGRANGE in cfg.families
            else "values" if KernelFamily.NEWTON in cfg.families else "extent")
    spectrum = reduced_spectrum(reduced, need)
    emap = fit_ellipse(spectrum, padding=cfg.padding)
    meta["ellipse"] = {"c0": emap.c0, "c1": emap.c1, "capacity": emap.capacity,
                       "semi_real": emap.semi_real, "semi_imag": emap.semi_imag}
    return Assembled(config=cfg, system=system, observable_index=observable_index,
                     y0=y0, reduced=reduced, spectrum=spectrum, emap=emap, meta=meta,
                     mixing=mixing)


def comparison_grid(cfg):
    kk = cfg.solver.n_steps
    stride = max(1, int(np.ceil(kk / (COMPARE_POINTS - 1))))
    idx = np.arange(0, kk + 1, stride)
    return idx, cfg.solver.dt * idx


def oracle_trajectory(asm):
    """Reference trajectory on the comparison grid, plus optional stderr."""
    cfg = asm.config
    idx, grid = comparison_grid(cfg)
    if cfg.oracle_kind == "analytic_l2":
        vals = oracles.vacf_analytic_l2(grid, math.sqrt(spring_constant(cfg.model_params)))
        return Trajectory(times=grid, values=vals), None
    if cfg.model_kind.startswith("chain"):
        return oracles.vacf_matrix_exp(asm.system, asm.observable_index, grid), None
    if cfg.oracle_kind == "mc":
        mc = oracles.mc_mean(asm.system, asm.mixing, asm.observable_index, grid,
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
    """The task's own expansion, built from the assembled model alone: no
    task keeps an expansion for another."""
    r = asm.reduced
    if family is KernelFamily.DYSON:
        return dyson_coeffs(r, order)
    if family is KernelFamily.FABER:
        return faber_coeffs(r, asm.emap, order, spectrum=asm.spectrum)
    if family is KernelFamily.LAGRANGE:
        return lagrange_coeffs(r, spectrum=asm.spectrum)
    return newton_coeffs(r, spectrum=asm.spectrum)


def task_label(family, order):
    return f"{family.value}_{'full' if order is None else f'{order:02d}'}"


def write_columns(path, header, columns):
    write_table(path, header, columns)


def write_kernel_csv(out_dir, label, exp):
    """kernel_<label>.csv: the coefficient table.  Dyson and Faber, whose
    modes the ellipse fixes, write j,g_j,f_j.  Lagrange and Newton write
    j,node_re,node_im,g_re,g_im,f_re,f_im: their complex coefficients with
    the node each mode depends on, in coefficient order (the eigenvalues
    of M11^T, or Newton's Leja-ordered nodes), so the file alone gives the
    kernel."""
    path = os.path.join(out_dir, f"kernel_{label}.csv")
    j = np.arange(exp.order + 1)
    if exp.family in (KernelFamily.DYSON, KernelFamily.FABER):
        return write_columns(path, ("j", "g_j", "f_j"), (j, np.real(exp.g), np.real(exp.f)))
    write_columns(path, ("j", "node_re", "node_im", "g_re", "g_im", "f_re", "f_im"),
                  [j] + [part(c) for c in (exp.mode_params, exp.g, exp.f)
                         for part in (np.real, np.imag)])


def write_oracle_csv(out_dir, oracle_tr, stderr):
    """oracle.csv: t, y, and the Monte Carlo stderr when there is one."""
    header, cols = ["t", "y"], [oracle_tr.times, oracle_tr.values]
    if stderr is not None:
        header.append("stderr")
        cols.append(stderr)
    path = os.path.join(out_dir, "oracle.csv")
    write_columns(path, header, cols)
    return path


def run_task(asm, family, order, out_dir, oracle_tr=None):
    """One (family, order) task: build its own expansion (build_expansion)
    and write its kernel CSV; given the oracle trajectory (mzgle run whose
    oracle succeeded), also solve the GLE, write the trajectory and error
    CSVs and add the error metrics.  Returns the task's summary entry.  A
    task that fails is reported in its entry as status failed and
    "<Type>: <message>", with the listed order (None for a full-spectrum
    family); no failure of one task stops the others."""
    cfg = asm.config
    label = task_label(family, order)
    entry = {"family": family.value, "order": order, "label": label}
    try:
        exp = build_expansion(asm, family, order)
        entry["order"] = exp.order
        write_kernel_csv(out_dir, label, exp)
        if oracle_tr is not None:
            model = ReducedModel(a=asm.reduced.a, b=asm.reduced.b, kernel=exp)
            traj = solve_gle(model, asm.y0, cfg.solver)
            traj.write_csv(os.path.join(out_dir, f"trajectory_{label}.csv"))
            idx, grid = comparison_grid(cfg)
            yc = traj.values[idx]
            err = np.abs(yc - oracle_tr.values)
            write_columns(os.path.join(out_dir, f"error_{label}.csv"),
                          ("t", "y_model", "y_oracle", "abs_err"),
                          (grid, yc, oracle_tr.values, err))
            top = float(np.max(err))
            with np.errstate(over="ignore"):
                rms = float(np.sqrt(np.mean(err**2)))
            if not math.isfinite(rms):
                # the squares overflowed: the same mean taken of err / top
                rms = top * float(np.sqrt(np.mean((err / top) ** 2)))
            entry["max_error"] = top
            entry["rms_error"] = rms
        entry["status"] = "ok"
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


def write_json(path, obj):
    """obj as JSON text at path: indent 2, sorted keys and a final newline,
    so that equal objects give equal bytes.  A non-finite number has no
    JSON form (RFC 8259) and raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_summary(out_dir, cfg, asm, entries, elapsed, stage_seconds):
    summary = {
        "name": cfg.name,
        "model": cfg.model_kind,
        "projection": cfg.projection,
        "seed": cfg.seed,
        "dt": cfg.solver.dt,
        "t_final": cfg.solver.t_final,
        "padding": cfg.padding,
        "runs": sorted(entries, key=lambda e: e["label"]),
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    meta = dict(asm.meta)
    meta["elapsed_seconds"] = elapsed
    meta["stage_seconds"] = stage_seconds
    # the process's peak resident set so far (ru_maxrss is in KiB on Linux)
    meta["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta["oracle"] = cfg.oracle_kind
    if cfg.oracle_kind == "mc":
        meta["n_samples"] = cfg.n_samples
    write_json(os.path.join(out_dir, "run_meta.json"), meta)
    return summary


def cmd_run(config_path):
    """The full pipeline.  An oracle that raises BlowupError or
    OverflowError leaves no oracle.csv: every task then goes through
    run_task without it, a task that built fails with "oracle: <Type>:
    <message>", summary.json and run_meta.json (its oracle_error) are
    written, and the oracle's exception is raised again for main to
    report."""
    cfg = parse_config(config_path)
    marks = [time.perf_counter()]
    asm = assemble(cfg)
    marks.append(time.perf_counter())
    out_dir = output_dir_for(cfg)
    oracle_tr = failure = None
    try:
        oracle_tr, stderr = oracle_trajectory(asm)
    except (BlowupError, OverflowError) as exc:
        failure = exc
        asm.meta["oracle_error"] = f"{type(exc).__name__}: {exc}"
    else:
        write_oracle_csv(out_dir, oracle_tr, stderr)
    marks.append(time.perf_counter())
    entries = [run_task(asm, family, order, out_dir, oracle_tr)
               for family, order in expansion_tasks(cfg)]
    for e in entries:
        if failure is not None and e["status"] == "ok":
            e.update(status="failed", error=f"oracle: {asm.meta['oracle_error']}")
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
    if failure is not None:
        raise failure
    return 2 if failed else 0


def cmd_kernel(config_path):
    cfg = parse_config(config_path)
    asm = assemble(cfg)
    out_dir = output_dir_for(cfg)
    entries = []
    for family, order in expansion_tasks(cfg):
        entries.append(run_task(asm, family, order, out_dir))
        print(f"{entries[-1]['label']}: {entries[-1]['status']}")
    write_json(os.path.join(out_dir, "kernel_summary.json"),
               {"runs": sorted(entries, key=lambda e: e["label"]),
                "ellipse": asm.meta["ellipse"]})
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
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {tol}")
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
