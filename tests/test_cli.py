"""End-to-end tests of the command line runner."""

import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mzgle import cli, kernels, oracles
from mzgle.linalg import BLOCK_CELLS

BASE_CONFIG = """\
[experiment]
name = test-run
seed = 3
output_dir = {outdir}
oracle = matrix_exp

[model]
kind = chain_bethe
l = 2
n_interior = 12
tag_index = 1

[expansion]
families = faber, dyson
orders = 4, 8

[solver]
dt = 0.01
t_final = 2.0
"""

WAVE_CONFIG = """\
[experiment]
name = wave-run
seed = 7
output_dir = {outdir}
oracle = {oracle}
n_samples = 300
projection = chorin

[model]
kind = wave_annulus
n_modes = 9
n_random_modes = 9

[expansion]
families = lagrange
orders =

[solver]
dt = 0.01
t_final = 1.0
"""


def write_config(tmp_path, text, name="cfg.ini", encoding="utf-8"):
    path = tmp_path / name
    path.write_text(text, encoding=encoding)
    return str(path)


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    return tmp_path


def run_base(tmp_path, outdir="run_a"):
    cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=outdir),
                       name=f"{outdir}.ini")
    code = cli.main(["run", cfg])
    return code, tmp_path / outdir


def test_run_happy_path_outputs(out_root, tmp_path, capsys):
    code, rundir = run_base(tmp_path)
    assert code == 0
    for label in ("dyson_04", "dyson_08", "faber_04", "faber_08"):
        assert (rundir / f"kernel_{label}.csv").exists()
        assert (rundir / f"trajectory_{label}.csv").exists()
        assert (rundir / f"error_{label}.csv").exists()
    assert (rundir / "oracle.csv").exists()
    summary = json.loads((rundir / "summary.json").read_text())
    assert {e["label"] for e in summary["runs"]} == \
        {"dyson_04", "dyson_08", "faber_04", "faber_08"}
    assert all(e["status"] == "ok" for e in summary["runs"])
    meta = json.loads((rundir / "run_meta.json").read_text())
    assert meta["n_oscillators"] == 12
    stages = meta["stage_seconds"]
    assert set(stages) == {"assemble", "oracle", "tasks"}
    assert all(v >= 0.0 for v in stages.values())
    out = capsys.readouterr().out
    assert "faber_08" in out


def test_run_meta_records_peak_rss(out_root, tmp_path):
    # run_meta.json carries the process's peak RSS; summary.json, which
    # must stay byte-deterministic, does not
    _, rundir = run_base(tmp_path)
    meta = json.loads((rundir / "run_meta.json").read_text())
    assert meta["peak_rss_mb"] > 0.0
    assert "peak_rss_mb" not in (rundir / "summary.json").read_text()


def test_bit_identical_reruns(out_root, tmp_path):
    _, dir_a = run_base(tmp_path, "twin_a")
    _, dir_b = run_base(tmp_path, "twin_b")
    for name in sorted(os.listdir(dir_a)):
        if name == "run_meta.json":  # timing lives here
            continue
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_summary_metrics_recompute_from_csv(out_root, tmp_path):
    _, rundir = run_base(tmp_path)
    summary = json.loads((rundir / "summary.json").read_text())
    for e in summary["runs"]:
        tab = np.loadtxt(rundir / f"error_{e['label']}.csv",
                         delimiter=",", skiprows=1)
        err = tab[:, 3]
        assert abs(err.max() - e["max_error"]) <= 1e-15
        assert abs(np.sqrt(np.mean(err**2)) - e["rms_error"]) <= 1e-15


def strict_json(path):
    """The JSON at path, refusing the Infinity and NaN constants that
    Python's json writes and reads but JSON (RFC 8259) does not have."""
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_overflowing_error_squares_leave_the_json_strict(out_root, tmp_path):
    # faber_04 on this short chain drifts to ~8e287 by t = 1e4, so its
    # squared errors overflow; the rms is then taken of err / max_error
    text = (BASE_CONFIG.format(outdir="huge")
            .replace("n_interior = 12", "n_interior = 3")
            .replace("families = faber, dyson\norders = 4, 8", "families = faber\norders = 4")
            .replace("dt = 0.01\nt_final = 2.0", "dt = 0.5\nt_final = 10000"))
    assert cli.main(["run", write_config(tmp_path, text)]) == 0
    rundir = tmp_path / "huge"
    found = {p.name: strict_json(p) for p in sorted(rundir.glob("*.json"))}
    assert sorted(found) == ["run_meta.json", "summary.json"]
    (entry,) = found["summary.json"]["runs"]
    err = np.loadtxt(rundir / "error_faber_04.csv", delimiter=",", skiprows=1)[:, 3]
    top = err.max()
    assert entry["max_error"] == top > 1e287
    with np.errstate(over="ignore"):
        assert np.isinf(np.mean(err**2))
    assert abs(entry["rms_error"] - top * np.sqrt(np.mean((err / top) ** 2))) <= 1e-15 * top


@pytest.fixture()
def eigensolves(monkeypatch):
    """Every call of the dense eigensolvers that linalg.eigenvalues uses,
    as (name, shape, whether it was made through kernels.eigenvalues).
    Calls from inside numpy are left out: the wave model's Gauss-Legendre
    nodes (np.polynomial.legendre.leggauss) take np.linalg.eigvalsh."""
    calls, depth = [], []
    real = kernels.eigenvalues

    def eigenvalues(*args, **kw):
        depth.append(None)
        try:
            return real(*args, **kw)
        finally:
            depth.pop()

    monkeypatch.setattr(kernels, "eigenvalues", eigenvalues)
    for name in ("eig", "eigh", "eigvalsh", "eigvals"):
        def counted(a, *args, _real=getattr(np.linalg, name), _name=name, **kw):
            if not sys._getframe(1).f_globals["__name__"].startswith("numpy."):
                calls.append((_name, a.shape, bool(depth)))
            return _real(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_run_solves_eigenvalues_once(out_root, tmp_path, eigensolves):
    chain = BASE_CONFIG.replace("families = faber, dyson", "families = faber, dyson, newton")
    chain_all = BASE_CONFIG.replace("families = faber, dyson",
                                    "families = faber, dyson, lagrange, newton")
    wave = WAVE_CONFIG.replace("oracle = {oracle}", "oracle = matrix_exp")
    wave_all = wave.replace("families = lagrange\norders =",
                            "families = lagrange, newton, faber\norders = 4")
    wave = wave.replace("families = lagrange\norders =", "families = faber, newton\norders = 4")
    # chain: the half-size product S E of M11 = [[0, S], [E, 0]], h = 11;
    # wave: M11^T itself, 2 * 9 - 1 = 17.  Lagrange's eigenvectors come
    # from the same one solve.
    for name, text, call in (("chain", chain, ("eigvalsh", (11, 11))),
                             ("chain-all", chain_all, ("eigh", (11, 11))),
                             ("wave", wave, ("eigvals", (17, 17))),
                             ("wave-all", wave_all, ("eig", (17, 17)))):
        eigensolves.clear()
        cfg = write_config(tmp_path, text.format(outdir=f"run_eig_{name}"), name=f"{name}.ini")
        assert cli.main(["run", cfg]) == 0
        assert eigensolves == [call + (True,)], name


def test_run_builds_each_series_order_on_its_own(out_root, tmp_path, monkeypatch):
    # each Dyson and Faber task builds its own expansion, one call with its
    # own integer order; no task reuses another's
    calls = []
    for name in ("dyson_coeffs", "faber_coeffs"):
        def counted(r, *args, _real=getattr(cli, name), _name=name, **kw):
            calls.append((_name, args[-1]))
            return _real(r, *args, **kw)
        monkeypatch.setattr(cli, name, counted)
    code, out = run_base(tmp_path)
    assert code == 0
    assert calls == [("faber_coeffs", 4), ("faber_coeffs", 8),
                     ("dyson_coeffs", 4), ("dyson_coeffs", 8)]
    assert sorted(p.name for p in out.glob("kernel_*.csv")) == [
        "kernel_dyson_04.csv", "kernel_dyson_08.csv",
        "kernel_faber_04.csv", "kernel_faber_08.csv"]


def test_trajectory_csv_full_precision(out_root, tmp_path):
    _, rundir = run_base(tmp_path)
    tab = np.loadtxt(rundir / "trajectory_faber_08.csv",
                     delimiter=",", skiprows=1)
    assert tab.shape == (201, 2)
    assert tab[0, 1] == 1.0
    # 17 significant digits round-trip float64 exactly: rewriting the
    # parsed values must reproduce the file byte for byte
    text = (rundir / "trajectory_faber_08.csv").read_text().splitlines()
    rebuilt = [f"{t:.17g},{y:.17g}" for t, y in tab]
    assert text[1:] == rebuilt


def test_compare_self_is_clean(out_root, tmp_path, capsys):
    _, dir_a = run_base(tmp_path, "cmp_a")
    _, dir_b = run_base(tmp_path, "cmp_b")
    code = cli.main(["compare", str(dir_a), str(dir_b)])
    assert code == 0
    assert "no regressions" in capsys.readouterr().out


def test_compare_flags_regression(out_root, tmp_path, capsys):
    _, dir_a = run_base(tmp_path, "reg_a")
    _, dir_b = run_base(tmp_path, "reg_b")
    summary = json.loads((dir_b / "summary.json").read_text())
    summary["runs"][0]["max_error"] += 0.5
    (dir_b / "summary.json").write_text(json.dumps(summary))
    code = cli.main(["compare", str(dir_a), str(dir_b)])
    assert code == 2
    assert "regressions" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_compare_rejects_bad_tol(out_root, tmp_path, capsys, tol):
    # d > nan is always false: a NaN tolerance would pass every regression
    _, dir_a = run_base(tmp_path, "tol_a")
    _, dir_b = run_base(tmp_path, "tol_b")
    summary = json.loads((dir_b / "summary.json").read_text())
    for e in summary["runs"]:
        e["max_error"] += 1.0
        e["rms_error"] += 1.0
    (dir_b / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["compare", str(dir_a), str(dir_b), f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--tol" in captured.err
    assert "no regressions" not in captured.out


def test_compare_rejects_mismatched_runs(out_root, tmp_path, capsys):
    _, dir_a = run_base(tmp_path, "mis_a")
    _, dir_b = run_base(tmp_path, "mis_b")
    summary = json.loads((dir_b / "summary.json").read_text())
    summary["runs"] = summary["runs"][1:]
    (dir_b / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["compare", str(dir_a), str(dir_b)]) == 1
    # the same tasks on a coarser grid
    text = BASE_CONFIG.format(outdir="mis_c").replace("dt = 0.01\n", "dt = 0.02\n")
    assert cli.main(["run", write_config(tmp_path, text)]) == 0
    capsys.readouterr()
    assert cli.main(["compare", str(dir_a), str(tmp_path / "mis_c")]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "dyson_04: grid mismatch"


CSV_DAMAGE = {"empty": "", "garbage": "t,y\n0,nan?\n", "one-column": "t,y\n0\n0.01\n"}


@pytest.mark.parametrize("damage", ["delete", "empty", "garbage", "one-column"])
def test_compare_unreadable_trajectory_exit_one(out_root, tmp_path, capsys, damage):
    # the summary lists the task, but its trajectory CSV is gone or broken;
    # the suite turns warnings into errors, so numpy's loadtxt warning on a
    # file without rows would fail this too
    _, dir_a = run_base(tmp_path, "bad_a")
    dir_b = tmp_path / "bad_b"
    shutil.copytree(dir_a, dir_b)
    csv_path = dir_b / "trajectory_dyson_04.csv"
    if damage == "delete":
        csv_path.unlink()
    else:
        csv_path.write_text(CSV_DAMAGE[damage])
    capsys.readouterr()
    assert cli.main(["compare", str(dir_a), str(dir_b)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: cannot read ")
    assert "trajectory_dyson_04.csv" in err[0]


@pytest.mark.parametrize("damage", ["truncated", "no-runs", "runs-not-list", "no-label",
                                    "no-status", "no-max_error", "no-rms_error"])
def test_compare_malformed_summary_exit_one(out_root, tmp_path, capsys, damage):
    _, dir_a = run_base(tmp_path, "sum_a")
    dir_b = tmp_path / "sum_b"
    shutil.copytree(dir_a, dir_b)
    path = dir_b / "summary.json"
    if damage == "truncated":
        path.write_text(path.read_text()[:200])
    else:
        summary = json.loads(path.read_text())
        if damage == "no-runs":
            del summary["runs"]
        elif damage == "runs-not-list":
            summary["runs"] = 3
        else:                       # every entry of the base run has status ok
            del summary["runs"][1][damage[3:]]
        path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert cli.main(["compare", str(dir_a), str(dir_b)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "summary.json" in err[0]


def test_compare_accepts_failed_entry_without_errors(out_root, tmp_path, capsys):
    # a failed task records no max_error or rms_error; compare reports it
    _, dir_a = run_base(tmp_path, "fail_a")
    dir_b = tmp_path / "fail_b"
    shutil.copytree(dir_a, dir_b)
    summary = json.loads((dir_b / "summary.json").read_text())
    entry = summary["runs"][0]
    del entry["max_error"], entry["rms_error"]
    entry["status"] = "failed"
    (dir_b / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["compare", str(dir_a), str(dir_b)]) == 2
    assert f"{entry['label']}: ok vs failed" in capsys.readouterr().out


# test_kernel_subcommand's configs: the base chain, the 46-node tree whose
# Lagrange task fails, and the chain whose coefficients overflow
TREE_KERNEL_CONFIG = (BASE_CONFIG.replace("l = 2\nn_interior = 12\n", "l = 3\nshells = 4\n")
                      .replace("families = faber, dyson\n", "families = lagrange, newton\n"))
BIG_KERNEL_CONFIG = BASE_CONFIG.replace("tag_index = 1\n", "tag_index = 2\nk = 1e100\n")


def test_kernel_subcommand(out_root, tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.format(outdir="kern"))
    assert cli.main(["kernel", cfg]) == 0
    rundir = tmp_path / "kern"
    assert (rundir / "kernel_dyson_04.csv").exists()
    assert not (rundir / "trajectory_dyson_04.csv").exists()
    tab = np.loadtxt(rundir / "kernel_dyson_04.csv", delimiter=",",
                     skiprows=1)
    assert tab.shape == (5, 3)
    assert tab[0, 1] == -2.0  # g_0 = bvec . avec for the tagged chain end
    # a family that fails to build is recorded, and the others still run
    text = TREE_KERNEL_CONFIG.format(outdir="kern_tree")
    assert cli.main(["kernel", write_config(tmp_path, text)]) == 2
    summary = json.loads((tmp_path / "kern_tree" / "kernel_summary.json").read_text())
    status = {e["label"]: e["status"] for e in summary["runs"]}
    assert status == {"lagrange_full": "failed", "newton_full": "ok"}
    assert "near-degenerate" in summary["runs"][0]["error"]
    assert summary["runs"][0]["error"].startswith("ValueError: ")
    assert summary["runs"][0]["order"] is None
    assert not (tmp_path / "kern_tree" / "kernel_lagrange_full.csv").exists()
    # coefficients that overflow fail their own task only: no NaN table
    # is written and reported ok, and the lower orders, whose own
    # coefficients are finite, still build
    text = BIG_KERNEL_CONFIG.format(outdir="kern_big")
    assert cli.main(["kernel", write_config(tmp_path, text)]) == 2
    summary = json.loads((tmp_path / "kern_big" / "kernel_summary.json").read_text())
    status = {e["label"]: e["status"] for e in summary["runs"]}
    assert status == {"dyson_04": "ok", "dyson_08": "failed",
                      "faber_04": "ok", "faber_08": "failed"}
    for entry in summary["runs"]:
        assert entry["order"] == int(entry["label"][-2:])
        if entry["status"] == "failed":
            assert entry["error"].startswith("ValueError: ")
            assert "overflowed: coefficient j = 6 of 9 " in entry["error"]
    assert sorted(p.name for p in (tmp_path / "kern_big").glob("kernel_*.csv")) == [
        "kernel_dyson_04.csv", "kernel_faber_04.csv"]
    for name in ("kernel_dyson_04.csv", "kernel_faber_04.csv"):
        tab = np.loadtxt(tmp_path / "kern_big" / name, delimiter=",", skiprows=1)
        assert tab.shape == (5, 3) and np.all(np.isfinite(tab))


@pytest.mark.parametrize("text", [BASE_CONFIG, TREE_KERNEL_CONFIG, BIG_KERNEL_CONFIG],
                         ids=["chain", "tree", "overflow"])
def test_kernel_and_run_report_each_task_alike(out_root, tmp_path, text):
    # mzgle kernel takes each task through mzgle run's path: its entries
    # are summary.json's without the error metrics, and it writes the same
    # kernel CSVs.  On the overflow chain mzgle run's oracle fails, so
    # every task that built fails there with the oracle's error instead.
    codes = [cli.main([command, write_config(tmp_path, text.format(outdir=command),
                                             name=f"{command}.ini")])
             for command in ("run", "kernel")]
    assert codes[0] == codes[1]
    fields = ("family", "label", "order", "status", "error")
    runs = json.loads((tmp_path / "run" / "summary.json").read_text())["runs"]
    kernel = json.loads((tmp_path / "kernel" / "kernel_summary.json").read_text())["runs"]
    assert all(set(e) <= set(fields) for e in kernel)
    if text is BIG_KERNEL_CONFIG:
        oracle = "oracle: OverflowError: matrix exponential overflowed for t=0.01"
        assert not (tmp_path / "run" / "oracle.csv").exists()
        for r, k in zip(runs, kernel):
            assert r["status"] == "failed"
            assert r["error"] == (oracle if k["status"] == "ok" else k["error"])
        fields = ("family", "label", "order")
    assert [{key: e.get(key) for key in fields} for e in runs] == \
        [{key: e.get(key) for key in fields} for e in kernel]
    names = sorted(p.name for p in (tmp_path / "run").glob("kernel_*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "kernel").glob("kernel_*.csv"))
    for name in names:
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "kernel" / name).read_bytes())


def test_spectral_kernel_csvs_give_the_kernel(out_root, tmp_path):
    # the Lagrange and Newton tables hold complex coefficients with their
    # nodes, so each file alone gives its kernel; on the README's wave
    # model the eigenvalues are complex and Newton's g_j and f_j are too
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    text = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)[1]
    for key, value in (("families", "faber, lagrange, newton"), ("oracle", "matrix_exp"),
                       ("output_dir", "wave-all")):
        text, n = re.subn(rf"^{key} *=.*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    cfg = write_config(tmp_path, text)
    assert cli.main(["kernel", cfg]) == 0
    asm = cli.assemble(cli.parse_config(cfg))
    header = "j,node_re,node_im,g_re,g_im,f_re,f_im"
    t = 0.01 * np.arange(501)
    for family in (kernels.KernelFamily.LAGRANGE, kernels.KernelFamily.NEWTON):
        exp = cli.build_expansion(asm, family, None)
        path = tmp_path / "wave-all" / f"kernel_{family.value}_full.csv"
        assert path.read_text().splitlines()[0] == header
        tab = np.loadtxt(path, delimiter=",", skiprows=1)
        nodes, g, f = (tab[:, 1::2] + 1j * tab[:, 2::2]).T
        np.testing.assert_array_equal(tab[:, 0], np.arange(exp.order + 1))
        assert np.max(np.abs(nodes.imag)) > 1.0
        if family is kernels.KernelFamily.LAGRANGE:
            # Re sum_j g_j e^{lam_j t}, and the same for f
            modes = np.exp(np.multiply.outer(t, nodes))
            g_t, f_t = kernels.kernel_eval_grid(exp, t)
            np.testing.assert_allclose(np.real(modes @ g), g_t, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.real(modes @ f), f_t, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(nodes, exp.mode_params)
            np.testing.assert_array_equal(g, exp.g)
            np.testing.assert_array_equal(f, exp.f)
            assert np.max(np.abs(g.imag)) > 1.0 and np.max(np.abs(f.imag)) > 1.0
    # Dyson and Faber keep the real table j,g_j,f_j
    assert (tmp_path / "wave-all" / "kernel_faber_20.csv").read_text().startswith("j,g_j,f_j\n")


def test_oracle_subcommand(out_root, tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.format(outdir="orc"))
    assert cli.main(["oracle", cfg]) == 0
    tab = np.loadtxt(tmp_path / "orc" / "oracle.csv", delimiter=",",
                     skiprows=1)
    assert tab[0, 1] == 1.0  # autocorrelation starts at one


def test_wave_run_with_mc_oracle(out_root, tmp_path):
    cfg = write_config(
        tmp_path, WAVE_CONFIG.format(outdir="wav", oracle="mc"))
    assert cli.main(["run", cfg]) == 0
    rundir = tmp_path / "wav"
    header = (rundir / "oracle.csv").read_text().splitlines()[0]
    assert header == "t,y,stderr"
    summary = json.loads((rundir / "summary.json").read_text())
    (entry,) = summary["runs"]
    assert entry["label"] == "lagrange_full"
    meta = json.loads((rundir / "run_meta.json").read_text())
    assert meta["n_samples"] == 300
    # the reduced solve tracks the exact mean; MC noise dominates the
    # reported error, which stays within a few standard errors
    tab = np.loadtxt(rundir / "oracle.csv", delimiter=",", skiprows=1)
    assert entry["max_error"] < 6.0 * tab[:, 2].max()


def test_wave_exact_oracle_close(out_root, tmp_path):
    cfg = write_config(
        tmp_path, WAVE_CONFIG.format(outdir="wavx", oracle="matrix_exp"))
    assert cli.main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "wavx" / "summary.json").read_text())
    assert summary["runs"][0]["max_error"] < 1e-4


# fragment -> (the text that replaces the mutation, a piece of the message);
# no text means the config file is not written at all
CONFIG_ERRORS = {
    "families": ("families =\n", "families must be non-empty"),
    "orders": ("orders = 8, 4\n", "strictly ascending"),
    "kind": ("kind = heat_equation\n", "kind must be one of"),
    "repeated-orders": ("orders = 8, 8\n", "strictly ascending"),
    "seed": ("seed = -1\n", "seed must be >= 0"),
    "missing-key": ("", "[solver] dt is required"),
    "bad-cast": ("dt = fast\n", "[solver] dt = 'fast'"),
    "unreadable": (None, "cannot read config"),
    "latin-1": ("name = caf\xe9\n", "cannot read config"),
    "syntax": ("name test-run\n", "config parse error"),
    "projection": ("oracle = matrix_exp\nprojection = langevin\n",
                   "projection must be one of"),
    "chorin-chain": ("oracle = matrix_exp\nprojection = chorin\n",
                     "set projection = berne"),
    "berne-wave": ("oracle = matrix_exp\nprojection = berne\n\n[model]\n"
                   "kind = wave_annulus\nn_modes = 9\n", "set projection = chorin"),
    "unknown-family": ("families = faber, chebyshev\n", "unknown family 'chebyshev'"),
    "repeated-family": ("families = faber, faber\n", "families must be distinct"),
    "non-integer-order": ("orders = 4, 8.5\n", "bad order '8.5'"),
    "no-orders": ("", "orders is required for the Dyson/Faber families"),
    "order-0": ("orders = 0\n", "orders must be positive"),
    "unknown-oracle": ("oracle = lookup\n", "oracle must be one of"),
    "no-seed": ("output_dir = bad\noracle = mc\n", "seed is required"),
    "l-1": ("l = 1\n", "l must be >= 2"),
    "n_interior-l-3": ("l = 3\n", "n_interior applies only to l = 2"),
    "p-1.5": ("kind = chain_er\nn = 12\np = 1.5\n", "p must be in [0, 1]"),
    "p-missing": ("kind = chain_er\nn = 12\n", "[model] p is required"),
    "t_final-steps": ("t_final = 2.005\n", "whole number of steps"),
    "padding-negative": ("orders = 4, 8\npadding = -0.1\n", "padding must be >= 0"),
    "compare_points-1": ("oracle = matrix_exp\ncompare_points = 1\n",
                         "compare_points must be >= 2"),
}


@pytest.mark.parametrize("mutation,fragment", [
    ("families = faber, dyson\n", "families"),
    ("orders = 4, 8\n", "orders"),
    ("kind = chain_bethe\n", "kind"),
    ("orders = 4, 8\n", "repeated-orders"),
    ("seed = 3\n", "seed"),
    ("dt = 0.01\n", "missing-key"),
    ("dt = 0.01\n", "bad-cast"),
    ("", "unreadable"),
    ("name = test-run\n", "latin-1"),
    ("name = test-run\n", "syntax"),
    ("oracle = matrix_exp\n", "projection"),
    ("oracle = matrix_exp\n", "chorin-chain"),
    ("oracle = matrix_exp\n\n[model]\nkind = chain_bethe\nl = 2\nn_interior = 12\n"
     "tag_index = 1\n", "berne-wave"),
    ("families = faber, dyson\n", "unknown-family"),
    ("families = faber, dyson\n", "repeated-family"),
    ("orders = 4, 8\n", "non-integer-order"),
    ("orders = 4, 8\n", "no-orders"),
    ("orders = 4, 8\n", "order-0"),
    ("oracle = matrix_exp\n", "unknown-oracle"),
    ("seed = 3\noutput_dir = bad\noracle = matrix_exp\n", "no-seed"),
    ("l = 2\n", "l-1"),
    ("l = 2\n", "n_interior-l-3"),
    ("kind = chain_bethe\nl = 2\nn_interior = 12\n", "p-1.5"),
    ("kind = chain_bethe\nl = 2\nn_interior = 12\n", "p-missing"),
    ("t_final = 2.0\n", "t_final-steps"),
    ("orders = 4, 8\n", "padding-negative"),
    ("oracle = matrix_exp\n", "compare_points-1"),
])
def test_config_errors_exit_one(out_root, tmp_path, capsys, mutation, fragment):
    text, message = CONFIG_ERRORS[fragment]
    if text is None:
        cfg = str(tmp_path / "absent.ini")
    else:
        broken = BASE_CONFIG.format(outdir="bad").replace(mutation, text)
        assert broken != BASE_CONFIG.format(outdir="bad")
        # Latin-1 encodes ASCII text as UTF-8 does, so only the latin-1
        # case holds a byte that is not UTF-8
        cfg = write_config(tmp_path, broken, encoding="latin-1")
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err
    assert not (tmp_path / "bad").exists()


def test_utf8_config_reads_under_an_ascii_locale(tmp_path):
    # config files are UTF-8 whatever the locale's encoding
    root = pathlib.Path(__file__).resolve().parent.parent
    text = BASE_CONFIG.format(outdir="cafe").replace("name = test-run", "name = caf\xe9")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=str(root / "src"))
    env[cli.OUTPUT_ROOT_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "mzgle.cli", "oracle",
                           write_config(tmp_path, text)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cafe" / "oracle.csv").exists()


# every key whose cast can fail, in every section and of every model kind
TYPED_KEYS = [(section, key) for section, keys in cli.KEYS.items()
              for key, (cast, _) in keys.items() if cast in (int, float, bool)]


@pytest.mark.parametrize("section, key", TYPED_KEYS,
                         ids=[f"{section}-{key}" for section, key in TYPED_KEYS])
@pytest.mark.parametrize("kind", ["chain", "wave"])
def test_every_typed_key_must_parse(out_root, tmp_path, capsys, section, key, kind):
    text = (BASE_CONFIG.format(outdir="typed") if kind == "chain"
            else WAVE_CONFIG.format(outdir="typed", oracle="mc"))
    text, given = re.subn(rf"^{key} = .*$", f"{key} = x", text, flags=re.M)
    if not given:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = x\n")
    assert cli.main(["run", write_config(tmp_path, text)]) == 1
    assert f"[{section}] {key} = 'x'" in capsys.readouterr().err
    assert not (tmp_path / "typed").exists()


def test_missing_section_exit_one(out_root, tmp_path, capsys):
    cfg = write_config(tmp_path, "[experiment]\noutput_dir = x\n")
    assert cli.main(["run", cfg]) == 1
    assert "config error" in capsys.readouterr().err


WAVE_MODEL = "kind = wave_annulus\nn_modes = 9\n"


@pytest.mark.parametrize("old, new", [
    ("tag_index = 1\n", "tag_index = 1\nk = nan\n"),
    ("tag_index = 1\n", "tag_index = 1\nm = inf\n"),
    ("orders = 4, 8\n", "orders = 4, 8\npadding = nan\n"),
    ("orders = 4, 8\n", "orders = 4, 8\npadding = inf\n"),
    ("kind = chain_bethe\nl = 2\nn_interior = 12\ntag_index = 1\n",
     WAVE_MODEL + "sensor_theta = nan\n"),
], ids=["k-nan", "m-inf", "padding-nan", "padding-inf", "sensor_theta-nan"])
def test_non_finite_numbers_exit_one(out_root, tmp_path, capsys, old, new):
    text = BASE_CONFIG.format(outdir="nonfinite").replace(old, new)
    assert cli.main(["run", write_config(tmp_path, text)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "nonfinite").exists()


def test_unknown_sections_and_keys_exit_one(out_root, tmp_path, capsys):
    text = (BASE_CONFIG.format(outdir="typo")
            .replace("tag_index = 1\n", "tag = 5\n")
            .replace("orders = 4, 8\n", "orders = 4, 8\npading = 0.5\n")
            + "\n[solvr]\ndt = 0.1\n")
    assert cli.main(["run", write_config(tmp_path, text)]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown [solvr], [model] tag, [expansion] pading\n")
    assert not (tmp_path / "typo").exists()
    # a [DEFAULT] key shows up in every section
    text = "[DEFAULT]\nseed = 4\n" + BASE_CONFIG.format(outdir="typo")
    with pytest.raises(cli.ConfigError, match=r"\[model\] seed, \[expansion\] seed"):
        cli.parse_config(write_config(tmp_path, text))
    # a key of another model kind is not unknown
    text = BASE_CONFIG.format(outdir="typo").replace("tag_index = 1\n", "tag_index = 1\nr1 = 2\n")
    assert cli.parse_config(write_config(tmp_path, text)).model_kind == "chain_bethe"


def test_shipped_configs_parse(tmp_path):
    # the benchmark's configs at both scales and the README's examples
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name in bench.WORKLOADS:
        for scale in ("full", "smoke"):
            cfg = cli.parse_config(bench.write_config(name, scale, 3, str(tmp_path)))
            assert cfg.name == name
    readme = (root / "README.md").read_text()
    examples = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    assert [cli.parse_config(write_config(tmp_path, text)).model_kind
            for text in examples] == ["chain_bethe", "wave_annulus"]


def test_conflicting_model_size_keys(out_root, tmp_path):
    text = BASE_CONFIG.format(outdir="bad2").replace(
        "n_interior = 12\n", "n_interior = 12\nshells = 3\n")
    assert cli.main(["run", write_config(tmp_path, text)]) == 1


def test_blowup_exit_two(out_root, tmp_path, capsys):
    text = BASE_CONFIG.format(outdir="blow").replace(
        "dt = 0.01\nt_final = 2.0", "dt = 1.0\nt_final = 2500.0")
    code = cli.main(["run", write_config(tmp_path, text)])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAILED" in out
    summary = json.loads((tmp_path / "blow" / "summary.json").read_text())
    assert any(e["status"] == "failed" for e in summary["runs"])


def test_numerical_failure_outside_a_task_exit_two(out_root, tmp_path, capsys,
                                                   monkeypatch):
    # an overflow in the oracle ends mzgle oracle; at k = 1e160 the Krylov
    # norms overflow, and an infinite norm must not close the space at its
    # first vector (a constant oracle)
    text = BASE_CONFIG.format(outdir="huge").replace("tag_index = 1\n",
                                                     "tag_index = 2\nk = 1e160\n")
    assert cli.main(["oracle", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == "numerical failure: Krylov vector norm overflowed\n"
    assert not (tmp_path / "huge" / "oracle.csv").exists()

    def overflow(*args):
        raise OverflowError("matrix exponential overflowed for t=0.01")

    monkeypatch.setattr(oracles, "vacf_matrix_exp", overflow)
    cfg = write_config(tmp_path, BASE_CONFIG.format(outdir="over"))
    assert cli.main(["oracle", cfg]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: matrix exponential overflowed for t=0.01\n")
    # mzgle run exits 2 with the same line, but still builds every task
    # and reports each as failed with the oracle's error; no oracle.csv
    assert cli.main(["run", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == "numerical failure: matrix exponential overflowed for t=0.01\n"
    oracle = "OverflowError: matrix exponential overflowed for t=0.01"
    assert f"dyson_04: FAILED (oracle: {oracle})" in out
    rundir = tmp_path / "over"
    labels = ("dyson_04", "dyson_08", "faber_04", "faber_08")
    runs = json.loads((rundir / "summary.json").read_text())["runs"]
    assert [(e["label"], e["status"], e["error"]) for e in runs] == [
        (label, "failed", f"oracle: {oracle}") for label in labels]
    assert json.loads((rundir / "run_meta.json").read_text())["oracle_error"] == oracle
    assert sorted(p.name for p in rundir.iterdir()) == sorted(
        [f"kernel_{label}.csv" for label in labels] + ["run_meta.json", "summary.json"])
    # compare reads it: no ok entry lacks its metrics
    assert cli.main(["compare", str(rundir), str(rundir)]) == 0


def test_output_root_env_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "elsewhere"))
    cfg = write_config(tmp_path, BASE_CONFIG.format(outdir="envrun"))
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "elsewhere" / "envrun" / "summary.json").exists()


def test_analytic_l2_oracle_uses_chain_frequency(out_root, tmp_path):
    # J0(2wt) - J4(2wt) with w = sqrt(k/m) is the exact autocorrelation of
    # tag 1 until the far wall's echo returns (J_80(20) is negligible)
    chain = BASE_CONFIG.replace("n_interior = 12\n", "n_interior = 40\nk = 4\n")
    chain = chain.replace("t_final = 2.0", "t_final = 5.0")
    tabs = {}
    for oracle in ("analytic_l2", "matrix_exp"):
        text = chain.format(outdir=oracle).replace(
            "oracle = matrix_exp", f"oracle = {oracle}")
        assert cli.main(["oracle", write_config(tmp_path, text)]) == 0
        tabs[oracle] = np.loadtxt(tmp_path / oracle / "oracle.csv",
                                  delimiter=",", skiprows=1)
    assert np.array_equal(tabs["analytic_l2"][:, 0], tabs["matrix_exp"][:, 0])
    assert np.max(np.abs(tabs["analytic_l2"][:, 1] - tabs["matrix_exp"][:, 1])) < 1e-10


@pytest.mark.parametrize("oracle,old,new", [
    ("analytic_l2", "l = 2\nn_interior = 12\n", "l = 3\nshells = 3\n"),
    ("analytic_l2", "tag_index = 1\n", "tag_index = 2\n"),
    ("mc", "", ""),
    # J_48(2t), the far wall's echo on n_interior = 12, reaches 2.4e-3 by t = 20
    ("analytic_l2", "t_final = 2.0", "t_final = 20.0"),
    # chain sizes below one, which the model builders would reject
    ("matrix_exp", "n_interior = 12\n", "n_interior = 0\n"),
    ("analytic_l2", "n_interior = 12\n", "n_interior = -1\n"),
    ("matrix_exp", "l = 2\nn_interior = 12\n", "l = 3\nshells = 0\n"),
    ("matrix_exp", "l = 2\nn_interior = 12\n", "l = 3\nshells = -1\n"),
    ("matrix_exp", "kind = chain_bethe\nl = 2\nn_interior = 12\n",
     "kind = chain_er\nn = 0\np = 0.5\n"),
    # tagged oscillators outside 1..N, N from each chain's size
    ("matrix_exp", "tag_index = 1\n", "tag_index = 0\n"),
    ("matrix_exp", "tag_index = 1\n", "tag_index = 13\n"),
    ("matrix_exp", "l = 2\nn_interior = 12\ntag_index = 1\n",
     "l = 3\nshells = 2\ntag_index = 11\n"),
    ("matrix_exp", "kind = chain_bethe\nl = 2\nn_interior = 12\ntag_index = 1\n",
     "kind = chain_er\nn = 5\np = 0.5\ntag_index = 6\n"),
    # Faber modes, Dyson's among them, exist only up to faber.MAX_ORDER = 80
    ("matrix_exp", "families = faber, dyson\norders = 4, 8",
     "families = faber\norders = 4, 90"),
    ("matrix_exp", "families = faber, dyson\norders = 4, 8",
     "families = dyson\norders = 4, 90"),
    # one sample has no sample covariance for the Monte Carlo stderr
    ("matrix_exp", "seed = 3\n", "seed = 3\nn_samples = 1\n"),
    # the wave model's parameters, checked by WaveModelSpec
    ("matrix_exp", "kind = chain_bethe\nl = 2\nn_interior = 12\ntag_index = 1\n",
     "kind = wave_annulus\nn_modes = 9\nsensor_r = 20\n"),
    # normalize_k divides k by l, which an ER graph does not have
    ("matrix_exp", "kind = chain_bethe\nl = 2\nn_interior = 12\n",
     "kind = chain_er\nn = 12\np = 0.5\nnormalize_k = true\n"),
], ids=["analytic_l2-tree", "analytic_l2-tag2", "mc-chain", "analytic_l2-echo",
        "n_interior-0", "n_interior-negative", "shells-0", "shells-negative", "er-n-0",
        "tag_index-0", "tag_index-13", "tree-tag_index-11", "er-tag_index-6",
        "faber-order-90", "dyson-order-90", "n_samples-1", "wave-sensor_r-20",
        "er-normalize_k"])
def test_oracle_model_mismatch_exit_one(out_root, tmp_path, capsys, oracle, old, new):
    text = BASE_CONFIG.format(outdir="mismatch").replace(old, new).replace(
        "oracle = matrix_exp", f"oracle = {oracle}")
    assert cli.main(["run", write_config(tmp_path, text)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "mismatch").exists()


@pytest.mark.parametrize("oracle", ["matrix_exp", "analytic_l2"])
def test_nonpositive_chain_stiffness_exit_one(out_root, tmp_path, capsys, oracle):
    text = BASE_CONFIG.format(outdir="k0").replace(
        "tag_index = 1\n", "tag_index = 1\nk = 0\n").replace(
        "oracle = matrix_exp", f"oracle = {oracle}")
    assert cli.main(["run", write_config(tmp_path, text)]) == 1
    assert "k and m must be positive" in capsys.readouterr().err
    assert not (tmp_path / "k0").exists()


def test_newton_on_clustered_tree_spectrum(out_root, tmp_path):
    # the 46-node Bethe tree has repeated and clustered eigenvalues: divided
    # differences formed by dividing by node gaps lose every digit there,
    # and Lagrange rejects the spectrum
    text = (BASE_CONFIG.format(outdir="tree")
            .replace("l = 2\nn_interior = 12\n",
                     "l = 3\nshells = 4\nnormalize_k = true\n")
            .replace("families = faber, dyson\norders = 4, 8\n",
                     "families = newton\n")
            .replace("dt = 0.01\nt_final = 2.0", "dt = 2e-3\nt_final = 5.0"))
    assert cli.main(["run", write_config(tmp_path, text)]) == 0
    summary = json.loads((tmp_path / "tree" / "summary.json").read_text())
    (entry,) = summary["runs"]
    assert entry["label"] == "newton_full" and entry["status"] == "ok"
    assert entry["max_error"] <= 1e-6


def test_lagrange_and_newton_on_degenerate_tree_spectrum(out_root, tmp_path, eigensolves):
    # on the same tree Lagrange's distinctness check fails its own task
    # only; Newton runs on the spectrum of the one solve both share
    text = (BASE_CONFIG.format(outdir="tree2")
            .replace("l = 2\nn_interior = 12\n",
                     "l = 3\nshells = 4\nnormalize_k = true\n")
            .replace("families = faber, dyson\norders = 4, 8\n",
                     "families = lagrange, newton\n")
            .replace("dt = 0.01\nt_final = 2.0", "dt = 2e-3\nt_final = 5.0"))
    assert cli.main(["run", write_config(tmp_path, text)]) == 2
    summary = json.loads((tmp_path / "tree2" / "summary.json").read_text())
    lagrange, newton = summary["runs"]
    assert lagrange["label"] == "lagrange_full" and lagrange["status"] == "failed"
    assert "near-degenerate" in lagrange["error"]
    assert newton["label"] == "newton_full" and newton["status"] == "ok"
    assert newton["max_error"] <= 1e-6
    assert eigensolves == [("eigh", (45, 45), True)]


def test_mc_oracle_holds_one_extra_half_sample_array(tmp_path):
    # the oracle draws only the 9 random amplitudes of the 18 coordinates,
    # one block of z at a time, and centres it in place: the peak is that
    # block plus small arrays (numpy's 64 KB reduction buffer the largest)
    cfg = cli.parse_config(write_config(
        tmp_path, WAVE_CONFIG.format(outdir="mc", oracle="mc")))
    asm = cli.assemble(cfg)
    n = 20000
    d = asm.mixing.shape[1]
    assert asm.mixing.shape == (asm.system.dim, asm.system.dim // 2)
    block_bytes = min(n, BLOCK_CELLS // d) * d * 8
    grid = np.linspace(0.0, 1.0, 11)
    tracemalloc.start()
    try:
        oracles.mc_mean(asm.system, asm.mixing, asm.observable_index, grid,
                        n_samples=n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= block_bytes + 2 ** 17


def test_traced_run_spans_nest(tmp_path):
    # the benchmark's --trace 1 wraps the names in perfbench/spans.py around
    # a real run; a rename in src/mzgle that breaks it must fail here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = write_config(tmp_path, WAVE_CONFIG.format(outdir="traced", oracle="mc")
                       .replace("families = lagrange", "families = faber, newton")
                       .replace("orders =", "orders = 4")
                       .replace("t_final = 1.0", "t_final = 0.2"))
    script = (
        "import sys, spans\n"
        "from mzgle import cli\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        f"code = cli.main(['run', {cfg!r}])\n"
        "problems = spans.nesting_problems(tracer.spans)\n"
        "assert code == 0, code\n"
        "assert not problems, problems\n"
        "assert spans.layer_metrics(tracer.spans)['oracles.oracle_s'] > 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    env[cli.OUTPUT_ROOT_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_wave_run_leaves_scipy_unloaded(tmp_path):
    # a wave run (assembly, Monte Carlo oracle, one Faber task) needs no
    # SciPy routine, so neither it nor importing the runner may pay for
    # importing any part of SciPy
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = write_config(tmp_path, WAVE_CONFIG.format(outdir="dense", oracle="mc")
                       .replace("families = lagrange", "families = faber")
                       .replace("orders =", "orders = 4"))
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from mzgle import cli\n"
        "assert not scipy_modules(), scipy_modules()\n"
        f"assert cli.main(['run', {cfg!r}]) == 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env[cli.OUTPUT_ROOT_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def tree_config(tmp_path, shells, families="faber, dyson", outdir="tree"):
    text = (BASE_CONFIG.format(outdir=outdir)
            .replace("l = 2\nn_interior = 12\n",
                     f"l = 3\nshells = {shells}\nnormalize_k = true\n")
            .replace("families = faber, dyson\norders = 4, 8\n",
                     f"families = {families}\norders = 20\n"))
    return write_config(tmp_path, text, name=f"{outdir}.ini")


@pytest.mark.parametrize("families, full", [
    ("faber, dyson", False), ("faber, lagrange", True), ("dyson, newton", True)])
def test_assemble_takes_the_extent_without_lagrange_or_newton(tmp_path, families, full):
    asm = cli.assemble(cli.parse_config(tree_config(tmp_path, 4, families)))
    assert len(asm.spectrum.eigenvalues) == (asm.reduced.dim_rest if full else 3)
    assert (asm.spectrum.modes is not None) == ("lagrange" in families)


def test_faber_graph_run_stays_below_one_dense_product(tmp_path):
    # build_bethe(3, 10): 3070 nodes, h = 3069, where the dense S E alone
    # takes 75 MB.  Assembly (the graph and its sparse A, the Lanczos
    # extent), an order-20 Faber build and the oracle (in Krylov
    # coordinates) stay far below it.
    cfg = cli.parse_config(tree_config(tmp_path, 10))
    tracemalloc.start()
    try:
        asm = cli.assemble(cfg)
        cli.build_expansion(asm, cli.KernelFamily.FABER, 20)
        cli.oracle_trajectory(asm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert asm.reduced.dim_rest // 2 == 3069 and len(asm.spectrum.eigenvalues) == 3
    assert peak < 10e6    # measured 3.8 MB


def run_child(tmp_path, script):
    """Run script in a fresh interpreter that imports mzgle from src, with
    the run outputs under tmp_path; asserts that it exits 0."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env[cli.OUTPUT_ROOT_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_graph_runs_need_no_scipy(tmp_path):
    # with SciPy's import blocked, a tree Faber/Dyson run (the Lanczos
    # extent) and a clamped chain listing all four families (the one
    # symmetric eigensolve, Lagrange's eigenvectors, Newton's nodes) must
    # still run: the graph path is numpy alone.  So must every other cli
    # path: wave runs listing faber, lagrange and newton (the general
    # eigensolve with left eigenvectors) under the exact mean and under
    # Monte Carlo, an analytic_l2 chain run (its Bessel values), and the
    # kernel, oracle and compare subcommands
    tree = tree_config(tmp_path, 4)
    chain = write_config(tmp_path, BASE_CONFIG.format(outdir="chain-all").replace(
        "families = faber, dyson", "families = faber, dyson, lagrange, newton"),
        name="chain-all.ini")

    def wave(outdir, oracle):
        return write_config(tmp_path, WAVE_CONFIG.format(outdir=outdir, oracle=oracle).replace(
            "families = lagrange\norders =", "families = faber, lagrange, newton\norders = 4"),
            name=f"{outdir}.ini")

    def analytic_l2(outdir):
        return write_config(tmp_path, BASE_CONFIG.format(outdir=outdir).replace(
            "oracle = matrix_exp", "oracle = analytic_l2"), name=f"{outdir}.ini")

    runs = [wave("wave-exact", "matrix_exp"), wave("wave-mc", "mc"), analytic_l2("chain-l2")]
    run_child(tmp_path, (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from mzgle import cli\n"
        f"assert cli.main(['run', {tree!r}]) == 0\n"
        f"assert cli.main(['run', {chain!r}]) == 0\n"
        f"for cfg in {runs!r}:\n"
        "    assert cli.main(['run', cfg]) == 0, cfg\n"
        f"assert cli.main(['kernel', {wave('wave-kernel', 'matrix_exp')!r}]) == 0\n"
        f"assert cli.main(['oracle', {analytic_l2('chain-l2-oracle')!r}]) == 0\n"
        f"assert cli.main(['compare', {str(tmp_path / 'wave-exact')!r}, "
        f"{str(tmp_path / 'wave-mc')!r}, '--tol', '1']) == 0\n"
    ))


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.random with numpy itself")
def test_graph_faber_runs_leave_numpy_random_unloaded(tmp_path):
    # a tree Faber/Dyson run and a clamped path shaped like the README's
    # chain-demo draw nothing at random: the Lanczos start is integer
    # arithmetic, so numpy.random is never imported
    tree = tree_config(tmp_path, 4)
    path = write_config(tmp_path, BASE_CONFIG.format(outdir="chain-demo")
                        .replace("n_interior = 12\ntag_index = 1\n",
                                 "n_interior = 100\ntag_index = 2\n")
                        .replace("orders = 4, 8", "orders = 6, 12, 18"),
                        name="chain-demo.ini")
    run_child(tmp_path, (
        "import sys\n"
        "from mzgle import cli\n"
        f"assert cli.main(['run', {tree!r}]) == 0\n"
        f"assert cli.main(['run', {path!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    ))


def test_chain_er_meta_counts_edges(tmp_path):
    text = BASE_CONFIG.replace("kind = chain_bethe\nl = 2\nn_interior = 12\n",
                               "kind = chain_er\nn = 30\np = 0.2\n")
    asm = cli.assemble(cli.parse_config(write_config(tmp_path, text.format(outdir="er"))))
    upper = np.triu(np.random.Generator(np.random.PCG64(3)).random((30, 30)) < 0.2, k=1)
    assert asm.meta["n_edges"] == np.count_nonzero(upper)
    assert type(asm.meta["n_edges"]) is int    # json-serialisable
