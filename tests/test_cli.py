"""End-to-end tests of the command line runner."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mzgle import cli, oracles

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


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
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


def test_run_solves_eigenvalues_once(out_root, tmp_path, monkeypatch):
    from mzgle import kernels
    calls = []
    real = kernels.eigenvalues

    def eigenvalues(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(kernels, "eigenvalues", eigenvalues)
    chain = BASE_CONFIG.replace("families = faber, dyson", "families = faber, dyson, newton")
    wave = WAVE_CONFIG.replace("oracle = {oracle}", "oracle = matrix_exp").replace(
        "families = lagrange\norders =", "families = faber, newton\norders = 4")
    # chain: the half-size product S E of M11 = [[0, S], [E, 0]], h = 11;
    # wave: M11^T itself, 2 * 9 - 1 = 17
    for name, text, shape in (("chain", chain, (11, 11)), ("wave", wave, (17, 17))):
        calls.clear()
        cfg = write_config(tmp_path, text.format(outdir=f"run_eig_{name}"), name=f"{name}.ini")
        assert cli.main(["run", cfg]) == 0
        assert calls == [shape], name


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


def test_compare_rejects_mismatched_runs(out_root, tmp_path, capsys):
    _, dir_a = run_base(tmp_path, "mis_a")
    _, dir_b = run_base(tmp_path, "mis_b")
    summary = json.loads((dir_b / "summary.json").read_text())
    summary["runs"] = summary["runs"][1:]
    (dir_b / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["compare", str(dir_a), str(dir_b)]) == 1


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


@pytest.mark.parametrize("mutation,fragment", [
    ("families = faber, dyson\n", "families"),              # emptied below
    ("orders = 4, 8\n", "orders"),
    ("kind = chain_bethe\n", "kind"),
])
def test_config_errors_exit_one(out_root, tmp_path, capsys, mutation, fragment):
    broken = BASE_CONFIG.format(outdir="bad")
    if fragment == "families":
        broken = broken.replace(mutation, "families =\n")
    elif fragment == "orders":
        broken = broken.replace(mutation, "orders = 8, 4\n")
    else:
        broken = broken.replace(mutation, "kind = heat_equation\n")
    cfg = write_config(tmp_path, broken)
    assert cli.main(["run", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_section_exit_one(out_root, tmp_path, capsys):
    cfg = write_config(tmp_path, "[experiment]\noutput_dir = x\n")
    assert cli.main(["run", cfg]) == 1
    assert "config error" in capsys.readouterr().err


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
], ids=["analytic_l2-tree", "analytic_l2-tag2", "mc-chain", "analytic_l2-echo",
        "n_interior-0", "n_interior-negative", "shells-0", "shells-negative", "er-n-0",
        "tag_index-0", "tag_index-13", "tree-tag_index-11", "er-tag_index-6",
        "faber-order-90", "dyson-order-90", "n_samples-1", "wave-sensor_r-20"])
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


def test_mc_oracle_holds_one_extra_half_sample_array(tmp_path):
    # the sampler's normal draw is half the state array here (9 random modes
    # of 18 coordinates); centring and shifting in place keep the peak at
    # the array plus that draw
    cfg = cli.parse_config(write_config(
        tmp_path, WAVE_CONFIG.format(outdir="mc", oracle="mc")))
    asm = cli.assemble(cfg)
    n = 20000
    sample_bytes = n * asm.system.dim * 8
    grid = np.linspace(0.0, 1.0, 11)
    tracemalloc.start()
    try:
        oracles.mc_mean(asm.system, asm.sampler, asm.observable_index, grid,
                        n_samples=n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * sample_bytes


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
