"""End-to-end tests of the command line runner."""

import json
import os

import numpy as np
import pytest

from mzgle import cli

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
    out = capsys.readouterr().out
    assert "faber_08" in out


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

    def counting(real):
        def eigenvalues(m):
            calls.append(m.shape)
            return real(m)
        return eigenvalues

    for module in (cli, kernels):
        monkeypatch.setattr(module, "eigenvalues", counting(module.eigenvalues))
    text = BASE_CONFIG.format(outdir="run_eig").replace(
        "families = faber, dyson", "families = faber, dyson, newton")
    assert cli.main(["run", write_config(tmp_path, text)]) == 0
    assert len(calls) == 1


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
