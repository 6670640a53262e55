"""Self-test of the benchmark at reduced sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs run.py with --scale smoke in both modes and checks
that every end-to-end and per-layer metric of BENCHMARK.json is printed, by
name and with its unit, that the output checks pass, and that the spans of
the traced run nest (each child inside its parent, self time >= 0).  It also
checks that the benchmark refuses to run, without a result, in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import spans

LAYER_SPANS = ("mzgle.cli.main", "mzgle.cli.assemble", "mzgle.cli.run_task",
               "mzgle.linalg.eigenvalues", "mzgle.kernels.kernel_eval_grid",
               "mzgle.faber.faber_modes_grid", "mzgle.faber.faber_recurrence_apply",
               "mzgle.gle.solve_gle", "mzgle.linalg.expm_dense",
               "mzgle.gle.Trajectory.write_csv")


def bench(cwd, *argv):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)
            print(f"FAIL {what}")

    for name in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--scale", "smoke")
            label = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: output checks {result}")
            want = [(m["name"], m["unit"]) for m in spec[kind]]
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            check(got == want, f"{label}: metrics {got} != {want}")
            for metric, unit in want:
                check(any(l.startswith(f"{metric} = ") and l.endswith(f" {unit}")
                          for l in lines), f"{label}: {metric} not printed with {unit}")
        with open(os.path.join(run.WORK, name, "spans.json")) as fh:
            traced = json.load(fh)["spans"]
        names = {s["name"] for s in traced}
        for want in LAYER_SPANS:          # every workload runs the Faber family
            check(want in names, f"{name}: no span {want}")
        check(any(n.startswith("mzgle.models.build_") for n in names),
              f"{name}: no mzgle.models.build_* span")
        problems = spans.nesting_problems(traced)
        check(not problems, f"{name}: spans do not nest: {problems[:3]}")
        check(min(spans.self_times(traced).values()) >= 0, f"{name}: negative self time")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench(bare, "--workload", "chain-all", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
