"""Benchmark of ``mzgle run`` on three workloads (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-all --seed 1 --seconds 32 --trace 0

The benchmark writes the workload's INI file from the seed, then starts one
fresh process at a time (a closed loop with one client) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 in the child's environment only.

--trace 0  one untimed warm-up run, then set-up probes (import mzgle.cli,
           parse_config, assemble) and untraced ``mzgle run`` processes in
           turn for --seconds; prints the end-to-end metrics of
           BENCHMARK.json.
--trace 1  untraced and traced runs in turn for --seconds; prints the
           per-layer metrics of BENCHMARK.json (see spans.py).

Every run is checked: its exit code, each task's status, each task's
max_error against reference.json (or, for the seeded Monte Carlo oracle,
against its own standard error), the max error <= 1e-6 gate of the exact
full-spectrum families, and a summary.json byte-identical to the first run
of the same seed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

MIN_RUNS = 3              # timed runs even when --seconds is shorter
SETUP_SHARE = 0.25        # of a round's time spent in set-up probes (>= 1)
DEADLINE_S = 170.0        # the whole invocation, including set-up probes
GATE_FULL = 1e-6          # max error of the exact full-spectrum families
REF_RTOL, REF_ATOL = 1e-6, 1e-9
NOISE_SIGMAS = 5.0        # seeded MC oracle: max error <= 5 x max stderr

WORKLOADS = {
    "chain-all": {
        "seeded": False,
        "experiment": {"projection": "berne", "oracle": "matrix_exp"},
        "model": {"kind": "chain_bethe", "l": 2, "n_interior": 100,
                  "tag_index": 2, "normalize_k": "false"},
        "expansion": {"families": "dyson, faber, lagrange, newton",
                      "orders": "6, 12, 18", "padding": 0.0},
        "solver": {"dt": 1e-3, "t_final": 10.0},
        "smoke": {"model": {"n_interior": 12}, "solver": {"t_final": 1.0}},
    },
    "tree-faber": {
        "seeded": False,
        "experiment": {"projection": "berne", "oracle": "matrix_exp"},
        "model": {"kind": "chain_bethe", "l": 3, "shells": 8,
                  "tag_index": 1, "normalize_k": "true"},
        "expansion": {"families": "faber, dyson", "orders": "8, 14, 20",
                      "padding": 0.1},
        "solver": {"dt": 2e-3, "t_final": 10.0},
        "smoke": {"model": {"shells": 4}, "solver": {"t_final": 2.0}},
    },
    "wave-long": {
        "seeded": True,
        "experiment": {"projection": "chorin", "oracle": "mc",
                       "n_samples": 100000},
        "model": {"kind": "wave_annulus", "n_modes": 25, "n_random_modes": 25},
        "expansion": {"families": "faber", "orders": "12, 24", "padding": 0.1},
        "solver": {"dt": 1.25e-4, "t_final": 5.0},
        "smoke": {"experiment": {"n_samples": 2000}, "model": {"n_modes": 6,
                  "n_random_modes": 6}, "solver": {"t_final": 0.5}},
    },
}


def write_config(name, scale, seed, work):
    """Write the workload's INI file; returns its path."""
    wl = WORKLOADS[name]
    sections = {s: dict(wl[s]) for s in ("experiment", "model", "expansion", "solver")}
    if scale == "smoke":
        for s, over in wl["smoke"].items():
            sections[s].update(over)
    sections["experiment"].update(name=name, output_dir="out")
    if wl["seeded"]:
        sections["experiment"]["seed"] = seed
    path = os.path.join(work, f"{name}.ini")
    with open(path, "w") as fh:
        for s, keys in sections.items():
            fh.write(f"[{s}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
    return path


def spawn(argv, env, log_path, deadline):
    """Run a child to completion; returns (exit code, wall s, peak RSS MB,
    perf_counter at start).  The child is killed at the deadline."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=log)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, t0


def max_stderr(out_dir):
    with open(os.path.join(out_dir, "oracle.csv")) as fh:
        return max(float(row["stderr"]) for row in csv.DictReader(fh))


def check_run(name, seed, out_dir, code, reference, first_hash):
    """Check one run's outputs.

    Returns (problems, tasks, digest): problems make the run count as
    failed; tasks is a list of (label, max_error or None, failure or None),
    with every task of the reference, also those the run did not report.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
            raw = fh.read()
    except OSError:
        return (problems + ["no summary.json"],
                [(label, None, "no summary.json") for label in sorted(reference)], None)
    digest = hashlib.sha256(raw).hexdigest()
    if first_hash is not None and digest != first_hash:
        problems.append("summary.json differs from the first run of this seed")
    entries = {e["label"]: e for e in json.loads(raw)["runs"]}
    tasks = [(label, None, "missing from summary.json")
             for label in sorted(set(reference) - set(entries))]
    if tasks:
        problems.append(f"tasks {sorted(entries)} != reference {sorted(reference)}")
    noise = NOISE_SIGMAS * max_stderr(out_dir) if WORKLOADS[name]["seeded"] else None
    for label, e in sorted(entries.items()):
        err = e.get("max_error")
        wrong = None                     # a deviation from the reference
        if e["status"] != "ok":
            wrong = f"status {e['status']}: {e.get('error')}"
        elif label not in reference:
            wrong = "no reference"
        else:
            ref = reference[label]
            if isinstance(ref, dict):    # seeded: recorded for some seeds
                ref = ref.get(str(seed))
            limit = noise if ref is None else ref * (1 + REF_RTOL) + REF_ATOL
            if label.endswith("_full"):
                limit = max(limit, GATE_FULL)
            if err > limit:
                wrong = f"max_error {err:.6g} > reference limit {limit:.6g}"
        if wrong:
            problems.append(f"{label}: {wrong}")
            tasks.append((label, err, wrong))
        elif label.endswith("_full") and err > GATE_FULL:
            tasks.append((label, err, f"max_error {err:.6g} > gate {GATE_FULL:g}"))
        else:
            tasks.append((label, err, None))
    return problems, tasks, digest


class Bench:
    """One invocation: the child environment, the checks and the tallies."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + DEADLINE_S
        self.work = os.path.join(WORK, args.workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = write_config(args.workload, args.scale, args.seed, self.work)
        self.out_dir = os.path.join(self.work, "out")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        MZGLE_OUTPUT_ROOT=self.work, **BLAS_PINS)
        with open(REFERENCE) as fh:
            self.reference = json.load(fh).get(args.workload, {}).get(args.scale, {})
        self.attempted = self.failed = 0
        self.first_hash = None
        self.tasks_seen = self.tasks_passed = 0

    def child(self, *argv):
        return [sys.executable, os.path.join(HERE, "child.py"), *argv]

    def spawn(self, argv):
        self.attempted += 1
        return spawn(argv, self.env, os.path.join(self.work, "child.log"), self.deadline)

    def note_failure(self, what, problems):
        self.failed += 1
        print(f"FAILED {what}: {'; '.join(problems)}")
        with open(os.path.join(self.work, "child.log")) as fh:
            sys.stdout.write(fh.read()[-2000:])

    def run_pipeline(self, argv, what):
        """One ``mzgle run`` (traced or not); returns the check results."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, wall, rss, t0 = self.spawn(argv)
        problems, tasks, digest = check_run(self.args.workload, self.args.seed,
                                            self.out_dir, code, self.reference,
                                            self.first_hash)
        self.first_hash = self.first_hash or digest
        self.tasks_seen += len(tasks)
        self.tasks_passed += sum(fail is None for _, _, fail in tasks)
        print(f"{what}: {wall:.3f} s, peak RSS {rss:.0f} MB, exit {code}, "
              f"summary sha256 {digest and digest[:16]}")
        if problems:
            self.note_failure(what, problems)
        return {"wall": wall, "rss": rss, "t0": t0, "tasks": tasks, "ok": not problems}

    def keep_going(self, count, start, last_wall):
        """Start another run while it should end within --seconds of start
        (always MIN_RUNS of them, deadline permitting)."""
        now = time.perf_counter()
        if now + 1.5 * last_wall > self.deadline:
            return False
        return count < MIN_RUNS or now + last_wall - start <= self.args.seconds

    def timed(self):
        """Rounds of set-up probes and one ``mzgle run`` each, so that both
        sample the same stretch of the machine's speed."""
        cmd = [sys.executable, "-m", "mzgle.cli", "run", self.config]
        # not timed: the first run after a pause is up to 20 % slower on
        # chain-all, which would make the median depend on the run count
        self.run_pipeline(cmd, "warm-up run")
        setup, runs = [], []
        start, last = time.perf_counter(), 0.0
        while self.keep_going(len(runs), start, last):
            probes = 1
            if runs:
                probes = max(1, round(SETUP_SHARE * statistics.median(r["wall"] for r in runs)
                                      / statistics.median(setup)))
            for _ in range(probes):
                code, wall, _, _ = self.spawn(self.child("setup", self.config))
                print(f"set-up probe {len(setup)}: {wall:.3f} s, exit {code}")
                if code != 0:
                    self.note_failure(f"set-up probe {len(setup)}", [f"exit code {code}"])
                setup.append(wall)
            runs.append(self.run_pipeline(cmd, f"run {len(runs)}"))
            last = sum(setup[-probes:]) + runs[-1]["wall"]
        report_tasks(runs[0]["tasks"])
        return {
            "run_s": statistics.median(r["wall"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss"] for r in runs),
            "task_pass_frac": self.tasks_passed / max(self.tasks_seen, 1),
        }

    def traced(self):
        import spans
        plain, traced = [], []
        cmd = [sys.executable, "-m", "mzgle.cli", "run", self.config]
        start, last = time.perf_counter(), 0.0
        while self.keep_going(len(traced), start, last):
            plain.append(self.run_pipeline(cmd, f"untraced run {len(plain)}"))
            record_path = os.path.join(self.work, "spans.json")
            if os.path.exists(record_path):
                os.remove(record_path)
            argv = self.child("trace", self.config, record_path)
            if not traced:
                argv.append("--table-peaks")
            run = self.run_pipeline(argv, f"traced run {len(traced)}")
            last = run["wall"] + plain[-1]["wall"]
            if not os.path.exists(record_path):
                continue                    # counted as failed by its exit code
            with open(record_path) as fh:
                record = json.load(fh)
            problems = spans.nesting_problems(record["spans"])
            if problems and run["ok"]:
                self.note_failure(f"traced run {len(traced)}", problems[:5])
            run["layers"] = spans.layer_metrics(record["spans"])
            run["layers"]["cli.warnings"] = len(record["warnings"])
            run["layers"]["cli.bytes_written"] = sum(
                os.path.getsize(os.path.join(self.out_dir, f))
                for f in os.listdir(self.out_dir))
            if not traced:
                peaks = record["table_peak_mb"]
                run["wall"] = record["run_end"] - run["t0"]    # without the peaks
                for w in sorted(set(record["warnings"])):
                    print(f"warning captured: {w}")
            traced.append(run)
        if not traced:
            sys.exit("perfbench: no traced run completed")
        report_tasks(traced[0]["tasks"])
        m = {k: statistics.median(r["layers"][k] for r in traced)
             for k in traced[0]["layers"]}
        for fam in spans.FAMILIES:
            m[f"kernels.kernel_table_peak_mb.{fam}"] = peaks.get(fam, 0.0)
        m["cli.tasks_failed"] = sum(fail is not None for _, _, fail in traced[0]["tasks"])
        # the first traced run also builds the tables for their peaks after
        # mzgle run returns; its wall ends where the run returned, so it lacks
        # the interpreter's exit.  The first untraced run is the cold one
        # after a pause (see timed).  Both are left out unless alone.
        m["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced[1:] or traced)
                                 - statistics.median(r["wall"] for r in plain[1:] or plain))
        m["result.best_max_error"] = min(
            (err for _, err, fail in traced[0]["tasks"] if fail is None), default=0.0)
        return m


def report_tasks(tasks):
    for label, err, fail in tasks:
        print(f"task {label}: max_error {err}, {'FAILED ' + fail if fail else 'passed'}")
    n_fail = sum(fail is not None for _, _, fail in tasks)
    print(f"task_fail_frac = {n_fail}/{len(tasks)} (base: tasks attempted in one run)")


def steal_seconds():
    """CPU time the hypervisor has taken from this machine's CPUs so far, all
    of them together, from /proc/stat; None where that is not available."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: reduced sizes for a quick self-test")
    args = parser.parse_args(argv)
    for need in (os.path.join(ROOT, "src", "mzgle", "cli.py"),
                 os.path.join(ROOT, "BENCHMARK.json"), REFERENCE):
        if not os.path.isfile(need):
            sys.exit(f"perfbench: {need} is missing; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    bench = Bench(args)
    load_start, steal_start = os.getloadavg(), steal_seconds()
    versions = subprocess.run(bench.child("versions"), env=bench.env, check=True,
                              capture_output=True, text=True, timeout=60).stdout
    seed_note = ("passed to [experiment] seed" if WORKLOADS[args.workload]["seeded"]
                 else "ignored: the model and its oracle are deterministic")
    print(f"workload {args.workload} ({args.scale}), seed {args.seed} {seed_note}")
    values = bench.traced() if args.trace else bench.timed()
    environment = {"host": platform.node(), "nproc": os.cpu_count(),
                   "affinity_cpus": len(os.sched_getaffinity(0)),
                   "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                   "steal_s": None if steal_start is None else steal_seconds() - steal_start,
                   **json.loads(versions), "blas_pins": BLAS_PINS,
                   "git_commit": git_commit()}
    print("environment: " + json.dumps(environment, sort_keys=True))

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    shutil.rmtree(bench.out_dir, ignore_errors=True)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
