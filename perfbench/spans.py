"""In-memory spans around the calls into each mzgle layer, and their analysis.

A span is taken at the name through which the pipeline calls a layer: for
example ``lagrange_coeffs`` looks up ``mzgle.kernels.eigenvalues``, so that
binding is wrapped, and ``src/mzgle`` needs no edits.  Each span records its
name, parent, thread, wall interval (``time.perf_counter``) and the thread's
CPU time (``time.thread_time``), so waiting = wall - CPU.  Spans stay in
memory until the traced run ends and are then written out as JSON.

A span that starts in a pool worker with no open span of its own takes the
innermost open span of the main thread as its parent (``cmd_run`` submits
the tasks and blocks in ``pool.map`` until they end).
"""

import functools
import inspect
import threading
import time

FAMILIES = ("dyson", "faber", "lagrange", "newton")
WRITE_SPANS = ("mzgle.cli.write_columns", "mzgle.cli._write_summary",
               "mzgle.gle.Trajectory.write_csv")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self.largest = {}       # (name, tag) -> (work, args, kwargs) of the
                                # call with the most work
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, work=None, tag=None):
        """Return func wrapped in a span; work/tag map the call's arguments
        to a count and a label stored on the span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            span = {"name": name, "parent": parent, "thread": threading.get_ident(),
                    "work": work(*args, **kwargs) if work else None,
                    "tag": tag(*args, **kwargs) if tag else None}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
                key = (name, span["tag"])
                if work and span["work"] > self.largest.get(key, (0,))[0]:
                    self.largest[key] = (span["work"], args, kwargs)
            stack.append(span["id"])
            cpu0 = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu0
                stack.pop()

        return traced


def install(tracer):
    """Wrap the layer entry points of an imported mzgle in spans."""
    from mzgle import cli, gle, kernels, models, oracles

    def patch(owner, attr, **kw):
        func = getattr(owner, attr)
        name = f"{func.__module__}.{func.__qualname__}"
        setattr(owner, attr, tracer.wrap(name, func, **kw))

    # every mzgle function the runner calls by name, its own and imported
    for attr, obj in sorted(vars(cli).items()):
        if inspect.isfunction(obj) and obj.__module__.startswith("mzgle."):
            if attr == "solve_gle":
                patch(cli, attr, work=lambda model, y0, cfg: cfg.n_steps)
            else:
                patch(cli, attr)
    for attr in ("eigenvalues", "faber_modes_grid", "faber_recurrence_apply"):
        patch(kernels, attr)
    patch(gle, "kernel_eval_grid",
          work=lambda k, t: (k.order + 1) * len(t),
          tag=lambda k, t: k.family.value)
    patch(gle.Trajectory, "write_csv")
    patch(oracles, "expm_dense")
    for attr in sorted(vars(models)):
        if attr.startswith("build_"):
            patch(models, attr)


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def nesting_problems(spans):
    """Descriptions of spans that end before they start, lie outside their
    parent, or have negative self time."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if "end" not in s or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} has no valid interval")
            continue
        p = by_id.get(s["parent"])
        if s["parent"] is not None and (p is None or s["start"] < p["start"]
                                        or s["end"] > p["end"]):
            problems.append(f"span {s['id']} {s['name']} lies outside its parent")
    if not problems:
        problems.extend(f"span {i} has negative self time {v:.3g} s"
                        for i, v in self_times(spans).items() if v < 0)
    return problems


def layer_metrics(spans):
    """Per-layer figures of one traced run, keyed by metric name."""
    selft = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def wall(name):
        return sum(s["end"] - s["start"] for s in named(name))

    m = {}
    for fam in FAMILIES:
        m[f"kernels.coeffs_s.{fam}"] = wall(f"mzgle.kernels.{fam}_coeffs")
        m[f"kernels.kernel_table_s.{fam}"] = sum(
            s["end"] - s["start"] for s in named("mzgle.kernels.kernel_eval_grid")
            if s["tag"] == fam)
    m["kernels.kernel_table_cells"] = sum(
        s["work"] for s in named("mzgle.kernels.kernel_eval_grid"))
    m["faber.modes_grid_s"] = wall("mzgle.faber.faber_modes_grid")
    m["faber.recurrence_s"] = wall("mzgle.faber.faber_recurrence_apply")
    m["linalg.eigenvalues_s"] = wall("mzgle.linalg.eigenvalues")
    m["linalg.eigenvalues_calls"] = len(named("mzgle.linalg.eigenvalues"))
    m["linalg.expm_dense_s"] = wall("mzgle.linalg.expm_dense")
    m["oracles.oracle_s"] = wall("mzgle.cli.oracle_trajectory")
    solves = named("mzgle.gle.solve_gle")
    m["gle.solve_self_s"] = sum(selft[s["id"]] for s in solves)
    m["gle.solve_wait_s"] = sum(s["end"] - s["start"] - s["cpu"] for s in solves)
    m["gle.steps"] = sum(s["work"] for s in solves)
    m["gle.us_per_step"] = 1e6 * m["gle.solve_self_s"] / max(m["gle.steps"], 1)
    m["models.build_s"] = sum(s["end"] - s["start"] for s in spans
                              if s["name"].startswith("mzgle.models.build_"))
    m["kernels.reduce_s"] = wall("mzgle.kernels.reduce")
    m["cli.assemble_s"] = wall("mzgle.cli.assemble")
    tasks = named("mzgle.cli.run_task")
    if tasks:
        pool_wall = max(s["end"] for s in tasks) - min(s["start"] for s in tasks)
        m["cli.pool_wall_s"] = pool_wall
        m["cli.pool_cpu_ratio"] = sum(s["cpu"] for s in tasks) / pool_wall
    else:
        m["cli.pool_wall_s"] = m["cli.pool_cpu_ratio"] = 0.0
    m["cli.write_s"] = sum(wall(n) for n in WRITE_SPANS)
    return m
