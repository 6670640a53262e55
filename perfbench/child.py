"""Child processes of the benchmark; run.py starts them with PYTHONPATH set
to the checkout's src and BLAS pinned to one thread.

    python3 perfbench/child.py versions
        print the Python, numpy, scipy and BLAS versions as one JSON line.

    python3 perfbench/child.py setup CONFIG
        import mzgle.cli, then parse_config and assemble: the fixed cost of a
        run before any kernel task.

    python3 perfbench/child.py trace CONFIG OUT_JSON [--table-peaks]
        ``mzgle run CONFIG`` in this process with spans around every layer
        (see spans.py); exits with the run's exit code.  OUT_JSON gets the
        spans, the captured warnings and the perf_counter time at which the
        run returned.  With --table-peaks, each family's largest kernel table
        of the run is then built once more under tracemalloc, alone, for its
        peak memory.
"""

import json
import os
import sys
import time
import warnings


def _check_source():
    import mzgle
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(mzgle.__file__).startswith(src + os.sep):
        sys.exit(f"mzgle imported from {mzgle.__file__}, not from {src}")


def setup(config):
    _check_source()
    from mzgle import cli
    cli.assemble(cli.parse_config(config))


def trace(config, out_path, table_peaks):
    import spans
    _check_source()
    from mzgle import cli, kernels

    tracer = spans.Tracer()
    spans.install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", config])
    run_end = time.perf_counter()

    peaks = {}
    if table_peaks:
        import tracemalloc
        for (name, family), (_, args, kwargs) in sorted(tracer.largest.items()):
            if name != "mzgle.kernels.kernel_eval_grid":
                continue
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            kernels.kernel_eval_grid(*args, **kwargs)
            peaks[family] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            tracemalloc.stop()

    record = {
        "run_end": run_end,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "table_peak_mb": peaks,
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


def versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__,
                      "blas": f"{blas['name']} {blas['version']}"}))


def main(argv):
    if argv == ["versions"]:
        versions()
        return 0
    if len(argv) == 2 and argv[0] == "setup":
        setup(argv[1])
        return 0
    if len(argv) in (3, 4) and argv[0] == "trace":
        return trace(argv[1], argv[2], argv[3:] == ["--table-peaks"])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
