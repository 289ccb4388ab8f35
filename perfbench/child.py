"""Processes the benchmark starts; run.py is the entry point, not this file.

  child.py meta                 print the interpreter, numpy/BLAS and fold
                                backend facts as one JSON line
  child.py cli ARGS...          run ``pathforge ARGS`` with every layer
                                traced; the trace goes to stderr as the
                                last line, prefixed with TRACE_PREFIX
  child.py roundtrip [--trace]  read batches of five-tuple JSON dicts, one
                                batch per stdin line, and time
                                from_json_dict + construct + invert per tuple

The roundtrip report is one JSON line on stdout followed by the per-tuple
latencies in nanoseconds as raw int64, so the latencies cost the process
no extra memory at exit.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter_ns

from layers import Tracer

TRACE_PREFIX = "PERFBENCH-TRACE "

# middle altitude of construct(t) as a function of the tuple's i
MIDDLE_ALTITUDE = {"A": lambda i: 2 * i + 2, "B": lambda i: 2 * i + 1,
                   "C": lambda i: 2 * i + 2, "D": lambda i: 2 * i + 1}


def _blas_threads():
    """Threads OpenBLAS will use, read from the loaded library itself."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def meta() -> int:
    import platform

    import numpy
    import pathforge

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    print(json.dumps({
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "fold_backend": getattr(pathforge, "BACKEND_NAME", None),
        "have_compiled": getattr(pathforge, "HAVE_COMPILED", None),
        "pathforge_file": os.path.abspath(pathforge.__file__),
    }))
    return 0


def cli(argv) -> int:
    tracer = Tracer().install()
    import pathforge.cli

    try:
        return pathforge.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.dump()) + "\n")


def roundtrip(traced: bool) -> int:
    tracer = Tracer().install() if traced else None
    from pathforge import bijections

    from_json_dict = bijections.FiveTuple.from_json_dict
    latencies = array("q")
    batch_walls = []
    attempted = failed = 0
    first_error = None
    for line in sys.stdin:
        batch = json.loads(line)
        start = perf_counter_ns()
        for data in batch:
            # the module attributes are looked up per call so a traced run
            # goes through the wrappers
            t0 = perf_counter_ns()
            try:
                t = from_json_dict(data)
                mid = bijections.construct(t)
                back = bijections.invert(t.construction, mid.path)
            except Exception as exc:  # counted as a failed operation, the loop goes on
                ok = False
                first_error = first_error or repr(exc)
            else:
                latencies.append(perf_counter_ns() - t0)
                ok = (back == t and back.to_json_dict() == data
                      and mid.middle_altitude == MIDDLE_ALTITUDE[t.construction](t.i))
            failed += not ok
        batch_walls.append((perf_counter_ns() - start) / 1e9)
        attempted += len(batch)
    report = {"attempted": attempted, "failed": failed, "first_error": first_error,
              "batch_walls_s": batch_walls,
              "trace": tracer.dump() if tracer else None}
    out = sys.stdout.buffer
    out.write(json.dumps(report).encode() + b"\n")
    out.write(latencies.tobytes())
    out.flush()
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "meta":
        return meta()
    if mode == "cli":
        return cli(rest)
    if mode == "roundtrip":
        return roundtrip("--trace" in rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
