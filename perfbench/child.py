"""One benchmark operation in a fresh process: start, import fedkd from the
checkout's ``src``, parse the config, then make one `fedkd.cli.main` call.

Run from the checkout root by run.py:

    python3 perfbench/child.py --config CFG --command run --out DIR \
        --spawn-ns NS --result RESULT.json [--trace SPANS.json] [--setup-only]

``--spawn-ns`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so setup time includes interpreter start.  The result
file holds the timings, a host calibration loop timed between setup and the
call, the child's resource usage and the shard sizes of each seed the call
used (rebuilt after the timed call, untimed).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate_ms(n: int = 1_000_000) -> float:
    """A fixed pure-Python loop, timed: how fast the host runs this process
    right now.  Printed next to wall_s so host drift can be told apart from
    a change in the program; it is no metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


def _blas_threads():
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--command", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--run-id", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fedkd.cli  # noqa: F401  (numpy, scipy and every fedkd module)
    t1 = time.perf_counter()
    cli = sys.modules["fedkd.cli"]
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"fedkd imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 4
    cfg = cli.parse_config(args.config)
    t2 = time.perf_counter()
    ready = time.monotonic_ns()
    result = {
        "setup_s": (ready - args.spawn_ns) / 1e9,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "cal_ms": calibrate_ms(),  # after `ready`, so outside setup_s
    }
    if args.setup_only:
        result["env"] = environment()
    else:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(args.run_id)
            tracer.install(sys.modules)
        argv = [args.command, "--config", args.config, "--out", args.out, "--force"]
        cpu0 = _cpu_s()
        w0 = time.perf_counter()
        rc = cli.main(argv)
        w1 = time.perf_counter()
        cpu1 = _cpu_s()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.trace)
        seeds = cfg.sweep.seeds if cfg.sweep is not None else [cfg.seed]
        result.update(
            rc=rc,
            wall_s=w1 - w0,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=peak_kib / 1024,
            shard_sizes={int(s): [len(a) for a in cli.build_data(cfg, int(s))[3].assignments]
                         for s in seeds},
        )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
