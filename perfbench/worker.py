"""Benchmark worker: repeated in-process `kawalab.cli.main` calls, timed.

Run by run.py in a fresh interpreter whose environment pins BLAS/OpenMP to one
thread (they are read when numpy loads, so they cannot be set from here):

    python3 perfbench/worker.py <spec.json>

The spec names the warm-up command (the reference seed's config, checked
against recorded values), the measured command, the output directory, the
time budget and whether to trace.  Every call writes to its own directory.
With tracing, untraced and traced calls alternate, so their wall times can be
compared.  The result (per-call wall and CPU time, exit code, output
directory, per-call trace totals, peak RSS, library versions) goes to the
spec's result path as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import kawalab.cli


def _cpu_s() -> float:
    """User + system seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _timed_call(argv, out_dir) -> dict:
    c0 = _cpu_s()
    t0 = time.perf_counter()
    rc = kawalab.cli.main(argv + ["--out", out_dir])
    wall = time.perf_counter() - t0
    return {"out": out_dir, "rc": rc, "wall_s": wall, "cpu_s": _cpu_s() - c0}


def _versions() -> dict:
    import numpy as np
    import scipy

    out = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__}
    for lib, mod in (("numpy_blas", np), ("scipy_blas", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[lib] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError, AttributeError):
            out[lib] = "unknown"
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(spec["spool_dir"])

    out_root = spec["out_dir"]
    calls = [dict(_timed_call(spec["reference_argv"],
                              os.path.join(out_root, "reference")),
                  role="reference", traced=False)]
    min_calls = spec["min_calls"]
    deadline = time.perf_counter() + spec["seconds"]
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        try:
            rec = _timed_call(spec["argv"], os.path.join(out_root, f"call-{i:03d}"))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            rec["trace"] = tracer.collect()
        calls.append(dict(rec, role="measured", traced=traced))
        i += 1
        if (time.perf_counter() >= deadline and i >= min_calls
                and (tracer is None or i % 2 == 0)):
            break

    result = {
        "calls": calls,
        "maxrss_kb_self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_kb_children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "versions": _versions(),
    }
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
