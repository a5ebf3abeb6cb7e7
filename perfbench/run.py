#!/usr/bin/env python3
"""kawalab benchmark: end-to-end and per-layer timings of the `kaw` commands.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The repository root is the parent of this file's directory; the program is
imported from its `src/` and the base configs are read from its `configs/`.
Scratch output goes to `.perfbench_work/` under the root and is removed at
exit.

Each workload is one `kawalab.cli.main` command, repeated in a fresh worker
interpreter for `--seconds` (at least `MIN_CALLS` times), after one untimed
warm-up call on the reference seed's inputs.  `--seed` sets the generated
config's `seed` field and, where the workload says so, a seeded `initial.z0`
sinusoid; the program sees only the generated config file.

    ref_run      kaw run, configs/reference.json (nonlinear, N=128, 3000 steps):
                 memory quadratures and diagnostics records dominate.
    fine_run     the same with numerics.N = 2048 and T_end = 2 (200 steps):
                 dense N x N matvecs and the banded solve dominate.
    verify_lin   kaw verify, configs/reference_linear.json: 21 linear runs,
                 21 Stepper set-ups, three dense eigensolves.
    alpha_sweep  kaw sweep --axis gains.alpha over four values, --workers 2:
                 the only workload through the process pool.

Every worker runs with BLAS and OpenMP pinned to one thread, so the sweep's
two pool workers use two threads in all.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced calls (perfbench/tracer.py) and prints the
per-layer metrics, with the tracing overhead.  Each call's outputs are
checked: exit code, byte-identical artifacts across the repeats of one seed,
the workload's own acceptance test, and, on the warm-up call, agreement with
the values recorded for the reference seed in perfbench/reference.json.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

SETUP_REPEATS = 5           # measured set-up probes, after one discarded
MIN_CALLS = {0: 3, 1: 2}    # measured calls per run, by --trace
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "ref_run": {"command": "run", "config": "reference.json", "seeded_z0": True},
    "fine_run": {"command": "run", "config": "reference.json", "seeded_z0": True,
                 "numerics": {"N": 2048, "T_end": 2.0}},
    "verify_lin": {"command": "verify", "config": "reference_linear.json"},
    "alpha_sweep": {"command": "sweep", "config": "reference_linear.json",
                    "seeded_z0": True, "axis": "gains.alpha",
                    "values": (0.3, 0.4, 0.5, 0.6), "workers": 2},
}
ARTIFACT = {"run": "series.csv", "verify": "report.json", "sweep": "sweep.csv"}
OBSERVABILITY_SAMPLES = 20  # cmd_verify's linear runs of length max(5, tau2)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong program output)."""


# ---------------------------------------------------------------------------
# inputs


def make_doc(wl: dict, seed: int) -> dict:
    doc = json.loads((CONFIGS / wl["config"]).read_text(encoding="utf-8"))
    doc["seed"] = seed
    doc["numerics"].update(wl.get("numerics", {}))
    if wl.get("seeded_z0"):
        rng = random.Random(seed)
        doc["initial"]["z0"] = {"type": "sinusoid",
                                "amplitude": rng.uniform(0.05, 0.2),
                                "omega": rng.uniform(0.5, 3.0),
                                "phase": rng.uniform(0.0, 2.0 * math.pi)}
    return doc


def make_argv(wl: dict, config_path: str) -> list:
    argv = [wl["command"], "--config", config_path]
    if wl["command"] == "sweep":
        argv += ["--axis", wl["axis"], "--values", ",".join(map(repr, wl["values"])),
                 "--workers", str(wl["workers"])]
    return argv


def _n_steps(T: float, dt: float) -> int:
    return math.ceil(T / dt - 1e-12) if T > 0 else 0


def steps_per_call(wl: dict, doc: dict) -> int:
    """Integrator steps one command takes, from the config alone."""
    num = doc["numerics"]
    steps = _n_steps(num["T_end"], num["dt"])
    if wl["command"] == "verify":
        steps += OBSERVABILITY_SAMPLES * _n_steps(max(5.0, doc["kernel"]["tau2"]),
                                                  num["dt"])
    elif wl["command"] == "sweep":
        steps *= len(wl["values"])
    return steps


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KAW_WORKERS", None)    # it would override --workers
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# running


def _run_child(argv, cwd, timeout, stdout):
    """Run argv in its own process group; if the wait ends early (timeout,
    SIGTERM, Ctrl-C), kill the group, sweep pool included, and reap it."""
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{argv[1]} exceeded {timeout} s") from e
        raise
    return proc.returncode, out


def measure_setup(config_path: str, work: Path):
    """Median set-up seconds over fresh interpreters; the first is discarded
    (it compiles bytecode and warms the file cache)."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        rc, out = _run_child([sys.executable, str(HERE / "setup_probe.py"), config_path],
                             work, 30, subprocess.PIPE)
        if rc != 0:
            raise BenchError(f"setup probe exited {rc}:\n{out[-2000:]}")
        if i:
            times.append(float(out.strip().splitlines()[-1]))
    return statistics.median(times), len(times)


def run_worker(spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = work / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        rc, _ = _run_child([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                           work, WORKER_TIMEOUT_S, log)
    if rc != 0:
        raise BenchError(f"worker exited {rc}:\n"
                         + log_path.read_text(encoding="utf-8")[-3000:])
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# correctness


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _sweep_rows(out: Path) -> list:
    with open(out / "sweep.csv", newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def key_values(wl: dict, out: Path) -> dict:
    """The numbers compared with perfbench/reference.json."""
    if wl["command"] == "run":
        rep = _read_json(out / "report.json")
        return {"rate": rep["decay_fit"]["rate"], "E_final": rep["E_final"]}
    if wl["command"] == "verify":
        rep = _read_json(out / "report.json")
        checks = {c["check_name"]: c for c in rep["checks"]}
        return {"c_obs": checks["observability_c_obs"]["rhs"],
                "spectral_min_residual": rep["spectral"]["min_residual"]}
    return {f"rate@{r['value']}": float(r["rate"]) for r in _sweep_rows(out)}


def check_call(wl: dict, call: dict, expect_steps: int) -> list:
    """Problems with one command's outputs; empty when they are correct."""
    if call["rc"] != 0:
        return [f"exit code {call['rc']}, expected 0"]
    try:
        return _check_outputs(wl, call, expect_steps)
    except (OSError, KeyError, TypeError, ValueError) as e:
        return [f"outputs unreadable: {e!r}"]


def _check_outputs(wl: dict, call: dict, expect_steps: int) -> list:
    out = Path(call["out"])
    if not (out / ARTIFACT[wl["command"]]).is_file():
        return [f"no {ARTIFACT[wl['command']]} written"]
    problems = []
    if wl["command"] == "run":
        rep = _read_json(out / "report.json")
        rate = rep["decay_fit"].get("rate")
        mu = rep["certificate"]["mu_guaranteed"]
        if not (isinstance(rate, float) and rate > mu):
            problems.append(f"decay rate {rate} not above mu_guaranteed {mu}")
    elif wl["command"] == "verify":
        if _read_json(out / "report.json").get("all_pass") is not True:
            problems.append("verify: all_pass is not true")
    else:
        rows = _sweep_rows(out)
        bad = [r["value"] for r in rows if r["status"] != "ok"]
        if bad or len(rows) != len(wl["values"]):
            problems.append(f"sweep: {len(rows)} rows, not ok at {bad}")
    if "trace" in call:
        steps = _merge_traces([call])["stats"].get("solver.step", [0])[0]
        if steps != expect_steps:
            problems.append(f"traced {steps} steps, config implies {expect_steps}")
    return problems


def check_reference(ref: dict, name: str, wl: dict, call: dict) -> list:
    tol = ref["rel_tol"]
    try:
        got = key_values(wl, Path(call["out"]))
    except (OSError, KeyError, TypeError, ValueError) as e:
        return [f"reference values unreadable: {e!r}"]
    problems = []
    for key, want in ref["values"][name].items():
        have = got.get(key)
        if have is None or not abs(have - want) <= tol * abs(want):
            problems.append(f"reference {key}: {have!r}, recorded {want!r} "
                            f"(rel tol {tol})")
    return problems


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)]


def _merge_traces(traced: list) -> dict:
    """Sum the trace parts (worker process and forked children) of calls;
    `child_stats` sums the children's parts alone."""
    stats, child_stats, edges, step_s, op_bytes = {}, {}, {}, [], 0
    for call in traced:
        for part in call["trace"]:
            for dst in (stats, child_stats) if part["child"] else (stats,):
                for span, vals in part["stats"].items():
                    acc = dst.setdefault(span, [0, 0.0, 0.0, 0])
                    for i, v in enumerate(vals):
                        acc[i] += v
            for edge, sec in part["edges"].items():
                edges[edge] = edges.get(edge, 0.0) + sec
            step_s.extend(part["step_s"])
            op_bytes = max(op_bytes, part["operator_bytes"])
    step_s.sort()
    return {"stats": stats, "child_stats": child_stats, "edges": edges,
            "step_s": step_s, "operator_bytes": op_bytes}


def per_layer_values(wl: dict, plain: list, traced: list, names) -> tuple:
    """Per-layer metric values (per command) and the merged trace."""
    m = _merge_traces(traced)
    n = len(traced)
    stats = m["stats"]
    zero = [0, 0.0, 0.0, 0]
    step = stats.get("solver.step", zero)
    steps = step[0] or 1
    wall_plain = statistics.median(c["wall_s"] for c in plain)
    wall_traced = statistics.median(c["wall_s"] for c in traced)
    quad = _quadrature_calls(stats)
    busy = 0.0
    if wl["command"] == "sweep":
        run_s = m["child_stats"].get("solver.run", zero)[1]
        busy = run_s / (wl["workers"] * sum(c["wall_s"] for c in traced))
    out_dir = Path(plain[0]["out"])
    special = {
        "solver.step.us.p50": 1e6 * _percentile(m["step_s"], 50),
        "solver.step.us.p99": 1e6 * _percentile(m["step_s"], 99),
        "solver.step.self_s": (step[1] - step[2]) / n,
        "discretization.operator_bytes": m["operator_bytes"],
        "cli.output_bytes": sum(p.stat().st_size for p in out_dir.rglob("*")
                                if p.is_file()),
        "cli.sweep.busy_frac": busy,
        "memory.quadrature_calls_per_step": quad / steps,
        "memory.history_copies_per_step":
            stats.get("memory.history_copy", zero)[0] / steps,
        "trace.overhead_s": wall_traced - wall_plain,
        "trace.wall_s": wall_traced,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".calls"):
            values[name] = stats.get(name[:-len(".calls")], zero)[0] / n
        elif name.endswith(".s"):
            values[name] = stats.get(name[:-len(".s")], zero)[1] / n
        else:
            raise BenchError(f"no rule computes per-layer metric {name}")
    return values, m


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _quadrature_calls(stats: dict) -> int:
    """Calls into memory quadratures from outside the memory module."""
    return sum(v[3] for k, v in stats.items()
               if k.startswith("memory.") and not k.startswith("memory.history_"))


def print_trace_report(m: dict, n: int, steps: int) -> None:
    stats = m["stats"]
    print(f"spans (per command, mean of {n} traced commands; self = inclusive - child spans):")
    print(f"  {'span':36s} {'calls':>10s} {'incl_s':>10s} {'self_s':>10s}")
    by_self = sorted(stats.items(), key=lambda kv: kv[1][1] - kv[1][2], reverse=True)
    for span, (calls, incl, child, _) in by_self:
        print(f"  {span:36s} {calls / n:10.6g} {incl / n:10.4g} {(incl - child) / n:10.4g}")
    step = stats.get("solver.step")
    if step:
        parts = {e.split(">", 1)[1]: s for e, s in m["edges"].items()
                 if e.startswith("solver.step>")}
        self_s = step[1] - step[2]
        print(f"solver.step breakdown ({step[0] / n:.0f} steps per command):")
        for span, sec in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"  {span:36s} {sec / n:10.4g} s  {100 * sec / step[1]:5.1f}%")
        print(f"  {'(self)':36s} {self_s / n:10.4g} s  {100 * self_s / step[1]:5.1f}%")
        print(f"  children + self = {(sum(parts.values()) + self_s) / n:.6g} s, "
              f"step spans = {step[1] / n:.6g} s")
    counts = {"solver steps": step[0] if step else 0,
              "memory quadrature calls": _quadrature_calls(stats),
              "history copies": stats.get("memory.history_copy", [0])[0],
              "rng draws": stats.get("rng.uniform", [0])[0]}
    print(f"exact counts per command ({steps} steps implied by the config): "
          + ", ".join(f"{k} {v // n}" for k, v in counts.items()))


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so children are killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "kawalab" / "cli.py", CONFIGS / "reference.json",
                           CONFIGS / "reference_linear.json", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print("benchmark: program not found: " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    bench = _read_json(ROOT / "BENCHMARK.json")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spool").mkdir(parents=True)
    try:
        doc = make_doc(wl, args.seed)
        cfg = work / "config.json"
        cfg.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        ref_cfg = work / "reference_config.json"
        ref = _read_json(HERE / "reference.json")
        ref_cfg.write_text(json.dumps(make_doc(wl, ref["seed"]), indent=2),
                           encoding="utf-8")
        steps = steps_per_call(wl, doc)

        if not args.trace:
            setup_s, setup_n = measure_setup(str(cfg), work)
        result = run_worker({"reference_argv": make_argv(wl, str(ref_cfg)),
                             "argv": make_argv(wl, str(cfg)),
                             "out_dir": str(work / "out"),
                             "spool_dir": str(work / "spool"),
                             "result": str(work / "result.json"),
                             "seconds": args.seconds,
                             "min_calls": MIN_CALLS[args.trace],
                             "trace": bool(args.trace)}, work)

        calls = result["calls"]
        failures = {i: check_call(wl, c, steps) for i, c in enumerate(calls)}
        if calls[0]["rc"] == 0:
            failures[0] += check_reference(ref, args.workload, wl, calls[0])
        measured = [i for i, c in enumerate(calls) if c["role"] == "measured"]
        digests = {i: _digest(Path(calls[i]["out"]) / ARTIFACT[wl["command"]])
                   for i in measured if not failures[i]}
        first = next(iter(digests.values()), None)
        for i, d in digests.items():
            if d != first:
                failures[i].append(f"{ARTIFACT[wl['command']]} differs from the "
                                   "first repeat of this seed")
        failed = sum(1 for p in failures.values() if p)
        attempted = len(calls)

        plain = [calls[i] for i in measured if not calls[i]["traced"]]
        traced = [calls[i] for i in measured if calls[i]["traced"]]
        wall = [c["wall_s"] for c in plain]
        v = result["versions"]
        print(f"kawalab benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} "
              f"python={v['python']} numpy={v['numpy']} scipy={v['scipy']} "
              f"blas(numpy)={v['numpy_blas']} blas(scipy)={v['scipy_blas']} "
              + " ".join(f"{var}=1" for var in THREAD_VARS))
        print(f"command: kaw {' '.join(make_argv(wl, 'config.json'))}  "
              f"(N={doc['numerics']['N']}, {steps} steps per command)")
        for i, probs in failures.items():
            for p in probs:
                print(f"FAILED call {i} ({calls[i]['role']}): {p}")

        if args.trace:
            names = [mdef["name"] for mdef in wanted]
            values, merged = per_layer_values(wl, plain, traced, names)
            print_trace_report(merged, len(traced), steps)
            samples = {name: len(traced) for name in names}
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(wall),
                "steps_per_s": steps / statistics.median(wall),
                "cpu_s": statistics.median(c["cpu_s"] for c in plain),
                "peak_rss_mb": (result["maxrss_kb_self"]
                                + result["maxrss_kb_children"]) / 1024.0,
            }
            samples = {"setup_s": setup_n, "wall_s": len(wall),
                       "steps_per_s": len(wall), "cpu_s": len(wall),
                       "peak_rss_mb": 1}
            print(f"wall_s per command: min {min(wall):.4f} max {max(wall):.4f}")
        print(f"{'metric':36s} {'value':>14s} {'unit':8s} samples")
        for mdef in wanted:
            name = mdef["name"]
            if name not in values:
                raise BenchError(f"no measurement for metric {name}")
            print(f"{name:36s} {_fmt(values[name]):>14s} {mdef['unit']:8s} "
                  f"{samples.get(name, 1)}")
        print(f"{'failed_frac':36s} {_fmt(failed / attempted):>14s} {'1':8s} {attempted}")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}))
        return 0
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
