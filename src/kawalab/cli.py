"""`kaw` command line: config ingestion, runs, sweeps, verification suites.

Single JSON config document; all quantities nondimensional.  Outputs land
under --out: certificate.json (check), series.csv + report.json (run),
sweep.csv (sweep), report.json (verify).  Exit codes: 0 success, 1 config
error, 2 failed certificate, 3 solver abort, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import diagnostics
from .model import (Certificate, ConditionError, FeedbackGains, MemoryKernel,
                    PhysicalParams, build_certificate, r_max)
from .solver import SimConfig, SolverAbort, run


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration; message names the field."""


# Limits that turn an absurd value into a config error instead of a failed
# allocation or an endless run; the solver's rhs_mat is N x N (512 MB at 8192).
MAX_N = 8192
MAX_SAMPLES = 10 ** 7   # time steps T_end/dt, and history samples tau2/dt


# ---------------------------------------------------------------------------
# config parsing


def _section(doc: dict, name: str, required=True, parent="") -> dict:
    path = f"{parent}.{name}" if parent else name
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"missing section '{path}'")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{path}' must be an object")
    return sec


def _float(v, name: str) -> float:
    """v as a finite float; bools, strings and the like are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field '{name}' must be a number, got {v!r}")
    # exact for ints of any size; false for NaN
    if not -sys.float_info.max <= v <= sys.float_info.max:
        raise ConfigError(f"field '{name}' must be finite, got {v!r}")
    return float(v)


def _num(sec: dict, path: str, key: str, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing field '{path}.{key}'")
        return default
    return _float(sec[key], f"{path}.{key}")


def _int(v, name: str, lo=-math.inf, hi=math.inf) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
        raise ConfigError(f"field '{name}' must be an integer in [{lo}, {hi}],"
                          f" got {v!r}")
    return v


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON at line {e.lineno}, column {e.colno}: "
                          f"{e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be a JSON object")
    return doc


def build_model(doc: dict):
    """(params, gains, kernel) from the model/gains/kernel sections."""
    m = _section(doc, "model")
    g = _section(doc, "gains")
    k = _section(doc, "kernel")
    try:
        params = PhysicalParams(a=_num(m, "model", "a"), b=_num(m, "model", "b"),
                                L=_num(m, "model", "L"), p=_num(m, "model", "p"))
        gains = FeedbackGains(alpha=_num(g, "gains", "alpha"),
                              beta=_num(g, "gains", "beta"),
                              mu1=_num(g, "gains", "mu1"),
                              mu2=_num(g, "gains", "mu2"),
                              delta=_num(g, "gains", "delta", 1.0))
        form = k.get("form", "constant")
        if form not in ("constant", "exponential", "tabulated"):
            raise ConfigError(f"kernel.form must be constant|exponential|tabulated,"
                              f" got {form!r}")
        kp = k.get("params", {})
        if not isinstance(kp, dict):
            raise ConfigError("kernel.params must be an object")
        samples = ()
        if form == "tabulated":
            raw = kp.get("samples")
            if not raw:
                raise ConfigError("kernel.params.samples required for tabulated")
            name = "kernel.params.samples"
            samples = tuple((_float(s, name), _float(v, name)) for s, v in raw)
        kernel = MemoryKernel(tau1=_num(k, "kernel", "tau1"),
                              tau2=_num(k, "kernel", "tau2"),
                              form=form,
                              c=_num(kp, "kernel.params", "c", 1.0),
                              sigma=_num(kp, "kernel.params", "sigma",
                                         1.0 if form == "exponential" else 0.0),
                              samples=samples)
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    return params, gains, kernel


def _build_u0(spec: dict, params: PhysicalParams, seed: int):
    kind = spec.get("type", "zero")
    L = params.L
    if kind == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "sine":
        mode = _num(spec, "initial.u0", "mode", 1)
        if mode < 1 or mode != int(mode):
            raise ConfigError("initial.u0.mode must be an integer >= 1")
        mode = int(mode)
        if (spec.get("h_norm_r_max_fraction") is not None
                or "amplitude" not in spec):
            # ||A sin(m pi x/L)||_{L^2} = A sqrt(L/2); scale so the H norm
            # (z0 must be zero for this to be exact) hits frac * r_max
            frac = _num(spec, "initial.u0", "h_norm_r_max_fraction")
            amp = frac * r_max(params) / math.sqrt(L / 2.0)
        else:
            amp = _num(spec, "initial.u0", "amplitude")
        return lambda x: amp * np.sin(mode * math.pi * np.asarray(x) / L)
    if kind == "bump":
        amp = _num(spec, "initial.u0", "amplitude")
        return lambda x: amp * np.asarray(x) ** 2 * (L - np.asarray(x)) ** 2
    if kind == "random":
        u0, _ = diagnostics.random_initial_data(seed, L)
        return u0
    raise ConfigError(f"unknown initial.u0.type {kind!r}")


def _build_z0(spec: dict, seed: int):
    kind = spec.get("type", "zero")
    if kind == "zero":
        return lambda t: 0.0
    if kind == "constant":
        c = _num(spec, "initial.z0", "value")
        return lambda t: c
    if kind == "sinusoid":
        A = _num(spec, "initial.z0", "amplitude")
        om = _num(spec, "initial.z0", "omega")
        ph = _num(spec, "initial.z0", "phase", 0.0)
        return lambda t: A * math.sin(om * t + ph)
    if kind == "tabulated":
        ts, vs = (spec.get(key) for key in ("times", "values"))
        if (not isinstance(ts, list) or not isinstance(vs, list) or not ts
                or len(ts) != len(vs)):
            raise ConfigError("initial.z0 tabulated needs matching times/values")
        ts = np.array([_float(t, "initial.z0.times") for t in ts])
        vs = np.array([_float(v, "initial.z0.values") for v in vs])
        if np.any(np.diff(ts) <= 0.0):
            raise ConfigError("field 'initial.z0.times' must be increasing")
        return lambda t: float(np.interp(t, ts, vs))
    if kind == "random":
        _, z0 = diagnostics.random_initial_data(seed, 1.0)
        return z0
    raise ConfigError(f"unknown initial.z0.type {kind!r}")


def build_sim_config(doc: dict) -> SimConfig:
    params, gains, kernel = build_model(doc)
    n = _section(doc, "numerics")
    init = _section(doc, "initial", required=False)
    seed = _int(doc.get("seed", 0), "seed")
    # the ghost closure needs N >= 12 (discretization.Grid)
    N = _int(n.get("N"), "numerics.N", 12, MAX_N)
    record_every = _int(n.get("record_every", 10), "numerics.record_every", 0)
    linear_only = n.get("linear_only", False)
    if not isinstance(linear_only, bool):
        raise ConfigError("numerics.linear_only must be a boolean")
    startup = _int(n.get("startup_steps", 2), "numerics.startup_steps", 0)
    mms = doc.get("mms_amplitude")
    mms = None if mms is None else _float(mms, "mms_amplitude")
    u0 = _build_u0(_section(init, "u0", False, "initial"), params, seed)
    z0 = _build_z0(_section(init, "z0", False, "initial"), seed)
    dt, T_end = _num(n, "numerics", "dt"), _num(n, "numerics", "T_end")
    try:
        config = SimConfig(params=params, gains=gains, kernel=kernel, N=N,
                           dt=dt, T_end=T_end, u0=u0, z0=z0,
                           record_every=record_every, linear_only=linear_only,
                           mms_amplitude=mms, startup_steps=startup)
    except ValueError as e:
        raise ConfigError(f"numerics: {e}") from e
    for name, span in (("numerics.T_end", T_end), ("kernel.tau2", kernel.tau2)):
        if span / dt > MAX_SAMPLES:
            raise ConfigError(f"{name} / numerics.dt must not exceed "
                              f"{MAX_SAMPLES}, got {span!r} / {dt!r}")
    if config.n_steps == 0:
        raise ConfigError(f"numerics.T_end = {T_end!r} gives no time step")
    return config


# ---------------------------------------------------------------------------
# output helpers


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def _write_json(path: str, obj: dict):
    _write_text(path, _dumps(obj) + "\n")


def write_series_csv(path: str, records) -> None:
    lines = [diagnostics.DiagnosticsRecord.CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    _write_text(path, "\n".join(lines) + "\n")


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(doc: dict, out: str) -> int:
    params, gains, kernel = build_model(doc)
    cert = build_certificate(params, gains, kernel)
    payload = cert.to_dict()
    print(_dumps(payload))
    _write_json(os.path.join(_ensure_out(out), "certificate.json"), payload)
    if not cert.ok:
        print("failed certificates: " + ", ".join(cert.failures), file=sys.stderr)
        return 2
    return 0


def _run_report(result, config: SimConfig, cert: Certificate) -> dict:
    report = {"certificate": cert.to_dict(),
              "n_records": len(result.records),
              "h_norm0_sq": result.h_norm0_sq,
              "E_final": result.records[-1].E if result.records else None}
    try:
        fit = diagnostics.fit_decay(result.records,
                                    (config.T_end / 6.0, config.T_end))
        report["decay_fit"] = {"t_window": list(fit.t_window), "rate": fit.rate,
                               "r2": fit.r2, "kappa_hat": fit.kappa_hat}
    except ValueError as e:
        report["decay_fit"] = {"error": str(e)}
    lo, hi = diagnostics.sandwich_margins(result.records, config.params,
                                          config.gains)
    inc = diagnostics.energy_increments(result.records)
    E0 = result.records[0].E if result.records else 0.0
    report["invariants"] = {
        "sandwich_violation_low": lo,
        "sandwich_violation_high": hi,
        "max_energy_increment": float(inc.max()) if inc.size else 0.0,
        "energy_monotone_tol": 1e-10 * E0,
        "energy_monotone": bool(inc.size == 0 or inc.max() <= 1e-10 * E0),
    }
    if result.mms_error is not None:
        report["mms_error"] = result.mms_error
    return report


def cmd_run(doc: dict, out: str) -> int:
    config = build_sim_config(doc)
    params, gains, kernel = config.params, config.gains, config.kernel
    cert = build_certificate(params, gains, kernel)
    if not cert.ok:
        print("warning: failed certificates (run proceeds): "
              + ", ".join(cert.failures), file=sys.stderr)
    result = run(config)
    _ensure_out(out)
    write_series_csv(os.path.join(out, "series.csv"), result.records)
    _write_json(os.path.join(out, "report.json"),
                _run_report(result, config, cert))
    return 0


def _sweep_axis_set(doc: dict, axis: str, value: float) -> dict:
    parts = axis.split(".")
    node = doc
    for key in parts[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            raise ConfigError(f"axis '{axis}': '{key}' is not a config section")
        node = nxt
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(f"axis '{axis}': no such field")
    if isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float)):
        raise ConfigError(f"axis '{axis}' must name a scalar field")
    out = json.loads(json.dumps(doc))  # deep copy
    n = out
    for key in parts[:-1]:
        n = n[key]
    n[parts[-1]] = int(value) if leaf == "N" else value
    return out


def _sweep_worker(args) -> dict:
    idx, doc, axis, value = args
    row = {"index": idx, "value": value, "status": "ok", "certified": "",
           "failures": "", "rate": "", "r2": "", "mms_error": ""}
    try:
        sub = _sweep_axis_set(doc, axis, value)
        params, gains, kernel = build_model(sub)
        try:
            cert = build_certificate(params, gains, kernel)
            row["certified"] = str(cert.ok).lower()
            row["failures"] = ";".join(cert.failures)
        except ConditionError as e:
            row["certified"] = "false"
            row["failures"] = str(e)
        config = build_sim_config(sub)
        result = run(config)
        try:
            fit = diagnostics.fit_decay(result.records,
                                        (config.T_end / 6.0, config.T_end))
            row["rate"] = repr(fit.rate)
            row["r2"] = repr(fit.r2)
        except ValueError:
            pass
        if result.mms_error is not None:
            row["mms_error"] = repr(result.mms_error)
    except (ConfigError, ConditionError, SolverAbort, ValueError) as e:
        row["status"] = "aborted"
        row["failures"] = str(e)
    return row


def _worker_count(cli_value) -> int:
    if cli_value is not None:
        return max(1, cli_value)
    return os.cpu_count() or 1


def cmd_sweep(doc: dict, out: str, axis: str, values, workers: int) -> int:
    if not axis or not values:
        raise ConfigError("sweep requires --axis and --values")
    _sweep_axis_set(doc, axis, values[0])  # validate axis up front
    jobs = [(i, doc, axis, v) for i, v in enumerate(values)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(j) for j in jobs]
    rows.sort(key=lambda r: r["index"])  # deterministic: input order
    cols = ("status", "certified", "failures", "rate", "r2", "mms_error")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("value",) + cols)
    for r in rows:
        writer.writerow([repr(float(r["value"]))] + [r[c] for c in cols])
    _write_text(os.path.join(_ensure_out(out), "sweep.csv"), text.getvalue())
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep: {n_ok}/{len(rows)} runs succeeded")
    return 0 if n_ok >= 1 else 3


def cmd_verify(doc: dict, out: str) -> int:
    config = build_sim_config(doc)
    params, gains, kernel = config.params, config.gains, config.kernel
    checks = []

    def add(name, lhs, rhs, ok, note=""):
        entry = {"check_name": name, "lhs": lhs, "rhs": rhs,
                 "margin": (rhs - lhs) if (ok is not None and lhs is not None
                                           and rhs is not None) else None,
                 "pass": ok}
        if note:
            entry["note"] = note
        checks.append(entry)

    cert = build_certificate(params, gains, kernel)
    add("certificate", None, None, cert.ok,
        note=";".join(cert.failures) if cert.failures else "all conditions hold")

    result = run(config)

    apriori = diagnostics.check_apriori_estimates(result, config)
    if "skipped" in apriori:
        add("apriori", None, None, None, note=f"skipped ({apriori['skipped']})")
    else:
        add("est1_constant", apriori["est1"]["lhs"],
            apriori["est1"]["rhs_norm_sq"], None,
            note=f"C_hat = {apriori['est1']['C_hat']} (reported, not asserted)")
        for key in ("est3", "est4"):
            e = apriori[key]
            add(key, e["lhs"], e["rhs"], e["pass"])

    lo, hi = diagnostics.sandwich_margins(result.records, params, gains)
    add("sandwich", max(lo, hi), 0.0, lo <= 0.0 and hi <= 0.0)
    inc = diagnostics.energy_increments(result.records)
    E0 = result.records[0].E if result.records else 0.0
    add("energy_monotone", float(inc.max()) if inc.size else 0.0, 1e-10 * E0,
        bool(inc.size == 0 or inc.max() <= 1e-10 * E0),
        note="linear run; E must be nonincreasing")

    obs_cfg = replace(config, T_end=max(5.0, kernel.tau2))
    c_obs, ratios = diagnostics.estimate_observability(obs_cfg, n_samples=20,
                                                       seed=doc.get("seed", 0))
    add("observability_c_obs", 0.0, c_obs, c_obs > 0.0,
        note="evidence only, not a proof; C = 1/c_obs")

    spectral = {}
    spec_ok = True
    try:
        thresh = diagnostics.spectral_threshold(params.L, Ns=(200, 400))
        resid = float(diagnostics.spectral_residuals(params.L, 300).min())
        spectral = {"L": params.L, "min_residual": resid, "threshold": thresh}
        spec_ok = resid > thresh
    except ValueError as e:
        spectral = {"L": params.L, "error": str(e)}
        spec_ok = False
    add("spectral_lemma", spectral.get("threshold"),
        spectral.get("min_residual"), spec_ok,
        note="a = b = 1 as in the lemma; residual of the sixth condition")

    asserted = [c for c in checks if c["pass"] is not None]
    all_ok = all(c["pass"] for c in asserted)
    report = {"checks": checks, "observability_ratios": ratios,
              "spectral": spectral, "all_pass": all_ok}
    _write_json(os.path.join(_ensure_out(out), "report.json"), report)
    for c in checks:
        status = {True: "PASS", False: "FAIL", None: "INFO"}[c["pass"]]
        print(f"[{status}] {c['check_name']}"
              + (f": {c.get('note')}" if c.get("note") else ""))
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# entry point


def _parse_values(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers: {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kaw", description="Kawahara boundary-feedback laboratory")
    parser.add_argument("command", choices=["check", "run", "sweep", "verify"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--axis", default=None)
    parser.add_argument("--values", default=None)
    args = parser.parse_args(argv)

    try:
        doc = load_config(args.config)
        if args.command == "check":
            return cmd_check(doc, args.out)
        if args.command == "run":
            return cmd_run(doc, args.out)
        if args.command == "sweep":
            values = _parse_values(args.values) if args.values else None
            return cmd_sweep(doc, args.out, args.axis, values,
                             _worker_count(args.workers))
        return cmd_verify(doc, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except ConditionError as e:
        print(f"failed certificate: {e}", file=sys.stderr)
        return 2
    except SolverAbort as e:
        print(f"solver abort: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
