"""`kaw` command line: config ingestion, runs, sweeps, verification suites.

Single JSON config document; all quantities nondimensional.  Outputs land
under --out: certificate.json (check), series.csv + report.json (run),
sweep.csv (sweep), report.json (verify).  Exit codes: 0 success, 1 config
or usage error, 2 failed certificate, 3 solver abort, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .model import (Certificate, ConditionError, FeedbackGains, MemoryKernel,
                    PhysicalParams, build_certificate, r_max)
from .solver import MAX_N, RECORD, SimConfig, SolverAbort, _build_mms, run


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration; message names the field."""


class UnusedFieldError(ConfigError):
    """A config field that the run would not use: a key that the parser
    never reads (misspelt, misplaced or moot), or one that another field
    overrides.  It fails a whole sweep, whatever the swept value."""


# Limits that turn an absurd value into a config error instead of a failed
# allocation or an endless run; `numerics.N` is at most solver.MAX_N, the
# largest N whose right-hand side is checked to equal the dense product.
MAX_SAMPLES = 10 ** 7   # time steps T_end/dt, and history samples tau2/dt


# ---------------------------------------------------------------------------
# config fields and parsing


# the types of a field's value, as the messages and the README word them
NUMBER, INTEGER, BOOLEAN = "a number", "an integer", "a boolean"
NUMBERS, PAIRS = "a list of numbers", "a list of [number, number] pairs"
NUMBER_OR_NULL, REQUIRED = "a number or null", object()


class Field(NamedTuple):
    """A config field: its dotted path, whose last key names the parameter
    it sets; its type, or the names a selector takes; its default, or
    REQUIRED; `when` it applies: always (""), or "selector=a|b" where that
    selector row, above this one, reads a or b; and `check`, (words, test):
    test(value, fields read so far) must hold, as the words say."""

    path: str
    type: object = NUMBER
    default: object = REQUIRED
    when: str = ""
    check: tuple = ("", lambda v, f: True)


POSITIVE = ("positive", lambda v, f: v > 0)
NONNEGATIVE = ("nonnegative", lambda v, f: v >= 0)
NONZERO = ("nonzero", lambda v, f: v != 0)
# model.L keeps the operator's (L / (N + 1)) ** -5 finite for every N, and
# kernel.params.sigma keeps exp(-sigma s) on (tau1, tau2) within range
FIELDS = (
    Field("model.a", check=POSITIVE),
    Field("model.b", check=POSITIVE),
    Field("model.L", check=("in [1e-50, 1e50]",
                            lambda v, f: 1e-50 <= v <= 1e50)),
    Field("model.p", check=("in [1, 2]", lambda v, f: 1 <= v <= 2)),
    Field("gains.alpha", check=NONZERO),
    Field("gains.beta", check=NONZERO),
    Field("gains.mu1", check=NONNEGATIVE),
    Field("gains.mu2", check=NONNEGATIVE),
    Field("gains.delta", default=1.0, check=POSITIVE),
    Field("kernel.form", ("constant", "exponential", "tabulated"), "constant"),
    Field("kernel.tau1", check=POSITIVE),
    Field("kernel.tau2", check=("greater than kernel.tau1",
                                lambda v, f: v > f["kernel.tau1"])),
    Field("kernel.params.c", NUMBER, 1.0, "kernel.form=constant|exponential",
          POSITIVE),
    Field("kernel.params.sigma", NUMBER, 1.0, "kernel.form=exponential",
          ("at least -700 / kernel.tau2",
           lambda v, f: v * f["kernel.tau2"] >= -700)),
    # np.interp would hold an end value over the part of [tau1, tau2] left out
    Field("kernel.params.samples", PAIRS, REQUIRED, "kernel.form=tabulated",
          ("two or more pairs [s, value], s increasing, from at most "
           "kernel.tau1 to at least kernel.tau2, and value positive",
           lambda x, f: len(x) > 1 and min(v for _, v in x) > 0
           and x[0][0] <= f["kernel.tau1"] and x[-1][0] >= f["kernel.tau2"]
           and all(a[0] < b[0] for a, b in zip(x, x[1:])))),
    # the ghost closure needs N >= 12 (discretization.Grid)
    Field("numerics.N", INTEGER, check=(f"in [12, {MAX_N}]",
                                        lambda v, f: 12 <= v <= MAX_N)),
    Field("numerics.dt", check=(
        f"positive, at most kernel.tau1, at least kernel.tau2 / {MAX_SAMPLES}",
        lambda v, f: 0 < v <= f["kernel.tau1"]
        and f["kernel.tau2"] / v <= MAX_SAMPLES)),
    # n_steps = ceil(T_end / dt - 1e-12) time steps (solver.SimConfig)
    Field("numerics.T_end", check=(
        f"over 1e-12 and at most {MAX_SAMPLES} times numerics.dt",
        lambda v, f: 1e-12 < v / f["numerics.dt"] <= MAX_SAMPLES)),
    Field("numerics.record_every", INTEGER, 10, check=NONNEGATIVE),
    Field("numerics.linear_only", BOOLEAN, False),
    Field("numerics.startup_steps", INTEGER, 2, check=NONNEGATIVE),
    Field("initial.u0.type", ("zero", "sine", "bump", "random"), "zero"),
    Field("initial.u0.mode", INTEGER, 1, "initial.u0.type=sine",
          ("at least 1", lambda v, f: v >= 1)),
    # a sine profile takes one of the next two
    Field("initial.u0.amplitude", NUMBER, None, "initial.u0.type=sine"),
    Field("initial.u0.h_norm_r_max_fraction", NUMBER, None,
          "initial.u0.type=sine"),
    Field("initial.u0.amplitude", when="initial.u0.type=bump"),
    Field("initial.z0.type",
          ("zero", "constant", "sinusoid", "tabulated", "random"), "zero"),
    Field("initial.z0.value", when="initial.z0.type=constant"),
    Field("initial.z0.amplitude", when="initial.z0.type=sinusoid"),
    Field("initial.z0.omega", when="initial.z0.type=sinusoid"),
    Field("initial.z0.phase", NUMBER, 0.0, "initial.z0.type=sinusoid"),
    # np.interp would hold an end value over the part of (-tau2, 0) left out
    Field("initial.z0.times", NUMBERS, REQUIRED, "initial.z0.type=tabulated",
          ("increasing, from at most -kernel.tau2 to at least 0",
           lambda x, f: len(x) > 0 and x[0] <= -f["kernel.tau2"]
           and x[-1] >= 0 and all(a < b for a, b in zip(x, x[1:])))),
    Field("initial.z0.values", NUMBERS, REQUIRED, "initial.z0.type=tabulated",
          ("as long as initial.z0.times",
           lambda x, f: len(x) == len(f["initial.z0.times"]))),
    Field("seed", INTEGER, 0),
    Field("mms_amplitude", NUMBER_OR_NULL, None),
)


def _float(v, name: str) -> float:
    """v as a finite float; bools, strings and the like are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field '{name}' must be a number, got {v!r}")
    # exact for ints of any size; false for NaN
    if not -sys.float_info.max <= v <= sys.float_info.max:
        raise ConfigError(f"field '{name}' must be finite, got {v!r}")
    return float(v)


def _value(row: Field, v, f: dict):
    """The document's value `v` of `row`, checked against its type and test."""
    kind, path = row.type, row.path
    if isinstance(kind, tuple):
        if v in kind:
            return v
        kind = "one of " + ", ".join(kind)
    elif kind == BOOLEAN and isinstance(v, bool) or (
            kind == NUMBER_OR_NULL and v is None):
        return v
    if kind in (NUMBER, NUMBER_OR_NULL, INTEGER):
        x = _float(v, path)
        if kind == INTEGER:
            if not x.is_integer():
                raise ConfigError(f"field '{path}' must be {kind}, got {v!r}")
            x = int(v)
    elif kind == NUMBERS and isinstance(v, list):
        x = tuple(_float(y, path) for y in v)
    elif kind == PAIRS and isinstance(v, list) and all(
            isinstance(p, list) and len(p) == 2 for p in v):
        x = tuple((_float(s, path), _float(y, path)) for s, y in v)
    else:
        raise ConfigError(f"field '{path}' must be {kind}, got {v!r}")
    words, test = row.check
    if not test(x, f):
        raise ConfigError(f"field '{path}' must be {words}, got {v!r}")
    return x


def _unread(node: dict, named: set, prefix=()):
    for key, value in node.items():
        if prefix + (key,) not in named:
            yield ".".join(prefix + (key,))
        elif isinstance(value, dict):
            yield from _unread(value, named, prefix + (key,))


def _read(doc: dict, sections=None) -> dict:
    """{path: value} for the rows of FIELDS that apply to `doc`, within its
    top-level keys `sections` (default: all).  A key of `doc` there that no
    applying row names is an UnusedFieldError, whose message also lists the
    applying rows left out: a default may be what makes the key moot."""
    f, named, left_out = {}, set(), []
    for row in FIELDS:
        keys = tuple(row.path.split("."))
        selector, _, names = row.when.partition("=")
        if (sections is not None and keys[0] not in sections
                or names and f[selector] not in names.split("|")):
            continue
        named.update(keys[:i] for i in range(1, len(keys) + 1))
        node = doc
        for i, key in enumerate(keys[:-1], 1):
            node = node.get(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"section '{'.'.join(keys[:i])}' must be "
                                  f"an object, got {node!r}")
        if keys[-1] in node:
            f[row.path] = _value(row, node[keys[-1]], f)
        elif row.default is REQUIRED:
            raise ConfigError(f"missing field '{row.path}'")
        else:
            f[row.path] = row.default
            left_out.append(row.path)
    unread = list(_unread({key: value for key, value in doc.items()
                           if sections is None or key in sections}, named))
    if unread:
        quote = lambda names: ", ".join(f"'{name}'" for name in names)
        raise UnusedFieldError(
            f"field(s) not read by this config: {quote(unread)}"
            + (f" (left out beside them: {quote(left_out)})" if left_out
               else ""))
    return f


def _kwargs(f: dict, section: str) -> dict:
    """The fields read under `section`, by their last keys."""
    return {path.rpartition(".")[2]: value for path, value in f.items()
            if path.startswith(section + ".")}


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


def _model(f: dict):
    return (PhysicalParams(**_kwargs(f, "model")),
            FeedbackGains(**_kwargs(f, "gains")),
            MemoryKernel(**_kwargs(f, "kernel")))


def build_model(doc: dict):
    """(params, gains, kernel) from the model/gains/kernel sections."""
    return _model(_read(doc, ("model", "gains", "kernel")))


def _build_u0(f: dict, params: PhysicalParams):
    kind, L = f["initial.u0.type"], params.L
    if kind == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "sine":
        mode, amp, frac = (f["initial.u0." + key] for key in
                           ("mode", "amplitude", "h_norm_r_max_fraction"))
        if amp is not None and frac is not None:
            raise UnusedFieldError("give one of 'initial.u0.amplitude' and "
                                   "'initial.u0.h_norm_r_max_fraction', not both")
        if amp is None:
            if frac is None:
                raise ConfigError("missing field 'initial.u0.amplitude' or "
                                  "'initial.u0.h_norm_r_max_fraction'")
            # ||A sin(m pi x/L)||_{L^2} = A sqrt(L/2); scale so the H norm
            # (z0 must be zero for this to be exact) hits frac * r_max
            amp = frac * r_max(params) / math.sqrt(L / 2.0)
        return lambda x: amp * np.sin(mode * math.pi * np.asarray(x) / L)
    if kind == "bump":
        amp = f["initial.u0.amplitude"]
        return lambda x: amp * np.asarray(x) ** 2 * (L - np.asarray(x)) ** 2
    return diagnostics.random_initial_data(f["seed"], L)[0]


def _build_z0(f: dict):
    kind = f["initial.z0.type"]
    if kind == "zero":
        return lambda t: 0.0
    if kind == "constant":
        c = f["initial.z0.value"]
        return lambda t: c
    if kind == "sinusoid":
        A, om, ph = (f["initial.z0." + key] for key in
                     ("amplitude", "omega", "phase"))
        return lambda t: A * math.sin(om * t + ph)
    if kind == "tabulated":
        ts, vs = (np.array(f["initial.z0." + key]) for key in
                  ("times", "values"))
        return lambda t: float(np.interp(t, ts, vs))
    return diagnostics.random_initial_data(f["seed"], 1.0)[1]


def build_sim_config(doc: dict) -> SimConfig:
    """The run's config; a key of `doc` that it never reads is an error.
    With `mms_amplitude` it starts from the manufactured solution at t = 0
    and a zero history (its trace u_xx(t, 0) is 0), reading no `initial`
    and no `seed`, which seeds only random initial data."""
    f = _read(doc)
    params, gains, kernel = _model(f)
    amp = f["mms_amplitude"]
    moot = [f"'{key}'" for key in ("initial", "seed") if key in doc]
    if amp is None:
        u0, z0 = _build_u0(f, params), _build_z0(f)
    elif moot:
        raise UnusedFieldError("field(s) not read beside 'mms_amplitude': "
                               + ", ".join(moot))
    else:
        exact = _build_mms(params, amp, linear_only=False)[0]
        u0, z0 = (lambda x: exact(x, 0.0)), (lambda t: 0.0)
    return SimConfig(params=params, gains=gains, kernel=kernel, u0=u0, z0=z0,
                     mms_amplitude=amp, **_kwargs(f, "numerics"))


# ---------------------------------------------------------------------------
# output helpers


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _plain(o):
    """`o` with numpy values as Python ones and every non-finite float as
    None: strict JSON has null, and no NaN or Infinity."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {key: _plain(v) for key, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    return None if isinstance(o, float) and not math.isfinite(o) else o


def _dumps(obj: dict) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False)


def _write_json(path: str, obj: dict):
    _write_text(path, _dumps(obj) + "\n")


def write_series_csv(path: str, records: np.recarray) -> None:
    """The records as CSV; each value is the `repr` of a Python float."""
    lines = [",".join(RECORD.names)]
    lines.extend(",".join(map(repr, row)) for row in records.tolist())
    _write_text(path, "\n".join(lines) + "\n")


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(doc: dict, out: str) -> int:
    cert = build_certificate(*build_model(doc))
    payload = cert.to_dict()
    print(_dumps(payload))
    _write_json(os.path.join(_ensure_out(out), "certificate.json"), payload)
    if not cert.ok:
        print("failed certificates: " + ", ".join(cert.failures), file=sys.stderr)
        return 2
    return 0


def _decay_fit(result, config: SimConfig) -> diagnostics.DecayFit:
    """The run's decay fit, over (T_end/6, T_end): the initial transient is
    left out.  Raises ValueError when the window has too few records."""
    return diagnostics.fit_decay(result.records,
                                 (config.T_end / 6.0, config.T_end))


def _energy_monotone(records) -> tuple:
    """(largest energy increment between records, its tolerance 1e-10 E(0),
    whether every increment stays within it), of one or more records."""
    inc = np.diff(records.E)
    tol = 1e-10 * float(records.E[0])
    if not inc.size:
        return 0.0, tol, True
    return float(inc.max()), tol, bool(inc.max() <= tol)


def _invariants(records, config: SimConfig) -> tuple:
    """(low and high sandwich violations, then _energy_monotone) of a run's
    records; all None when there are none, for nothing was checked."""
    if not len(records):
        return (None,) * 5
    return (diagnostics.sandwich_margins(records, config.params, config.gains)
            + _energy_monotone(records))


def _run_report(result, config: SimConfig, cert: Certificate) -> dict:
    report = {"certificate": cert.to_dict(),
              "n_records": len(result.records),
              "h_norm0_sq": result.h_norm0_sq,
              "E_final": (float(result.records.E[-1]) if len(result.records)
                          else None)}
    try:
        fit = _decay_fit(result, config)
        report["decay_fit"] = {"t_window": list(fit.t_window), "rate": fit.rate,
                               "r2": fit.r2, "kappa_hat": fit.kappa_hat}
    except ValueError as e:
        report["decay_fit"] = {"error": str(e)}
    report["invariants"] = dict(zip(
        ("sandwich_violation_low", "sandwich_violation_high",
         "max_energy_increment", "energy_monotone_tol", "energy_monotone"),
        _invariants(result.records, config)))
    if result.mms_error is not None:
        report["mms_error"] = result.mms_error
    return report


def cmd_run(doc: dict, out: str) -> int:
    config = build_sim_config(doc)
    cert = build_certificate(config.params, config.gains, config.kernel)
    if not cert.ok:
        print("warning: failed certificates (run proceeds): "
              + ", ".join(cert.failures), file=sys.stderr)
    try:
        result = run(config)
    except SolverAbort as e:
        # the abort's artifact: where it happened and the last finite state
        _write_json(os.path.join(_ensure_out(out), "report.json"),
                    {"aborted": {"message": str(e), "step": e.step_index,
                                 "t": e.t, "last_finite_t": e.last_finite_t,
                                 "last_finite_l2": e.last_finite_l2,
                                 "last_finite_E": e.last_finite_E}})
        raise
    _ensure_out(out)
    write_series_csv(os.path.join(out, "series.csv"), result.records)
    _write_json(os.path.join(out, "report.json"),
                _run_report(result, config, cert))
    return 0


def _sweep_axis_set(doc: dict, axis: str, value: float) -> dict:
    """A copy of `doc` with the numeric field `axis` set to `value`, added
    with its sections where `doc` leaves them out."""
    kind = next((row.type for row in FIELDS if row.path == axis), None)
    if kind not in (NUMBER, INTEGER, NUMBER_OR_NULL):
        raise ConfigError(f"axis '{axis}': " + ("no such field" if kind is None
                                                else "not a numeric field"))
    if kind == INTEGER:
        if not float(value).is_integer():
            raise ConfigError(f"axis '{axis}' takes integers, got {value!r}")
        value = int(value)
    node = out = json.loads(json.dumps(doc))  # deep copy
    *sections, leaf = axis.split(".")
    for key in sections:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"axis '{axis}': '{key}' is not a config section")
    node[leaf] = value
    return out


# the columns of sweep.csv, and the keys of a sweep row
SWEEP_COLUMNS = ("value", "status", "certified", "failures", "rate", "r2",
                 "mms_error")


def _sweep_worker(args) -> dict:
    """The sweep row of one job (document with the axis set, value)."""
    sub, value = args
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(value=value, status="ok")
    try:
        cert = build_certificate(*build_model(sub))
        row["certified"] = str(cert.ok).lower()
        row["failures"] = ";".join(cert.failures)
        config = build_sim_config(sub)
        result = run(config)
        try:
            fit = _decay_fit(result, config)
            row["rate"] = repr(fit.rate)
            row["r2"] = repr(fit.r2)
        except ValueError:
            pass
        if result.mms_error is not None:
            row["mms_error"] = repr(result.mms_error)
    except (SolverAbort, ValueError) as e:
        row["status"] = "aborted"
        row["failures"] = str(e)
    return row


def cmd_sweep(doc: dict, out: str, axis: str, values, workers: int) -> int:
    jobs = []
    for v in values:    # validate the axis, values, fields read
        if not math.isfinite(v):
            raise ConfigError(f"axis '{axis}': --values must be finite numbers,"
                              f" got {v!r}")
        sub = _sweep_axis_set(doc, axis, v)
        try:
            build_sim_config(sub)
        except UnusedFieldError as e:
            raise UnusedFieldError(f"sweep over axis '{axis}': {e}") from e
        except ValueError:
            pass    # a bad value fails its own row
        jobs.append((sub, v))
    # pool.map and the serial list both give the rows in input order
    if workers > 1 and len(jobs) > 1:
        # local import: the pool machinery is loaded only when a pool runs
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all of its processes at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(j) for j in jobs]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for r in rows:
        r["value"] = repr(float(r["value"]))
        writer.writerow(r[c] for c in SWEEP_COLUMNS)
    _write_text(os.path.join(_ensure_out(out), "sweep.csv"), text.getvalue())
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep: {n_ok}/{len(rows)} runs succeeded")
    return 0 if n_ok >= 1 else 3


def cmd_verify(doc: dict, out: str) -> int:
    if "mms_amplitude" in doc:  # verify checks the unforced system
        raise UnusedFieldError("field(s) not read by verify: 'mms_amplitude'")
    config = build_sim_config(doc)
    params, gains, kernel = config.params, config.gains, config.kernel
    # the observability samples run over this window, whatever T_end is
    window = max(5.0, kernel.tau2)
    if window / config.dt > MAX_SAMPLES:
        raise ConfigError(
            f"field 'numerics.dt' must be at least the verify window "
            f"max(5, kernel.tau2) = {window} / {MAX_SAMPLES}, got {config.dt!r}")
    checks = []
    # check i took stamps[i + 1] - stamps[i]; printed only, so that
    # report.json stays deterministic
    stamps = [time.perf_counter()]

    def add(name, lhs, rhs, ok, note=""):
        entry = {"check_name": name, "lhs": lhs, "rhs": rhs,
                 "margin": (rhs - lhs) if (ok is not None and lhs is not None
                                           and rhs is not None) else None,
                 "pass": ok}
        if note:
            entry["note"] = note
        checks.append(entry)
        stamps.append(time.perf_counter())

    # local import: the thread pool machinery loads only in this command
    from concurrent.futures import ThreadPoolExecutor

    def spectral_check():
        thresh = diagnostics.spectral_threshold(params.L, Ns=(200, 400))
        resid = float(diagnostics.spectral_residuals(params.L, 300).min())
        return resid, thresh

    # numpy's eig releases the GIL, so the dense eigensolves run on a second
    # CPU while this thread steps the time loops; leaving the block waits
    # for them, also when a check before theirs raises
    with ThreadPoolExecutor(max_workers=1) as pool:
        spectral_future = pool.submit(spectral_check)
        cert = build_certificate(params, gains, kernel)
        add("certificate", None, None, cert.ok,
            note=(";".join(cert.failures) if cert.failures
                  else "all conditions hold"))

        result = run(config)

        apriori = diagnostics.check_apriori_estimates(result, config)
        if "skipped" in apriori:
            add("apriori", None, None, None,
                note=f"skipped ({apriori['skipped']})")
        else:
            add("est1_constant", apriori["est1"]["lhs"],
                apriori["est1"]["rhs_norm_sq"], None,
                note=f"C_hat = {apriori['est1']['C_hat']} "
                     "(reported, not asserted)")
            for key in ("est3", "est4"):
                e = apriori[key]
                add(key, e["lhs"], e["rhs"], e["pass"])

        lo, hi, max_inc, tol, monotone = _invariants(result.records, config)
        if lo is None:
            for name in ("sandwich", "energy_monotone"):
                add(name, None, None, None, note="skipped (no records: "
                    "numerics.record_every = 0)")
        else:
            add("sandwich", max(lo, hi), 0.0, lo <= 0.0 and hi <= 0.0)
            add("energy_monotone", max_inc, tol, monotone,
                note=f"{'linear' if config.linear_only else 'nonlinear'} "
                     "run; E must be nonincreasing")

        obs_cfg = replace(config, T_end=window)
        c_obs, ratios = diagnostics.estimate_observability(
            obs_cfg, n_samples=20, seed=_read(doc, ("seed",))["seed"])
        add("observability_c_obs", 0.0, c_obs, c_obs > 0.0,
            note="evidence only, not a proof; C = 1/c_obs")

        try:
            resid, thresh = spectral_future.result()
            spectral = {"L": params.L, "min_residual": resid,
                        "threshold": thresh}
            spec_ok = resid > thresh
        except ValueError as e:
            spectral = {"L": params.L, "error": str(e)}
            spec_ok = False
        add("spectral_lemma", spectral.get("threshold"),
            spectral.get("min_residual"), spec_ok,
            note="a = b = 1 as in the lemma; residual of the sixth condition")

    all_ok = all(c["pass"] for c in checks if c["pass"] is not None)
    report = {"checks": checks, "observability_ratios": ratios,
              "spectral": spectral, "all_pass": all_ok}
    _write_json(os.path.join(_ensure_out(out), "report.json"), report)
    for c, t0, t1 in zip(checks, stamps, stamps[1:]):
        status = {True: "PASS", False: "FAIL", None: "INFO"}[c["pass"]]
        print(f"[{status}] {c['check_name']} ({t1 - t0:.2f} s)"
              + (f": {c.get('note')}" if c.get("note") else ""))
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are config errors: exit 1, not 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return n


def _parse_values(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}")
    return values


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kaw",
                     description="Kawahara boundary-feedback laboratory")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "run", "sweep", "verify"):
        sub = commands.add_parser(name)
        sub.add_argument("--config", required=True)
        sub.add_argument("--out", default=".")
    sub = commands.choices["sweep"]
    sub.add_argument("--axis", required=True)
    sub.add_argument("--values", required=True, type=_parse_values)
    sub.add_argument("--workers", type=_positive_int,
                     default=os.cpu_count() or 1)
    return parser


# built once, at import: one process may call main() many times, and
# building the parsers costs several parses
_PARSER = _parser()


def main(argv=None) -> int:
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if extra:   # flags that the command's parser does not take
            raise ConfigError(f"{_PARSER.prog} {args.command}: unrecognized "
                              f"arguments: {' '.join(extra)}")
        args = vars(args)
        command = {"check": cmd_check, "run": cmd_run, "sweep": cmd_sweep,
                   "verify": cmd_verify}[args.pop("command")]
        return command(load_config(args.pop("config")), **args)
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
