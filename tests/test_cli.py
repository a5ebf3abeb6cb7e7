"""CLI contract: config handling, outputs, exit codes, determinism."""

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_DOC, reference_sim_config
from kawalab import cli, solver
from kawalab.cli import (ConfigError, build_model, build_sim_config,
                         load_config, main)


def write_doc(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def doc_with(**sections):
    doc = json.loads(json.dumps(REFERENCE_DOC))
    for key, patch in sections.items():
        doc[key].update(patch)
    return doc


# ---------------------------------------------------------------------------
# config handling


def test_config_roundtrip_identity(reference_doc, tmp_path):
    path = write_doc(tmp_path, reference_doc)
    doc1 = load_config(path)
    path2 = write_doc(tmp_path, doc1, "again.json")
    doc2 = load_config(path2)
    assert doc1 == doc2 == reference_doc


def test_build_model_reference(reference_doc):
    params, gains, kernel = build_model(reference_doc)
    assert params.L == pytest.approx(math.pi)
    assert gains.alpha == 0.5
    assert kernel.lambda_integral == pytest.approx(1.0)


def test_missing_section_diagnosed(reference_doc):
    del reference_doc["gains"]
    with pytest.raises(ConfigError, match="gains"):
        build_model(reference_doc)


def test_missing_field_diagnosed(reference_doc):
    del reference_doc["model"]["b"]
    with pytest.raises(ConfigError, match="model.b"):
        build_model(reference_doc)


def test_bad_type_diagnosed(reference_doc):
    reference_doc["numerics"]["N"] = "many"
    with pytest.raises(ConfigError, match="numerics.N"):
        build_sim_config(reference_doc)


def test_dt_tau1_invariant_diagnosed(reference_doc):
    reference_doc["numerics"]["dt"] = 1.5
    with pytest.raises(ConfigError, match="tau1"):
        build_sim_config(reference_doc)


def test_initial_specs(reference_doc):
    reference_doc["initial"] = {
        "u0": {"type": "sine", "mode": 2, "amplitude": 0.3},
        "z0": {"type": "sinusoid", "amplitude": 1.0, "omega": 2.0, "phase": 0.1}}
    cfg = build_sim_config(reference_doc)
    assert cfg.z0(0.0) == pytest.approx(math.sin(0.1))
    reference_doc["initial"]["u0"]["mode"] = 2.0    # an integral float
    assert (build_sim_config(reference_doc).u0([0.5, 1.0])
            == cfg.u0([0.5, 1.0])).all()
    reference_doc["initial"]["z0"] = {"type": "tabulated",
                                      "times": [-2.0, 0.0], "values": [1.0, 3.0]}
    cfg = build_sim_config(reference_doc)
    assert cfg.z0(-1.0) == pytest.approx(2.0)
    reference_doc["initial"]["u0"] = {"type": "unknown"}
    with pytest.raises(ConfigError, match="u0"):
        build_sim_config(reference_doc)


# ---------------------------------------------------------------------------
# exit codes, one test per branch


def test_exit_0_check(reference_config_path, tmp_path, capsys):
    rc = main(["check", "--config", reference_config_path,
               "--out", str(tmp_path / "out")])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["ok"] is True
    assert payload["mu_guaranteed"] == pytest.approx(1.6875e-4, rel=1e-3)


def test_exit_1_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = main(["check", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "line" in capsys.readouterr().err


def test_exit_1_missing_field(tmp_path, reference_doc, capsys):
    del reference_doc["model"]["a"]
    rc = main(["check", "--config", write_doc(tmp_path, reference_doc),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "model.a" in capsys.readouterr().err


def test_exit_1_dt_violates_tau1(tmp_path, capsys):
    doc = doc_with(numerics={"dt": 1.5})
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "tau1" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["T_end", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_exit_1_non_finite_numerics(tmp_path, capsys, field, value):
    """NaN, +-Infinity and numbers beyond the float range are config errors
    that name the field, not zero-step runs or tracebacks."""
    doc = doc_with(numerics={field: value})
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"numerics.{field}" in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("u0", [{"type": "sine", "mode": math.nan},
                                {"type": "sine", "mode": "abc"},
                                {"type": "sine", "mode": 1.5},
                                {"type": "sine", "h_norm_r_max_fraction": math.inf}])
def test_exit_1_bad_sine_profile(tmp_path, capsys, u0):
    doc = doc_with(initial={"u0": u0})
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "initial.u0" in capsys.readouterr().err


@pytest.mark.parametrize("patch, field", [
    ({"mms_amplitude": [1]}, "mms_amplitude"),
    ({"mms_amplitude": True}, "mms_amplitude"),
    ({"numerics": {"N": 5}}, "numerics.N"),
    ({"initial": {"u0": 3}}, "initial.u0"),
    ({"initial": {"z0": {"type": "tabulated", "times": ["a"], "values": [1.0]}}},
     "initial.z0.times"),
    ({"numerics": {"T_end": 0}}, "numerics.T_end"),
    ({"kernel": {"form": "tabulated", "params": {"samples": [1, 2]}}},
     "kernel.params.samples"),
    ({"kernel": {"form": "tabulated", "params": {"samples": [[1.2, 1.0, 3]]}}},
     "kernel.params.samples"),
    ({"kernel": {"form": "tabulated", "params": {"samples": [[1.2, 1.0]]}}},
     "kernel.params.samples"),
    ({"kernel": {"params": {"c": -1}}}, "kernel.params.c"),
    ({"gains": {"mu1": -1}}, "gains.mu1"),
    ({"kernel": {"tau1": 3.0}}, "kernel.tau1"),
    ({"numerics": {"dt": -0.01}}, "numerics.dt"),
    # a table that leaves out part of (-kernel.tau2, 0)
    ({"initial": {"z0": {"type": "tabulated", "times": [0, 1, 2],
                         "values": [1, 5, 9]}}}, "initial.z0.times"),
    ({"initial": {"z0": {"type": "tabulated", "times": [-2, -1],
                         "values": [1, 5]}}}, "initial.z0.times"),
    # a kernel table that leaves out part of [kernel.tau1, kernel.tau2]
    ({"kernel": {"form": "tabulated",
                 "params": {"samples": [[1.2, 1.0], [1.5, 0.5]]}}},
     "kernel.params.samples"),
])
def test_exit_1_malformed_field_named(tmp_path, capsys, patch, field):
    """Each of these ended in a traceback, a silent zero-step run, or (a
    tabulated z0 or kernel short of its domain) a run whose history or
    kernel np.interp held at an end value."""
    doc = doc_with(**{k: v for k, v in patch.items() if isinstance(v, dict)})
    doc.update({k: v for k, v in patch.items() if not isinstance(v, dict)})
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, patch, field", [
    ("numerics", {"N": 10 ** 400}, "numerics.N"),
    ("numerics", {"N": cli.MAX_N + 1}, "numerics.N"),
    ("numerics", {"T_end": 1e300}, "numerics.T_end"),
    ("kernel", {"tau2": 1e300}, "kernel.tau2"),
])
def test_exit_1_beyond_resource_limits(tmp_path, capsys, section, patch, field):
    """Values that would allocate without bound or never finish are
    rejected before anything is allocated."""
    doc = doc_with(**{section: patch})
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert field in capsys.readouterr().err


def test_exit_1_verify_window_beyond_step_limit(tmp_path, capsys):
    """`kaw verify` runs its observability samples over max(5, tau2),
    whatever T_end is, so a config that `kaw run` takes can ask it for more
    than MAX_SAMPLES steps there (5e12 here, a 36 TiB history).  It is a
    config error before any run or output."""
    doc = doc_with(numerics={"N": 12, "dt": 1e-12, "T_end": 1e-11},
                   kernel={"tau1": 5e-12, "tau2": 1e-11})
    path = write_doc(tmp_path, doc)
    assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    out = tmp_path / "verify"
    assert main(["verify", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerics.dt" in err and "verify window" in err, err
    assert not out.exists()


@pytest.mark.parametrize("patch, fields", [
    ({"numerics": {"foo": 1}}, ["numerics.foo"]),
    ({"numerics": {"startup": 3}}, ["numerics.startup", "numerics.startup_steps"]),
    ({"gains": {"Alpha": 0.5}}, ["gains.Alpha"]),
    ({"kernel": {"params": {"c": 1.0, "samples": [[1.0, 1.0]]}}},
     ["kernel.params.samples"]),
    ({"initial": {"u0": {"mode": 1, "h_norm_r_max_fraction": 0.5}}},
     ["initial.u0.mode", "initial.u0.h_norm_r_max_fraction", "initial.u0.type"]),
    ({"initial": {"u0": {"type": "sine", "amplitude": 0.1,
                         "h_norm_r_max_fraction": 0.5}}},
     ["initial.u0.amplitude", "initial.u0.h_norm_r_max_fraction"]),
    ({"kernel": {"params": {"c": 1.0, "sigma": 0.5}}}, ["kernel.params.sigma"]),
    ({"kernel": {"params.c": 2.0}}, ["kernel.params.c"]),
    ({"kernel": {"form": "tabulated",
                 "params": {"c": 1.0, "samples": [[0.5, 1.0], [2.5, 1.0]]}}},
     ["kernel.params.c"]),
])
def test_exit_1_unused_field_named(tmp_path, capsys, patch, fields):
    """A key that the parser never reads, or that another key overrides, is
    a config error that names it (and the keys left out beside it), not a
    silently ignored setting."""
    doc = doc_with(**patch)
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert all(f"'{f}'" in err for f in fields), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch, axis", [
    ({"numerics": {"foo": 1}}, "numerics.foo"),
    ({"initial": {"u0": {"type": "sine", "amplitude": 0.1,
                         "h_norm_r_max_fraction": 0.5}}},
     "initial.u0.amplitude"),
])
def test_sweep_over_unused_field_is_config_error(tmp_path, capsys, patch,
                                                 axis):
    """Such a sweep gave identical rows; now no run starts."""
    doc = doc_with(**patch)
    doc["numerics"]["T_end"] = 0.5
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out"), "--axis", axis,
               "--values", "1,2", "--workers", "1"])
    assert rc == 1
    assert f"'{axis}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unused_field_lists_left_out_selector(tmp_path, capsys):
    """A tabulated kernel that leaves out kernel.form is read as a constant
    one: the message names the unread samples and the left-out form."""
    doc = doc_with(kernel={"params": {"samples": [[0.5, 1.0], [2.5, 1.0]]}})
    del doc["kernel"]["form"]
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'kernel.params.samples'" in err and "'kernel.form'" in err, err


@pytest.mark.parametrize("section, patch, field", [
    ("gains", {"Alpha": 0.5}, "gains.Alpha"),
    ("model", {"l": 3.0}, "model.l"),
    ("kernel", {"params": {"c": 1.0, "sigma": 0.5}}, "kernel.params.sigma"),
])
def test_check_rejects_unread_model_keys(tmp_path, capsys, section, patch,
                                         field):
    """`check` reads model, gains and kernel, and a key there that it does
    not read is a config error, as for `run`."""
    doc = doc_with(**{section: patch})
    rc = main(["check", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("u0", [{"type": "zero"},
                                {"type": "bump", "amplitude": 0.1},
                                {"type": "random"}])
@pytest.mark.parametrize("L", [1e300, 1e-300])
def test_exit_1_domain_length_beyond_float_range(tmp_path, capsys, u0, L):
    """Such an L overflowed (or divided by zero) in the operator's h ** -5
    and ended in a traceback; now it is rejected before anything is built."""
    doc = doc_with(model={"L": L}, initial={"u0": u0})
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "model.L" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_field_of_the_shipped_configs_is_read(tmp_path):
    """configs/*.json, and the same with a seeded sinusoid history and a
    sine profile given by its amplitude, parse with every key read; `check`
    reads only model, gains and kernel, so it ignores the rest."""
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in sorted(os.listdir(configs)):
        doc = load_config(os.path.join(configs, name))
        build_sim_config(doc)
        doc["initial"]["z0"] = {"type": "sinusoid", "amplitude": 0.1,
                                "omega": 2.0, "phase": 0.3}
        build_sim_config(doc)
        doc["initial"]["u0"] = {"type": "sine", "mode": 2, "amplitude": 0.3}
        build_sim_config(doc)
        del doc["numerics"]
        doc["extra"] = {"note": "unread"}
        assert main(["check", "--config", write_doc(tmp_path, doc),
                     "--out", str(tmp_path / "check")]) == 0


def test_readme_lists_every_field():
    """The README's Configuration list has one entry per row of FIELDS, in
    the same order."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([\w.]+)`:", section, flags=re.M)
    assert listed == [row.path for row in cli.FIELDS]


def test_sim_config_rejects_non_finite():
    for field in ("T_end", "dt"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            reference_sim_config(**{field: math.nan})


def test_exit_2_gain_condition_named(tmp_path, capsys):
    doc = doc_with(gains={"alpha": 0.9, "beta": 0.2})
    rc = main(["check", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "gain_condition" in capsys.readouterr().err


def test_exit_2_length_condition_named(tmp_path, capsys):
    doc = doc_with(model={"L": 10.0})
    rc = main(["check", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "length_condition" in capsys.readouterr().err


def _length_edge_doc():
    """L < sqrt(3b/a)*pi, but 3 pi^2 b - a L^2 <= 0: the length condition
    fails, and r_max with it."""
    doc = doc_with(model={"a": 2.988560104211836, "b": 0.2200043197174797,
                          "L": 1.476369643582072},
                   numerics={"T_end": 0.5})
    doc["initial"]["u0"] = {"type": "sine", "amplitude": 0.1}
    return doc


def test_check_at_the_length_edge_writes_the_certificate(tmp_path, capsys):
    rc = main(["check", "--config", write_doc(tmp_path, _length_edge_doc()),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "length_condition" in capsys.readouterr().err
    payload = json.loads((tmp_path / "certificate.json").read_text())
    assert "length_condition" in payload["failures"]
    assert payload["r_max"] is None and payload["mu_guaranteed"] is None


def test_run_at_the_length_edge_warns_and_runs(tmp_path, capsys):
    rc = main(["run", "--config", write_doc(tmp_path, _length_edge_doc()),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "warning: failed certificates" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert "length_condition" in report["certificate"]["failures"]
    assert (tmp_path / "series.csv").exists()


def test_exit_2_vanishing_kernel_integral(tmp_path, capsys):
    """A kernel whose integral is 0.0 in floating point fails as it is
    built: exit 2, before any certificate."""
    doc = doc_with(kernel={"form": "exponential",
                           "params": {"c": 1.0, "sigma": 1000.0}})
    rc = main(["check", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "kernel integral vanishes" in capsys.readouterr().err
    assert not (tmp_path / "certificate.json").exists()


def _strict_json(text):
    """`text` parsed as RFC 8259 JSON: NaN and Infinity are errors."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_failed_length_certificate_is_strict_json(tmp_path, capsys):
    """With the length condition failed, r, r_max and mu_guaranteed are not
    finite; certificate.json and stdout hold them as null."""
    doc = doc_with(model={"L": 10.0})
    rc = main(["check", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 2
    stdout = _strict_json(capsys.readouterr().out)
    payload = _strict_json((tmp_path / "certificate.json").read_text())
    assert stdout == payload
    assert payload["failures"] == ["length_condition"]
    for key in ("r", "r_max", "mu_guaranteed"):
        assert payload[key] is None, key


def test_exit_3_solver_abort(tmp_path, capsys):
    doc = doc_with(numerics={"dt": 0.9, "T_end": 40.0, "N": 64})
    doc["initial"]["u0"] = {"type": "sine", "mode": 1, "amplitude": 1e8}
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "solver abort" in capsys.readouterr().err
    aborted = json.loads((tmp_path / "out" / "report.json").read_text())["aborted"]
    assert aborted["step"] >= 1
    assert aborted["t"] == pytest.approx(0.9 * aborted["step"])
    assert 0.0 <= aborted["last_finite_t"] < aborted["t"]
    assert math.isfinite(aborted["last_finite_l2"])
    assert aborted["last_finite_l2"] > 0.0
    # ||u||^2 + |beta| z_plain at the same step (the solver tests check it
    # against the z_energy oracle)
    assert aborted["last_finite_E"] >= aborted["last_finite_l2"]
    assert set(aborted) == {"message", "step", "t", "last_finite_t",
                            "last_finite_l2", "last_finite_E"}
    assert f"at step {aborted['step']}" in aborted["message"]
    assert not (tmp_path / "out" / "series.csv").exists()


def test_exit_4_io_failure(tmp_path, reference_config_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    rc = main(["check", "--config", reference_config_path,
               "--out", str(blocker)])
    assert rc == 4
    assert "I/O error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run outputs


def short_run_doc():
    return doc_with(numerics={"T_end": 2.0})


def test_run_outputs_and_byte_identical_csv(tmp_path, capsys):
    doc = short_run_doc()
    path = write_doc(tmp_path, doc)
    assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "series.csv").read_bytes()
    b = (tmp_path / "b" / "series.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("t,E,E1,E2,xi,w0,F,qform,l2,h2seminorm\n")
    assert "\r" not in text
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["invariants"]["energy_monotone"] is True


def test_run_zero_data_nothing_to_fit(tmp_path):
    doc = short_run_doc()
    doc["initial"] = {"u0": {"type": "zero"}, "z0": {"type": "zero"}}
    assert main(["run", "--config", write_doc(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "series.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        assert all(float(v) == 0.0 for k, v in
                   zip(range(10), row.split(",")) if k != 0)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "nothing to fit" in report["decay_fit"]["error"]


def test_run_without_records(tmp_path):
    """record_every = 0: series.csv holds the header alone, and report.json
    has no records and no final energy."""
    doc = short_run_doc()
    doc["numerics"]["record_every"] = 0
    assert main(["run", "--config", write_doc(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "series.csv").read_text()
    assert text == "t,E,E1,E2,xi,w0,F,qform,l2,h2seminorm\n"
    report = _strict_json((tmp_path / "out" / "report.json").read_text())
    assert report["n_records"] == 0
    assert report["E_final"] is None
    # no invariant was checked, so none is reported as holding
    assert report["invariants"] == dict.fromkeys(
        ("sandwich_violation_low", "sandwich_violation_high",
         "max_energy_increment", "energy_monotone_tol", "energy_monotone"))


def test_mms_run_starts_from_the_manufactured_solution(tmp_path):
    """A run with `mms_amplitude` starts from the manufactured solution at
    t = 0 and a zero history, so that its mms_error is the discretization's."""
    doc = short_run_doc()
    del doc["initial"], doc["seed"]
    doc["mms_amplitude"] = 0.5
    assert main(["run", "--config", write_doc(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    params, gains, kernel = build_model(doc)
    exact, _ = solver._build_mms(params, 0.5, False)
    config = solver.SimConfig(params, gains, kernel, N=128, dt=0.01,
                              T_end=2.0, u0=lambda x: exact(x, 0.0),
                              z0=lambda t: 0.0, mms_amplitude=0.5)
    assert report["mms_error"] == solver.run(config).mms_error < 1e-3


@pytest.mark.parametrize("command, field", [("run", "initial"),
                                            ("verify", "mms_amplitude")])
def test_exit_1_field_unread_beside_mms_amplitude(tmp_path, capsys, command,
                                                  field):
    """A run with `mms_amplitude` reads no `initial` section, and `verify`,
    which checks the unforced system, reads no `mms_amplitude`."""
    doc = doc_with(numerics={"T_end": 2.0, "linear_only": True})
    doc["mms_amplitude"] = 0.5
    rc = main([command, "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("moot", [("seed",), ("initial", "seed")])
def test_exit_1_names_every_field_moot_beside_mms_amplitude(tmp_path, capsys,
                                                            command, moot):
    """`seed` seeds only random initial data, and a run with `mms_amplitude`
    reads none, so `seed` is moot beside it as `initial` is; one message
    names every such field present, and a sweep fails before any run."""
    doc = short_run_doc()
    for key in {"initial", "seed"} - set(moot):
        del doc[key]
    doc["mms_amplitude"] = 0.5
    argv = [command, "--config", write_doc(tmp_path, doc),
            "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "gains.alpha", "--values", "0.3,0.4",
                 "--workers", "1"]
    assert main(argv) == 1
    assert ("field(s) not read beside 'mms_amplitude': "
            + ", ".join(f"'{key}'" for key in moot)) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_energy_monotone_sees_a_rise_of_2e_10():
    """An energy that rises by 2e-10 E(0) exceeds the tolerance 1e-10 E(0)."""
    E = np.array([1.0, 0.5, 0.5 + 2e-10])
    records = np.rec.fromarrays([E], names="E")
    worst, tol, ok = cli._energy_monotone(records)
    assert worst == pytest.approx(2e-10, rel=1e-5)
    assert tol == 1e-10
    assert not ok
    assert cli._energy_monotone(records[:2]) == (-0.5, 1e-10, True)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_L_all_certified(tmp_path):
    doc = doc_with(numerics={"T_end": 3.0})
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path), "--axis", "model.L",
               "--values", "2,3,4,5", "--workers", "1"])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert rows[0].startswith("value,status,certified")
    assert len(rows) == 5
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[1] == "ok" and fields[2] == "true"


def test_sweep_alpha_flips_at_0p8(tmp_path):
    doc = doc_with(gains={"beta": 0.2}, numerics={"T_end": 3.0})
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path), "--axis", "gains.alpha",
               "--values", "0.1,0.3,0.5,0.7,0.8,0.9", "--workers", "2"])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        fields = row.split(",")
        expect = "false" if float(fields[0]) >= 0.8 else "true"
        assert fields[2] == expect, row


def test_sweep_aborted_rows_do_not_stop_sweep(tmp_path):
    doc = doc_with(numerics={"T_end": 1.0})
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path), "--axis", "model.L",
               "--values=-1,3", "--workers", "1"])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    statuses = [r.split(",")[1] for r in rows]
    assert statuses == ["aborted", "ok"]


def test_sweep_row_beyond_float_range_aborted(tmp_path):
    """An L of 1e300 killed the whole sweep with an OverflowError and wrote
    no sweep.csv; now that row is aborted with a message naming model.L."""
    doc = doc_with(numerics={"T_end": 1.0},
                   initial={"u0": {"type": "bump", "amplitude": 0.1}})
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path), "--axis", "model.L",
               "--values", "3,1e300", "--workers", "1"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text())))
    assert [r[1] for r in rows[1:]] == ["ok", "aborted"], rows
    assert "model.L" in rows[2][3]


def test_sweep_bad_axis_is_config_error(tmp_path, reference_config_path, capsys):
    rc = main(["sweep", "--config", reference_config_path,
               "--out", str(tmp_path), "--axis", "model.zeta",
               "--values", "1,2"])
    assert rc == 1
    assert "axis" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values", [
    ("numerics.N", "24,32"),
    ("numerics.record_every", "5,10"),
    ("numerics.startup_steps", "0,3"),
    ("seed", "1,2"),
])
def test_sweep_integer_axis(tmp_path, axis, values):
    """An integral value of an integer field reaches the config as an int."""
    doc = doc_with(numerics={"T_end": 0.5, "startup_steps": 2})
    for v in map(float, values.split(",")):
        section, _, leaf = axis.rpartition(".")
        sub = cli._sweep_axis_set(doc, axis, v)
        got = (sub[section] if section else sub)[leaf]
        assert got == v and type(got) is int
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path), "--axis", axis,
               "--values", values, "--workers", "1"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text())))
    assert [r[1] for r in rows[1:]] == ["ok", "ok"], rows


@pytest.mark.parametrize("values", ["24.7", "32,24.7", "inf", "nan"])
def test_sweep_non_integral_value_of_integer_axis(tmp_path, capsys, values):
    doc = doc_with(numerics={"T_end": 0.5})
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out"), "--axis", "numerics.N",
               "--values", values, "--workers", "1"])
    assert rc == 1
    assert "numerics.N" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis, values", [
    ("gains.delta", "0.5,2"),
    ("kernel.params.c", "0.5,2"),
    ("kernel.params.sigma", "0,0.5"),
    ("numerics.record_every", "5,10"),
    ("numerics.startup_steps", "0,3"),
    ("seed", "1,2"),
])
def test_sweep_defaulted_field_left_out_of_config(tmp_path, axis, values):
    """A field that the config leaves at its default can be swept; the value
    reaches the run's config.  kernel.params.sigma applies to an
    exponential kernel only, so its case sweeps one."""
    form = "exponential" if axis == "kernel.params.sigma" else "constant"
    doc = doc_with(numerics={"T_end": 0.5}, kernel={"form": form})
    del doc["seed"], doc["gains"]["delta"], doc["kernel"]["params"]
    del doc["numerics"]["record_every"]
    assert "startup_steps" not in doc["numerics"]
    assert cli._sweep_axis_set(doc, "numerics.N", 64)["numerics"]["N"] == 64
    for v in map(float, values.split(",")):
        sub = cli._sweep_axis_set(doc, axis, v)
        params, gains, kernel = build_model(sub)
        config = build_sim_config(sub)
        got = {"gains.delta": gains.delta, "kernel.params.c": kernel.c,
               "kernel.params.sigma": kernel.sigma,
               "numerics.record_every": config.record_every,
               "numerics.startup_steps": config.startup_steps,
               "seed": sub["seed"] if axis == "seed" else None}[axis]
        assert got == v
    rc = main(["sweep", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path), "--axis", axis,
               "--values", values, "--workers", "1"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text())))
    assert [r[1] for r in rows[1:]] == ["ok", "ok"], rows


@pytest.mark.parametrize("axis", ["gains.zeta", "kernel.params.zeta",
                                  "numerics.startup", "kernel.params.c.x",
                                  "numerics.linear_only", "kernel.form",
                                  "initial.u0.type", "kernel.params.samples",
                                  "initial.z0.omega", "kernel.params.sigma"])
def test_sweep_unknown_field_is_config_error(tmp_path, reference_config_path,
                                             capsys, axis):
    """No such field, a field that is not a number, or one that this config
    (constant kernel, zero z0) does not read: exit 1 before any run."""
    rc = main(["sweep", "--config", reference_config_path,
               "--out", str(tmp_path / "out"), "--axis", axis,
               "--values", "1,2"])
    assert rc == 1
    assert f"axis '{axis}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_startup_steps_on_reference_config(tmp_path):
    """configs/reference.json leaves numerics.startup_steps at its default."""
    config = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "reference.json")
    assert "startup_steps" not in load_config(config)["numerics"]
    rc = main(["sweep", "--config", config, "--out", str(tmp_path),
               "--axis", "numerics.startup_steps", "--values", "0,2",
               "--workers", "1"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "sweep.csv").read_text())))
    assert [r[1] for r in rows[1:]] == ["ok", "ok"], rows


def test_sweep_float_axis_keeps_fractions():
    """A float field written as an integer in the config still takes 3.5."""
    doc = doc_with(model={"L": 3})
    assert cli._sweep_axis_set(doc, "model.L", 3.5)["model"]["L"] == 3.5


def test_sweep_csv_quotes_failure_messages(tmp_path, reference_config_path,
                                          monkeypatch):
    """A failure message with ',', '"' and a newline round-trips through
    csv.reader; a row without them is written as plain comma-joined text."""
    message = 'bad value, "quoted"\nsecond line'

    def fake_worker(args):
        sub, value = args
        assert sub["gains"]["alpha"] == value
        ok = value == 0.2
        return {"value": value, "status": "ok" if ok else "aborted",
                "certified": "true", "failures": "" if ok else message,
                "rate": "0.25" if ok else "", "r2": "0.5" if ok else "",
                "mms_error": ""}

    monkeypatch.setattr(cli, "_sweep_worker", fake_worker)
    rc = main(["sweep", "--config", reference_config_path, "--out",
               str(tmp_path), "--axis", "gains.alpha", "--values", "0.1,0.2",
               "--workers", "1"])
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["value", "status", "certified", "failures", "rate",
                       "r2", "mms_error"]
    assert rows[1] == ["0.1", "aborted", "true", message, "", "", ""]
    assert text.endswith("\n0.2,ok,true,,0.25,0.5,\n")


@pytest.fixture
def inline_pool(monkeypatch):
    """The sizes of the pools a sweep makes.  A stand-in pool records its
    size and runs the jobs inline, with a worker that makes no run; nothing
    is forked."""
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def fake_worker(args):
        _, value = args
        return {"value": value, "status": "ok", "certified": "",
                "failures": "", "rate": "", "r2": "", "mms_error": ""}

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool,
                        raising=False)
    monkeypatch.setattr(cli, "_sweep_worker", fake_worker)
    return sizes


@pytest.mark.parametrize("workers, values, pool_size", [
    ("64", "0.3,0.4", 2), ("3", "0.1,0.2,0.3,0.4,0.5", 3)])
def test_sweep_pool_no_larger_than_job_count(tmp_path, reference_config_path,
                                             inline_pool, workers, values,
                                             pool_size):
    """The pool starts all of its processes at the first submit, so it gets
    at most one per job."""
    rc = main(["sweep", "--config", reference_config_path, "--out",
               str(tmp_path), "--axis", "gains.alpha", "--values", values,
               "--workers", workers])
    assert rc == 0
    assert inline_pool == [pool_size]


def test_sweep_workers_default_to_cpu_count(tmp_path, reference_config_path,
                                            inline_pool):
    """Without --workers, a sweep of five values gets a pool of
    min(CPU count, 5) processes, and none on one CPU."""
    rc = main(["sweep", "--config", reference_config_path, "--out",
               str(tmp_path), "--axis", "gains.alpha",
               "--values", "0.1,0.2,0.3,0.4,0.5"])
    assert rc == 0
    size = min(os.cpu_count() or 1, 5)
    assert inline_pool == ([size] if size > 1 else [])


@pytest.mark.parametrize("values", ["nan,inf", "0.3,-inf", "nan"])
def test_sweep_non_finite_values_are_config_error(tmp_path,
                                                  reference_config_path,
                                                  capsys, values):
    rc = main(["sweep", "--config", reference_config_path, "--out",
               str(tmp_path / "out"), "--axis", "gains.alpha",
               "--values", values, "--workers", "1"])
    assert rc == 1
    assert "--values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_non_positive_workers_is_config_error(tmp_path,
                                                    reference_config_path,
                                                    capsys, workers):
    rc = main(["sweep", "--config", reference_config_path, "--out",
               str(tmp_path / "out"), "--axis", "gains.alpha",
               "--values", "0.3,0.4", "--workers", workers])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "--workers" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("argv, named", [
    (["run"], "--config"),
    (["simulate", "--config", "CFG"], "simulate"),
    (["sweep", "--config", "CFG", "--axis", "gains.alpha",
      "--values", "0.3,0.4", "--workers", "x"], "--workers"),
    (["run", "--config", "CFG", "--workers", "2"], "--workers"),
    (["verify", "--config", "CFG", "--axis", "gains.alpha"], "--axis"),
    (["sweep", "--config", "CFG", "--axis", "gains.alpha"], "--values"),
    (["sweep", "--config", "CFG", "--axis", "gains.alpha", "--values", ","],
     "--values"),
])
def test_usage_error_exits_1_naming_the_flag(tmp_path, reference_config_path,
                                             capsys, argv, named):
    """A usage error is a config error, exit 1, and a flag that the command
    does not take is one: `run --workers 2` ran the config and exited 0."""
    argv = [reference_config_path if a == "CFG" else a for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and named in err
    assert not (tmp_path / "out").exists()


def test_unrecognized_flag_error_names_the_command(tmp_path,
                                                   reference_config_path,
                                                   capsys):
    rc = main(["run", "--config", reference_config_path, "--out",
               str(tmp_path / "out"), "--workers", "2"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "kaw run: unrecognized arguments: --workers 2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flags", [
    ([], {"--help"}),
    (["check"], {"--help", "--config", "--out"}),
    (["run"], {"--help", "--config", "--out"}),
    (["verify"], {"--help", "--config", "--out"}),
    (["sweep"], {"--help", "--config", "--out", "--axis", "--values",
                 "--workers"}),
])
def test_help_exits_0_listing_the_command_flags(capsys, argv, flags):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--help"])
    assert exit_.value.code == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == flags


# ---------------------------------------------------------------------------
# fuzzing: one field of a short config replaced by a bad value


_MISSING = object()
_FUZZ_BASE = doc_with(numerics={"T_end": 0.05},
                      initial={"z0": {"type": "sinusoid", "amplitude": 0.1,
                                      "omega": 2.0}})
_FUZZ_BASE["mms_amplitude"] = None
# documents under which every row of cli.FIELDS applies, some row each
_FUZZ_PATCHES = [
    {},
    {"initial": {"u0": {"type": "bump", "amplitude": 0.1}}},
    {"initial": {"u0": {"type": "random"}, "z0": {"type": "random"}}},
    {"initial": {"z0": {"type": "constant", "value": 0.1}}},
    {"initial": {"z0": {"type": "tabulated", "times": [-2.0, 0.0],
                        "values": [0.1, 0.2]}}},
    {"kernel": {"form": "exponential", "params": {"c": 1.0, "sigma": 0.5}}},
    {"kernel": {"form": "tabulated",
                "params": {"samples": [[0.5, 1.0], [2.5, 1.0]]}}},
    # a manufactured-solution run reads no `initial` section and no `seed`
    {"mms_amplitude": 0.01, "initial": _MISSING, "seed": _MISSING},
]


def _fuzz_doc(i):
    doc = dict(_FUZZ_BASE)
    for key, patch in _FUZZ_PATCHES[i].items():
        if patch is _MISSING:
            del doc[key]
        else:
            doc[key] = ({**doc[key], **patch} if isinstance(patch, dict)
                        else patch)
    return json.loads(json.dumps(doc))  # deep copy


def _fuzz_cases():
    """(document index, path) for every row and section that applies,
    within the document's sections."""
    cases = set()
    for i in range(len(_FUZZ_PATCHES)):
        doc = _fuzz_doc(i)
        for path in cli._read(doc):
            keys = tuple(path.split("."))
            if keys[0] in doc:
                cases.update((i, keys[:k]) for k in range(1, len(keys) + 1))
    return sorted(cases)


_FUZZ_CASES = _fuzz_cases()


def test_fuzz_cases_cover_every_field():
    assert {".".join(p) for _, p in _FUZZ_CASES} >= {
        row.path for row in cli.FIELDS}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflowing runs
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(_FUZZ_CASES),
       value=st.sampled_from(["abc", [1], {}, None, True, math.nan, -1, -1.5,
                              1e300, 10 ** 400, _MISSING]))
def test_fuzz_run_exits_with_documented_code(case, value):
    """Every such config ends in exit code 0-4; no exception escapes, and a
    config error names the field by its full dotted path."""
    i, path = case
    doc = _fuzz_doc(i)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _MISSING:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--config", cfg, "--out",
                       os.path.join(tmp, "out")])
    assert rc in (0, 1, 2, 3, 4)
    if rc == 1:
        assert ".".join(path) in err.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# verify


def test_verify_reference_passes(tmp_path, capsys):
    """The spectral values come from a helper thread, which is gone when
    `verify` returns, and equal those of the same calls made here."""
    doc = doc_with(numerics={"T_end": 5.0, "linear_only": True})
    threads = threading.active_count()
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 0
    assert threading.active_count() == threads
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_pass"] is True
    assert report["spectral"] == {
        "L": math.pi,
        "min_residual": float(cli.diagnostics.spectral_residuals(math.pi, 300)
                              .min()),
        "threshold": cli.diagnostics.spectral_threshold(math.pi, (200, 400))}
    names = {c["check_name"] for c in report["checks"]}
    assert {"est3", "est4", "sandwich", "energy_monotone",
            "observability_c_obs", "spectral_lemma"} <= names
    # each check's wall time is printed, and kept out of report.json
    lines = capsys.readouterr().out.splitlines()
    assert [re.match(r"\[(PASS|INFO)\] (\w+) \(\d+\.\d\d s\)", ln)[2]
            for ln in lines] == [c["check_name"] for c in report["checks"]]
    assert all(set(c) <= {"check_name", "lhs", "rhs", "margin", "pass", "note"}
               for c in report["checks"])


def test_verify_nonlinear_reports_apriori_skipped(tmp_path):
    """The a priori estimates only apply to the linear system; a nonlinear
    config routes that check to a 'skipped (nonlinear)' report entry."""
    doc = doc_with(numerics={"T_end": 5.0, "linear_only": False})
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    notes = [c.get("note", "") for c in report["checks"]
             if c["check_name"] == "apriori"]
    assert notes and "skipped (nonlinear" in notes[0]


def _verify_checks(tmp_path, monkeypatch, **numerics):
    """verify's exit code and its checks by name, for a config with these
    `numerics`; the observability samples and the eigensolves, which the
    record checks do not read, are stand-ins."""
    monkeypatch.setattr(cli.diagnostics, "estimate_observability",
                        lambda config, n_samples, seed: (1.0, [1.0]))
    monkeypatch.setattr(cli.diagnostics, "spectral_threshold",
                        lambda L, Ns: 0.1)
    monkeypatch.setattr(cli.diagnostics, "spectral_residuals",
                        lambda L, N: np.array([1.0]))
    doc = doc_with(numerics=dict(T_end=2.0, **numerics))
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    report = _strict_json((tmp_path / "report.json").read_text())
    return rc, {c["check_name"]: c for c in report["checks"]}


@pytest.mark.parametrize("linear_only, kind", [(True, "linear"),
                                               (False, "nonlinear")])
def test_verify_energy_monotone_note_names_the_run(tmp_path, monkeypatch,
                                                   linear_only, kind):
    rc, checks = _verify_checks(tmp_path, monkeypatch,
                                linear_only=linear_only)
    assert rc == 0
    assert checks["energy_monotone"]["pass"] is True
    assert (checks["energy_monotone"]["note"]
            == f"{kind} run; E must be nonincreasing")


def test_verify_without_records_skips_the_record_checks(tmp_path,
                                                        monkeypatch, capsys):
    """With no records, sandwich and energy_monotone are not made: each is
    reported with pass null and a note that says why, not as passed."""
    rc, checks = _verify_checks(tmp_path, monkeypatch, linear_only=True,
                                record_every=0)
    assert rc == 0
    for name in ("sandwich", "energy_monotone"):
        assert checks[name] == {
            "check_name": name, "lhs": None, "rhs": None, "margin": None,
            "pass": None,
            "note": "skipped (no records: numerics.record_every = 0)"}
    assert checks["est3"]["pass"] is True
    out = capsys.readouterr().out
    assert re.search(r"^\[INFO\] sandwich ", out, re.M)
    assert re.search(r"^\[INFO\] energy_monotone ", out, re.M)


def test_verify_reports_an_unstabilised_spectrum(tmp_path, monkeypatch):
    """Where the spectral threshold does not stabilise, report.json's
    `spectral` holds L and the error, and the spectral check fails."""
    message = "spectral residual not stabilized at L = 3.14"

    def unstabilised(L, Ns):
        raise ValueError(message)

    monkeypatch.setattr(cli.diagnostics, "spectral_threshold", unstabilised)
    doc = doc_with(numerics={"T_end": 5.0, "linear_only": True})
    threads = threading.active_count()
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 2
    # the error, raised in the helper thread, reaches the spectral check,
    # and the thread is gone
    assert threading.active_count() == threads
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["spectral"] == {"L": math.pi, "error": message}
    (check,) = (c for c in report["checks"]
                if c["check_name"] == "spectral_lemma")
    assert check["pass"] is False
    assert report["all_pass"] is False


def test_verify_abort_waits_for_the_spectral_thread(tmp_path, monkeypatch,
                                                    capsys):
    """A solver abort in the main run ends `verify` with exit 3 after the
    helper thread's eigensolves finish: no thread outlives the command."""
    def abort(config):
        raise solver.SolverAbort("non-finite state", 7, 0.07)

    monkeypatch.setattr(cli, "run", abort)
    doc = doc_with(numerics={"T_end": 5.0, "linear_only": True})
    threads = threading.active_count()
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert threading.active_count() == threads
    assert "solver abort: non-finite state" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# start-up: a command imports only the modules it runs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFERRED = ("scipy.linalg", "scipy.integrate", "scipy.special",
            "scipy.optimize", "sympy", "concurrent.futures.process",
            "concurrent.futures.thread")


def fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports kawalab from src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# whether the solver's band routines are those of scipy.linalg.lapack
LAPACK_IDENTITY = """
from kawalab import solver
from scipy.linalg import lapack
print(lapack.dgbtrf is solver.dgbtrf, lapack.dgbtrs is solver.dgbtrs,
      lapack._flapack is solver._flapack)
"""


@functools.cache
def set_up_then_scipy_linalg() -> tuple:
    """The two stdout lines of one new interpreter that sets up the
    reference run and a run with a tabulated kernel and prints the deferred
    modules it loaded, then imports scipy.linalg and prints LAPACK_IDENTITY."""
    config = os.path.join(REPO, "configs", "reference.json")
    return tuple(fresh_python(f"""
import sys
import kawalab.cli as cli
from kawalab.solver import Stepper
doc = cli.load_config({config!r})
Stepper(cli.build_sim_config(doc))
doc["kernel"] = {{"form": "tabulated", "tau1": 1.0, "tau2": 2.0, "params":
                 {{"samples": [[0.5, 1.0], [1.5, 1.4], [2.5, 0.8]]}}}}
Stepper(cli.build_sim_config(doc))
print([m for m in {DEFERRED!r} if m in sys.modules])
""" + LAPACK_IDENTITY).splitlines())


def test_run_set_up_imports_no_deferred_module():
    """Importing the CLI and setting up the reference run, or a run with a
    tabulated kernel, loads neither the scipy.linalg package (the solver
    loads only its LAPACK wrappers), the quadrature stack, sympy (MMS), the
    process pool (sweeps) nor the thread pool (verify): they cost ~0.5 s
    and ~50 MB in every process."""
    assert set_up_then_scipy_linalg()[0] == "[]"


@pytest.mark.parametrize("first", ["kawalab.solver", "scipy.linalg"])
def test_band_routines_are_scipy_linalg_lapack_functions(first):
    """The solver's dgbtrf/dgbtrs are the very objects that
    scipy.linalg.lapack exports, and both use one wrapper module, whichever
    of the two is imported first.  The kawalab.solver case shares the
    interpreter of the set-up test, which imports the solver first."""
    if first == "kawalab.solver":
        out = set_up_then_scipy_linalg()[1]
    else:
        out = fresh_python("import scipy.linalg\n" + LAPACK_IDENTITY)
    assert out.split() == ["True", "True", "True"]


def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch):
    """Where scipy's layout hides the wrapper module, the loader imports it
    through scipy.linalg and returns the same functions."""

    class NoFinder:
        def __init__(self, path, *loaders):
            pass

        def find_spec(self, name):
            return None

    monkeypatch.setattr(solver, "FileFinder", NoFinder)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    lapack = solver._lapack()
    assert lapack.__name__ == "scipy.linalg.lapack"
    assert lapack.dgbtrf is solver.dgbtrf
    assert lapack.dgbtrs is solver.dgbtrs
