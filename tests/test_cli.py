"""CLI contract: config handling, outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_DOC, reference_sim_config
from kawalab import cli
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
])
def test_exit_1_malformed_field_named(tmp_path, capsys, patch, field):
    """Each of these ended in a traceback or a silent zero-step run."""
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


def test_exit_3_solver_abort(tmp_path, capsys):
    doc = doc_with(numerics={"dt": 0.9, "T_end": 40.0, "N": 64})
    doc["initial"]["u0"] = {"type": "sine", "mode": 1, "amplitude": 1e8}
    rc = main(["run", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "solver abort" in capsys.readouterr().err


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


def test_sweep_bad_axis_is_config_error(tmp_path, reference_config_path, capsys):
    rc = main(["sweep", "--config", reference_config_path,
               "--out", str(tmp_path), "--axis", "model.zeta",
               "--values", "1,2"])
    assert rc == 1
    assert "axis" in capsys.readouterr().err


def test_worker_count():
    assert cli._worker_count(8) == 8
    assert cli._worker_count(None) >= 1


def test_sweep_csv_quotes_failure_messages(tmp_path, reference_config_path,
                                          monkeypatch):
    """A failure message with ',', '"' and a newline round-trips through
    csv.reader; a row without them is written as plain comma-joined text."""
    message = 'bad value, "quoted"\nsecond line'

    def fake_worker(args):
        idx, _, _, value = args
        return {"index": idx, "value": value, "status": "ok" if idx else "aborted",
                "certified": "true", "failures": "" if idx else message,
                "rate": "0.25" if idx else "", "r2": "0.5" if idx else "",
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


# ---------------------------------------------------------------------------
# fuzzing: one field of the reference config replaced by a bad value


_MISSING = object()
_FUZZ_DOC = doc_with(numerics={"T_end": 0.05},
                     initial={"z0": {"type": "sinusoid", "amplitude": 0.1,
                                     "omega": 2.0}})
_FUZZ_DOC["mms_amplitude"] = None


def _paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflowing runs
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from(sorted(_paths(_FUZZ_DOC))),
       value=st.sampled_from(["abc", [1], {}, None, True, math.nan, -1, -1.5,
                              1e300, 10 ** 400, _MISSING]))
def test_fuzz_run_exits_with_documented_code(path, value):
    """Every such config ends in exit code 0-4; no exception escapes, and a
    config error names the field (its last key)."""
    doc = json.loads(json.dumps(_FUZZ_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _MISSING:
        del node[path[-1]]
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
        assert path[-1] in err.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# verify


def test_verify_reference_passes(tmp_path):
    doc = doc_with(numerics={"T_end": 5.0, "linear_only": True})
    rc = main(["verify", "--config", write_doc(tmp_path, doc),
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_pass"] is True
    names = {c["check_name"] for c in report["checks"]}
    assert {"est3", "est4", "sandwich", "energy_monotone",
            "observability_c_obs", "spectral_lemma"} <= names


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
