"""scripts/artifacts.py: the determinism matrix stays whole, and its diff
reports each changed value; no case of the matrix is run here."""

import importlib.util
import json
import os

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "artifacts", os.path.join(REPO, "scripts", "artifacts.py"))
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)

SERIES = "t,E,w0\n0.0,1.0,0.5\n0.1,0.75,0.25\n"
REPORT = {"E_final": 0.75, "decay_fit": {"rate": 0.4, "t_window": [1.0, 6.0]},
          "invariants": {"energy_monotone": True}}


def write_tree(root, series=SERIES, report=REPORT, skip=()):
    """A directory as `run` leaves it, with the same small CSV or JSON text
    in place of every artifact, less the paths in `skip`."""
    root.mkdir()
    (root / "env.json").write_text('{"numpy": "2"}\n')
    for case in artifacts.CASES:
        for name in case.files:
            if f"{case.name}/{name}" in skip:
                continue
            (root / case.name).mkdir(exist_ok=True)
            (root / case.name / name).write_text(
                series if name.endswith(".csv") else json.dumps(report))
    return str(root)


def test_the_matrix_holds_every_case_and_artifact():
    """15 commands and 21 compared files, with verify on one CPU compared
    with verify: a case that drops out of the table fails here."""
    assert [case.name for case in artifacts.CASES] == [
        "check", "check_edge", "run_nonlinear", "run_fine", "run_one_step",
        "run_two_dt", "run_offgrid", "run_mms", "run_linear",
        "run_no_records", "run_abort", "verify", "verify_one_cpu",
        "verify_no_records", "sweep_alpha"]
    runs = ("run_nonlinear", "run_fine", "run_one_step", "run_two_dt",
            "run_offgrid", "run_mms", "run_linear")
    assert [f"{case.name}/{name}" for case in artifacts.CASES
            for name in case.files] == [
        "check/certificate.json", "check_edge/certificate.json",
        *(f"{run}/{name}" for run in runs
          for name in ("series.csv", "report.json")),
        "run_no_records/report.json", "run_abort/report.json",
        "verify/report.json",
        "verify_no_records/report.json", "sweep_alpha/sweep.csv"]
    assert {case.name: case.exit for case in artifacts.CASES
            if case.exit} == {"check_edge": 2, "run_abort": 3}
    assert {case.name: case.one_cpu_of for case in artifacts.CASES
            if case.one_cpu_of} == {"verify_one_cpu": "verify"}
    assert artifacts.BY_NAME["verify_one_cpu"].argv == ("verify",)


def test_each_case_config_reads_as_a_config():
    """Every edit lands on a field that the command reads."""
    from kawalab import cli

    for case in artifacts.CASES:
        doc = artifacts.config_doc(case)
        if case.argv[0] == "check":
            cli.build_model(doc)
        else:
            cli.build_sim_config(doc)
    assert "initial" not in artifacts.config_doc(artifacts.BY_NAME["run_mms"])


def test_diff_of_identical_trees_exits_0(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    assert artifacts.main(["diff", a, b]) == 0
    out = capsys.readouterr().out
    assert out.count("identical  ") == 21
    assert 'env A: {"numpy": "2"}' in out
    assert out.rstrip().endswith("every artifact identical")


def test_diff_reports_a_one_ulp_change_by_column_and_leaf(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    up, rate = np.nextafter(0.75, 1.0), np.nextafter(0.4, 1.0)
    (tmp_path / "b" / "run_fine" / "series.csv").write_text(
        SERIES.replace("0.75", repr(float(up))))
    report = json.loads(json.dumps(REPORT))
    report["decay_fit"]["rate"] = float(rate)
    (tmp_path / "b" / "run_fine" / "report.json").write_text(
        json.dumps(report))
    assert artifacts.main(["diff", a, b]) == 1
    out = capsys.readouterr().out
    assert (f"differs    run_fine/series.csv\n"
            f"    E: {(up - 0.75) / up:.2g}\n") in out
    assert (f"differs    run_fine/report.json\n"
            f"    decay_fit.rate: {(rate - 0.4) / rate:.2g}\n") in out
    assert out.count("\n    ") == 2     # no other column or leaf
    assert "2 of 21 artifacts differ" in out


def test_diff_reports_a_missing_or_unreadable_artifact(tmp_path, capsys):
    """Also one that neither side has: no artifact is identical unseen."""
    a = write_tree(tmp_path / "a", skip=("sweep_alpha/sweep.csv",))
    b = write_tree(tmp_path / "b", skip=("verify/report.json",
                                         "sweep_alpha/sweep.csv"))
    (tmp_path / "b" / "run_mms" / "report.json").write_text("{")
    assert artifacts.main(["diff", a, b]) == 1
    out = capsys.readouterr().out
    assert "missing    verify/report.json (in B)\n" in out
    assert "missing    sweep_alpha/sweep.csv (in A and B)\n" in out
    assert "differs    run_mms/report.json\n    unreadable: " in out
    assert "3 of 21 artifacts differ" in out


@pytest.mark.parametrize("x, y, change", [
    ("1.0", "1.0", 0.0), ("nan", "nan", 0.0), ("2.0", "1.0", 0.5),
    ("inf", "1.0", float("inf")), ("ok", "aborted", "'ok' -> 'aborted'"),
    (None, 0.5, "None -> 0.5"), (True, False, "True -> False")])
def test_compare_gives_a_relative_change_or_a_note(x, y, change):
    assert artifacts.compare(x, y) == change


def test_changes_keep_the_first_note_and_the_largest_change():
    old = {"E": ["1.0", "2.0"], "status": ["ok", "ok"], "n": ["1"], "a": []}
    new = {"E": ["1.5", "2.0"], "status": ["ok", "aborted"], "n": ["1", "2"],
           "b": []}
    assert artifacts.changes(old, new) == {
        "E": 1 / 3, "status": "'ok' -> 'aborted'", "n": "1 -> 2 values",
        "a": "only in A", "b": "only in B"}


def test_run_refuses_a_directory_that_holds_files(tmp_path, capsys):
    (tmp_path / "old.json").write_text("{}")
    assert artifacts.main(["run", str(tmp_path)]) == 1
    assert "not empty" in capsys.readouterr().err
