"""The benchmark's traced checks on short commands: with perfbench/tracer.py
installed over the package, each time step is one `solver.step` span, as
many as perfbench/run.py's `steps_per_call` gives, and the traced commands
write the same artifacts as untraced ones."""

import json
import os
import types

import pytest

from kawalab import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench(name):
    """perfbench/<name>.py as a module, read without writing bytecode."""
    path = os.path.join(REPO, "perfbench", f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = path
    with open(path, encoding="utf-8") as f:
        exec(compile(f.read(), path, "exec"), vars(module))
    return module


tracer = _perfbench("tracer")
bench = _perfbench("run")

SPANS = {"solver.Stepper.init", "solver.step", "solver.implicit_solve",
         "solver.initial_state", "memory.history_push"}


@pytest.mark.parametrize("workload, spans, artifacts", [
    ("ref_run", SPANS | {"solver.nonlinear"}, ("series.csv", "report.json")),
    ("verify_lin", SPANS | {"rng.uniform"}, ("report.json",))],
    ids=["ref_run", "verify_lin"])
def test_traced_command_counts_one_step_span_per_time_step(
        tmp_path, workload, spans, artifacts):
    wl = bench.WORKLOADS[workload]
    doc = bench.make_doc(wl, 0)
    doc["numerics"].update(N=32, dt=0.05, T_end=2.0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = bench.make_argv(wl, str(config))
    spool = tmp_path / "spool"
    spool.mkdir()
    tr = tracer.Tracer(str(spool))
    try:
        tr.install()
        traced = cli.main(argv + ["--out", str(tmp_path / "traced")])
    finally:
        tr.uninstall()
    stats = bench._merge_traces([{"trace": tr.collect()}])["stats"]
    plain = cli.main(argv + ["--out", str(tmp_path / "plain")])
    assert traced == plain == 0
    assert stats["solver.step"][0] == bench.steps_per_call(wl, doc)
    assert spans <= set(stats)
    for name in artifacts:
        assert ((tmp_path / "traced" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())
