"""The determinism matrix: every case whose artifacts must stay byte-identical.

    python scripts/artifacts.py run DIR
    python scripts/artifacts.py diff A B

`CASES` lists each case once: its name, the `kaw` command and arguments,
the base config under configs/ and its edits, the artifacts compared and
the exit code the command must return.

`run DIR` runs every case in this interpreter through `kawalab.cli.main`,
each into DIR/<case>/ beside the edited config.json it read, and checks
each exit code.  The one-CPU case runs verify again with this thread pinned
to one CPU, so that verify's helper thread shares it, and requires the same
report.json bytes whatever the threads' schedule.  DIR/env.json records the
kawalab that was imported (the import path picks the tree), the numpy and
scipy versions and both OpenBLAS core names (`OPENBLAS_CORETYPE` forces a
kernel; the bytes belong to it).  Run it with `OPENBLAS_NUM_THREADS=1`, as
the reference values were recorded.  Exit 0 when every case passes.

`diff A B` prints both env.json files and each artifact as identical,
missing, or differing with its largest relative change per CSV column and
per JSON leaf.  Exit 0 only when every artifact is identical.

Comparing a change with its parent:

    PYTHONPATH=<parent>/src python scripts/artifacts.py run out/parent
    PYTHONPATH=src python scripts/artifacts.py run out/change
    python scripts/artifacts.py diff out/parent out/change
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import sys
import time
from typing import NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DROP = object()     # an edit that deletes the key
RUN = ("series.csv", "report.json")
# L < sqrt(3b/a) pi, but 3 pi^2 b - a L^2 <= 0: a failed length condition
# whose certificate.json holds nulls
EDGE = {"model.a": 2.988560104211836, "model.b": 0.2200043197174797,
        "model.L": 1.476369643582072,
        "initial.u0": {"type": "sine", "amplitude": 0.1},
        "numerics.T_end": 0.5}


class Case(NamedTuple):
    """A `kaw` command: `name` is its --out directory; `argv` the command
    and its further arguments; `config` the base config under configs/;
    `edits` {dotted path: value, or DROP}; `files` the artifacts that diff
    compares; `exit` the code it must return; `one_cpu_of` the case whose
    artifacts it must equal byte for byte when run on one CPU."""

    name: str
    argv: tuple
    config: str
    edits: dict = {}
    files: tuple = ()
    exit: int = 0
    one_cpu_of: str = ""


LINEAR = "reference_linear.json"
CASES = (
    Case("check", ("check",), "reference.json", files=("certificate.json",)),
    Case("check_edge", ("check",), "reference.json", EDGE,
         ("certificate.json",), exit=2),
    Case("run_nonlinear", ("run",), "reference.json", files=RUN),
    # the largest N a config takes: its right-hand side is a product on
    # many row blocks
    Case("run_fine", ("run",), "reference.json",
         {"numerics.N": 2048, "numerics.T_end": 2.0}, RUN),
    # tau1 < 2 dt: every block of the memory feedback is one step
    Case("run_one_step", ("run",), "reference.json",
         {"kernel.tau1": 0.015, "kernel.tau2": 0.853, "numerics.T_end": 5.0},
         RUN),
    # tau1 = 2 dt: a block's top lag node can land exactly on the newest
    # stored sample
    Case("run_two_dt", ("run",), "reference.json",
         {"kernel.tau1": 0.02, "kernel.tau2": 0.853, "numerics.T_end": 5.0},
         RUN),
    # a tabulated kernel with off-grid lags
    Case("run_offgrid", ("run",), "reference.json",
         {"kernel": {"form": "tabulated", "tau1": 0.955, "tau2": 1.853,
                     "params": {"samples": [[0.9, 1.0], [1.3, 0.6],
                                            [1.9, 1.2]]}}}, RUN),
    # the manufactured solution, from its profile at t = 0 and a zero history
    Case("run_mms", ("run",), "reference.json",
         {"initial": DROP, "seed": DROP, "mms_amplitude": 0.5,
          "numerics.T_end": 2.0}, RUN),
    Case("run_linear", ("run",), LINEAR, files=RUN),
    # no records: report.json holds the unmade record checks as nulls
    Case("run_no_records", ("run",), "reference.json",
         {"numerics.record_every": 0, "numerics.T_end": 2.0},
         ("report.json",)),
    # a blow-up: the solver aborts at step 6, and report.json holds where
    # and the last finite ||u||^2 and E
    Case("run_abort", ("run",), "reference.json",
         {"initial.u0": {"type": "sine", "amplitude": 1e8},
          "numerics.dt": 0.9}, ("report.json",), exit=3),
    Case("verify", ("verify",), LINEAR, files=("report.json",)),
    # verify runs its eigensolves on a helper thread
    Case("verify_one_cpu", ("verify",), LINEAR, one_cpu_of="verify"),
    Case("verify_no_records", ("verify",), LINEAR,
         {"numerics.record_every": 0}, ("report.json",)),
    Case("sweep_alpha", ("sweep", "--axis", "gains.alpha", "--values",
                         "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                         "--workers", "2"), LINEAR, files=("sweep.csv",)),
)
BY_NAME = {case.name: case for case in CASES}


def config_doc(case: Case) -> dict:
    """The case's base config with its edits made."""
    with open(os.path.join(REPO, "configs", case.config),
              encoding="utf-8") as f:
        doc = json.load(f)
    for path, value in case.edits.items():
        *sections, leaf = path.split(".")
        node = doc
        for key in sections:
            node = node[key]
        if value is DROP:
            del node[leaf]
        else:
            node[leaf] = value
    return doc


def corename(package, pattern: str, symbol: str):
    """The kernel name that the OpenBLAS bundled with `package` (a wheel's
    <package>.libs directory) reports, or None where none is bundled."""
    site = os.path.dirname(os.path.dirname(package.__file__))
    paths = glob.glob(os.path.join(site, package.__name__ + ".libs", pattern))
    if not paths:
        return None
    get = getattr(ctypes.CDLL(paths[0]), symbol)
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def environment() -> dict:
    import kawalab
    import numpy
    import scipy

    return {"kawalab": {"path": os.path.dirname(kawalab.__file__),
                        "version": kawalab.__version__},
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_corename": {
                "numpy": corename(numpy, "libscipy_openblas64_*.so*",
                                  "scipy_openblas_get_corename64_"),
                "scipy": corename(scipy, "libscipy_openblas-*.so*",
                                  "scipy_openblas_get_corename")}}


def read(path: str):
    """The bytes of the file at `path`, or None where there is none."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


@contextlib.contextmanager
def one_cpu():
    """Pins this thread, and so the threads it starts, to one CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_case(cli, case: Case, out: str) -> list:
    """Runs `case` into out/<name>; the list of its failures."""
    directory = os.path.join(out, case.name)
    os.makedirs(directory)
    config = os.path.join(directory, "config.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump(config_doc(case), f, indent=2)
    argv = [case.argv[0], "--config", config, "--out", directory,
            *case.argv[1:]]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
            one_cpu() if case.one_cpu_of else contextlib.nullcontext():
        code = cli.main(argv)
    failures = []
    if code != case.exit:
        failures.append(f"exit {code}, expected {case.exit}:\n"
                        + log.getvalue())
    if case.one_cpu_of:
        for name in BY_NAME[case.one_cpu_of].files:
            one = read(os.path.join(directory, name))
            if one is None or one != read(
                    os.path.join(out, case.one_cpu_of, name)):
                failures.append(f"{name} differs from {case.one_cpu_of}'s")
    return failures


def run(out: str) -> int:
    if os.path.isdir(out) and os.listdir(out):
        print(f"{out} is not empty; run writes into a new directory",
              file=sys.stderr)
        return 1
    # imported here, so that diff runs without kawalab
    from kawalab import cli

    os.makedirs(out, exist_ok=True)
    start, failed = time.perf_counter(), 0
    for case in CASES:
        t0 = time.perf_counter()
        failures = run_case(cli, case, out)
        print(f"{'FAIL' if failures else 'ok':4} {case.name} "
              f"({time.perf_counter() - t0:.2f} s)")
        for failure in failures:
            print("     " + failure.rstrip().replace("\n", "\n     "))
        failed += bool(failures)
    with open(os.path.join(out, "env.json"), "w", encoding="utf-8") as f:
        json.dump(environment(), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed in "
          f"{time.perf_counter() - start:.2f} s")
    return 1 if failed else 0


def relative(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude; 0 for equal values, NaN
    beside NaN included, and inf where a non-finite value changed."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    change = abs(x - y) / max(abs(x), abs(y))
    return change if math.isfinite(change) else math.inf


def number(v):
    """`v` as a float when it is a JSON number or a CSV cell that reads as
    one, else None."""
    if isinstance(v, bool) or v is None:
        return None
    try:
        return float(v)
    except ValueError:
        return None


def compare(x, y):
    """The relative change from x to y, or a note where either is text."""
    a, b = number(x), number(y)
    if a is not None and b is not None:
        return relative(a, b)
    return 0.0 if x == y else f"{x!r} -> {y!r}"


def csv_values(text: bytes) -> dict:
    """{column: its cells} of a CSV artifact."""
    head, *rows = csv.reader(io.StringIO(text.decode()))
    return {column: [row[i] for row in rows] for i, column in enumerate(head)}


def leaves(node, path=""):
    """(path, value) of each leaf of a JSON document; the scalars of one
    list share the path <list>[]."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            nested = isinstance(value, (dict, list))
            yield from leaves(value, f"{path}[{i if nested else ''}]")
    else:
        yield path, node


def json_values(text: bytes) -> dict:
    """{leaf path: its values} of a JSON artifact."""
    values = {}
    for path, value in leaves(json.loads(text)):
        values.setdefault(path, []).append(value)
    return values


def changes(old: dict, new: dict) -> dict:
    """{key: largest relative change, or a note} of the keys of two
    {key: values} whose values changed."""
    found = {}
    for key in {**old, **new}:
        if key not in old or key not in new:
            found[key] = "only in " + ("A" if key in old else "B")
        elif len(old[key]) != len(new[key]):
            found[key] = f"{len(old[key])} -> {len(new[key])} values"
        else:
            each = [compare(x, y) for x, y in zip(old[key], new[key])]
            notes = [c for c in each if isinstance(c, str)]
            worst = notes[0] if notes else max(each, default=0.0)
            if worst:
                found[key] = worst
    return found


def diff(a: str, b: str) -> int:
    for side, directory in (("A", a), ("B", b)):
        env = read(os.path.join(directory, "env.json"))
        print(f"env {side}: " + (json.dumps(json.loads(env), sort_keys=True)
                                 if env is not None else "missing"))
    differing = 0
    for case in CASES:
        for name in case.files:
            path = f"{case.name}/{name}"
            x, y = (read(os.path.join(d, path)) for d in (a, b))
            if x is not None and x == y:
                print(f"identical  {path}")
                continue
            differing += 1
            if x is None or y is None:
                print(f"missing    {path} (in "
                      + " and ".join(side for side, v in (("A", x), ("B", y))
                                     if v is None) + ")")
                continue
            print(f"differs    {path}")
            values = csv_values if name.endswith(".csv") else json_values
            try:
                found = changes(values(x), values(y))
            except (ValueError, IndexError) as e:    # not CSV or JSON
                print(f"    unreadable: {e}")
                continue
            for key, change in found.items():
                print(f"    {key}: " + (f"{change:.2g}"
                                        if isinstance(change, float)
                                        else change))
            if not found:
                print("    no value changed; the text did")
    print(f"{differing} of {sum(len(c.files) for c in CASES)} artifacts "
          "differ" if differing else "every artifact identical")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="artifacts.py", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("run").add_argument("dir")
    sub = commands.add_parser("diff")
    sub.add_argument("a")
    sub.add_argument("b")
    args = parser.parse_args(argv)
    return run(args.dir) if args.command == "run" else diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
