"""In-memory span tracer for the kawalab layers, installed from outside src/.

`Tracer.install()` replaces every public function of each kawalab module, a
few private hooks and the hot methods of `Stepper`, `HistoryBuffer` and
`Lcg64` with timing wrappers.  A module that imported a function by name
(`from .memory import memory_integral`) holds its own reference, so each
wrapper is bound under every kawalab module attribute that held the original.
`uninstall()` restores every binding, so untraced calls pay nothing.

Spans are aggregated per name as they close: calls, inclusive seconds, the
part covered by child spans (self time = inclusive - children) and the calls
entered from another module.  `solver.step` also keeps every duration, for
percentiles.  A process forked while the tracer is installed (the `kaw sweep`
pool) starts from empty totals and writes them to `<spool>/child-<pid>.json`
each time its outermost span closes; `collect()` returns them too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

MODULES = ("cli", "model", "discretization", "memory", "solver",
           "diagnostics", "rng")

# (module, class or None, attribute) -> span name, besides the public
# module-level functions, which are traced as "<module>.<function>".
EXTRA_SPANS = {
    ("cli", None, "_sweep_worker"): "cli.sweep_worker",
    ("solver", "Stepper", "__init__"): "solver.Stepper.init",
    ("solver", "Stepper", "step"): "solver.step",
    ("solver", "Stepper", "nonlinear"): "solver.nonlinear",
    ("solver", "Stepper", "_solve_implicit"): "solver.implicit_solve",
    ("solver", "Stepper", "initial_state"): "solver.initial_state",
    ("memory", "HistoryBuffer", "copy"): "memory.history_copy",
    ("memory", "HistoryBuffer", "push"): "memory.history_push",
    ("rng", "Lcg64", "uniform"): "rng.uniform",
}

STEP_SPAN = "solver.step"
STEPPER_INIT_SPAN = "solver.Stepper.init"


def array_bytes(root) -> int:
    """nbytes of every distinct ndarray reachable through kawalab objects."""
    seen, total, todo = set(), 0, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif type(obj).__module__.startswith("kawalab") and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return total


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self._patched = []          # (owner, attribute, original)
        self._installed = False
        self._is_child = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        self.stats = {}             # name -> [calls, seconds, child_seconds, outer_calls]
        self.edges = {}             # "parent>child" -> seconds in child spans
        self.step_s = []
        self.operator_bytes = 0
        self._stack = []            # [name, module, child_seconds] per open span

    def _after_fork(self) -> None:
        if self._installed:
            self.reset()
            self._is_child = True

    def _totals(self) -> dict:
        return {"stats": self.stats, "edges": self.edges, "step_s": self.step_s,
                "operator_bytes": self.operator_bytes}

    def _dump_child(self) -> None:
        path = os.path.join(self.spool_dir, f"child-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self._totals(), f)

    def collect(self) -> list:
        """This process's totals, then each forked child's; clears them all."""
        parts = [dict(self._totals(), child=False)]
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as f:
                parts.append(dict(json.load(f), child=True))
            os.remove(path)
        self.reset()
        return parts

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        measure_operator = name == STEPPER_INIT_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stack
            outer = not st or st[-1][1] != module
            st.append([name, module, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = st.pop()[2]
                if st:
                    parent = st[-1]
                    parent[2] += dt
                    edge = f"{parent[0]}>{name}"
                    self.edges[edge] = self.edges.get(edge, 0.0) + dt
                rec = self.stats.get(name)
                if rec is None:
                    rec = self.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += child
                rec[3] += outer
                if name == STEP_SPAN:
                    self.step_s.append(dt)
                elif measure_operator:
                    self.operator_bytes = max(self.operator_bytes, array_bytes(args[0]))
                if not st and self._is_child:
                    self._dump_child()

        return wrapper

    def _targets(self):
        """(owner, attribute, span name) for every traced callable."""
        mods = {m: importlib.import_module(f"kawalab.{m}") for m in MODULES}
        for m, mod in mods.items():
            for attr, fn in vars(mod).items():
                span = f"{m}.{attr}"
                # the module-level solver.step (a Stepper per call) is not
                # traced: its span name belongs to Stepper.step
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and span not in EXTRA_SPANS.values()):
                    yield mod, attr, span
        for (m, cls, attr), span in EXTRA_SPANS.items():
            owner = getattr(mods[m], cls) if cls else mods[m]
            if attr in vars(owner):
                yield owner, attr, span

    def install(self) -> None:
        wrapped = {}                # id(original function) -> (original, wrapper)
        for owner, attr, span in self._targets():
            orig = vars(owner)[attr]
            if isinstance(owner, type):
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(span, orig))
            else:
                wrapped[id(orig)] = (orig, self._wrap(span, orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "kawalab" and not modname.startswith("kawalab."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        self._installed = False
