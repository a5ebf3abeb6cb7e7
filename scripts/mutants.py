"""Mutation check of the Tier-1 suite: does it fail when a check is weakened?

    python scripts/mutants.py

`scripts/mutants.json` lists the mutants.  Each names a file, a source text
that occurs exactly once in it, the text that replaces it and the reported
check that the replacement weakens.  The runner first checks every text,
then runs the suite on an unmutated copy of the tree, and then, one mutant
at a time, runs it with `-x` on a copy with that one replacement made.  It
prints a kill matrix: the mutant, killed or survived, the first failing
test and the seconds taken.

Exit 0 when every mutant is killed; 1 on a survivor, on a text that does
not occur exactly once, or when the unmutated suite fails.  A survivor
costs a full suite run, about 30 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what the suite reads: the tests also open README.md, configs/, scripts/
# and perfbench/
TREE = ("src", "tests", "configs", "scripts", "perfbench", "README.md",
        "pyproject.toml")


def load_mutants() -> list:
    with open(os.path.join(REPO, "scripts", "mutants.json"),
              encoding="utf-8") as f:
        return json.load(f)


def occurrences(mutant: dict) -> int:
    with open(os.path.join(REPO, mutant["file"]), encoding="utf-8") as f:
        return f.read().count(mutant["text"])


def run_suite(mutant: dict | None) -> tuple:
    """(exit code, first failing test or "", seconds) of Tier-1 on a copy of
    the tree with `mutant` applied; with `-x` and without
    tests/test_mutants.py unless `mutant` is None."""
    with tempfile.TemporaryDirectory(prefix="kawalab-mutant-") as tmp:
        for name in TREE:
            source, target = os.path.join(REPO, name), os.path.join(tmp, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            path = os.path.join(tmp, mutant["file"])
            with open(path, encoding="utf-8") as f:
                text = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(mutant["text"], mutant["replacement"]))
        # the copy's src/ only, so that no other kawalab is imported
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        command = [sys.executable, "-m", "pytest", "-q", "-p",
                   "no:cacheprovider", "--continue-on-collection-errors"]
        if mutant is not None:
            # tests/test_mutants.py checks that each mutant's text occurs in
            # the unmutated tree, so on a mutated copy it fails whenever the
            # replacement drops the text: a kill that tests nothing
            command += ["-x", "--ignore=tests/test_mutants.py"]
        t0 = time.perf_counter()
        proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True,
                              text=True)
        seconds = time.perf_counter() - t0
    first = next((line.split(" ", 1)[1].split(" - ", 1)[0]
                  for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode, first, seconds


def main() -> int:
    mutants = load_mutants()
    stale = [(m["name"], n) for m in mutants if (n := occurrences(m)) != 1]
    for name, n in stale:
        print(f"mutant {name}: its text occurs {n} times in its file, not once")
    if stale:
        return 1
    rc, first, seconds = run_suite(None)
    if rc != 0:
        print(f"the unmutated suite fails ({first or f'exit {rc}'}, "
              f"{seconds:.1f} s); no mutant was run")
        return 1
    print(f"unmutated suite: passed ({seconds:.1f} s)")
    width = max(len(m["name"]) for m in mutants)
    print(f"{'mutant':<{width}}  result    seconds  first failing test")
    survivors = 0
    for m in mutants:
        rc, first, seconds = run_suite(m)
        survivors += rc == 0
        result = "killed" if rc else "SURVIVED"
        print(f"{m['name']:<{width}}  {result:<8}  {seconds:7.1f}  "
              f"{first or '-'}", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
