"""The mutant list of scripts/mutants.py stays applicable."""

import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_mutant_text_occurs_once():
    """A mutant whose text was edited away, or now occurs twice, would
    silently test nothing or the wrong line."""
    with open(os.path.join(REPO, "scripts", "mutants.json"),
              encoding="utf-8") as f:
        mutants = json.load(f)
    assert len({m["name"] for m in mutants}) == len(mutants)
    for m in mutants:
        with open(os.path.join(REPO, m["file"]), encoding="utf-8") as f:
            assert f.read().count(m["text"]) == 1, m["name"]
        assert m["replacement"] != m["text"] and m["weakens"], m["name"]
