"""The committed mutation list, tools/mutants.json, stays applicable.

Each mutant's snippet must occur exactly once in its file, so a refactor
that moves or rewrites the mutated code has to update the list, and each
test named to kill it must exist.  ``python tools/mutants.py src`` runs the
mutants themselves; it is not part of this suite.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
RECORDS = TOOL.load()


def test_mutant_ids_are_unique():
    ids = [rec["id"] for rec in RECORDS]
    assert ids and len(ids) == len(set(ids))


@pytest.mark.parametrize("rec", RECORDS, ids=[r["id"] for r in RECORDS])
def test_each_snippet_occurs_once_and_each_test_exists(rec):
    text = (ROOT / rec["file"]).read_text()
    assert text.count(rec["snippet"]) == 1
    assert TOOL.mutated(text, rec) != text
    assert rec["tests"]
    for test_id in rec["tests"]:
        path, _, name = test_id.partition("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), test_id


def test_a_snippet_that_does_not_occur_once_is_refused():
    rec = {"id": "twice", "file": "f.py", "snippet": "x", "replacement": "y"}
    with pytest.raises(ValueError, match="occurs 2 times"):
        TOOL.mutated("x = x", rec)
