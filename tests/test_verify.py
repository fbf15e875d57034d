"""The report builder, the suite dispatcher, and a golden "all" report."""

import ast
import json
import pathlib
import random

from freeconv.freeprob import (CumulantSpec, moments_from_cumulants,
                               sab_search, speicher_relation_check)
from freeconv.multiseries import random_series
from freeconv.verify import Report, run_suite

HERE = pathlib.Path(__file__).parent
SRC = HERE.parent / "src" / "freeconv"
GOLDEN = HERE / "golden_all_order3_dim2_trials1_seed0.json"

SUITE_KEYS = {"suite", "checks", "seed", "order", "dim", "trials", "status",
              "elapsed"}


def test_report_keeps_the_first_failure():
    report = Report("demo", seed=1, order=2, dim=None, trials=None)
    report.record("a", "first statement", True, "unused", {"k": 1})
    report.record("a", "later statement", False, "first witness", {"k": 2})
    report.record("a", "later statement", False, "second witness")
    report.record("b", "always holds", True)
    out = report.finish()
    assert list(out) == ["suite", "checks", "seed", "order", "dim", "trials",
                         "status", "elapsed"]
    assert out["status"] == "fail"
    assert out["checks"] == [
        {"id": "a", "statement": "first statement", "status": "fail",
         "params": {"k": 1}, "witness": "first witness"},
        {"id": "b", "statement": "always holds", "status": "pass",
         "params": {}}]


def test_report_fields_are_the_ones_given():
    out = Report("demo", seed=None, order=3, dim=2).finish()
    assert set(out) == {"suite", "checks", "seed", "order", "dim", "status",
                        "elapsed"}
    assert out["status"] == "pass" and out["checks"] == []


def test_speicher_report_has_no_trials():
    k = CumulantSpec(random_series(random.Random(0), 2, 3, "gi", bound=2))
    report = speicher_relation_check(k, moments_from_cumulants(k))
    assert set(report) == SUITE_KEYS - {"trials"}
    assert report["seed"] is None
    assert all(set(c) == {"id", "statement", "status", "params"}
               for c in report["checks"])


def test_sab_search_keeps_its_report_shape():
    report = sab_search(N=3, d=1, trials=2, seed=0)
    assert set(report) == SUITE_KEYS
    (check,) = report["checks"]
    assert check["status"] == "pass"
    assert set(check) <= {"id", "statement", "status", "params", "witness"}


def test_all_report_matches_the_golden_file():
    # recorded from a fresh process before the report builder was shared
    report = run_suite("all", order=3, dim=2, trials=1, seed=0)
    assert set(report) == SUITE_KEYS
    report.pop("elapsed")
    assert json.loads(json.dumps(report)) == json.loads(GOLDEN.read_text())


def test_no_module_imports_a_private_name_from_another():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)
