"""The report builder, the suite dispatcher, and a golden "all" report."""

import ast
import json
import pathlib
import random

from freeconv import freeprob
from freeconv.catalan import FAMILIES, Family, family_elements
from freeconv.freeprob import (CumulantSpec, moments_from_cumulants,
                               sab_search, speicher_relation_check)
from freeconv.multiseries import first_difference, random_series
from freeconv.trees import SINGLE, right_comb, size, splits, unwedge
from freeconv.verify import Report, run_suite, verify_bijection_identities

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


def test_a_callable_witness_is_built_only_for_the_first_failure():
    built = []

    def witness(tag):
        return lambda: built.append(tag) or {"item": tag}

    report = Report("demo", seed=0)
    report.record("a", "holds for every item", True, None, {"k": 1})
    report.record("a", "holds for every item", True, witness("passing"))
    check = report.record("a", "holds for every item", False, witness("first"))
    report.record("a", "holds for every item", False, witness("second"))
    assert built == ["first"]
    assert check["witness"] == {"item": "first"}


def test_report_fields_are_the_ones_given():
    out = Report("demo", seed=None, order=3, dim=2).finish()
    assert set(out) == {"suite", "checks", "seed", "order", "dim", "status",
                        "elapsed"}
    assert out["status"] == "pass" and out["checks"] == []


def test_compare_stores_the_first_difference_only_on_a_failure():
    rng = random.Random(0)
    a, b = (random_series(rng, 2, 2, "gi", bound=2) for _ in range(2))
    report = Report("demo", seed=0)
    same = report.compare("same", "a == a", a, a, {"k": 1})
    assert same == {"id": "same", "statement": "a == a", "status": "pass",
                    "params": {"k": 1}}
    witness = first_difference(a, b)
    assert witness is not None
    differ = report.compare("differ", "a == b", a, b)
    assert differ["status"] == "fail" and differ["witness"] == witness
    report.compare("differ", "a == b", b, a)
    assert differ["witness"] == witness
    assert report.finish()["status"] == "fail"


def _right_comb_on_the_right(x, y):
    # not injective: every right operand of one size gives one composite
    return (x, right_comb(size(y)))


def test_a_failing_loop_check_keeps_its_first_failing_item(monkeypatch):
    broken = Family("zz-broken", (), size, _right_comb_on_the_right, unwedge,
                    lambda t: True)
    monkeypatch.setitem(FAMILIES, broken.name, broken)
    try:
        report = verify_bijection_identities(n_max=4)
    finally:
        family_elements.cache_clear()
    checks = {c["id"]: c for c in report["checks"]}
    failed = [cid for cid, c in checks.items() if c["status"] == "fail"]
    assert failed == ["round-trip-zz-broken"]
    # levels 3 and 4 both repeat elements and some pairs do not decompose
    # back, but the witness is the first failure: the count at level 3
    assert checks["round-trip-zz-broken"]["witness"] == {"n": 3, "count": 5}
    monkeypatch.undo()
    assert "zz-broken" not in FAMILIES
    assert run_suite("bijections", order=2)["status"] == "pass"


def test_structural_freeprob_checks_keep_their_first_failing_tree(
        monkeypatch):
    # with `splits` negated every tree breaks the parity check, and the
    # witness is the first tree tried, not the last
    monkeypatch.setattr(freeprob, "splits", lambda t: not splits(t))
    report = freeprob.verify_freeprob_identities(N=2, d=1, trials=1, seed=0)
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["split-iff-parity-class"]["witness"] == {"tree": SINGLE}
    assert checks["non-split-vanishing"]["witness"] == {
        "tree": (SINGLE, ()), "n": 1, "variant": "units"}


def test_bijection_checks_pass_with_empty_pairwise_loops():
    ids = [c["id"] for c in verify_bijection_identities(n_max=2)["checks"]]
    report = verify_bijection_identities(n_max=0)
    assert [c["id"] for c in report["checks"]] == ids
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["status"] == "pass"


def test_speicher_report_has_no_trials():
    k = CumulantSpec(random_series(random.Random(0), 2, 3, "gi", bound=2))
    report = speicher_relation_check(k, moments_from_cumulants(k))
    assert set(report) == SUITE_KEYS - {"trials"}
    assert report["seed"] is None
    assert all(set(c) == {"id", "statement", "status", "params"}
               for c in report["checks"])


def test_note_passes_and_keeps_only_a_non_empty_witness():
    report = Report("demo", seed=0)
    hit = report.note("scan", "finds things", [{"trial": 3}], {"k": 1})
    assert hit == {"id": "scan", "statement": "finds things",
                   "status": "pass", "params": {"k": 1},
                   "witness": [{"trial": 3}]}
    empty = report.note("quiet", "finds nothing", [])
    assert empty == {"id": "quiet", "statement": "finds nothing",
                     "status": "pass", "params": {}}
    assert report.finish()["status"] == "pass"


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


def _callers(node, name, scope, out):
    """Add to `out` the (innermost) function names that mention `name`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name):
        out.add(scope)
    for child in ast.iter_child_nodes(node):
        _callers(child, name, scope, out)


def test_only_report_compare_and_the_product_command_use_first_difference():
    # a suite builds no witness by hand: series equalities go through
    # Report.compare, and only `freeconv product --check` diffs on its own
    users = set()
    for path in sorted(SRC.glob("*.py")):
        found = set()
        _callers(ast.parse(path.read_text()), "first_difference", "<module>",
                 found)
        users |= {(path.name, scope) for scope in found}
    assert users == {("verify.py", "compare"), ("cli.py", "_cmd_product")}


def _owners(node, match, scope, in_def, out):
    """Add to `out` the top-level function or method (as Class.method)
    around each node for which match(node) holds; nested defs count as
    their enclosing one."""
    if isinstance(node, ast.ClassDef) or (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not in_def):
        scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        in_def = not isinstance(node, ast.ClassDef)
    if match(node):
        out.add(scope)
    for child in ast.iter_child_nodes(node):
        _owners(child, match, scope, in_def, out)


def _users(match, skip=()):
    users = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name not in skip:
            found = set()
            _owners(ast.parse(path.read_text()), match, "<module>", False,
                    found)
            users |= {(path.name, scope) for scope in found}
    return users


def test_kernel_code_reads_no_fraction_entries_and_inverts_in_one_place():
    # the Fraction view of a map is for output only, and every inverse of a
    # degree-0 or degree-1 map goes through MultiMap.inverse, is_gi's test
    # of F_0 included
    assert _users(lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "tensor") == {
        ("multiseries.py", "TruncSeries.to_json"),
        ("multiseries.py", "first_difference")}
    inverses = {"mat_inverse", "linmap_inverse"}
    assert _users(lambda n: isinstance(n, ast.Name) and n.id in inverses
                  or isinstance(n, ast.Attribute) and n.attr in inverses,
                  skip={"algebra.py"}) == {
        ("multiseries.py", "MultiMap.inverse")}


def test_a_map_crosses_to_fraction_entries_through_one_pair_of_helpers():
    # evaluation is a contraction on the integer kernel: outside algebra.py
    # only _to_element builds a Fraction, and an element's coordinates are
    # read only where they go straight into _to_ints
    assert _users(lambda n: isinstance(n, ast.Name) and n.id == "Fraction",
                  skip={"algebra.py"}) == {("multiseries.py", "_to_element")}
    assert _users(lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "coords", skip={"algebra.py"}) == {
        ("multiseries.py", "MultiMap.__init__"),
        ("multiseries.py", "MultiMap.__call__")}
    assert _users(lambda n: isinstance(n, ast.Name)
                  and n.id == "_to_ints") == {
        ("multiseries.py", "MultiMap.__init__"),
        ("multiseries.py", "MultiMap.__call__"),
        ("multiseries.py", "MultiMap.inverse")}
    assert _users(lambda n: isinstance(n, ast.Name)
                  and n.id == "_to_element") == {
        ("multiseries.py", "MultiMap.tensor"),
        ("multiseries.py", "MultiMap.__call__")}
