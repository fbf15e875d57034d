"""The command-line surface: grammar, exit codes, determinism, round trips."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import freeconv
from freeconv.catalan import FAMILIES
from freeconv.cli import main
from freeconv.freeprob import CumulantSpec
from freeconv.multiseries import TruncSeries, random_series
from freeconv.transforms import u_transform
from freeconv.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_count_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "trees", "--n", "3",
                       "--format", "count")
    assert code == 0
    assert out.strip() == "5"


def test_enumerate_json_lists_the_level(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "ncp", "--n", "3")
    assert code == 0
    level = json.loads(out)
    assert len(level) == 5
    assert [[1], [2], [3]] in level


def test_enumerate_ascii_runs(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "ncp", "--n", "2",
                       "--format", "ascii")
    assert code == 0 and "1 2" in out
    code, out, _ = run(capsys, "enumerate", "--kind", "pt", "--n", "2",
                       "--format", "ascii")
    assert code == 0 and out.strip()


def test_map_phi_golden(capsys):
    code, out, _ = run(capsys, "map", "--name", "phi",
                       "--input", "((|,|),|)")
    assert code == 0
    assert out.strip() == "[[1],[2]]"


def test_map_output_feeds_back_as_input(capsys):
    code, out, _ = run(capsys, "map", "--name", "phi", "--input", "(|,(|,|))")
    assert code == 0
    code, back, _ = run(capsys, "map", "--name", "phi_inv",
                        "--input", out.strip())
    assert code == 0
    assert json.loads(back) == "(|,(|,|))"


def test_map_between_arbitrary_families(capsys):
    code, out, _ = run(capsys, "map", "--from", "y", "--to", "ndpf",
                       "--input", "((|,|),|)")
    assert code == 0
    assert isinstance(json.loads(out), list)


def test_map_rejects_conflicting_selectors(capsys):
    code, _, err = run(capsys, "map", "--name", "phi", "--from", "y",
                       "--to", "ncp1", "--input", "(|,|)")
    assert code == 3 and "excludes" in err


def test_map_rejects_wrong_family_member(capsys):
    code, _, err = run(capsys, "map", "--name", "phi",
                       "--input", "[[1,3],[2,4]]")
    assert code == 3


def test_rmap_golden(capsys):
    code, out, _ = run(capsys, "rmap", "--input", "(|,|)")
    assert code == 0
    assert out.strip() == "((|,|),|)"


def test_kreweras_golden(capsys):
    code, out, _ = run(capsys, "kreweras",
                       "--input", "[[1,2],[3,6,8],[4],[5],[7]]")
    assert code == 0
    assert json.loads(out) == [[1], [2, 8], [3, 4, 5], [6, 7]]


def test_kreweras_has_no_size_limit(capsys):
    code, out, _ = run(capsys, "kreweras",
                       "--input", json.dumps([list(range(1, 12))]))
    assert code == 0
    assert json.loads(out) == [[i] for i in range(1, 12)]


def test_map_to_ncp7_round_trips_past_ten_vertices(capsys):
    comb = "(" * 12 + "|" + ",|)" * 12  # the 12-vertex left comb
    code, out, _ = run(capsys, "map", "--from", "y", "--to", "ncp7",
                       "--input", comb)
    assert code == 0
    code, back, _ = run(capsys, "map", "--from", "ncp7", "--to", "y",
                        "--input", out.strip())
    assert code == 0 and json.loads(back) == comb


def test_kreweras_rejects_crossing(capsys):
    code, _, err = run(capsys, "kreweras", "--input", "[[1,3],[2,4]]")
    assert code == 3 and "noncrossing" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "enumerate", "--kind", "polygons", "--n", "1")[0] == 2
    assert run(capsys, "verify")[0] == 2
    assert run(capsys)[0] == 2


def test_negative_enumerate_level_exits_three(capsys):
    code, out, err = run(capsys, "enumerate", "--kind", "trees", "--n", "-1",
                         "--format", "count")
    assert code == 3 and out == "" and "non-negative" in err


def test_missing_file_exits_three(capsys):
    code, _, err = run(capsys, "stransform", "--f", "no-such-file.json")
    assert code == 3 and "error:" in err


@pytest.fixture()
def series_files(tmp_path):
    rng = random.Random(5)
    paths = {}
    for name in ("ka", "kb"):
        spec = CumulantSpec(random_series(rng, 2, 3, "gi", bound=2))
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec.to_json()))
        paths[name] = str(p)
    f = random_series(rng, 2, 3, "gi", bound=2)
    p = tmp_path / "f.json"
    p.write_text(json.dumps(f.to_json()))
    paths["f"] = str(p)
    return paths


def _malformed_series(kind):
    obj = random_series(random.Random(7), 1, 1, "gi").to_json()
    if kind == "maps-hold-an-int":
        obj["maps"] = [5]
    elif kind == "tensor-holds-an-int":
        obj["maps"][1]["tensor"] = [5]
    elif kind == "file-is-a-list":
        obj = [1, 2]
    elif kind == "zero-denominator":
        obj["maps"][1]["tensor"][0]["entries"] = [["1/0"]]
    elif kind == "boolean-order":
        obj["N"] = obj["maps"][1]["n"] = True
    elif kind == "boolean-entry":
        obj["maps"][1]["tensor"][0]["entries"] = [[True]]
    elif kind == "zero-dimension":
        # consistent over the zero algebra, whose 0 x 0 matrix "inverts"
        obj = {"d": 0, "N": 1, "maps": [
            {"n": 0, "value": {"d": 0, "entries": []}},
            {"n": 1, "tensor": []}]}
    elif kind == "negative-dimension":
        obj["d"] = -1
    else:
        obj["maps"][1]["tensor"][0]["entries"] = [[float(kind)]]
    return obj


def _exits_three_with_one_error_line(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", ["maps-hold-an-int", "tensor-holds-an-int",
                                  "file-is-a-list", "zero-denominator",
                                  "boolean-order", "boolean-entry",
                                  "zero-dimension", "negative-dimension",
                                  "0.5", "1.5"])
def test_malformed_series_file_exits_three(capsys, tmp_path, kind):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(random_series(random.Random(7), 1, 1,
                                             "gi").to_json()))
    bad.write_text(json.dumps(_malformed_series(kind)))
    good, bad = str(good), str(bad)
    for argv in (("stransform", "--f", bad), ("utransform", "--f", bad),
                 ("sprime", "--f", bad),
                 ("convolve", "--variant", "box", "--f", good, "--g", bad),
                 ("moments", "--cumulants", bad), ("cumulants", "--moments", bad),
                 ("product", "--ka", bad, "--kb", good),
                 ("product", "--ka", good, "--kb", bad),
                 ("product", "--ka", bad, "--kb", good, "--check")):
        _exits_three_with_one_error_line(capsys, *argv)


@pytest.mark.parametrize("argv", [("kreweras", "--input", "5"),
                                  ("map", "--from", "ncp1", "--to", "y",
                                   "--input", "5")],
                         ids=["kreweras", "map-from-ncp1"])
def test_malformed_partition_exits_three(capsys, argv):
    _exits_three_with_one_error_line(capsys, *argv)


@pytest.mark.parametrize("text", ["5", "null", "[5, []]", "[true]"])
@pytest.mark.parametrize("fam", sorted(FAMILIES))
def test_malformed_map_input_exits_three(capsys, fam, text):
    # a bare number, null, a number inside the nesting or a boolean is no
    # member of any family; the shape is checked before membership is asked
    _exits_three_with_one_error_line(capsys, "map", "--from", fam, "--to",
                                     "ncp1", "--input", text)


@pytest.mark.parametrize("fam, text", [("pt1", "[" * 1500 + "]" * 1500),
                                       ("y", "(|," * 1500 + "|" + ")" * 1500)])
def test_deeply_nested_map_input_exits_three(capsys, fam, text):
    # the JSON and tree-text readers recurse once per level of nesting
    _exits_three_with_one_error_line(capsys, "map", "--from", fam, "--to",
                                     "ncp1", "--input", text)


def test_a_900_level_right_comb_maps_through_the_cli():
    # in a fresh interpreter, as a user runs it: the tree reader and the
    # isomorphism each take one recursion level per level of nesting
    n = 900
    proc = subprocess.run([sys.executable, "-m", "freeconv", "map", "--from",
                           "y", "--to", "ncp1", "--input",
                           "(|," * n + "|" + ")" * n],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [list(range(1, n + 1))]


def test_a_900_level_right_comb_doubles_through_the_cli():
    # in a fresh interpreter, as a user runs it: the tree reader, rmap and
    # the tree writer each take one recursion level per level of nesting
    n = 900
    proc = subprocess.run([sys.executable, "-m", "freeconv", "rmap",
                           "--input", "(|," * n + "|" + ")" * n],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "((|,|)," * n + "|" + ")" * n + "\n"


def test_convolve_and_transform_emit_valid_series(capsys, series_files):
    code, out, _ = run(capsys, "convolve", "--variant", "box",
                       "--f", series_files["ka"], "--g", series_files["kb"])
    assert code == 0
    assert TruncSeries.from_json(json.loads(out)).N == 3

    code, out, _ = run(capsys, "stransform", "--f", series_files["f"])
    assert code == 0
    assert TruncSeries.from_json(json.loads(out)).N == 2


def test_utransform_prints_the_u_transform(capsys, series_files):
    code, out, _ = run(capsys, "utransform", "--f", series_files["f"])
    assert code == 0
    with open(series_files["f"]) as fh:
        f = TruncSeries.from_json(json.load(fh))
    expected = u_transform(f).to_json()
    assert out == json.dumps(expected, sort_keys=True,
                             separators=(",", ":")) + "\n"


def test_convolve_rejects_wrong_class_for_transform(capsys, series_files,
                                                    tmp_path):
    bad = random_series(random.Random(6), 2, 3, "ginv")
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad.to_json()))
    code, _, err = run(capsys, "stransform", "--f", str(p))
    assert code == 3


def test_moment_cumulant_round_trip_through_files(capsys, series_files,
                                                  tmp_path):
    code, out, _ = run(capsys, "moments", "--cumulants", series_files["ka"])
    assert code == 0
    m = tmp_path / "m.json"
    m.write_text(out)
    code, out, _ = run(capsys, "cumulants", "--moments", str(m))
    assert code == 0
    assert json.loads(out) == json.loads(open(series_files["ka"]).read())


def test_product_with_check_passes(capsys, series_files):
    code, out, _ = run(capsys, "product", "--ka", series_files["ka"],
                       "--kb", series_files["kb"], "--order", "2", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["status"] == "pass"
    assert TruncSeries.from_json(payload["product"]).N == 2


def test_verify_exit_zero_and_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "operad", "--order", "2",
                       "--trials", "1", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "operad" and report["status"] == "pass"
    assert {"id", "statement", "status"} <= set(report["checks"][0])


def test_verify_seed_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("FREECONV_SEED", "77")
    code, out, _ = run(capsys, "verify", "--suite", "operad", "--order", "2",
                       "--trials", "1")
    assert code == 0 and json.loads(out)["seed"] == 77
    # --seed wins over the environment
    code, out, _ = run(capsys, "verify", "--suite", "operad", "--order", "2",
                       "--trials", "1", "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_verify_output_is_deterministic(capsys):
    argv = ("verify", "--suite", "bijections", "--order", "3", "--seed", "1")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed"), b.pop("elapsed")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("knob", ["--order", "--dim", "--trials"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_verify_rejects_non_positive_knobs(capsys, knob, value):
    code, out, err = run(capsys, "verify", "--suite", "operad", knob, value)
    assert code == 2 and out == ""
    assert f"argument {knob}: expected a positive integer" in err


def test_run_suite_falls_back_only_on_none():
    report = run_suite("operad", order=2, dim=1, trials=0, seed=0)
    assert (report["order"], report["dim"], report["trials"]) == (2, 1, 0)
    assert report["checks"] == []
    assert run_suite("bijections", order=0)["order"] == 0
    report = run_suite("all", order=1, dim=1, trials=0, seed=0)
    assert (report["order"], report["dim"], report["trials"]) == (1, 1, 0)


def _env_with_src():
    """os.environ with the directory holding freeconv on PYTHONPATH."""
    src = str(Path(freeconv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--suite", "operad", "--order", "2", "--dim", "2",
            "--trials", "1"]
    proc = subprocess.run([sys.executable, "-m", "freeconv", *argv],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=120)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    via_m, via_main = json.loads(proc.stdout), json.loads(out)
    via_m.pop("elapsed"), via_main.pop("elapsed")
    assert via_m == via_main


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every fresh interpreter pays for what `import freeconv` loads, and these
    # two modules, which freeconv does not need, cost about 10 ms together
    code = ("import sys, freeconv, freeconv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
