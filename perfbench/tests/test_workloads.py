"""A job's checks pass on freeconv's output and catch one altered coefficient."""

import json
from fractions import Fraction

import pytest

import freeconv
import run
import tracing
import workloads

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())

SMALL = {"treesum": workloads.TreeSum(2, 2), "scalar": workloads.Scalar(1, 5),
         "transform": workloads.Transform(2, 3), "operad": workloads.Operad(2, 2)}


def bump(series, n):
    """`series` with one coefficient of degree n raised by 1."""
    m = series[n]
    key = next(iter(m.tensor)) if m.tensor else (0,) * n
    one = freeconv.AlgebraElement.basis(series.d, 0)
    tensor = dict(m.tensor)
    tensor[key] = tensor[key] + one if key in tensor else one
    maps = list(series.maps)
    maps[n] = freeconv.MultiMap(series.d, n, tensor)
    return freeconv.TruncSeries(series.d, series.N, maps)


def altered(w):
    """A copy of workload `w` whose job output has one coefficient changed."""
    class Altered(type(w)):
        def run(self, inputs):
            out = super().run(inputs)
            if self.name == "operad":
                report = json.loads(out["stdout"])
                report["checks"][0]["status"] = "fail"
                out["stdout"] = json.dumps(report)
            elif self.name == "transform":
                out["s"] = bump(out["s"], 1)
            else:
                out["box"] = bump(out["box"], 2)
            return out
    return Altered(w.d, w.N)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_program_output(name):
    w = SMALL[name]
    w.warm_up()
    inputs = w.inputs(3, 0)
    _, out, failures = run._attempt(w, inputs, 3, 0)
    assert out is not None
    assert failures == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_altered_coefficient_fails_the_job(name):
    w = altered(SMALL[name])
    inputs = w.inputs(3, 0)
    _, out, failures = run._attempt(w, inputs, 3, 1)
    assert out is not None
    assert failures


def scalar_case(N=5):
    w = workloads.TreeSum(1, N)
    f, g = w.inputs(4, 0)
    return (f, g, freeconv.boxconv("box", f, g),
            freeconv.moments_from_cumulants(freeconv.CumulantSpec(f)).series,
            freeconv.s_transform(f))


def test_scalar_references_hold_on_program_output():
    assert all(workloads.scalar_references(*scalar_case()).values())


@pytest.mark.parametrize("slot, check", [
    (2, "d=1: box == Nica-Speicher sum over NC(n)"),
    (3, "d=1: m == sum over NC(n)"),
    (4, "d=1: S(f) == reversion of f"),
])
def test_scalar_references_catch_one_altered_coefficient(slot, check):
    case = list(scalar_case())
    case[slot] = bump(case[slot], 2)
    failed = [name for name, ok in workloads.scalar_references(*case).items()
              if not ok]
    assert check in failed


def test_inputs_follow_the_seed():
    w = workloads.TreeSum(2, 3)
    assert w.inputs(5, 1) == w.inputs(5, 1)
    assert w.inputs(5, 1) != w.inputs(6, 1)
    assert w.inputs(5, 1) != w.inputs(5, 2)


def test_benchmark_json_names_every_metric():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        [name for name, _, _ in tracing.metric_specs()]
    assert {m["name"] for m in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_traced_counts_repeat():
    w = workloads.TreeSum(2, 2)
    w.warm_up()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(freeconv)
        with tracer.job(0):
            w.run(w.inputs(1, 0))
        counts.append({k: v for k, (v, unit) in tracer.metrics(1).items()
                       if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["transforms.boxconv.calls"] == 4
    assert counts[0]["algebra.fraction_ops.calls"] > 0
    assert Fraction.__add__ is Fraction.__dict__["__add__"]
