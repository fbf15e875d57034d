"""The benchmark's hold on freeconv: traced names and workload jobs.

``perfbench/`` is imported read-only through ``sys.path``, as in
``test_ncref_route.py``.  Its tracer patches freeconv's names where they are
defined, and its workloads read ``MultiMap.tensor``, so a change to either
surface fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import freeconv  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# (d, N) for one quick job of each workload
SMALL = {"treesum": (2, 2), "scalar": (1, 5), "transform": (2, 3),
         "operad": (2, 2)}


def test_small_shapes_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_one_small_job_of_each_workload_runs_and_checks(name, shape_passes):
    w = type(workloads.WORKLOADS[name]())(*SMALL[name])
    w.warm_up()
    inputs = w.inputs(1, 0)
    out = w.run(inputs)
    # every series whose shape a job reads was built by absorb, which
    # recorded it: the job makes no pass
    assert shape_passes == []
    assert w.check(inputs, out, run_seed=1) == []


def test_the_tracer_finds_every_target_and_puts_it_back():
    call = freeconv.MultiMap.__dict__["__call__"]
    tracer = tracing.Tracer(freeconv)
    w = workloads.TreeSum(*SMALL["treesum"])
    inputs = w.inputs(1, 0)
    with tracer.job(0):
        out = w.run(inputs)
    assert freeconv.MultiMap.__dict__["__call__"] is call
    assert w.check(inputs, out) == []
    metrics = tracer.metrics(1)
    assert metrics["transforms.boxconv.calls"][0] == 4
    assert metrics["freeprob.moments_from_cumulants.calls"][0] == 1
    # redred's degree 0 is g_1 at the unit
    assert metrics["multiseries.MultiMap.__call__.calls"][0] >= 1
