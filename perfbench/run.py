"""Run one workload of the freeconv benchmark and print its metrics.

    python3 perfbench/run.py --workload treesum --seed 1 --seconds 25 --trace 0

freeconv is imported from the ``src`` directory beside ``perfbench``, never
from an installed copy.  Each workload is a closed loop with one client: the
next job starts when the previous one and its checks are done.  The job
clock runs only while freeconv computes; input generation and the output
checks run with it stopped.  The loop starts no job once ``--seconds`` of
wall time have passed since the first one started.

With ``--trace 0`` the run reports the end-to-end metrics.  Job times are
corrected for the host's speed drift by ``refclock.py`` and given in
seconds at reference speed.  ``setup_s`` is the median over fresh child
processes of the time from process start to the first job being ready
(importing freeconv, generating its inputs, warming the tree caches).  With
``--trace 1`` it runs a fixed number of jobs traced, each followed by the
same job untraced, and reports the per-layer metrics of ``tracing.py`` per
job, plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Wall-clock job times, reference
samples, set-up samples and spans also go to ``perfbench/results/``.  The
exit code is 1 when an output failed its checks, 2 when freeconv's source
is missing.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7
# Nominal traced-plus-untraced seconds for one job; a traced run does
# --seconds // this many jobs, at least one, so its counts repeat exactly.
TRACE_PAIR_S = {"treesum": 10, "scalar": 6, "transform": 2.5, "operad": 3.5}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TRACE_PAIR_S))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock and exit "
                        "(used to time set-up in a fresh process)")
    return p.parse_args(argv)


def _import_workloads():
    if not (SRC / "freeconv" / "__init__.py").is_file():
        print(f"perfbench: no freeconv source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import freeconv
    import workloads
    if Path(freeconv.__file__).resolve().parent != SRC / "freeconv":
        print(f"perfbench: imported freeconv from {freeconv.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def set_up(name, seed):
    """Import freeconv, build the first job's inputs and warm up."""
    w = _import_workloads().WORKLOADS[name]()
    first = w.inputs(seed, 0)
    w.warm_up()
    return w, first


def _setup_samples(name, seed):
    """Set-up times of SETUP_SAMPLES fresh processes, in seconds."""
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


@contextmanager
def _timer():
    """Yields a one-element list that holds the block's length once it ends."""
    length = [0.0]
    t0 = time.perf_counter()
    try:
        yield length
    finally:
        length[0] = time.perf_counter() - t0


def _attempt(w, inputs, seed, job, timer=_timer):
    """Run one job inside `timer` and check it.

    Returns (what `timer` yielded, output or None, failures); only the job
    is timed.
    """
    out = None
    with timer() as length:
        try:
            out = w.run(inputs)
        except Exception:
            traceback.print_exc()
    if out is None:
        return length, None, ["raised"]
    try:
        failures = w.check(inputs, out, seed if job == 0 else None)
    except Exception:
        traceback.print_exc()
        failures = ["check raised"]
    if failures:
        print(f"perfbench: {w.name} seed {seed} job {job} failed: {failures}",
              file=sys.stderr)
    return length, out, failures


def measure(name, seed, seconds):
    setup = _setup_samples(name, seed)
    w, inputs = set_up(name, seed)
    clock = refclock.RefClock()
    wall, norm, samples, done, failed, wrong, job = [], [], [], [], 0, 0, 0
    start = time.perf_counter()
    with clock:
        while time.perf_counter() - start < seconds or job == 0:
            (elapsed, corrected, n), out, failures = _attempt(
                w, inputs, seed, job, clock.timer)
            if failures:
                failed += 1
                wrong += out is not None
            else:
                done.append(corrected)
            wall.append(elapsed)
            norm.append(corrected)
            samples.append(n)
            job += 1
            inputs = w.inputs(seed, job)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "jobs_per_s_norm": (len(done) / sum(norm), "1/s"),
        "job_p50_s_norm": (statistics.median(done or norm), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    print(f"perfbench: {name} seed {seed}: {job} jobs, wall-clock "
          f"{len(done) / sum(wall):.4f} jobs/s, median {statistics.median(wall):.3f} s; "
          f"reference median {statistics.median(clock.samples or [0]) * 1e3:.3f} ms "
          f"over {len(clock.samples)} samples", file=sys.stderr)
    detail = {"job_s": wall, "job_s_norm": norm, "ref_samples_per_job": samples,
              "ref_sample_s": clock.samples, "setup_samples_s": setup}
    return job, failed, wrong, metrics, detail


def measure_traced(name, seed, seconds):
    w = _import_workloads().WORKLOADS[name]()
    import freeconv
    import tracing
    jobs = max(1, int(seconds // TRACE_PAIR_S[name]))
    tracer = tracing.Tracer(freeconv)
    origin = time.perf_counter()
    traced, untraced, failed, wrong = [], [], 0, 0
    with tracer.job("setup"):
        w.warm_up()
    for job in range(jobs):
        with tracer.job(f"inputs-{job}"):
            inputs = w.inputs(seed, job)
        elapsed, out, failures = _attempt(w, inputs, seed, job,
                                          lambda: tracer.job(job))
        traced.append(elapsed[0])
        failed += bool(failures)
        wrong += bool(failures) and out is not None
        # The same job again untraced, straight after, so that both runs
        # of it see the host at about the same speed.
        t0 = time.perf_counter()
        try:
            w.run(inputs)
        except Exception:
            traceback.print_exc()
        untraced.append(time.perf_counter() - t0)
    metrics = tracer.metrics(jobs)
    metrics["trace.untraced_job_s"] = (sum(untraced) / jobs, "s")
    metrics["trace.traced_job_s"] = (sum(traced) / jobs, "s")
    metrics["trace.overhead"] = (sum(traced) / sum(untraced), "1")
    detail = {"traced_job_s": traced, "untraced_job_s": untraced,
              "spans": tracer.span_records(origin)}
    return jobs, failed, wrong, metrics, detail


def main(argv=None):
    args = _parse(argv)
    _import_workloads()
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(time.monotonic())
        return 0
    run = measure_traced if args.trace else measure
    attempted, failed, wrong, metrics, detail = run(args.workload, args.seed,
                                                    args.seconds)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(result, workload=args.workload,
                                    seed=args.seed, seconds=args.seconds,
                                    **detail)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
