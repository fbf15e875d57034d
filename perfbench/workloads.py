"""The benchmark's workloads: seeded inputs, one job, and its checks.

Every job of a workload makes the same freeconv calls at the same shape;
only the seed of its inputs differs.  Job j of a run with seed s draws its
inputs from ``random.Random(f"{name}-{s}-{j}")``, so a seed fixes every
input of the run.  ``check`` returns the names of the checks a job's
output failed; it never compares against saved output.  The first job of a
run is checked with the run's seed, which adds checks made once per run.

freeconv must be importable when this module is imported.
"""

import contextlib
import io
import json
import random

import freeconv
import freeconv.cli

import ncref


class Workload:
    """One job at series shape (d, N).

    A workload has ``inputs(seed, job)``, ``run(inputs)`` which returns the
    job's output, and ``check(inputs, out, run_seed=None)`` which returns
    the names of the checks `out` failed; `run_seed` is given on a run's
    first job only.
    """

    name = None

    def __init__(self, d, N):
        self.d, self.N = d, N

    def rng(self, seed, job):
        return random.Random(f"{self.name}-{seed}-{job}")

    def warm_up(self):
        """Fill the tree caches a first job would otherwise pay for."""


class TreeSum(Workload):
    """The four boxed convolutions and both moment-cumulant conversions."""

    name = "treesum"

    def inputs(self, seed, job):
        rng = self.rng(seed, job)
        f = freeconv.random_series(rng, self.d, self.N, "gi")
        g = freeconv.random_series(rng, self.d, self.N, "gi")
        return f, g

    def warm_up(self):
        for n in range(self.N + 1):
            for t in freeconv.enumerate_trees(n):
                freeconv.rmap(t)

    def run(self, inputs):
        f, g = inputs
        out = {"box": freeconv.boxconv("box", f, g),
               "line": freeconv.boxconv("line", g, f),
               "red": freeconv.boxconv("red", f, g),
               "redred": freeconv.boxconv("redred", f, g)}
        out["k"] = freeconv.CumulantSpec(f)
        out["m"] = freeconv.moments_from_cumulants(out["k"])
        out["k2"] = freeconv.cumulants_from_moments(out["m"])
        return out

    def check(self, inputs, out, run_seed=None):
        f, g = inputs
        N = self.N
        ident = freeconv.TruncSeries.identity(self.d, N)
        box, line, red, redred = out["box"], out["line"], out["red"], out["redred"]
        checks = {
            "box == red*redred": box == freeconv.mul_at(red, redred, N),
            "line(g,f) == redred*red": line == freeconv.mul_at(redred, red, N),
            "box == g o red": box == freeconv.compose_at(g, red, N),
            "line(g,f) == f o (redred*I)":
                line == freeconv.compose_at(f, freeconv.mul_at(redred, ident, N), N),
            "cumulants(moments(k)) == k": out["k2"] == out["k"],
            "speicher relation":
                freeconv.speicher_relation_check(out["k"], out["m"])["status"] == "pass",
        }
        if run_seed is not None:
            checks.update(self._transform_identities(f, g, box))
        return [name for name, ok in checks.items() if not ok]

    def _transform_identities(self, f, g, box):
        N = self.N
        s_f, s_g = freeconv.s_transform(f), freeconv.s_transform(g)
        u_f, u_g = freeconv.u_transform(f), freeconv.u_transform(g)
        return {
            "S(box) == S(g)*(S(f) o U(g))": freeconv.s_transform(box) == freeconv.mul_at(
                s_g, freeconv.compose_at(s_f, u_g, N - 1), N - 1),
            "U(box) == U(f) o U(g)":
                freeconv.u_transform(box) == freeconv.compose_at(u_f, u_g, N),
        }


class Scalar(TreeSum):
    """The ``treesum`` calls on d = 1 series, also checked against ``ncref``."""

    name = "scalar"

    def check(self, inputs, out, run_seed=None):
        f, g = inputs
        refs = scalar_references(f, g, out["box"], out["m"].series,
                                 freeconv.s_transform(f))
        return (super().check(inputs, out, run_seed)
                + [name for name, ok in refs.items() if not ok])


def scalar_coefficients(series, start=1):
    """[a_0, ..., a_N] for a d = 1 series, a_n = f_n(1, ..., 1), with the
    degrees below `start` read as 0."""
    if series.d != 1:
        raise ValueError("scalar coefficients need d = 1")
    out = [0] * start
    for n in range(start, series.N + 1):
        value = series[n].tensor.get((0,) * n)
        out.append(value.rows[0][0] if value is not None else 0)
    return out


def scalar_references(f, g, box, m, s_f):
    """Check freeconv's d = 1 results against ``ncref``, which shares no code
    with freeconv: the moments m of cumulants f, box(f, g), and S(f)."""
    N = f.N
    a, b = scalar_coefficients(f), scalar_coefficients(g)
    box = scalar_coefficients(box)
    return {
        "d=1: m == sum over NC(n)": scalar_coefficients(m) == ncref.moments(a, N),
        "d=1: box == Nica-Speicher sum over NC(n)": box == ncref.box(a, b, N),
        "d=1: S(f) == reversion of f": scalar_coefficients(s_f, 0) == ncref.s_transform(a, N),
        "d=1: S(box) == S(g)*S(f)": ncref.s_transform(box, N) == ncref.series_product(
            ncref.s_transform(b, N), ncref.s_transform(a, N)),
    }


class Transform(Workload):
    """The S, U and S' transforms of one series."""

    name = "transform"

    def inputs(self, seed, job):
        return freeconv.random_series(self.rng(seed, job), self.d, self.N, "gi")

    def run(self, f):
        return {"s": freeconv.s_transform(f), "u": freeconv.u_transform(f),
                "sp": freeconv.s_prime(f)}

    def check(self, f, out, run_seed=None):
        d, N = self.d, self.N
        ident = freeconv.TruncSeries.identity(d, N)
        i_s = freeconv.mul_at(ident, out["s"], N)
        big_f = freeconv.strip_identity(f)
        checks = {
            "f o (I*S) == I": freeconv.compose_at(f, i_s, N) == ident,
            "(I*S) o f == I": freeconv.compose_at(i_s, f, N) == ident,
            "(F*I) o (S'*I) == I": freeconv.compose_at(
                freeconv.mul_at(big_f, ident, N),
                freeconv.mul_at(out["sp"], ident, N), N) == ident,
        }
        return [name for name, ok in checks.items() if not ok]


class Operad(Workload):
    """The operad verify suite through the command line, in this process."""

    name = "operad"
    CHECK_IDS = {"word-recursion", "action-associative", "concat-associative",
                 "action-concat"}

    def inputs(self, seed, job):
        return self.rng(seed, job).randrange(2 ** 31)

    def warm_up(self):
        for n in range(self.N + 1):
            freeconv.enumerate_trees(n)

    def run(self, suite_seed):
        argv = ["verify", "--suite", "operad", "--order", str(self.N),
                "--dim", str(self.d), "--trials", "1", "--seed", str(suite_seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = freeconv.cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, suite_seed, out, run_seed=None):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        report = json.loads(out["stdout"])
        failed = []
        if report.get("status") != "pass":
            failed.append("report status")
        statuses = {c["id"]: c["status"] for c in report.get("checks", ())}
        if set(statuses) != self.CHECK_IDS:
            failed.append("check ids")
        failed += [f"check {cid}" for cid, status in sorted(statuses.items())
                   if status != "pass"]
        return failed


# Two workloads on the tree-sum path, at the two extremes of its shape, and
# two that never reach it (see README.md for why each was chosen).
WORKLOADS = {
    "treesum": lambda: TreeSum(2, 4),
    "scalar": lambda: Scalar(1, 9),
    "transform": lambda: Transform(2, 4),
    "operad": lambda: Operad(2, 4),
}
