"""End-to-end acceptance: ten criteria, one printed pass/fail line each.

Each test prints `criterion NN [PASS] ...` (visible under `pytest -s` or in
the captured-output section) and enforces its runtime budget where one is
stated.  Everything is exact arithmetic; there are no tolerances anywhere.
"""

import random
import time

import pytest

from freeconv.algebra import AlgebraElement
from freeconv.catalan import catalan_iso, named_bijection
from freeconv.freeprob import verify_freeprob_identities
from freeconv.multiseries import (TruncSeries, comp_inverse, compose_at,
                                  is_gi, mul_at, mult_inverse, random_series)
from freeconv.partitions import enumerate_ncp, interleave, kreweras
from freeconv.transforms import (boxconv, s_transform, strip_identity,
                                 u_transform, verify_transform_identities)
from freeconv.trees import enumerate_trees, rmap, tree_from_text
from freeconv.verify import (verify_bijection_identities,
                             verify_operad_identities)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def _conclude(number, label, ok, elapsed=None, budget=None):
    stamp = "PASS" if ok else "FAIL"
    tail = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"criterion {number:2d} [{stamp}] {label}{tail}")
    assert ok, f"criterion {number} failed: {label}"
    if budget is not None and elapsed is not None:
        assert elapsed < budget, \
            f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


@pytest.fixture(scope="module")
def freeprob_full():
    """One full free-probability suite run, shared by criteria 7 and 8, and
    the seconds it took; criterion 7 counts them against its budget."""
    started = time.monotonic()
    report = verify_freeprob_identities(N=4, d=2, trials=10, seed=0)
    return report, time.monotonic() - started


def _passed(report, cid):
    for check in report["checks"]:
        if check["id"] == cid:
            return check["status"] == "pass"
    return False


def test_criterion_01_catalan_counts():
    started = time.monotonic()
    ok = True
    for n in range(11):
        trees = enumerate_trees(n)
        ncps = enumerate_ncp(n)
        ok = ok and len(trees) == CATALAN[n] == len(ncps)
        ok = ok and len(set(trees)) == len(trees)
        ok = ok and len(set(ncps)) == len(ncps)
    elapsed = time.monotonic() - started
    _conclude(1, "tree and partition counts match the Catalan numbers "
              "through n = 10", ok, elapsed, budget=10)


def test_criterion_02_phi_golden_values():
    phi = lambda s: named_bijection("phi", tree_from_text(s))
    ok = phi("(|,|)") == ((1,),)
    ok = ok and phi("(|,(|,|))") == ((1, 2),)
    ok = ok and phi("((|,|),|)") == ((1,), (2,))
    nine = tree_from_text("(((|,|),((|,|),|)),(|,((|,(|,|)),|)))")
    ok = ok and named_bijection("phi", nine) == \
        ((1,), (2, 4), (3,), (5, 6, 9), (7, 8))
    doubled = rmap(tree_from_text("((|,|),|)"))
    ok = ok and named_bijection("phi", doubled) == ((1, 3), (2,), (4,))
    _conclude(2, "phi reproduces every decodable worked example exactly", ok)


def test_criterion_03_kreweras_dual_path():
    started = time.monotonic()
    ok = True
    for n in range(8):
        for p in enumerate_ncp(n):
            if kreweras(p) != catalan_iso("ncp2", "ncp1", p):
                ok = False
    example = ((1, 2), (3, 6, 8), (4,), (5,), (7,))
    ok = ok and kreweras(example) == ((1,), (2, 8), (3, 4, 5), (6, 7))
    elapsed = time.monotonic() - started
    _conclude(3, "brute-force complement equals the structural isomorphism "
              "through n = 7, including the eight-element worked example",
              ok, elapsed, budget=30)


def test_criterion_04_doubled_trees_hit_the_paired_partitions():
    ok = True
    for n in range(6):
        doubled = {named_bijection("phi", rmap(t))
                   for t in enumerate_trees(n)}
        paired = {interleave(p, kreweras(p)) for p in enumerate_ncp(n)}
        ok = ok and doubled == paired
    witness = any(
        named_bijection("phi", rmap(t))
        != interleave(named_bijection("phi", t),
                      kreweras(named_bijection("phi", t)))
        for t in enumerate_trees(2))
    _conclude(4, "the doubled-tree image equals {P u K(P)} setwise per size "
              "yet differs pointwise at size 2", ok and witness)


def test_criterion_05_series_algebra_laws():
    started = time.monotonic()
    d, N = 2, 4
    rng = random.Random(0)
    ident = TruncSeries.identity(d, N)
    one = TruncSeries.constant(AlgebraElement.unit(d), N)
    ok = True
    for _ in range(20):
        f, g, h = (random_series(rng, d, N, "ginv", bound=2)
                   for _ in range(3))
        p, q = (random_series(rng, d, N, "gdif", bound=2) for _ in range(2))
        a, b = (random_series(rng, d, N, "gi", bound=2) for _ in range(2))

        ok = ok and mul_at(mul_at(f, g, N), h, N) == \
            mul_at(f, mul_at(g, h, N), N)
        ok = ok and mul_at(one, f, N) == f == mul_at(f, one, N)
        inv = mult_inverse(f)
        ok = ok and mul_at(f, inv, N) == one == mul_at(inv, f, N)

        ok = ok and compose_at(compose_at(f, p, N), q, N) == \
            compose_at(f, compose_at(p, q, N), N)
        ok = ok and compose_at(f, ident, N) == f
        ok = ok and compose_at(ident, p, N) == p
        pinv = comp_inverse(p)
        ok = ok and compose_at(p, pinv, N) == ident == compose_at(pinv, p, N)

        ok = ok and compose_at(f + g, p, N) == \
            compose_at(f, p, N) + compose_at(g, p, N)

        ok = ok and is_gi(compose_at(a, b, N)) and is_gi(comp_inverse(a))

        s = s_transform(a)  # "both" path: raises if the two routes differ
        fi = mul_at(strip_identity(a), ident, N)
        u1 = mul_at(mul_at(mult_inverse(s), ident, N), s, N)
        u2 = compose_at(fi, mul_at(ident, s, N), N)
        u3 = compose_at(fi, comp_inverse(a), N)
        ok = ok and u1 == u2 == u3 == u_transform(a)
        if not ok:
            break
    elapsed = time.monotonic() - started
    _conclude(5, "monoid/group/distributivity laws, absorbing-class closure, "
              "S-transform dual path, and the conjugated-identity identity "
              "(20 instances, order 4)", ok, elapsed, budget=60)


def test_criterion_06_convolution_identities():
    started = time.monotonic()
    report = verify_transform_identities(N=4, d=2, trials=20, seed=0)
    ok = report["status"] == "pass"
    for cid in ("box-compose-general", "box-compose-absorbing",
                "line-compose-general", "line-compose-absorbing",
                "box-mult-split", "line-mult-split",
                "mult-split-needs-absorption", "s-of-box", "u-of-box",
                "box-class"):
        ok = ok and _passed(report, cid)

    # the worked low-order formulas, all four variants, random instances
    rng = random.Random(1)
    one = AlgebraElement.unit(2)
    for _ in range(5):
        f = random_series(rng, 2, 4, "mult", bound=2)
        g = random_series(rng, 2, 4, "mult", bound=2)
        xs = [AlgebraElement.from_coords(
            2, [rng.randint(-2, 2) for _ in range(4)]) for _ in range(2)]
        x1, x2 = xs
        box = boxconv("box", f, g)
        ok = ok and box[1](x1) == g[1](f[1](x1))
        ok = ok and box[2](x1, x2) == (g[1](f[2](x1, g[1](one) * x2))
                                       + g[2](f[1](x1), f[1](x2)))
        line = boxconv("line", f, g)
        ok = ok and line[1](x1) == g[1](f[1](one) * x1)
        ok = ok and line[2](x1, x2) == (g[1](f[2](one, g[1](x1)) * x2)
                                        + g[2](f[1](one) * x1,
                                               f[1](one) * x2))
        red = boxconv("red", f, g)
        ok = ok and red[0]().is_zero() and red[1](x1) == f[1](x1)
        ok = ok and red[2](x1, x2) == f[2](x1, g[1](one) * x2)
        redred = boxconv("redred", f, g)
        ok = ok and redred[0]() == g[1](one)
        ok = ok and redred[1](x1) == g[2](one, f[1](x1))
        ok = ok and redred[2](x1, x2) == (g[2](one, f[2](x1, g[1](one) * x2))
                                          + g[3](one, f[1](x1), f[1](x2)))
    elapsed = time.monotonic() - started
    _conclude(6, "composition and product factorizations, S of a boxed "
              "convolution, and the worked low-order formulas for all four "
              "convolutions (20 instances, order 4)", ok, elapsed, budget=300)


def test_criterion_07_free_probability(freeprob_full):
    started = time.monotonic()
    report, fixture_s = freeprob_full
    ok = report["status"] == "pass"
    for cid in ("product-cumulants", "s-of-product", "u-from-moments",
                "u-of-product", "sprime-of-product", "sprime-of-product-joint",
                "product-cumulants-constant-factor",
                "s-of-product-constant-factor"):
        ok = ok and _passed(report, cid)
    scalar = verify_freeprob_identities(N=4, d=1, trials=10, seed=0)
    ok = ok and scalar["status"] == "pass"
    ok = ok and _passed(scalar, "s-of-product-scalar")
    elapsed = fixture_s + (time.monotonic() - started)
    _conclude(7, "product cumulants match the tree-sum oracle and S, U, S' "
              "of a product factor as claimed, including the scalar and "
              "constant-factor cases (10 instances, order 4)",
              ok, elapsed, budget=600)


def test_criterion_08_splitting_tree_structure(freeprob_full):
    report, _ = freeprob_full
    ok = report["status"] == "pass"
    for cid in ("split-iff-parity-class", "non-split-vanishing",
                "split-evaluation", "even-parity-restriction",
                "pi-partitions-even-class", "per-tree-extraction",
                "unique-double-decomposition", "two-series-substitution",
                "substitution-needs-absorption"):
        ok = ok and _passed(report, cid)
    _conclude(8, "splitting-tree classification, vanishing, restriction, "
              "partition, and extraction identities at the stated sizes", ok)


def test_criterion_09_bijection_suite():
    started = time.monotonic()
    report = verify_bijection_identities(n_max=6)
    ok = report["status"] == "pass"
    elapsed = time.monotonic() - started
    _conclude(9, "three commuting diagrams, family round trips, and all "
              "named bijections through n = 6", ok, elapsed, budget=60)


def test_criterion_10_operad_identities():
    started = time.monotonic()
    report = verify_operad_identities(N=5, d=2, trials=5, seed=0)
    ok = report["status"] == "pass"
    for cid in ("word-recursion", "action-associative", "concat-associative",
                "action-concat"):
        ok = ok and _passed(report, cid)
    elapsed = time.monotonic() - started
    _conclude(10, "word recursion equals tree evaluation on five random "
              "series (sizes through 5) plus the three mixed associativity "
              "laws", ok, elapsed, budget=30)
