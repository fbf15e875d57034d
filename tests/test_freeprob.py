"""Moment/cumulant conversion, freeness, and the product-of-free-elements
pipeline."""

import random

import pytest

from freeconv.algebra import AlgebraElement, random_element_from
from freeconv.freeprob import (CumulantSpec, MomentSpec,
                               cumulants_from_moments, mixed_tree_cumulant,
                               moments_from_cumulants, product_cumulants,
                               product_cumulants_oracle,
                               product_moments_oracle, sab_search,
                               speicher_relation_check,
                               verify_freeprob_identities)
from freeconv.multiseries import TruncSeries, random_series
import freeconv.multiseries as multiseries
from freeconv.trees import right_comb

D, N = 2, 3
LEAF = ()
SINGLE = ((), ())


def _cumulants(seed):
    return CumulantSpec(random_series(random.Random(seed), D, N, "gi",
                                      bound=2))


def _x(seed):
    return random_element_from(random.Random(seed), 3, D)


def test_spec_constructors_enforce_the_shape():
    with pytest.raises(ValueError):
        CumulantSpec(random_series(random.Random(0), D, N, "ginv"))
    with pytest.raises(ValueError):
        MomentSpec(random_series(random.Random(1), D, N, "mult"))
    k = _cumulants(2)
    assert k.d == D and k.N == N


def test_moment_and_cumulant_specs_are_one_class():
    assert MomentSpec is CumulantSpec
    assert repr(_cumulants(2)) == "CumulantSpec(d=2, N=3)"


def test_spec_json_round_trip():
    k = _cumulants(3)
    assert CumulantSpec.from_json(k.to_json()) == k
    m = moments_from_cumulants(k)
    assert MomentSpec.from_json(m.to_json()) == m


def test_specs_read_the_shape_once_and_keep_the_stripped_series(
        shape_passes):
    # a drawn series and the conversions' results are built by absorb, which
    # records the stripped series, so a spec of either reads its shape
    # without a pass; a series loaded from JSON has no record and takes one
    series = random_series(random.Random(8), D, N, "gi", bound=2)
    k = CumulantSpec(series)
    m = moments_from_cumulants(k)
    k2 = cumulants_from_moments(m)
    assert shape_passes == [] and k2 == k
    loaded = MomentSpec.from_json(m.to_json())
    assert shape_passes == [N]
    for spec in (k, m, k2, loaded):
        unrecorded = TruncSeries(spec.d, spec.N, spec.series.maps)
        assert spec.stripped == multiseries.absorbed(unrecorded, 0)


def test_first_moments_expand_as_tree_sums():
    k = _cumulants(4)
    m = moments_from_cumulants(k)
    x1, x2 = _x(5), _x(6)
    assert m.series[1](x1) == k.series[1](x1)
    expected = k.series[2](x1, x2) + k.series[1](k.series[1](x1) * x2)
    assert m.series[2](x1, x2) == expected


def test_conversion_round_trip():
    for seed in range(3):
        k = _cumulants(10 + seed)
        assert cumulants_from_moments(moments_from_cumulants(k)) == k
        m = moments_from_cumulants(k)
        assert moments_from_cumulants(cumulants_from_moments(m)) == m


def test_fixed_point_relations_hold_for_matched_pairs():
    k = _cumulants(20)
    m = moments_from_cumulants(k)
    report = speicher_relation_check(k, m)
    assert report["status"] == "pass"
    assert {c["id"] for c in report["checks"]} == \
        {"fixed-point-right", "fixed-point-left"}


def test_fixed_point_relations_detect_corruption():
    k = _cumulants(21)
    m = moments_from_cumulants(k)
    maps = list(m.series.maps)
    maps[3] = maps[3] + maps[3]  # wrong degree-3 moment
    bad = MomentSpec(TruncSeries(D, N, maps))
    report = speicher_relation_check(k, bad)
    assert report["status"] == "fail"
    bad_checks = [c for c in report["checks"] if c["status"] == "fail"]
    assert bad_checks and all("witness" in c for c in bad_checks)


def test_mixed_cumulant_of_a_pure_comb():
    ka, kb = _cumulants(30), _cumulants(31)
    xs = (_x(32), _x(33), _x(34))
    letters = tuple((x, "a") for x in xs)
    assert mixed_tree_cumulant(right_comb(3), letters, ka, kb) == \
        ka.series[3](*xs)


def test_mixed_cumulant_vanishes_on_mixed_letters():
    ka, kb = _cumulants(35), _cumulants(36)
    one = AlgebraElement.unit(D)
    letters = ((_x(37), "a"), (one, "b"))
    assert mixed_tree_cumulant(right_comb(2), letters, ka, kb).is_zero()


def test_mixed_cumulant_nests_on_the_planted_tree():
    ka, kb = _cumulants(38), _cumulants(39)
    one = AlgebraElement.unit(D)
    x = _x(40)
    planted = (SINGLE, LEAF)
    out = mixed_tree_cumulant(planted, ((x, "a"), (one, "b")), ka, kb)
    assert out == kb.series[1](ka.series[1](x))


def test_mixed_cumulant_validates_input():
    ka, kb = _cumulants(41), _cumulants(42)
    x = _x(43)
    with pytest.raises(ValueError):
        mixed_tree_cumulant(SINGLE, ((x, "a"), (x, "a")), ka, kb)
    with pytest.raises(ValueError):
        mixed_tree_cumulant(SINGLE, ((x, "c"),), ka, kb)


def test_product_degree_one_is_the_nested_first_cumulant():
    ka, kb = _cumulants(44), _cumulants(45)
    kab = product_cumulants(ka, kb)
    x = _x(46)
    assert kab.series[1](x) == kb.series[1](ka.series[1](x))


def test_product_cumulants_match_the_oracle():
    for seed in (50, 51):
        ka, kb = _cumulants(seed), _cumulants(seed + 100)
        assert product_cumulants(ka, kb) == product_cumulants_oracle(ka, kb)


def test_product_with_order_truncates():
    ka, kb = _cumulants(60), _cumulants(61)
    small = product_cumulants(ka, kb, order=2)
    assert small.N == 2
    assert small.series == product_cumulants(ka, kb).series.truncate(2)


def test_product_moments_oracle_is_a_moment_series():
    ka, kb = _cumulants(62), _cumulants(63)
    mab = product_moments_oracle(ka, kb)
    assert cumulants_from_moments(mab) == product_cumulants_oracle(ka, kb)


def test_product_orders_outside_one_to_n_are_rejected():
    ka, kb = _cumulants(64), _cumulants(65)
    message = r"order must lie in 1\.\.%d" % N
    for order in (0, -1, N + 1):
        for fn in (product_moments_oracle, product_cumulants):
            with pytest.raises(ValueError, match=message):
                fn(ka, kb, order)
    assert product_moments_oracle(ka, kb, 1).series.N == 1


def test_scalar_product_cumulants_agree_with_the_commutative_picture():
    """At d = 1 the S-transforms multiply, so the suite's scalar check and
    the oracle route must coincide."""
    rng = random.Random(64)
    ka = CumulantSpec(random_series(rng, 1, N, "gi", bound=2))
    kb = CumulantSpec(random_series(rng, 1, N, "gi", bound=2))
    assert product_cumulants(ka, kb) == product_cumulants_oracle(ka, kb)


def test_identity_suite_passes_quickly():
    report = verify_freeprob_identities(N=3, d=2, trials=1, seed=3)
    assert report["status"] == "pass"
    ids = {c["id"] for c in report["checks"]}
    for required in ("moment-cumulant-round-trip", "product-cumulants",
                     "s-of-product", "u-of-product", "sprime-of-product",
                     "split-iff-parity-class", "non-split-vanishing",
                     "split-evaluation", "even-parity-restriction",
                     "pi-partitions-even-class", "per-tree-extraction",
                     "two-series-substitution",
                     "substitution-needs-absorption"):
        assert required in ids, required


def test_sab_search_reports_without_asserting():
    report = sab_search(N=3, d=2, trials=4, seed=4)
    assert report["status"] == "pass"
    assert report["checks"][0]["params"]["note"]
