"""Tree sums against their single-point definitions, and the recursions
against the tree sums.

``TreeTensors`` evaluates each tree once as a multilinear map; the oracles
here evaluate every tree at every basis tuple with ``alt_tree_eval`` and
``mixed_tree_cumulant``, the way the tree sums were first written.  The
production ``boxconv`` and moment-cumulant conversions compute degree by
degree instead, and must equal the tree sums (``boxconv_by_trees``,
``moments_by_trees``, ``cumulants_by_trees``) exactly.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.algebra import AlgebraElement, random_element_from
from freeconv.freeprob import (CumulantSpec, MomentSpec, _mixed,
                               cumulants_by_trees, cumulants_from_moments,
                               mixed_tree_cumulant, moments_by_trees,
                               moments_from_cumulants, product_moments_oracle)
from freeconv.multiseries import (MultiMap, TreeTensors, TruncSeries, absorb,
                                  absorbed, alt_tree_eval,
                                  cumulants_by_recursion,
                                  moments_by_recursion, random_series)
from freeconv.transforms import (BOX_VARIANTS, _PATTERNS, _doubled_forest,
                                 boxconv, boxconv_by_trees)
from freeconv.trees import comb_decompose, enumerate_trees, right_comb, size

_SHAPES = [(d, order) for d in (1, 2, 3) for order in range(1, 5)
           if d < 3 or order <= 3]


# -- the per-key oracles --------------------------------------------------------


def _basis(d):
    return [AlgebraElement.basis(d, i) for i in range(d * d)]


def _boxconv_by_keys(variant, f, g):
    """boxconv with each tree evaluated at each basis tuple."""
    d, N = f.d, f.N
    one = AlgebraElement.unit(d)
    basis = _basis(d)
    order = N - 1 if variant == "redred" else N
    if variant == "red":
        out = [MultiMap.zero(d, 0)]
    elif variant == "redred":
        out = [MultiMap.constant(g[1](one))]
    else:
        out = [g[0]]
    for n in range(1, order + 1):
        if variant in ("box", "line"):
            forest = _doubled_forest(n, planted=False)
        elif variant == "red":
            forest = _doubled_forest(n - 1, planted=True)
        else:
            forest = _doubled_forest(n, planted=True)
        tensor = {}
        for key in product(range(d * d), repeat=n):
            xs = [basis[i] for i in key]
            if variant == "box":
                args = tuple(y for x in xs for y in (x, one))
            elif variant == "line":
                args = tuple(y for x in xs for y in (one, x))
            elif variant == "red":
                args = tuple(y for x in xs for y in (x, one))[:-1]
            else:
                args = (one,) + tuple(y for x in xs for y in (x, one))
            total = AlgebraElement.zero(d)
            for t in forest:
                if variant == "red":
                    total = total + alt_tree_eval(g, f, t, args)
                else:
                    total = total + alt_tree_eval(f, g, t, args)
            tensor[key] = total
        out.append(MultiMap(d, n, tensor))
    return TruncSeries(d, order, out)


def _moments_by_keys(k):
    ser = k.series
    d, N = ser.d, ser.N
    basis = _basis(d)
    maps = [MultiMap.zero(d, 0)]
    for n in range(1, N + 1):
        tensor = {}
        for key in product(range(d * d), repeat=n):
            args = tuple(basis[i] for i in key)
            total = AlgebraElement.zero(d)
            for t in enumerate_trees(n):
                total = total + alt_tree_eval(ser, ser, t, args)
            tensor[key] = total
        maps.append(MultiMap(d, n, tensor))
    return MomentSpec(TruncSeries(d, N, maps))


def _cumulants_by_keys(m):
    ser = m.series
    d, N = ser.d, ser.N
    kmaps = [MultiMap.zero(d, 0)]
    if N >= 1:
        kmaps.append(ser[1])
    basis = _basis(d)
    for n in range(2, N + 1):
        partial = TruncSeries(d, n - 1, kmaps)
        others = [t for t in enumerate_trees(n) if t != right_comb(n)]
        tensor = {}
        for key in product(range(d * d), repeat=n):
            args = tuple(basis[i] for i in key)
            val = ser[n](*args)
            for t in others:
                val = val - alt_tree_eval(partial, partial, t, args)
            tensor[key] = val
        kmaps = kmaps + [MultiMap(d, n, tensor)]
    return CumulantSpec(TruncSeries(d, N, kmaps))


def _product_moments_by_keys(ka, kb, order=None):
    d = ka.d
    N = ka.N if order is None else order
    one = AlgebraElement.unit(d)
    basis = _basis(d)
    maps = [MultiMap.zero(d, 0)]
    for n in range(1, N + 1):
        tensor = {}
        for key in product(range(d * d), repeat=n):
            letters = []
            for i in key:
                letters += [(basis[i], "a"), (one, "b")]
            total = AlgebraElement.zero(d)
            for t in enumerate_trees(2 * n):
                total = total + mixed_tree_cumulant(t, letters, ka, kb)
            tensor[key] = total
        maps.append(MultiMap(d, n, tensor))
    return MomentSpec(TruncSeries(d, N, maps))


# -- one tree's tensor at random arguments ---------------------------------------


def _pattern_args(rng, d, width, x_at):
    """(xs, args): random x's and the arguments they fill, x or the unit."""
    one = AlgebraElement.unit(d)
    xs, args = [], []
    for i in range(width):
        if x_at[i & 1]:
            xs.append(random_element_from(rng, 3, d))
            args.append(xs[-1])
        else:
            args.append(one)
    return xs, tuple(args)


def _longest_spine(t):
    parts = comb_decompose(t)
    return max([len(parts)] + [_longest_spine(s) for s in parts if s])


def _some_trees(rng, order, largest, budget=4):
    """A few trees of sizes 1..largest whose spines all fit the order."""
    trees = [t for n in range(1, largest + 1) for t in enumerate_trees(n)
             if _longest_spine(t) <= order]
    return rng.sample(trees, min(budget, len(trees)))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["gi", "mult", "ginv"]),
       shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 16),
       variant=st.sampled_from(BOX_VARIANTS + ("moments",)))
def test_tree_tensors_match_alt_tree_eval(kind, shape, seed, variant):
    d, order = shape
    rng = random.Random(seed)
    f = random_series(rng, d, order, kind)
    g = random_series(rng, d, order, kind)
    if variant == "moments":
        sums, role, x_at = TreeTensors(d, (f.maps,), (True, True)), 0, (True, True)
        outer, inner = f, f
    else:
        x_at, role = _PATTERNS[variant]
        sums = TreeTensors(d, (f.maps, g.maps), x_at)
        outer, inner = (g, f) if role == 1 else (f, g)
    # at most `order` x's, as in the tree sums
    largest = order if x_at == (True, True) else 2 * order
    for t in _some_trees(rng, order, largest):
        xs, args = _pattern_args(rng, d, size(t), x_at)
        got = sums.tree_sum([t], len(xs), role)(*xs)
        assert got == alt_tree_eval(inner, outer, t, args)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gi", "mult", "ginv"]),
       shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 16))
def test_tree_tensors_match_the_mixed_cumulant(kind, shape, seed):
    # _mixed is mixed_tree_cumulant without the CumulantSpec shape check,
    # so the non-gi kinds can be tried as well
    d, order = shape
    rng = random.Random(seed)
    ka = random_series(rng, d, order, kind)
    kb = random_series(rng, d, order, kind)
    sums = TreeTensors(d, (ka.maps, kb.maps), (True, False), freeness=True)
    for t in _some_trees(rng, order, 2 * order):
        xs, args = _pattern_args(rng, d, size(t), (True, False))
        letters = tuple((a, "ab"[i & 1]) for i, a in enumerate(args))
        got = sums.tree_sum([t], len(xs))(*xs)
        assert got == _mixed(t, letters, ka, kb)
        if kind == "gi":
            assert got == mixed_tree_cumulant(t, letters, CumulantSpec(ka),
                                              CumulantSpec(kb))


def test_tree_tensors_reject_a_spine_longer_than_the_series():
    f = random_series(random.Random(1), 2, 2, "gi")
    sums = TreeTensors(2, (f.maps,), (True, True))
    with pytest.raises(ValueError, match="degree-3"):
        sums.tree_sum([right_comb(3)], 3)
    with pytest.raises(ValueError, match="degree-3"):
        alt_tree_eval(f, f, right_comb(3), (AlgebraElement.unit(2),) * 3)


# -- the recursions against the tree sums ----------------------------------------


_KINDS = ("gi", "mult", "ginv", "gdif", "zero")


def _series(rng, d, order, kind):
    if kind == "zero":
        return TruncSeries.zero(d, order)
    return random_series(rng, d, order, kind, bound=2)


@settings(max_examples=60, deadline=None)
@given(kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
       shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 16))
def test_boxconv_equals_its_tree_sum(kinds, shape, seed):
    d, order = shape
    rng = random.Random(seed)
    f, g = (_series(rng, d, order, kind) for kind in kinds)
    for variant in BOX_VARIANTS:
        assert boxconv(variant, f, g) == boxconv_by_trees(variant, f, g)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(_SHAPES), seed=st.integers(0, 2 ** 16))
def test_conversions_equal_their_tree_sums(shape, seed):
    # cumulant and moment series have the shape I.K, and the recursions run
    # on the stripped K and M alone
    d, order = shape
    spec = CumulantSpec(_series(random.Random(seed), d, order, "gi"))
    m, k = moments_by_trees(spec), cumulants_by_trees(spec)
    K = absorbed(spec.series, 0)
    assert absorb(moments_by_recursion(K), 0) == m.series
    assert absorb(cumulants_by_recursion(K), 0) == k.series
    assert moments_from_cumulants(spec) == m
    assert cumulants_from_moments(spec) == k


# -- whole functions against the per-key oracles ---------------------------------


@pytest.mark.parametrize("d,order", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("kind", ["gi", "mult"])
def test_boxconv_matches_the_per_key_sum(d, order, kind):
    rng = random.Random(f"box-{d}-{order}-{kind}")
    f = random_series(rng, d, order, kind, bound=2)
    g = random_series(rng, d, order, kind, bound=2)
    for variant in BOX_VARIANTS:
        expected = _boxconv_by_keys(variant, f, g)
        assert boxconv(variant, f, g) == expected
        assert boxconv_by_trees(variant, f, g) == expected


@pytest.mark.parametrize("d,order", [(2, 4), (3, 3)])
def test_boxconv_of_mixed_pairs_equals_its_tree_sum(d, order):
    # one series I.F and one not: box and line take the stripped pass when
    # g absorbs, red and redred when f does, and the composition otherwise
    rng = random.Random(f"mixed-{d}-{order}")
    gi = random_series(rng, d, order, "gi", bound=2)
    mult = random_series(rng, d, order, "mult", bound=2)
    for f, g in ((gi, mult), (mult, gi)):
        for variant in BOX_VARIANTS:
            assert boxconv(variant, f, g) == boxconv_by_trees(variant, f, g)


@pytest.mark.parametrize("d,order", [(1, 6), (2, 3), (3, 2)])
def test_conversions_match_the_per_key_sums(d, order):
    rng = random.Random(f"conv-{d}-{order}")
    k = CumulantSpec(random_series(rng, d, order, "gi", bound=2))
    m = CumulantSpec(random_series(rng, d, order, "gi", bound=2))
    moments, cumulants = _moments_by_keys(k), _cumulants_by_keys(m)
    assert moments_from_cumulants(k) == moments == moments_by_trees(k)
    assert cumulants_from_moments(m) == cumulants == cumulants_by_trees(m)


@pytest.mark.parametrize("d,order", [(1, 4), (2, 2), (3, 2)])
def test_product_moments_oracle_matches_the_per_key_sum(d, order):
    rng = random.Random(f"prod-{d}-{order}")
    ka = CumulantSpec(random_series(rng, d, order, "gi", bound=2))
    kb = CumulantSpec(random_series(rng, d, order, "gi", bound=2))
    assert product_moments_oracle(ka, kb) == _product_moments_by_keys(ka, kb)
    assert product_moments_oracle(ka, kb, 1) == \
        _product_moments_by_keys(ka, kb, 1)
