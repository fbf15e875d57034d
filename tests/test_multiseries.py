"""Truncated multilinear function series: product, composition, inverses."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.algebra import (AlgebraElement, NotInvertibleError, mat_inverse,
                              random_element_from)
from freeconv.multiseries import (MultiMap, TreeTensors, TruncSeries,
                                  absorb, absorbed, alt_tree_eval,
                                  apply_to_word, comp_inverse, compose_at,
                                  first_difference, is_gdif, is_gi, is_ginv,
                                  mul_at, mult_inverse, operad_eval,
                                  operad_evaluator, random_multimap,
                                  random_series, tree_eval, word_action,
                                  word_of_tree)
from freeconv.freeprob import CumulantSpec, moments_by_trees
from freeconv.trees import enumerate_trees, right_comb, rmap, size as tree_size

D, N = 2, 3
LEAF = ()
SINGLE = ((), ())


def _x(seed):
    return random_element_from(random.Random(seed), 4, D)


def test_multimap_identity_and_linearity():
    ident = MultiMap.identity(D)
    a, b = _x(1), _x(2)
    assert ident(a) == a
    m = MultiMap.from_function(D, 2, lambda x, y: x * y)
    assert m(a + b, a) == m(a, a) + m(b, a)
    assert m(a, b) == a * b


def test_multimap_add_scale_zero():
    m = MultiMap.from_function(D, 1, lambda x: x * _x(3))
    z = MultiMap.zero(D, 1)
    assert (m + z) == m
    assert m.scale(0).is_zero()
    assert (m + m) == m.scale(2)
    with pytest.raises(TypeError):
        m.scale(0.5)


def test_the_constructor_checks_keys_and_dimensions():
    x = _x(1)
    with pytest.raises(ValueError, match="bad index"):
        MultiMap(D, 2, {(0,): x})
    for i in (-1, D * D):
        with pytest.raises(ValueError, match="bad index"):
            MultiMap(D, 1, {(i,): x})
    with pytest.raises(ValueError, match="dimension"):
        MultiMap(D, 1, {(0,): AlgebraElement.unit(D + 1)})
    zero = MultiMap(D, 1, {(0,): AlgebraElement.zero(D)})
    assert zero == MultiMap.zero(D, 1) and zero.is_zero()


def test_the_tensor_view_is_read_only():
    m = MultiMap.identity(D)
    with pytest.raises(TypeError):
        m.tensor[(0,)] = _x(1)
    assert m.tensor[(0,)] == AlgebraElement.basis(D, 0)


def test_unit_slots_evaluate_at_the_unit():
    m = MultiMap.from_function(D, 3, lambda x, y, z: x * _x(4) * y + z * x)
    one = AlgebraElement.unit(D)
    a, b = _x(5), _x(6)
    assert m.unit_in_slot(0)(a, b) == m(one, a, b)
    assert m.unit_in_slot(1)(a, b) == m(a, b, one)
    for side in (0, 1):
        with pytest.raises(ValueError):
            MultiMap.zero(D, 0).unit_in_slot(side)


def test_transpose_map():
    a = _x(7)
    t = MultiMap.transpose(D)
    assert t(a).rows == tuple(zip(*a.rows))
    assert t(t(a)) == a


def test_first_difference_names_the_first_differing_entry():
    f, g = _x(8), _x(9)
    s1 = TruncSeries.constant(f, 2)
    assert first_difference(s1, s1) is None
    diff = first_difference(s1, TruncSeries.constant(g, 2))
    assert diff == {"degree": 0, "entry": [], "lhs": f.to_json(),
                    "rhs": g.to_json()}
    assert first_difference(s1, s1.truncate(1))["degree"] == 2
    # one entry of the top degree differs, past the first key
    h = random_series(random.Random(5), D, 2, "mult")
    key = sorted(h[2].tensor)[1]
    changed = h[2].tensor[key] + _x(6)
    assert first_difference(h, _with_entry(h, 2, key, changed)) == {
        "degree": 2, "entry": list(key), "lhs": h[2].tensor[key].to_json(),
        "rhs": changed.to_json()}


def test_constant_map_takes_no_arguments():
    c = MultiMap.constant(_x(4))
    assert c() == _x(4)
    assert c.n == 0


def test_series_indexing_stops_at_the_order():
    f = TruncSeries.identity(D, N)
    assert f[1](_x(5)) == _x(5)
    with pytest.raises(IndexError):
        f[N + 1]


def test_truncate_only_shrinks():
    f = random_series(random.Random(0), D, N, "mult")
    g = f.truncate(2)
    assert g.N == 2 and g[2] == f[2]
    with pytest.raises(ValueError):
        f.truncate(N + 2)


def test_a_series_order_is_never_negative():
    with pytest.raises(ValueError, match="order N >= 0, not -1"):
        TruncSeries(D, -1, [])
    f = random_series(random.Random(0), D, N, "mult")
    with pytest.raises(ValueError, match="order N >= 0, not -1"):
        f.truncate(-1)
    assert f.truncate(0) == TruncSeries(D, 0, [f[0]])


def test_json_round_trip():
    f = random_series(random.Random(1), D, N, "ginv")
    assert TruncSeries.from_json(f.to_json()) == f


def test_from_json_rejects_shuffled_degrees():
    obj = random_series(random.Random(2), D, 2, "mult").to_json()
    obj["maps"][0]["n"] = 1
    with pytest.raises(ValueError):
        TruncSeries.from_json(obj)


def test_random_series_land_in_their_classes():
    rng = random.Random(3)
    assert is_gi(random_series(rng, D, N, "gi"))
    assert is_ginv(random_series(rng, D, N, "ginv"))
    assert is_gdif(random_series(rng, D, N, "gdif"))
    f = random_series(rng, D, N, "mult")
    assert f[0].is_zero()


def _absorbed_by_definition(f, side):
    """F with f = I.F (side 0) or f = F.I (side 1), or None, straight from
    the definition: f_0 = 0 and, at every basis tuple, f_n(E_k, rest) ==
    E_k f_n(1, rest) or f_n(rest, E_k) == f_n(rest, 1) E_k, where the unit
    slot sums f_n's entries at the diagonal units E_pp, all in Fraction
    arithmetic; then F_{n-1}(rest) = f_n(1, rest) or f_n(rest, 1)."""
    if not f[0].is_zero() or f.N < 1:
        return None
    d, zero = f.d, AlgebraElement.zero(f.d)

    def placed(k, rest):
        return rest + (k,) if side else (k,) + rest

    maps = []
    for n in range(1, f.N + 1):
        entries = f[n].tensor
        F = {rest: sum((entries.get(placed(p * d + p, rest), zero)
                        for p in range(d)), zero)
             for rest in product(range(d * d), repeat=n - 1)}
        for key in product(range(d * d), repeat=n):
            k, rest = (key[-1], key[:-1]) if side else (key[0], key[1:])
            unit = AlgebraElement.basis(d, k)
            if entries.get(key, zero) != (F[rest] * unit if side
                                          else unit * F[rest]):
                return None
        maps.append(MultiMap(d, n - 1, F))
    return TruncSeries(d, f.N - 1, maps)


def _is_gi_by_definition(f):
    """G^I straight from the definition: f = I.F by _absorbed_by_definition
    and F_0 = f_1(1) invertible."""
    F = _absorbed_by_definition(f, 0)
    if F is None:
        return False
    try:
        mat_inverse(F[0].tensor.get((), AlgebraElement.zero(f.d)))
    except NotInvertibleError:
        return False
    return True


def _with_entry(f, n, key, value):
    """f with the degree-n entry at key set to value (None deletes it)."""
    tensor = dict(f[n].tensor)
    if value is None:
        del tensor[key]
    else:
        tensor[key] = value
    maps = list(f.maps)
    maps[n] = MultiMap(f.d, n, tensor)
    return TruncSeries(f.d, f.N, maps)


def _perturbed(f, change, rng):
    """f with one entry of one degree dropped, replaced or added, if it can be."""
    n = rng.randint(0, f.N)
    present = sorted(f[n].tensor)
    if change == "add":
        absent = [k for k in product(range(f.d * f.d), repeat=n)
                  if k not in f[n].tensor]
        if not absent:
            return f
        return _with_entry(f, n, rng.choice(absent), random_element_from(rng, 3, f.d))
    if not present:
        return f
    key = rng.choice(present)
    if change == "drop":
        return _with_entry(f, n, key, None)
    return _with_entry(f, n, key, random_element_from(rng, 3, f.d))


_GI_SHAPES = [(d, order) for d in (1, 2, 3) for order in range(1, 5)
              if d < 3 or order <= 3]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["gi", "ginv", "gdif", "mult"]),
       shape=st.sampled_from(_GI_SHAPES),
       seed=st.integers(0, 2 ** 16),
       change=st.sampled_from([None, "drop", "replace", "add"]))
def test_is_gi_agrees_with_the_definition(kind, shape, seed, change):
    d, order = shape
    rng = random.Random(seed)
    f = random_series(rng, d, order, kind)
    if change is not None:
        f = _perturbed(f, change, rng)
    assert is_gi(f) == _is_gi_by_definition(f)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["I.F", "F.I", "ginv", "gdif", "mult"]),
       shape=st.sampled_from(_GI_SHAPES), side=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 16),
       change=st.sampled_from([None, "drop", "replace", "add"]))
def test_absorbed_agrees_with_the_definition_on_record_free_series(
        kind, shape, side, seed, change):
    # a series absorb did not build is read off its tables on either side,
    # whether it has the shape, lost it to one entry or never had it
    d, order = shape
    rng = random.Random(seed)
    if kind in ("I.F", "F.I"):
        F = random_series(rng, d, order - 1, rng.choice(["ginv", "mult"]))
        f = absorb(F, kind == "F.I")
    else:
        f = random_series(rng, d, order, kind)
    f = TruncSeries(d, order, f.maps)  # without absorb's record
    if change is not None:
        f = _perturbed(f, change, rng)
    assert absorbed(f, side) == _absorbed_by_definition(f, side)


def _gi_pair():
    """A d=2 gi series and a (q, rest) group of its degree-2 entries."""
    f = random_series(random.Random(40), 2, 3, "gi")
    q, rest = 1, (2,)
    assert all((p * 2 + q,) + rest in f[2].tensor for p in range(2))
    return f, q, rest


def test_is_gi_rejects_an_entry_outside_row_p():
    f, q, rest = _gi_pair()
    key = (0 * 2 + q,) + rest
    rows = [list(r) for r in f[2].tensor[key].rows]
    rows[1][0] += 1
    g = _with_entry(f, 2, key, AlgebraElement.from_rows(rows))
    assert is_gi(f) and _is_gi_by_definition(f)
    assert not is_gi(g) and not _is_gi_by_definition(g)


def test_is_gi_rejects_rows_that_differ_within_a_group():
    f, q, rest = _gi_pair()
    key = (0 * 2 + q,) + rest
    rows = [list(r) for r in f[2].tensor[key].rows]
    rows[0][1] += 1
    g = _with_entry(f, 2, key, AlgebraElement.from_rows(rows))
    assert g[2].tensor[key].rows[0] != g[2].tensor[(1 * 2 + q,) + rest].rows[1]
    assert not is_gi(g) and not _is_gi_by_definition(g)


def test_is_gi_rejects_a_group_with_one_entry_missing():
    f, q, rest = _gi_pair()
    g = _with_entry(f, 2, (1 * 2 + q,) + rest, None)
    assert not is_gi(g) and not _is_gi_by_definition(g)


def test_is_gi_rejects_a_singular_linear_term_of_the_right_shape():
    rng = random.Random(41)
    singular = AlgebraElement.from_rows([[1, 2], [2, 4]])
    h = random_series(rng, 2, 2, "mult")
    h = TruncSeries(2, 2, [MultiMap.constant(singular)] + list(h.maps[1:]))
    f = mul_at(TruncSeries.identity(2, 3), h, 3)
    assert f[1].unit_in_slot(0)() == singular
    assert not is_gi(f) and not _is_gi_by_definition(f)


def test_is_gi_at_order_zero_and_dimension_one():
    for d in (1, 2):
        zero = TruncSeries.zero(d, 0)
        assert not is_gi(zero) and not _is_gi_by_definition(zero)
    rng = random.Random(42)
    f = random_series(rng, 1, 4, "gi")
    assert is_gi(f) and _is_gi_by_definition(f)
    # at d = 1 every map factors through its first argument; only f_1(1)
    # can fail
    m = random_series(rng, 1, 4, "mult")
    assert is_gi(m) == _is_gi_by_definition(m) == (not m[1].is_zero())
    flat = _with_entry(m, 1, (0,), None) if m[1].tensor else m
    assert not is_gi(flat) and not _is_gi_by_definition(flat)


def test_classes_are_what_they_say():
    ident = TruncSeries.identity(D, N)
    assert is_gdif(ident) and is_gi(ident) and not is_ginv(ident)
    one = TruncSeries.constant(AlgebraElement.unit(D), N)
    assert is_ginv(one) and not is_gdif(one)


def test_mul_monoid_laws():
    rng = random.Random(4)
    f, g, h = (random_series(rng, D, N, "ginv") for _ in range(3))
    one = TruncSeries.constant(AlgebraElement.unit(D), N)
    assert mul_at(one, f, N) == f
    assert mul_at(f, one, N) == f
    assert mul_at(mul_at(f, g, N), h, N) == mul_at(f, mul_at(g, h, N), N)


def test_mult_inverse_is_two_sided():
    f = random_series(random.Random(5), D, N, "ginv")
    one = TruncSeries.constant(AlgebraElement.unit(D), N)
    inv = mult_inverse(f)
    assert mul_at(f, inv, N) == one
    assert mul_at(inv, f, N) == one


def test_mult_inverse_needs_invertible_constant():
    f = random_series(random.Random(6), D, N, "mult")  # zero constant term
    with pytest.raises(ValueError, match="constant term is not invertible"):
        mult_inverse(f)


def test_comp_inverse_needs_a_bijective_linear_term():
    singular = AlgebraElement.from_rows([[1, 2], [2, 4]])
    f = TruncSeries(D, N, [MultiMap.zero(D, 0),
                           MultiMap.from_function(D, 1, lambda x: x * singular)]
                    + [MultiMap.zero(D, n) for n in range(2, N + 1)])
    assert not is_gdif(f)
    with pytest.raises(ValueError, match="not compositionally invertible"):
        comp_inverse(f)
    with pytest.raises(ValueError, match="not compositionally invertible"):
        comp_inverse(random_series(random.Random(43), D, N, "ginv"))


def test_compose_monoid_laws():
    rng = random.Random(7)
    f = random_series(rng, D, N, "ginv")
    g, h = (random_series(rng, D, N, "gdif") for _ in range(2))
    ident = TruncSeries.identity(D, N)
    assert compose_at(f, ident, N) == f
    assert compose_at(ident, g, N) == g
    lhs = compose_at(compose_at(f, g, N), h, N)
    assert lhs == compose_at(f, compose_at(g, h, N), N)


def test_compose_requires_zero_constant_inner():
    f = TruncSeries.identity(D, N)
    g = random_series(random.Random(8), D, N, "ginv")
    with pytest.raises(ValueError):
        compose_at(f, g, N)


def test_comp_inverse_is_two_sided():
    f = random_series(random.Random(9), D, N, "gdif")
    ident = TruncSeries.identity(D, N)
    inv = comp_inverse(f)
    assert compose_at(f, inv, N) == ident
    assert compose_at(inv, f, N) == ident


def test_comp_inverse_preserves_the_absorbing_class():
    f = random_series(random.Random(10), D, N, "gi")
    assert is_gi(comp_inverse(f))
    assert is_gi(compose_at(f, random_series(random.Random(11), D, N, "gi"), N))


def test_right_distributivity():
    rng = random.Random(12)
    f, g = (random_series(rng, D, N, "ginv") for _ in range(2))
    h = random_series(rng, D, N, "gdif")
    lhs = compose_at(f + g, h, N)
    assert lhs == compose_at(f, h, N) + compose_at(g, h, N)


def test_left_distributivity_fails():
    """Composition is linear only on the left: h o (f+g) mixes arguments of
    f and g inside one multilinear slot, so a degree-2 h tells them apart."""
    sq = TruncSeries(D, 2, [MultiMap.zero(D, 0), MultiMap.zero(D, 1),
                            MultiMap.from_function(D, 2, lambda x, y: x * y)])
    f = TruncSeries.identity(D, 2)
    lhs = compose_at(sq, f + f, 2)
    rhs = compose_at(sq, f, 2) + compose_at(sq, f, 2)
    assert lhs != rhs


# -- tree evaluation ------------------------------------------------------------


def test_tree_eval_low_order_formulas():
    f = random_series(random.Random(14), D, N, "ginv")
    x1, x2 = _x(15), _x(16)
    assert tree_eval(f, SINGLE, (x1,)) == f[1](x1)
    assert tree_eval(f, right_comb(2), (x1, x2)) == f[2](x1, x2)
    planted = (SINGLE, LEAF)
    assert tree_eval(f, planted, (x1, x2)) == f[1](f[1](x1) * x2)


def test_alt_tree_eval_puts_the_second_series_outside():
    f = random_series(random.Random(17), D, N, "ginv")
    g = random_series(random.Random(18), D, N, "ginv")
    x1, x2 = _x(19), _x(20)
    assert alt_tree_eval(f, g, SINGLE, (x1,)) == g[1](x1)
    planted = (SINGLE, LEAF)
    assert alt_tree_eval(f, g, planted, (x1, x2)) == g[1](f[1](x1) * x2)
    assert alt_tree_eval(f, f, planted, (x1, x2)) == \
        tree_eval(f, planted, (x1, x2))


def test_tree_eval_arity_mismatch():
    f = random_series(random.Random(21), D, N, "ginv")
    with pytest.raises(ValueError):
        tree_eval(f, SINGLE, (_x(1), _x(2)))


def test_moment_formula_at_degree_two():
    """Summing the two trees of size 2 gives m2 = f2(x1,x2) + f1(f1(x1)x2)."""
    f = random_series(random.Random(22), D, N, "gi")
    x1, x2 = _x(23), _x(24)
    total = sum((tree_eval(f, t, (x1, x2)) for t in enumerate_trees(2)),
                AlgebraElement.zero(D))
    assert total == f[2](x1, x2) + f[1](f[1](x1) * x2)


# -- the word picture -----------------------------------------------------------


def test_operad_eval_matches_tree_eval():
    f = random_series(random.Random(25), D, 4, "gi")
    rng = random.Random(26)
    for n in range(1, 5):
        for t in enumerate_trees(n):
            args = tuple(random_element_from(rng, 3, D) for _ in range(n))
            assert operad_eval(f, t, args) == tree_eval(f, t, args)


def test_operad_eval_rejects_non_absorbing_series():
    f = random_series(random.Random(27), D, N, "ginv")
    with pytest.raises(ValueError):
        operad_eval(f, SINGLE, (_x(28),))


def test_operad_evaluator_checks_every_degree_when_built():
    # G^I through degree 1, broken at degree 2: the evaluator is refused
    # before it is given a tree
    rng = random.Random(32)
    f = random_series(rng, D, N, "gi")
    maps = list(f.maps)
    maps[2] = random_multimap(rng, D, 2)
    g = TruncSeries(D, N, maps)
    assert is_gi(g.truncate(1)) and not is_gi(g)
    with pytest.raises(ValueError, match="I.Mult"):
        operad_evaluator(g)


def test_operad_evaluator_checks_the_argument_count():
    f = random_series(random.Random(33), D, N, "gi")
    evaluate = operad_evaluator(f)
    x = _x(34)
    assert evaluate(SINGLE, (x,)) == operad_eval(f, SINGLE, (x,)) == f[1](x)
    for args in ((), (x, x)):
        with pytest.raises(ValueError, match="argument count"):
            evaluate(SINGLE, args)


def test_word_of_tree_on_the_single_vertex():
    f = random_series(random.Random(29), D, N, "gi")
    x = _x(30)
    assert word_of_tree(f, SINGLE, (x,)) == (x,)
    assert apply_to_word(f, (x,)) == f[1](x)


def test_apply_to_word_respects_the_order():
    f = random_series(random.Random(31), D, N, "gi")
    with pytest.raises(ValueError):
        apply_to_word(f, tuple(_x(i) for i in range(N + 1)))


def test_word_action_mixed_associativity():
    f = random_series(random.Random(32), D, N, "gi")
    rng = random.Random(33)
    u, v, w = (tuple(random_element_from(rng, 3, D)
                     for _ in range(rng.randint(1, N)))
               for _ in range(3))
    assert word_action(f, word_action(f, u, v), w) == \
        word_action(f, u, word_action(f, v, w))
    assert word_action(f, u, v) + w == word_action(f, u, v + w)


def test_word_action_needs_a_nonempty_right_word():
    f = random_series(random.Random(34), D, N, "gi")
    with pytest.raises(ValueError):
        word_action(f, (_x(35),), ())


def test_alt_tree_eval_rejects_a_memo():
    # a memo shared across calls was once keyed on object ids, which a freed
    # series hands on to a new one; alt_tree_eval takes none, and the tree
    # sums' memo is keyed on (subtree, parity, series index) alone
    f, g = (random_series(random.Random(s), D, N, "gi", bound=2) for s in (0, 1))
    t, args = right_comb(2), (_x(1), _x(2))
    with pytest.raises(TypeError):
        alt_tree_eval(f, g, t, args, memo={})
    with pytest.raises(TypeError):
        alt_tree_eval(f, g, t, args, {})
    sums = TreeTensors(D, (f.maps, g.maps), (True, False))
    sums.tree_sum((rmap(t) for t in enumerate_trees(N)), N)
    assert sums._slots
    for s, parity, role in sums._slots:
        assert s in enumerate_trees(tree_size(s)) and s != ()
        assert parity in (0, 1) and role in (0, 1)


def test_tree_sums_of_fresh_series_use_their_own_values():
    # each call of a tree-sum oracle builds its own tree tensors; a memo
    # keyed on object ids and shared between calls would hand a freed
    # series' values on
    one = AlgebraElement.unit(1)
    for seed in range(200):
        f = random_series(random.Random(seed), 1, 3, "gi", bound=3)
        moments = moments_by_trees(CumulantSpec(f)).series
        for n in range(1, 4):
            args = (one,) * n
            expected = sum((alt_tree_eval(f, f, t, args)
                            for t in enumerate_trees(n)),
                           AlgebraElement.zero(1))
            assert moments[n](*args) == expected
