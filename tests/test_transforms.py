"""Boxed convolutions and the S/U/S' transforms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.algebra import AlgebraElement, random_element_from
from freeconv.multiseries import (MultiMap, TruncSeries, absorb, absorbed,
                                  comp_inverse, compose_at, is_gdif, is_gi,
                                  is_ginv, mul_at, mult_inverse,
                                  random_multimap, random_series,
                                  revert_absorbed)
from freeconv.transforms import (BOX_VARIANTS, boxconv, s_prime, s_transform,
                                 strip_identity, u_transform,
                                 verify_transform_identities)
import freeconv.transforms as transforms

D, N = 2, 3


def _pair(seed, kind="mult"):
    rng = random.Random(seed)
    return (random_series(rng, D, N, kind, bound=2),
            random_series(rng, D, N, kind, bound=2))


def _args(seed, count):
    rng = random.Random(seed)
    return tuple(random_element_from(rng, 3, D) for _ in range(count))


def test_box_low_order_formulas():
    f, g = _pair(0)
    one = AlgebraElement.unit(D)
    out = boxconv("box", f, g)
    x1, x2 = _args(1, 2)
    assert out[0]() == g[0]()
    assert out[1](x1) == g[1](f[1](x1))
    assert out[2](x1, x2) == (g[1](f[2](x1, g[1](one) * x2))
                              + g[2](f[1](x1), f[1](x2)))


def test_line_low_order_formulas():
    f, g = _pair(2)
    one = AlgebraElement.unit(D)
    out = boxconv("line", f, g)
    x1, x2 = _args(3, 2)
    assert out[0]() == g[0]()
    assert out[1](x1) == g[1](f[1](one) * x1)
    assert out[2](x1, x2) == (g[1](f[2](one, g[1](x1)) * x2)
                              + g[2](f[1](one) * x1, f[1](one) * x2))


def test_red_low_order_formulas():
    f, g = _pair(4)
    one = AlgebraElement.unit(D)
    out = boxconv("red", f, g)
    x1, x2 = _args(5, 2)
    assert out[0]().is_zero()
    assert out[1](x1) == f[1](x1)
    assert out[2](x1, x2) == f[2](x1, g[1](one) * x2)


def test_redred_low_order_formulas():
    f, g = _pair(6)
    one = AlgebraElement.unit(D)
    out = boxconv("redred", f, g)
    x1, x2 = _args(7, 2)
    assert out.N == N - 1
    assert out[0]() == g[1](one)
    assert out[1](x1) == g[2](one, f[1](x1))
    assert out[2](x1, x2) == (g[2](one, f[2](x1, g[1](one) * x2))
                              + g[3](one, f[1](x1), f[1](x2)))


def test_boxconv_input_validation():
    f, g = _pair(8)
    with pytest.raises(ValueError):
        boxconv("boxed", f, g)
    h = random_series(random.Random(9), D, N + 1, "mult")
    with pytest.raises(ValueError):
        boxconv("box", f, h)
    assert set(BOX_VARIANTS) == {"box", "line", "red", "redred"}


def test_class_closure_on_absorbing_inputs():
    rng = random.Random(10)
    f = random_series(rng, D, N, "gi")
    g = random_series(rng, D, N, "gi")
    assert is_gi(boxconv("box", f, g))
    assert is_gi(boxconv("red", f, g))
    assert is_ginv(boxconv("redred", f, g))
    assert is_gdif(boxconv("line", f, g))


def test_s_transform_of_the_identity_is_one():
    ident = TruncSeries.identity(D, N)
    one = TruncSeries.constant(AlgebraElement.unit(D), N - 1)
    assert s_transform(ident) == one
    assert s_prime(ident) == one
    assert u_transform(ident) == ident


def test_s_transform_defining_property():
    # f^{o-1} = I.S, with S one order shorter
    f = random_series(random.Random(11), D, N, "gi")
    s = s_transform(f)
    assert s.N == N - 1
    ident = TruncSeries.identity(D, N)
    assert mul_at(ident, s, N) == comp_inverse(f)


def test_s_transform_paths_agree():
    # the reversion route and the fixed point S = (F o (I.S))^{-1}; the
    # fixed point solved degree by degree is test_series_kernel's oracle
    f = random_series(random.Random(12), D, N, "gi")
    s = s_transform(f)
    inner = mul_at(TruncSeries.identity(D, N - 1), s, N - 1)
    assert strip_identity(comp_inverse(f)) == s
    assert mult_inverse(compose_at(strip_identity(f), inner, N - 1)) == s


def test_transforms_reject_non_absorbing_series():
    f = random_series(random.Random(13), D, N, "ginv")
    for op in (s_transform, u_transform, s_prime):
        with pytest.raises(ValueError):
            op(f)


def test_transforms_need_an_invertible_stripped_constant():
    # f = I.F with F_0 = 0 has the shape, but F is not in G^inv
    f = absorb(random_series(random.Random(21), D, N - 1, "mult"), 0)
    for op in (s_transform, u_transform, s_prime):
        with pytest.raises(ValueError, match="I.F shape"):
            op(f)


def test_u_transform_is_the_conjugated_identity():
    f = random_series(random.Random(14), D, N, "gi")
    s = s_transform(f)
    u = u_transform(f)
    expected = mul_at(mul_at(mult_inverse(s), TruncSeries.identity(D, N - 1),
                             N - 1), s, N - 1)
    assert u.truncate(N - 1) == expected
    assert is_gdif(u)


def _u_three_ways(f, rev):
    """U's three expressions, built as criterion 5 builds them, with mul_at
    and the identity series: S^{-1}.I.S, (F.I) o (I.S) and (F.I) o rev, for
    S = strip_identity(rev) and the reversion rev of f = I.F."""
    N = f.N
    ident = TruncSeries.identity(f.d, N)
    s = strip_identity(rev)
    fi = mul_at(strip_identity(f), ident, N)
    return (mul_at(mul_at(mult_inverse(s), ident, N), s, N),
            compose_at(fi, mul_at(ident, s, N), N),
            compose_at(fi, rev, N))


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(d, N) for d in (1, 2, 3)
                              for N in range(1, 6) if d < 3 or N <= 3]),
       identity=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_u_transform_equals_its_three_expressions(shape, identity, seed):
    d, N = shape
    f = (TruncSeries.identity(d, N) if identity
         else random_series(random.Random(seed), d, N, "gi", bound=2))
    u1, u2, u3 = _u_three_ways(f, comp_inverse(f))
    assert u1 == u2 == u3 == u_transform(f)


def test_u_transform_is_trivial_in_the_scalar_case():
    f = random_series(random.Random(15), 1, 4, "gi")
    assert u_transform(f) == TruncSeries.identity(1, 4)


def test_s_prime_defining_property():
    f = random_series(random.Random(16), D, N, "gi")
    sp = s_prime(f)
    ident = TruncSeries.identity(D, N)
    fi = mul_at(strip_identity(f), ident, N)
    assert mul_at(sp, ident, N) == comp_inverse(fi)


# -- the runtime check fires on a corrupted S ------------------------------------

def _corrupt_reversions(monkeypatch, corrupt):
    # S is corrupted and the composite C = F o g that revert_absorbed solved
    # passes through as it is, as a fault in the solve step would leave them:
    # S = C^{-1} has one solution, so the check on the true C fails exactly
    # when the corrupted S is not the true S.  A fault in g itself corrupts
    # C with S and passes this check; the reversion identity that
    # test_series_kernel asserts of revert_absorbed is what catches it
    real = transforms.revert_absorbed

    def corrupted(F, side):
        S, C = real(F, side)
        return corrupt(S), C
    monkeypatch.setattr(transforms, "revert_absorbed", corrupted)


def _degree_two_doubled(h):
    assert not h[2].is_zero()
    return TruncSeries(h.d, h.N, [m.scale(2) if m.n == 2 else m
                                  for m in h.maps])


@pytest.mark.parametrize("op", [s_transform, u_transform])
def test_s_fixed_point_check_fires(monkeypatch, op):
    # the corrupted S fails S = (F o (I.S))^{-1} from degree 2 on, and on
    # every call: a series keeps its reversion only once the check passes
    f = random_series(random.Random(18), D, N, "gi")
    _corrupt_reversions(monkeypatch, _degree_two_doubled)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="fixed-point"):
            op(f)
    assert f._solution is None


def _degree_k(h, k, m):
    return TruncSeries(h.d, h.N, [m if n == k else h[n]
                                  for n in range(h.N + 1)])


def _doubled(h, k):
    return _degree_k(h, k, h[k].scale(2))


def _random_added(h, k):
    return _degree_k(h, k, h[k] + random_multimap(random.Random(k), h.d, k,
                                                   bound=2))


def _entry_dropped(h, k):
    tensor = dict(h[k].tensor)
    del tensor[min(tensor)]
    return _degree_k(h, k, MultiMap(h.d, k, tensor))


def _commutator(h, k):
    assert k == 2
    comm = MultiMap.from_function(h.d, 2, lambda x, y: x * y - y * x)
    return _degree_k(h, k, h[k] + comm)


_CORRUPTIONS = ([(_doubled, k) for k in range(4)]
                + [(_random_added, k) for k in range(4)]
                + [(_entry_dropped, k) for k in range(1, 4)]
                + [(_commutator, 2)])


@pytest.mark.parametrize("corrupt, k", _CORRUPTIONS,
                         ids=[f"{c.__name__.strip('_')}-{k}"
                              for c, k in _CORRUPTIONS])
@pytest.mark.parametrize("d", [2, 3])
def test_u_transform_fails_exactly_where_an_expression_differs(
        monkeypatch, d, corrupt, k):
    # the fixed-point check stands in for the three-way comparison; rebuild
    # that comparison on I.S for the corrupted S, at each of its degrees
    # 0..3, and require the same verdict and the same series
    f = random_series(random.Random(f"corrupt-{d}"), d, 4, "gi", bound=2)
    F = absorbed(f, 0)
    s = corrupt(revert_absorbed(F, 0)[0], k)
    fixed_point = mult_inverse(compose_at(F, absorb(s, 0).truncate(3), 3)) == s
    _corrupt_reversions(monkeypatch, lambda h: corrupt(h, k))
    if not fixed_point:
        with pytest.raises(ArithmeticError, match="fixed-point"):
            u_transform(f)
        return
    # S solves its fixed point, so the three expressions agree
    u1, u2, u3 = _u_three_ways(f, absorb(s, 0))
    assert u1 == u2 == u3 == u_transform(f)


def test_strip_identity_round_trip():
    f = random_series(random.Random(17), D, N, "gi")
    rebuilt = mul_at(TruncSeries.identity(D, N), strip_identity(f), N)
    assert rebuilt == f


def test_identity_suite_passes():
    report = verify_transform_identities(N=3, d=2, trials=3, seed=1)
    assert report["status"] == "pass"
    ids = {c["id"] for c in report["checks"]}
    assert "box-compose-general" in ids
    assert "s-of-box" in ids
    assert "mult-split-needs-absorption" in ids
    assert all(c["status"] == "pass" for c in report["checks"])


def test_identity_suite_scalar_case():
    report = verify_transform_identities(N=3, d=1, trials=2, seed=2)
    assert report["status"] == "pass"
    assert "s-of-box-scalar" in {c["id"] for c in report["checks"]}
