"""The integer series kernel against the Fraction-entry series arithmetic.

Every map stores an integer table over one least common denominator, and
``+``, ``scale``, the unit slots, evaluation, ``mul_at``, ``compose_at``,
both inverses and the S-transform run on that pair.  The oracles here are
the series layer as it was before: sums, scaling, unit slots, products and
inverses entry by entry on ``AlgebraElement`` values, composition merged
into ``Fraction`` entries term by term, the S fixed point solved degree by
degree, and evaluation at algebra elements accumulated in ``Fraction``
arithmetic.
``MultiMap.inverse`` is checked against the unit and the identity, and a
linear term's inverse against its d^2 x d^2 matrix inverted in M_{d^2}(Q).
Outer series of the shapes I.F and F.I, which compose and revert through
F, are checked against the same composition and reversion oracles at every
order, raising exactly where compose_at's admissibility rule says.
absorb(F, side) is checked against the products with I, mul_at against
the same product oracle for factors of every shape, recorded or not, and
the recursions of I.F inputs are counted to contract no top-degree table.
The reversions, U's expressions, and box and line of I.F pairs are counted
to take no dense product at the top degree, and the transforms to read the
shape of f once.  The composition kernel, one state per consumed degree, is
checked against one contraction per composition and counted to take
polynomially many slot steps; mul_at is counted to read the shape of the
factor its recursion keeps once.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.algebra import (AlgebraElement, NotInvertibleError, mat_inverse,
                              random_element_from)
from freeconv.multiseries import (MultiMap, TruncSeries, absorb, absorbed,
                                  comp_inverse, compose_at,
                                  cumulants_by_recursion, is_gi,
                                  moments_by_recursion, mul_at,
                                  mult_inverse, random_multimap,
                                  random_series, tensor_product_sum)
from freeconv.transforms import boxconv, s_transform, strip_identity
from freeconv.verify import verify_operad_identities
import freeconv.multiseries as multiseries
import freeconv.transforms as transforms

_SHAPES = [(d, order) for d in (1, 2, 3) for order in range(1, 5)
           if d < 3 or order <= 3]


# -- the Fraction-entry oracles ----------------------------------------------------


# MultiMap's +, scale and unit slots as they ran on AlgebraElement values

def _add(a, b):
    tensor = dict(a.tensor)
    for key, val in b.tensor.items():
        tensor[key] = tensor[key] + val if key in tensor else val
    return MultiMap(a.d, a.n, tensor)


def _scale(m, c):
    return MultiMap(m.d, m.n, {k: v.scale(c) for k, v in m.tensor.items()})


def _unit_in_slot(m, j):
    d = m.d
    tensor = {}
    for key, val in m.tensor.items():
        p, q = divmod(key[j], d)
        if p == q:
            rest = key[:j] + key[j + 1:]
            tensor[rest] = tensor[rest] + val if rest in tensor else val
    return MultiMap(d, m.n - 1, tensor)


def _tensor_product_sum(pairs):
    """Sum of a (x) b over pairs of maps, entry by entry, as a tensor."""
    tensor = {}
    for a, b in pairs:
        for ka, va in a.tensor.items():
            for kb, vb in b.tensor.items():
                key = ka + kb
                val = va * vb
                tensor[key] = tensor[key] + val if key in tensor else val
    return tensor


def _mul_at(f, g, order):
    out = [MultiMap(f.d, n, _tensor_product_sum(
        (f[k], g[n - k]) for k in range(max(0, n - g.N), min(n, f.N) + 1)))
        for n in range(order + 1)]
    return TruncSeries(f.d, order, out)


# composition as it ran before the integer kernel: each term contracted on
# integers, and the terms merged into Fraction entries one by one

def _int_table(m):
    den = 1
    for val in m.tensor.values():
        for c in val.coords():
            den = den * c.denominator // gcd(den, c.denominator)
    return {key: tuple(int(c * den) for c in val.coords())
            for key, val in m.tensor.items()}, den


def _contract(fk_table, fk_den, parts, dd):
    state = {((), j): vec for j, vec in fk_table.items()}
    for tbl, _ in parts:
        new = {}
        for (prefix, jsuf), vec in state.items():
            j0, rest = jsuf[0], jsuf[1:]
            for key_i, avec in tbl.items():
                c = avec[j0]
                if not c:
                    continue
                nk = (prefix + (key_i,), rest)
                cur = new.get(nk)
                if cur is None:
                    new[nk] = [c * x for x in vec]
                else:
                    for t in range(dd):
                        cur[t] += c * vec[t]
        state = new
    den = fk_den
    for _, dn in parts:
        den *= dn
    out = {}
    for (prefix, _), vec in state.items():
        key = ()
        for piece in prefix:
            key += piece
        out[key] = vec
    return out, den


def _compositions(n, parts):
    """All ways to write n as an ordered sum of `parts` positive integers."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _composition_sum(f_maps, g_maps, k_min, n, head=None):
    """With a degree-1 map `head`, f_k reads it in its first slot and g in
    the other k - 1, over the compositions of n - 1."""
    d = f_maps[0].d
    dd = d * d
    acc = {}
    lead = [] if head is None else [_int_table(head)]
    for k in range(k_min, min(n, len(f_maps) - 1) + 1):
        if f_maps[k].is_zero():
            continue
        fk_table, fk_den = _int_table(f_maps[k])
        for comp in _compositions(n - len(lead), k - len(lead)):
            if any(m >= len(g_maps) or g_maps[m].is_zero() for m in comp):
                continue
            table, den = _contract(fk_table, fk_den, lead + [
                _int_table(g_maps[m]) for m in comp], dd)
            for key, vec in table.items():
                cur = acc.get(key)
                if cur is None:
                    acc[key] = [Fraction(x, den) for x in vec]
                else:
                    for t in range(dd):
                        if vec[t]:
                            cur[t] += Fraction(vec[t], den)
    return {key: AlgebraElement.from_coords(d, tuple(vec))
            for key, vec in acc.items()}


def _compose_at(f, g, order):
    d = f.d
    out = [f[0]] + [MultiMap(d, n, _composition_sum(f.maps, g.maps, 1, n))
                    for n in range(1, order + 1)]
    return TruncSeries(d, order, out)


def _mult_inverse(f):
    d, N = f.d, f.N
    c0 = mat_inverse(f[0].tensor[()])
    inv = [MultiMap.constant(c0)]
    for n in range(1, N + 1):
        tensor = _tensor_product_sum((f[k], inv[n - k]) for k in range(1, n + 1))
        inv.append(MultiMap(d, n, {k: (c0 * v).scale(-1) for k, v in tensor.items()}))
    return TruncSeries(d, N, inv)


def _linear_inverse(m):
    """The inverse of the degree-1 map m as a function on B, through the
    d^2 x d^2 matrix of m taken as an element of M_{d^2}(Q): its columns are
    the coordinates of the images of the basis."""
    d, dd = m.d, m.d * m.d
    cols = [m.tensor.get((i,), AlgebraElement.zero(d)).coords()
            for i in range(dd)]
    inv = mat_inverse(AlgebraElement.from_rows(
        [[cols[j][i] for j in range(dd)] for i in range(dd)]))
    return lambda x: AlgebraElement.from_coords(d, tuple(
        sum(c * y for c, y in zip(row, x.coords())) for row in inv.rows))


def _comp_inverse(f):
    d, N = f.d, f.N
    l_inv = _linear_inverse(f[1])
    g = [MultiMap.zero(d, 0),
         MultiMap(d, 1, {(i,): l_inv(AlgebraElement.basis(d, i))
                         for i in range(d * d)})]
    for n in range(2, N + 1):
        g.append(MultiMap(d, n, {key: l_inv(val).scale(-1) for key, val
                                 in _composition_sum(f.maps, g, 2, n).items()}))
    return TruncSeries(d, N, g)


def _s_fixed_point(f):
    d = f.d
    F = strip_identity(f)
    s0 = mat_inverse(F[0].tensor[()])
    smaps = [MultiMap.constant(s0)]
    for m in range(1, f.N):
        part = TruncSeries(d, m - 1, smaps)
        inner = _mul_at(TruncSeries.identity(d, m), part, m)
        comp = _compose_at(F, inner, m)
        t0_inv = mat_inverse(comp[0].tensor[()])
        tensor = _tensor_product_sum((smaps[k], comp[m - k]) for k in range(m))
        smaps.append(MultiMap(d, m, {k: (v * t0_inv).scale(-1)
                                     for k, v in tensor.items()}))
    return TruncSeries(d, f.N - 1, smaps)


# MultiMap.__call__ as it ran before evaluation became a contraction: the
# integer table multiplied and accumulated in Fraction arithmetic

def _evaluate(m, args):
    if len(args) != m.n:
        raise ValueError(f"degree-{m.n} map called with {len(args)} arguments")
    coords = [a.coords() for a in args]
    acc = None
    for key, vec in m.table.items():
        c = Fraction(1)
        for j, i in enumerate(key):
            c *= coords[j][i]
            if not c:
                break
        if not c:
            continue
        if acc is None:
            acc = [c * x for x in vec]
        else:
            for t, x in enumerate(vec):
                if x:
                    acc[t] += c * x
    if acc is None:
        return AlgebraElement.zero(m.d)
    return AlgebraElement.from_coords(m.d, tuple(x / m.den for x in acc))


# -- the kernel against the oracles ------------------------------------------------


def _zero_inner(rng, d, order, kind, g):
    """A zero-constant inner series for composition: g itself if it has one."""
    return g if g[0].is_zero() else random_series(rng, d, order, "mult")


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ginv", "gdif", "gi", "mult"]),
       shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 16))
def test_series_kernel_matches_the_fraction_entry_oracles(kind, shape, seed):
    d, order = shape
    rng = random.Random(seed)
    f = random_series(rng, d, order, kind)
    g = random_series(rng, d, order, kind)

    assert mul_at(f, g, order) == _mul_at(f, g, order)
    k = rng.randint(0, order)
    m = rng.randint(0, order - k)
    pairs = [(f[k], g[m]), (f[m], g[k])]
    assert tensor_product_sum(pairs, d, k + m) == \
        MultiMap(d, k + m, _tensor_product_sum(pairs))

    inner = _zero_inner(rng, d, order, kind, g)
    assert compose_at(f, inner, order) == _compose_at(f, inner, order)

    if kind == "ginv":
        assert mult_inverse(f) == _mult_inverse(f)
    if f[0].is_zero():
        try:
            _linear_inverse(f[1])
        except NotInvertibleError:
            with pytest.raises(ValueError):
                comp_inverse(f)
        else:
            assert comp_inverse(f) == _comp_inverse(f)
    if kind == "gi" and order >= 2:
        assert s_transform(f) == _s_fixed_point(f)


def _composition_admissible(f, g, order):
    """compose_at's rule: degree n reads f_k for k <= n // lead(g) and g_m
    for m <= n - (lead_+(f) - 1) * lead(g), lead_+ the first nonzero
    positive degree of f."""
    lg = g.lead()
    if lg is None:
        return True
    pos_lead = next((k for k in range(1, f.N + 1) if not f[k].is_zero()),
                    None)
    return order // lg <= f.N and (pos_lead is None
                                   or order - (pos_lead - 1) * lg <= g.N)


def _series_of(rng, d, N, name):
    if name == "zero":
        return TruncSeries.zero(d, N)
    if name == "I":
        return TruncSeries.identity(d, N)
    if name == "F.I":
        return absorb(random_series(rng, d, N - 1, "ginv"), 1)
    return random_series(rng, d, N, name)


def _top_entry_dropped(f):
    """f with the first entry of its top degree gone; for d >= 2 an I.F or
    F.I series loses its shape."""
    top = dict(f[f.N].tensor)
    del top[min(top)]
    return TruncSeries(f.d, f.N, f.maps[:f.N] + (MultiMap(f.d, f.N, top),))


@settings(max_examples=100, deadline=None)
@given(outer=st.sampled_from(["I.F", "F.I", "zero", "I"]),
       kind=st.sampled_from(["gi", "ginv", "mult"]),
       inner=st.sampled_from(["gdif", "gi", "F.I", "mult", "zero", "I"]),
       inner_lead=st.sampled_from([1, 2]), gap=st.booleans(),
       inner_gap=st.booleans(),
       shape=st.sampled_from([(d, N) for d, N in _SHAPES if N >= 2]),
       seed=st.integers(0, 2 ** 16))
def test_absorbing_outer_series_match_the_oracles_at_every_order(
        outer, kind, inner, inner_lead, gap, inner_gap, shape, seed):
    # I.F and F.I compose and revert through F; F of kind gi or mult has
    # F_0 = 0, so f_1 = 0, f is not invertible and g is read past its order.
    # With a gap, one entry of the top degree is gone: every line of f is
    # still right, but for d >= 2 f has lost its shape.  An inner gi (I.G)
    # or F.I (G.I) meets the outer series on its outer side or on the seam,
    # and an inner gap takes that shape away again
    d, N = shape
    rng = random.Random(seed)
    if outer in ("I.F", "F.I"):
        F = random_series(rng, d, N - 1, kind)
        ident = TruncSeries.identity(d, N)
        side = outer == "F.I"
        f = mul_at(F, ident, N) if side else mul_at(ident, F, N)
        assert absorbed(f, side) == F
    else:
        f = _series_of(rng, d, N, outer)
    if gap and not f[N].is_zero():
        f = _top_entry_dropped(f)
    g = _series_of(rng, d, N, inner)
    if inner_lead == 2:
        g = TruncSeries(d, N, [MultiMap.zero(d, 0), MultiMap.zero(d, 1)]
                        + list(g.maps[2:]))
    g = g.truncate(rng.randint(1, N))
    if inner_gap and not g[g.N].is_zero():
        g = _top_entry_dropped(g)
    for order in range(N + 1):
        if _composition_admissible(f, g, order):
            assert compose_at(f, g, order) == _compose_at(f, g, order)
        else:
            with pytest.raises(ValueError, match="not determined"):
                compose_at(f, g, order)
    try:
        _linear_inverse(f[1])
    except NotInvertibleError:
        with pytest.raises(ValueError, match="not compositionally invertible"):
            comp_inverse(f)
    else:
        assert comp_inverse(f) == _comp_inverse(f)


def test_absorbing_series_compose_and_revert_below_the_top_degree(
        monkeypatch):
    # I.F and F.I compose and revert through F o g below the top degree;
    # a composition sum at degree N means the generic path ran
    degrees = []
    real = multiseries._composition_degree

    def counted(f_maps, g_maps, k_min, n, d):
        degrees.append(n)
        return real(f_maps, g_maps, k_min, n, d)

    monkeypatch.setattr(multiseries, "_composition_degree", counted)
    rng = random.Random(8)
    f = random_series(rng, 2, 4, "gi")
    fi = mul_at(strip_identity(f), TruncSeries.identity(2, 4), 4)
    g = random_series(rng, 2, 4, "gdif")
    for series in (f, fi):
        degrees.clear()
        comp_inverse(series)
        assert degrees and max(degrees) < 4
        degrees.clear()
        compose_at(series, g, 4)
        assert degrees and max(degrees) <= 3


def _degree_maps(rng, d, length):
    """Maps of degrees 0..length - 1 as the recursions hand them to a
    composition: some zero, and denominators mixed by a further factor."""
    maps = []
    for m in range(length):
        if not m or rng.random() < 0.2:
            maps.append(MultiMap.zero(d, m))
        else:
            c = Fraction(1, rng.choice((1, 1, 4, 5, 9)))
            maps.append(random_multimap(rng, d, m, 2).scale(c))
    return maps


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(1, 10), (2, 5), (3, 3)]),
       k_min=st.sampled_from([1, 2]), head=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_composition_degree_matches_the_composition_oracle(shape, k_min,
                                                           head, seed):
    # one state per consumed degree sums the same terms as one contraction
    # per composition: at k_min = 2 (the reversion), with x in the first
    # slot (red of a general f), with zero g_m, and with f and g lists that
    # stop below degree n, as the lists of the recursions grow
    d, N = shape
    rng = random.Random(seed)
    n = N if rng.random() < 0.5 else rng.randint(1, N)
    f_maps, g_maps = (_degree_maps(rng, d, n + 1 if rng.random() < 0.5
                                   else rng.randint(1, n))
                      for _ in range(2))
    x = MultiMap.identity(d) if head else None
    k_min = 2 if head else k_min
    got = multiseries._composition_degree(f_maps, g_maps, k_min, n, d,
                                          first=x.table if head else None)
    assert got == MultiMap(d, n, _composition_sum(f_maps, g_maps, k_min, n,
                                                  x))


def test_composition_degree_makes_polynomially_many_slot_steps(monkeypatch):
    # at d = 1 with every map nonzero, one contraction per composition
    # makes (n + 1) 2^(n - 2) slot steps at degree n, 576 at n = 8 and
    # 13,312 at n = 12; one state per consumed degree makes 183 and 848
    steps = []
    real = multiseries._slot_step

    def counted(state, tbl, dd, out=None):
        steps.append(1)
        return real(state, tbl, dd, out)

    monkeypatch.setattr(multiseries, "_slot_step", counted)
    ones = [MultiMap(1, m, {(0,) * m: AlgebraElement.unit(1)})
            for m in range(13)]
    for n in (8, 12):
        steps.clear()
        out = multiseries._composition_degree(ones, ones, 1, n, 1)
        assert out == MultiMap(1, n, {(0,) * n: AlgebraElement.unit(1)
                                      .scale(2 ** (n - 1))})
        assert len(steps) <= n ** 4 // 16 < (n + 1) * 2 ** (n - 2)


def test_stripped_recursions_contract_no_top_degree_table(monkeypatch):
    # for I.F inputs red, box, line and the moments contract F, K and the
    # stripped g, never a degree-N table of f, g or k; the cumulant solve
    # reads K only below the degree it solves for.  A slot step sees the
    # slots its state has left, its own included: at a term's first slot
    # that is the degree of the map contracted
    arities = []
    real = multiseries._slot_step

    def counted(state, tbl, dd, out=None):
        if state:
            arities.append(len(next(iter(state))[1]))
        return real(state, tbl, dd, out)

    monkeypatch.setattr(multiseries, "_slot_step", counted)
    N = 4
    rng = random.Random(9)
    f = random_series(rng, 2, N, "gi")
    g = random_series(rng, 2, N, "gi")
    F = absorbed(f, 0)
    for call, limit in ((lambda: boxconv("red", f, g), N - 1),
                        (lambda: boxconv("box", f, g), N - 1),
                        (lambda: boxconv("line", f, g), N - 1),
                        (lambda: moments_by_recursion(F), N - 1),
                        (lambda: cumulants_by_recursion(F), N - 2)):
        arities.clear()
        call()
        assert arities and max(arities) <= limit


def test_products_across_the_unit_take_no_top_degree_product(monkeypatch):
    # the reversions multiply S, one degree below the reversion, U's
    # expressions multiply across the unit, and box and line of a gi pair
    # multiply through the shape red records; a dense product with N
    # arguments means a table of f.I, I.S or red was multiplied
    degrees = []

    def counted(name):
        real = getattr(multiseries, name)

        def product(a, b, d):
            degrees.append((name, a.n + b.n))
            return real(a, b, d)
        return product

    for name in ("_products", "_sandwich"):
        monkeypatch.setattr(multiseries, name, counted(name))
    N = 4
    rng = random.Random(10)
    f, g = (random_series(rng, 2, N, "gi") for _ in range(2))
    for call in (lambda: comp_inverse(f),
                 lambda: comp_inverse(absorb(absorbed(f, 0), 1)),
                 lambda: transforms.u_transform(f),
                 lambda: boxconv("box", f, g),
                 lambda: boxconv("line", f, g)):
        degrees.clear()
        call()
        assert degrees and all(n < N for name, n in degrees
                               if name == "_products")


def test_transforms_read_the_shape_of_f_once(monkeypatch):
    f = random_series(random.Random(11), 2, 3, "gi")
    reads = []
    real = multiseries.absorbed

    def counted(g, side):
        reads.append(g == f)
        return real(g, side)

    monkeypatch.setattr(multiseries, "absorbed", counted)
    monkeypatch.setattr(transforms, "absorbed", counted)
    for op in (transforms.s_transform, transforms.u_transform,
               transforms.s_prime):
        reads.clear()
        op(f)
        assert reads.count(True) == 1


@pytest.mark.parametrize("d, order", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("kind", ["ginv", "gdif", "gi", "mult"])
def test_absorb_is_the_product_with_the_identity(kind, d, order):
    F = random_series(random.Random(f"absorb-{kind}-{d}"), d, order, kind)
    ident = TruncSeries.identity(d, order + 1)
    assert absorb(F, 0) == _mul_at(ident, F, order + 1)
    assert absorb(F, 1) == _mul_at(F, ident, order + 1)
    for side in (0, 1):
        assert absorbed(absorb(F, side), side) == F


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ginv", "gdif", "gi", "mult", "zero"]),
       shape=st.sampled_from(_SHAPES), side=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 16))
def test_absorbed_reads_the_record_as_a_pass_reads_the_tables(kind, shape,
                                                              side, seed):
    # the record that absorb writes answers absorbed on its own side, and on
    # either side it says what a pass over the same maps says
    d, order = shape
    F = (TruncSeries.zero(d, order) if kind == "zero"
         else random_series(random.Random(seed), d, order, kind))
    f = absorb(F, side)
    unrecorded = TruncSeries(d, order + 1, f.maps)
    assert absorbed(f, side) is F
    for s in (0, 1):
        assert absorbed(f, s) == absorbed(unrecorded, s)
    if d == 1:
        assert absorbed(unrecorded, 1 - side) == F


@pytest.mark.parametrize("d", [1, 2])
def test_equality_hashing_and_json_ignore_the_record(d):
    F = random_series(random.Random(f"record-{d}"), d, 2, "ginv")
    f = absorb(F, 0)
    for other in (TruncSeries(d, 3, f.maps), TruncSeries.from_json(
            json.loads(json.dumps(f.to_json())))):
        assert other == f and hash(other) == hash(f)
        assert other.to_json() == f.to_json()
    # at d = 1 the scalars commute: I.F and F.I are one series
    assert (absorb(F, 1) == f) == (d == 1)
    if d == 1:
        assert hash(absorb(F, 1)) == hash(f)


def _product_admissible(f, g, order):
    """mul_at's rule: order <= min(f.N + lead(g), g.N + lead(f)), where a
    zero factor bounds nothing."""
    lf, lg = f.lead(), g.lead()
    return ((lg is None or order <= f.N + lg)
            and (lf is None or order <= g.N + lf))


def _factor(rng, d, N, kind, form):
    """A factor of order 1..N + 1: a drawn series (kind 'zero' is the zero
    series), plain, absorbed on one side, or a record-free copy of that."""
    order = rng.randint(1, N)
    X = (TruncSeries.zero(d, order) if kind == "zero"
         else random_series(rng, d, order, kind))
    if form == "plain":
        return X
    f = absorb(X, form.startswith("F.I"))
    return TruncSeries(d, f.N, f.maps) if form.endswith("copy") else f


@settings(max_examples=60, deadline=None)
@given(kinds=st.tuples(*[st.sampled_from(["ginv", "gdif", "gi", "mult",
                                          "zero"])] * 2),
       forms=st.tuples(*[st.sampled_from(["plain", "I.F", "F.I", "I.F copy",
                                          "F.I copy"])] * 2),
       shape=st.sampled_from([(d, N) for d, N in _SHAPES
                              if d < 3 or N <= 2]),
       seed=st.integers(0, 2 ** 16))
def test_mul_at_matches_the_product_oracle_for_every_shape(kinds, forms,
                                                           shape, seed):
    # the product of any two factors, whatever shape they have and whether
    # absorb recorded it, equals the dense degree sums at every order, and
    # raises where that product is not determined by the two truncations
    d, N = shape
    rng = random.Random(seed)
    f, g = (_factor(rng, d, N, kind, form)
            for kind, form in zip(kinds, forms))
    expected = _mul_at(f, g, N + 1)
    for order in range(N + 2):
        if _product_admissible(f, g, order):
            assert mul_at(f, g, order) == expected.truncate(order)
        else:
            with pytest.raises(ValueError, match="not determined"):
                mul_at(f, g, order)


def test_mul_at_reads_the_shape_of_the_kept_factor_once(shape_passes):
    # f.(G.I) = (f.G).I keeps f one order lower: the shape of a record-free
    # f with zero constant term is read once, one pass per side, not again
    # at each level of the recursion
    rng = random.Random(12)
    f = random_series(rng, 2, 3, "mult")
    G = random_series(rng, 2, 2, "ginv")
    g = absorb(G, 1)
    assert mul_at(f, g, 3) == _mul_at(f, g, 3)
    assert shape_passes == [3, 3]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ginv", "gdif", "gi", "mult"]),
       shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 16))
def test_sums_scaling_and_unit_slots_match_the_fraction_entry_oracles(
        kind, shape, seed):
    d, order = shape
    rng = random.Random(seed)
    f = random_series(rng, d, order, kind)
    g = random_series(rng, d, order, kind)
    c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    for n in range(order + 1):
        a, b = f[n], g[n]
        assert a + b == _add(a, b)
        assert a.scale(c) == _scale(a, c)
        assert a + a.scale(-1) == MultiMap.zero(d, n)
        if n:
            assert a.unit_in_first_slot() == _unit_in_slot(a, 0)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 16))
def test_multimap_inverse_on_degrees_zero_and_one(d, seed):
    rng = random.Random(seed)
    unit = TruncSeries.constant(AlgebraElement.unit(d), 0)
    c = random_series(rng, d, 0, "ginv")
    c_inv = TruncSeries(d, 0, [c[0].inverse()])
    assert mul_at(c, c_inv, 0) == unit == mul_at(c_inv, c, 0)

    f = random_series(rng, d, 1, "gdif")
    g1 = f[1].inverse()
    g = TruncSeries(d, 1, [MultiMap.zero(d, 0), g1])
    ident = TruncSeries.identity(d, 1)
    assert compose_at(f, g, 1) == ident == compose_at(g, f, 1)
    l_inv = _linear_inverse(f[1])
    assert g1 == MultiMap(d, 1, {(i,): l_inv(AlgebraElement.basis(d, i))
                                 for i in range(d * d)})

    # a zero first row, or a zero image of the first basis element, is singular
    rows = list(c[0].tensor[()].rows)
    rows[0] = (0,) * d
    with pytest.raises(NotInvertibleError):
        MultiMap.constant(AlgebraElement.from_rows(rows)).inverse()
    with pytest.raises(NotInvertibleError):
        MultiMap(d, 1, {key: val for key, val in f[1].tensor.items()
                        if key != (0,)}).inverse()
    with pytest.raises(ValueError) as err:
        random_series(rng, d, 2, "mult")[2].inverse()
    assert not isinstance(err.value, NotInvertibleError)


def _argument(rng, d):
    """The zero element, the unit, a matrix unit or a random element."""
    pick = rng.randrange(4)
    if pick == 0:
        return AlgebraElement.zero(d)
    if pick == 1:
        return AlgebraElement.unit(d)
    if pick == 2:
        return AlgebraElement.basis(d, rng.randrange(d * d))
    return random_element_from(rng, 4, d)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ginv", "gdif", "gi", "mult"]),
       d=st.sampled_from([1, 2, 3]), n=st.integers(0, 4),
       seed=st.integers(0, 2 ** 16))
def test_evaluation_matches_the_fraction_loop(kind, d, n, seed):
    rng = random.Random(seed)
    f = random_series(rng, d, max(n, 1), kind)
    for m in f.maps[:n + 1]:
        args = [_argument(rng, d) for _ in range(m.n)]
        value, oracle = m(*args), _evaluate(m, args)
        assert value == oracle and hash(value) == hash(oracle)
        assert value.to_json() == oracle.to_json()


def test_evaluation_of_the_zero_map_and_its_argument_count():
    rng = random.Random(5)
    for d in (1, 2, 3):
        for n in range(4):
            args = [random_element_from(rng, 4, d) for _ in range(n)]
            value = MultiMap.zero(d, n)(*args)
            assert value == AlgebraElement.zero(d) == _evaluate(
                MultiMap.zero(d, n), args)
            assert value.is_zero()
    f = random_series(rng, 2, 3, "mult")
    for m, count in ((f[2], 1), (f[0], 2), (f[3], 4)):
        args = [AlgebraElement.unit(2)] * count
        with pytest.raises(ValueError) as err:
            m(*args)
        assert str(err.value) == (f"degree-{m.n} map called with {count} "
                                  "arguments")


def test_cancelling_sums_reduce_the_denominator():
    # unit slots and sums can cancel entries: what is left must come back
    # over its least common denominator, with cancelled keys gone
    half = Fraction(1, 2)
    e00, e01 = AlgebraElement.basis(2, 0), AlgebraElement.basis(2, 1)
    m = MultiMap(2, 2, {(0, 1): e00.scale(half), (3, 1): e00.scale(half),
                        (0, 2): e01.scale(half), (3, 2): e01.scale(-half)})
    slot = m.unit_in_first_slot()
    assert (slot.table, slot.den) == ({(1,): [1, 0, 0, 0]}, 1)
    assert slot == _unit_in_slot(m, 0)
    extra = MultiMap(2, 2, {(0, 1): e00.scale(half)})
    total = m + extra
    assert total.den == 2 and total == _add(m, extra)
    assert m.scale(2).den == 1 and m.scale(0) == MultiMap.zero(2, 2)


def _kernel_outputs(rng, kind, d, order):
    f = random_series(rng, d, order, kind)
    g = random_series(rng, d, order, kind)
    inner = _zero_inner(rng, d, order, kind, g)
    out = [mul_at(f, g, order), compose_at(f, inner, order),
           boxconv("redred", f, g), strip_identity(f)]
    if kind == "ginv":
        out.append(mult_inverse(f))
    if kind == "gdif":
        out.append(comp_inverse(f))
    if kind == "gi" and order >= 2:
        out.append(s_transform(f))
    return out


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ginv", "gdif", "gi", "mult"]),
       shape=st.sampled_from(_SHAPES),
       seed=st.integers(0, 2 ** 16))
def test_kernel_outputs_are_stored_canonically(kind, shape, seed):
    d, order = shape
    for series in _kernel_outputs(random.Random(seed), kind, d, order):
        for m in series.maps:
            again = MultiMap(m.d, m.n, m.tensor)
            assert again == m and hash(again) == hash(m)
            assert all(any(vec) for vec in m.table.values())
        text = json.dumps(series.to_json())
        assert TruncSeries.from_json(json.loads(text)) == series


def test_zero_coordinates_are_the_int_zero():
    # a Fraction zero costs every later truth test and comparison a Python
    # call; is_gi and the operad suite measurably slowed down with them
    rng = random.Random(3)
    for d in (1, 2, 3):
        f, g = (random_series(rng, d, 3, "gi", bound=2) for _ in range(2))
        h = random_series(rng, d, 3, "ginv", bound=2)
        # compose_at hands on the constant term of its outer series
        outputs = [mul_at(f, g, 3).maps, mul_at(h, g, 3).maps,
                   mult_inverse(h).maps, comp_inverse(f).maps,
                   s_transform(f).maps, compose_at(h, f, 3).maps[1:]]
        zeros = 0
        for maps in outputs:
            for m in maps:
                for val in m.tensor.values():
                    for c in val.coords():
                        if c == 0:
                            assert type(c) is int, (m, val)
                            zeros += 1
        assert d == 1 or zeros


def test_u_transform_reverts_f_once(monkeypatch):
    # f = I.F is reverted from F, so the one reversion is of (F, side 0)
    calls = []
    real = transforms.revert_absorbed

    def counted(F, side):
        calls.append((F, side))
        return real(F, side)

    monkeypatch.setattr(transforms, "revert_absorbed", counted)
    f = random_series(random.Random(4), 2, 3, "gi")
    assert is_gi(f)
    transforms.u_transform(f)
    assert calls == [(absorbed(f, 0), 0)]


def _transform_calls(monkeypatch, names):
    """Names of the `transforms` functions among `names` called, in order."""
    calls = []

    def counted(name):
        real = getattr(transforms, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in names:
        monkeypatch.setattr(transforms, name, counted(name))
    return calls


@pytest.mark.parametrize("op", ["s_transform", "u_transform"])
def test_s_is_solved_once(monkeypatch, op):
    # one reversion gives S, and one composition checks its fixed point;
    # u_transform multiplies that composition, S^{-1}, across the unit
    calls = _transform_calls(monkeypatch, ("revert_absorbed", "compose_at"))
    getattr(transforms, op)(random_series(random.Random(4), 2, 3, "gi"))
    assert sorted(calls) == ["compose_at", "revert_absorbed"]


def test_u_transform_multiplies_across_the_unit_once(monkeypatch):
    # one mult_inverse checks S's fixed point, and one product with the
    # reversion I.S gives U
    calls = _transform_calls(monkeypatch, ("mult_inverse", "mul_at"))
    transforms.u_transform(random_series(random.Random(4), 2, 3, "gi"))
    assert sorted(calls) == ["mul_at", "mult_inverse"]


def test_operad_suite_checks_each_series_once(monkeypatch):
    # a series' G^I shape is checked once, not once per tree read with it
    calls = []
    real = multiseries.is_gi

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(multiseries, "is_gi", counted)
    report = verify_operad_identities(N=3, d=2, trials=2)
    assert report["status"] == "pass"
    assert len(calls) == 2 and calls[0] != calls[1]
