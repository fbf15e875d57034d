"""Truncated series of multilinear maps over the matrix algebra B.

A series is a tuple (f_0, f_1, ..., f_N) where f_n is an n-multilinear map
B^n -> B, stored exactly through its values on basis tuples.  Degree 0 is a
constant.  The three groups of interest:

* ``G^inv``: f_0 invertible (group under the convolution product),
* ``G^dif``: f_0 = 0 and f_1 bijective (group under composition),
* ``G^I``:   f = I.h with h in G^inv, i.e. f_n(x_1,...,x_n) =
  x_1 f_n(1, x_2,...,x_n) and f_1(1) invertible.

All arithmetic is exact.  A map stores one integer table over one common
denominator, and every operation here runs on that pair: sums and scaling,
the unit slots, evaluation, products, compositions, both inverses, the tree
sums and the degree-by-degree recursions that compute the same series as
the tree sums of the boxed convolutions and the moments.  Contraction goes
slot by slot (_slot_step).  Composition contracts each f_k with one state
per consumed degree, since every composition that has consumed the same
degree meets the same output keys, so degree n takes polynomially many
slot steps where it has 2^(n-1) compositions (_composition_degree).
Evaluation at algebra elements is one contraction against a degree-0 map
per argument.  Fraction entries cross into a map through _to_ints (the
checked constructor, evaluation's arguments and the inverse) and out of it
through _to_element (evaluation's value and the ``tensor`` view).
MultiMap.inverse, for degree 0 and 1, is the one inverse behind the class
tests and both series inverses.  absorbed(f, side) reads F of an outer
series f = I.F or F.I, and absorb(F, side) builds I.F or F.I back by moving
entries and records F in it, so absorbed reads a series the library built
without a pass; outside input (from_json, hand-built maps, sums) pays one.
mul_at, compose_at and comp_inverse read either shape (_shape) and go
through F: (I.F).g = I.(F.g) and f.(G.I) = (f.G).I one order lower, and
(F.I).g and f.(I.G) as an outer product of a column and a row per entry,
with no sums; I.F or F.I composes as g.(F o g) or (F o g).g and reverts to
I.S or S.I by solving S.(F o g) = 1 or (F o g).S = 1 for S degree by degree
(revert_absorbed), so its top degree is never a sum over compositions and
the reversion's products run on S.  The degree-by-degree recursions behind
the boxed convolutions and the moment-cumulant conversions contract F in
place of f = I.F in the same way.  Operations that mix
two series of different truncation orders are rejected at the public
level; the ``mul_at``/``compose_at`` variants compute a requested output
order and raise unless the inputs genuinely determine every coefficient up
to it, which is what the transform identities rely on (a factor with zero
constant term raises the usable order of the other factor).
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

from .algebra import (AlgebraElement, NotInvertibleError, as_fraction,
                      json_field, linmap_inverse, random_element_from,
                      random_invertible_from)
from .trees import comb_decompose, is_leaf, size as tree_size

class MultiMap:
    """An n-multilinear map B^n -> B.

    ``table[(i_1..i_n)]`` is the value on the basis tuple
    (e_{i_1}, ..., e_{i_n}) as an integer coordinate vector over the
    common denominator ``den``.  Zero vectors are omitted and ``den`` is the
    least common denominator, so two maps are equal exactly when their
    (table, den) pairs are.  ``tensor`` reads the same values as
    AlgebraElements.
    """

    __slots__ = ("d", "n", "table", "den", "_tensor")

    def __init__(self, d, n, tensor):
        """The map with the values {key: AlgebraElement}, checked."""
        for key, val in tensor.items():
            if len(key) != n or not all(0 <= i < d * d for i in key):
                raise ValueError(f"bad index {key!r} for a degree-{n} map")
            if val.d != d:
                raise ValueError("value dimension mismatch")
        _fill(self, d, n, *_to_ints({key: val.coords()
                                     for key, val in tensor.items()}))

    @classmethod
    def _of(cls, d, n, table, den):
        """The map table / den, unchecked: the table must hold no zero
        vector and den must be the least common denominator."""
        return _fill(object.__new__(cls), d, n, table, den)

    def __setattr__(self, *a):
        raise AttributeError("MultiMap is immutable")

    @property
    def tensor(self):
        """{key: AlgebraElement}, read-only, built on first read."""
        view = self._tensor
        if view is None:
            view = MappingProxyType({key: _to_element(self.d, vec, self.den)
                                     for key, vec in self.table.items()})
            object.__setattr__(self, "_tensor", view)
        return view

    @classmethod
    def zero(cls, d, n):
        return cls._of(d, n, {}, 1)

    @classmethod
    def constant(cls, value):
        return cls(value.d, 0, {(): value})

    @classmethod
    def identity(cls, d):
        return cls(d, 1, {(i,): AlgebraElement.basis(d, i) for i in range(d * d)})

    @classmethod
    def transpose(cls, d):
        """The degree-1 map x -> x^T."""
        return cls(d, 1, {(p * d + q,): AlgebraElement.basis(d, q * d + p)
                          for p in range(d) for q in range(d)})

    @classmethod
    def from_function(cls, d, n, fn):
        """Tabulate fn on all basis tuples."""
        tensor = {}
        for key in product(range(d * d), repeat=n):
            tensor[key] = fn(*(AlgebraElement.basis(d, i) for i in key))
        return cls(d, n, tensor)

    def __call__(self, *args):
        """Multilinear evaluation at arbitrary algebra elements: f_n
        contracted against n degree-0 maps, one per argument."""
        if len(args) != self.n:
            raise ValueError(f"degree-{self.n} map called with {len(args)} arguments")
        dd = self.d * self.d
        table, den = _contract(self.table, self.den,
                               [_to_ints({(): a.coords()}) for a in args], dd)
        return _to_element(self.d, table.get((), (0,) * dd), den)

    def __add__(self, other):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("cannot add maps of different shape")
        return _merge(((self.table, self.den), (other.table, other.den)),
                      self.d, self.n)

    def scale(self, c):
        c = as_fraction(c)
        return _merge([({key: [c.numerator * x for x in vec] for key, vec
                         in self.table.items()}, self.den * c.denominator)],
                      self.d, self.n)

    def is_zero(self):
        return not self.table

    def __eq__(self, other):
        return (isinstance(other, MultiMap)
                and (self.d, self.n, self.den) == (other.d, other.n, other.den)
                and self.table == other.table)

    def __hash__(self):
        return hash((self.d, self.n, self.den,
                     frozenset((key, tuple(vec))
                               for key, vec in self.table.items())))

    def __repr__(self):
        return f"MultiMap(d={self.d}, n={self.n}, {len(self.table)} entries)"

    def inverse(self):
        """The inverse of a degree-0 map (an element of B) or of a degree-1
        map (a linear map B -> B), as a map of the same degree.

        Raises NotInvertibleError when there is none.  A degree-1 map's
        matrix has the images of the basis as columns, so its transpose has
        the stored vectors as rows; the rows of the transpose's inverse are
        then the images of the inverse map.
        """
        d, n, den = self.d, self.n, self.den
        zero = [0] * (d * d)
        if n == 0:
            vec = self.table.get((), zero)
            inv = linmap_inverse([vec[p * d:(p + 1) * d] for p in range(d)])
            values = {(): [x for row in inv for x in row]}
        elif n == 1:
            inv = linmap_inverse([self.table.get((i,), zero)
                                  for i in range(d * d)])
            values = {(j,): row for j, row in enumerate(inv)}
        else:
            raise ValueError(f"a degree-{n} map has no inverse; only degrees "
                             "0 and 1 do")
        return MultiMap._of(d, n, *_to_ints(
            {key: [den * x for x in coords] for key, coords in values.items()}))

    def unit_in_first_slot(self):
        """The degree-(n-1) map (x_2..x_n) -> f(1, x_2..x_n)."""
        # the unit is the sum of the E_pp: one table per p, then one merge
        if self.n == 0:
            raise ValueError("degree-0 map has no slot")
        d = self.d
        diagonal = [{} for _ in range(d)]
        for key, vec in self.table.items():
            p, q = divmod(key[0], d)
            if p == q:
                diagonal[p][key[1:]] = vec
        return _merge(((table, self.den) for table in diagonal), d, self.n - 1)


def _to_ints(values):
    """(integer table, den) of {key: rational coordinates}: zero vectors
    dropped and den the least common denominator, as a MultiMap stores
    them."""
    values = {key: coords for key, coords in values.items() if any(coords)}
    den = lcm(*(c.denominator for coords in values.values() for c in coords))
    return {key: [c.numerator * (den // c.denominator) for c in coords]
            for key, coords in values.items()}, den


def _to_element(d, vec, den):
    """The AlgebraElement vec / den; a zero coordinate is the int 0."""
    return AlgebraElement.from_coords(
        d, tuple(Fraction(x, den) if x else 0 for x in vec))


def _fill(m, d, n, table, den):
    for name, value in (("d", d), ("n", n), ("table", table), ("den", den),
                        ("_tensor", None)):
        object.__setattr__(m, name, value)
    return m


class TruncSeries:
    """A series truncated at order N: degrees 0..N inclusive.  ``_absorbs``
    is (side, F) when absorb built it from F, else (None, None); equality,
    hashing and JSON ignore it."""

    __slots__ = ("d", "N", "maps", "_absorbs")

    def __init__(self, d, N, maps):
        if N < 0:
            raise ValueError(f"a series has order N >= 0, not {N}")
        maps = tuple(maps)
        if len(maps) != N + 1:
            raise ValueError(f"expected {N + 1} maps, got {len(maps)}")
        for n, m in enumerate(maps):
            if m.d != d or m.n != n:
                raise ValueError(f"map at degree {n} has shape (d={m.d}, n={m.n})")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_absorbs", (None, None))

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    def __getitem__(self, n):
        return self.maps[n]

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and (self.d, self.N) == (other.d, other.N)
                and self.maps == other.maps)

    def __hash__(self):
        return hash((self.d, self.N, self.maps))

    def __repr__(self):
        return f"TruncSeries(d={self.d}, N={self.N})"

    def __add__(self, other):
        if (self.d, self.N) != (other.d, other.N):
            raise ValueError("series shape mismatch")
        return TruncSeries(self.d, self.N,
                           [a + b for a, b in zip(self.maps, other.maps)])

    def scale(self, c):
        return TruncSeries(self.d, self.N, [m.scale(c) for m in self.maps])

    def truncate(self, N):
        if N > self.N:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.d, N, self.maps[:N + 1])

    def lead(self):
        """Smallest degree with a nonzero map; None for the zero series."""
        for n, m in enumerate(self.maps):
            if not m.is_zero():
                return n
        return None

    @classmethod
    def zero(cls, d, N):
        return cls(d, N, [MultiMap.zero(d, n) for n in range(N + 1)])

    @classmethod
    def constant(cls, value, N):
        maps = [MultiMap.constant(value)]
        maps += [MultiMap.zero(value.d, n) for n in range(1, N + 1)]
        return cls(value.d, N, maps)

    @classmethod
    def identity(cls, d, N):
        """The series I: degree 1 is the identity map, all else zero."""
        maps = [MultiMap.zero(d, n) for n in range(N + 1)]
        if N >= 1:
            maps[1] = MultiMap.identity(d)
        return cls(d, N, maps)

    def to_json(self):
        def pack(m):
            def nest(prefix, depth):
                if depth == 0:
                    return m.tensor.get(prefix, AlgebraElement.zero(m.d)).to_json()
                return [nest(prefix + (i,), depth - 1) for i in range(m.d * m.d)]
            if m.n == 0:
                return {"n": 0, "value": m.tensor.get((), AlgebraElement.zero(m.d)).to_json()}
            return {"n": m.n, "tensor": nest((), m.n)}
        return {"d": self.d, "N": self.N, "maps": [pack(m) for m in self.maps]}

    @classmethod
    def from_json(cls, obj):
        d = json_field(obj, "d", int, "a series")
        if d < 1:
            raise ValueError(f"a series needs d >= 1, not {d}")
        N = json_field(obj, "N", int, "a series")
        maps = []
        for n, rec in enumerate(json_field(obj, "maps", list, "a series")):
            what = f"the series map at degree {n}"
            if json_field(rec, "n", int, what) != n:
                raise ValueError(f"maps out of order at degree {n}")
            # degree 0 is one 'value'; degree n nests n levels of d^2 lists
            level = [((), rec.get("tensor" if n else "value"))]
            for _ in range(n):
                if any(not isinstance(node, list) or len(node) != d * d
                       for _, node in level):
                    raise ValueError(f"{what} needs a 'tensor' of lists of "
                                     f"d^2 = {d * d} entries, {n} deep")
                level = [(key + (i,), sub) for key, node in level
                         for i, sub in enumerate(node)]
            maps.append(MultiMap(d, n, {key: AlgebraElement.from_json(leaf)
                                        for key, leaf in level}))
        return cls(d, N, maps)


def first_difference(a, b):
    """The first entry where two series differ, as a JSON-ready witness, or None."""
    for n in range(min(a.N, b.N) + 1):
        if a[n] != b[n]:
            keys = sorted(set(a[n].tensor) | set(b[n].tensor))
            for key in keys:
                va = a[n].tensor.get(key, AlgebraElement.zero(a.d))
                vb = b[n].tensor.get(key, AlgebraElement.zero(b.d))
                if va != vb:
                    return {"degree": n, "entry": list(key),
                            "lhs": va.to_json(), "rhs": vb.to_json()}
    if a.N != b.N:
        return {"degree": min(a.N, b.N) + 1, "entry": None,
                "lhs": f"order {a.N}", "rhs": f"order {b.N}"}
    return None


# -- membership predicates -------------------------------------------------------

def _has_inverse(m):
    try:
        m.inverse()
    except NotInvertibleError:
        return False
    return True


def is_ginv(f):
    """Constant term invertible."""
    return _has_inverse(f[0])


def is_gdif(f):
    """Zero constant term, bijective linear term."""
    return f[0].is_zero() and f.N >= 1 and _has_inverse(f[1])


def absorbed(f, side):
    """F with f = I.F (side 0) or f = F.I (side 1), or None for neither:
    f_n(x_1, ..., x_n) = x_1 F_{n-1}(x_2, ...) or F_{n-1}(..., x_{n-1}) x_n.

    A series that absorb built on this side returns the F it recorded.  For
    any other series, E_pq A is row q of A moved to row p, and A E_pq is
    column p moved to column q.  So f has the shape exactly when, for each
    source line (row q or column p) and the other arguments `rest`, the d
    entries with a matrix unit of that source in the absorbing slot are all
    present or all absent, each zero off its target line and all carrying
    one line: that line of F_{n-1}(rest).  One pass over each table tests
    this and reads F off; F's entries are f's, so f's denominator is F's
    least one.
    """
    if f._absorbs[0] == side:
        return f._absorbs[1]
    if not f[0].is_zero() or f.N < 1:
        return None
    d = f.d
    at = _lines(d, side)
    maps = []
    for n in range(1, f.N + 1):
        table, lines, stripped = f[n].table, {}, {}
        for key, vec in table.items():
            if side:
                src, dst = divmod(key[-1], d)
                group = (src, key[:-1])
            else:
                dst, src = divmod(key[0], d)
                group = (src, key[1:])
            line = vec[at[dst]]
            if (len(vec) - vec.count(0) != len(line) - line.count(0)
                    or lines.setdefault(group, line) != line):
                return None
        if len(table) != d * len(lines):
            return None
        for (src, rest), line in lines.items():
            stripped.setdefault(rest, [0] * (d * d))[at[src]] = line
        maps.append(MultiMap._of(d, n - 1, stripped, f[n].den))
    return TruncSeries(d, f.N - 1, maps)


def absorb(F, side):
    """I.F (side 0) or F.I (side 1), one order longer than F: the inverse of
    absorbed.  Each degree moves F's entries (_times_x) and multiplies
    none; mul_at(I, F) and mul_at(F, I) come here through the shape of I."""
    return _absorbing(F, side, [MultiMap.zero(F.d, 0)]
                      + [_times_x(m, side) for m in F.maps])


def _absorbing(F, side, maps):
    """The series with the given maps, which are those of absorb(F, side),
    recording (side, F); the one writer of the record."""
    f = TruncSeries(F.d, F.N + 1, maps)
    object.__setattr__(f, "_absorbs", (side, F))
    return f


def absorb_at(F, side, order):
    """absorb(F, side) through order <= F.N + 1, from F below degree order."""
    return (absorb(F.truncate(order - 1), side) if order
            else TruncSeries.zero(F.d, 0))


def _lines(d, side):
    """The slices of the rows (side 0) or the columns (side 1) of a d x d
    coordinate vector: the lines that a matrix unit in an absorbing slot
    moves."""
    return [slice(i, None, d) if side else slice(i * d, i * d + d)
            for i in range(d)]


def gi_stripped(f):
    """F when f = I.F with F in G^inv, or None: every f_n factors through its
    first argument as f_n(x_1, ..., x_n) = x_1 F_{n-1}(x_2, ..., x_n)
    (absorbed(f, 0)), and F_0 = f_1(1) is invertible.  The one read of the
    G^I shape."""
    F = absorbed(f, 0)
    return F if F is not None and _has_inverse(F[0]) else None


def is_gi(f):
    """f is in G^I (gi_stripped)."""
    return gi_stripped(f) is not None


# -- the integer kernel -------------------------------------------------------------
#
# Products, compositions, both inverses and the tree sums run on the stored
# (integer table, denominator) pairs.  The terms of a sum are merged over
# one running common denominator (_merge), which reduces the result to the
# least common denominator, drops zero vectors and returns the MultiMap.
# Products take d x d matrix products (_products), but A.I.B takes outer
# products of a column and a row (_sandwich), and I.(A.B) moves entries.

def _merge(terms, d, n):
    """The degree-n map summing a stream of (integer table, denominator)
    terms.

    The accumulator is rescaled only when a term's denominator does not
    divide the running one.
    """
    dd = d * d
    acc, acc_den = {}, 1
    for table, den in terms:
        if not table:
            continue
        if acc_den % den:
            common = acc_den * den // gcd(acc_den, den)
            up = common // acc_den
            for vec in acc.values():
                vec[:] = [up * x for x in vec]
            acc_den = common
        up = acc_den // den
        for key, vec in table.items():
            cur = acc.get(key)
            if cur is None:
                acc[key] = [up * x for x in vec]
            elif up == 1:
                for i in range(dd):
                    cur[i] += vec[i]
            else:
                for i in range(dd):
                    cur[i] += up * vec[i]
        # a term can be as large as the sum: free it before the next is built
        del table
    if acc_den > 1:
        g = acc_den
        for vec in acc.values():
            g = gcd(g, *vec)
            if g == 1:
                break
        if g > 1:
            acc_den //= g
            for vec in acc.values():
                vec[:] = [x // g for x in vec]
    return MultiMap._of(d, n, {key: vec for key, vec in acc.items() if any(vec)},
                        acc_den)


def _products(a, b, d):
    """(a (x) b)(x, y) = a(x) b(y) for two maps: d x d integer matrix
    products of the rows of a(x) with the columns of b(y)."""
    out = {}
    cols = [(kb, [vb[j::d] for j in range(d)]) for kb, vb in b.table.items()]
    for ka, va in a.table.items():
        rows = [va[i * d:(i + 1) * d] for i in range(d)]
        for kb, bcols in cols:
            out[ka + kb] = [sum(map(mul, row, col))
                            for row in rows for col in bcols]
    return out, a.den * b.den


def _sandwich(a, b, d):
    """(a (x) I (x) b)(x, E_pq, y) = a(x) E_pq b(y) for two maps: entry
    (r, s) is a(x)_rp b(y)_qs, so each output vector is the outer product
    of column p of a(x) with row q of b(y).  No sums; zero columns and
    rows are skipped.  Yields the table in parts of about as many keys as
    a and b hold, over a.den * b.den, so _merge never holds the whole
    product beside its sum."""
    rows = [[] for _ in range(d)]
    for kb, vb in b.table.items():
        for q in range(d):
            row = vb[q * d:(q + 1) * d]
            if any(row):
                rows[q].append((kb, row))
    den, part, size = a.den * b.den, {}, len(a.table) + len(b.table)
    for ka, va in a.table.items():
        for p in range(d):
            col = va[p::d]
            if not any(col):
                continue
            for q in range(d):
                head = ka + (p * d + q,)
                for kb, row in rows[q]:
                    part[head + kb] = [x * y for x in col for y in row]
                if len(part) >= size:
                    yield part, den
                    part = {}
    yield part, den


def tensor_product_sum(pairs, d, n):
    """The degree-n map summing a (x) b over pairs of maps."""
    return _merge((_products(a, b, d) for a, b in pairs), d, n)


def _across_sum(pairs, d, n):
    """The degree-n map summing a (x) I (x) b over pairs of maps."""
    return _merge((t for a, b in pairs for t in _sandwich(a, b, d)), d, n)


def _shape(f):
    """(side, F) with f = I.F (side 0) or f = F.I (side 1), else (None,
    None): the record absorb wrote, or absorbed on each side; the one reader
    of an absorbing shape behind mul_at, compose_at and comp_inverse."""
    if f._absorbs[0] is not None:
        return f._absorbs
    for side in (0, 1):
        F = absorbed(f, side)
        if F is not None:
            return side, F
    return None, None


def mul_at(f, g, order):
    """(f.g) to the given order: (f.g)_n = sum_k f_k(x_1..x_k) g_{n-k}(rest).

    Exact as long as every consumed degree exists: degree n needs f_k for
    k >= lead(f) down to n - g.N and g_{n-k} symmetrically, so the order is
    admissible iff order <= min(f.N + lead(g), g.N + lead(f)).

    A factor of the shape I.F or F.I (_shape) is multiplied through F:
    (I.F).g = I.(F.g) and f.(G.I) = (f.G).I are taken one order lower and
    absorbed, and (F.I).g and f.(I.G) are products across the unit, whose
    degree n sums F_k(x_1..x_k) x_{k+1} g_{n-1-k}(rest) on _sandwich: no
    table of F.I or I.G is built and no d x d product taken.
    """
    if f.d != g.d:
        raise ValueError("dimension mismatch")
    lf, lg = f.lead(), g.lead()
    if order > f.N + (lg if lg is not None else order) or \
       order > g.N + (lf if lf is not None else order):
        raise ValueError(f"order {order} not determined by inputs of orders "
                         f"{f.N} and {g.N}")
    return _mul_shaped(f, g, order, None, None)


def _mul_shaped(f, g, order, f_shape, g_shape):
    """mul_at past its admissibility check, which holds again one order
    lower on F or G; f_shape and g_shape are the _shape of f and g where
    it has been read, else None, so the recursion reads the shape of the
    factor it keeps only once."""
    a, b, gap = f, g, 0
    if order:
        side, F = f_shape or _shape(f)
        if side == 0:
            return absorb(_mul_shaped(F, g, order - 1, None, g_shape), 0)
        g_side, G = g_shape or _shape(g)
        if g_side == 1:
            return absorb(_mul_shaped(f, G, order - 1, (side, F), None), 1)
        if side == 1:
            a, gap = F, 1
        elif g_side == 0:
            b, gap = G, 1
    products = _across_sum if gap else tensor_product_sum
    out = [products(((a[k], b[n - gap - k]) for k in range(
                        max(0, n - gap - b.N), min(n - gap, a.N) + 1)), f.d, n)
           for n in range(order + 1)]
    return TruncSeries(f.d, order, out)


# The k-fold contraction f_k(g_{m_1}(...), ..., g_{m_k}(...)) proceeds slot
# by slot on integer coordinate vectors (_slot_step).  A state maps
# (output prefix, remaining f-key suffix) to a vector, the prefix being the
# g keys contracted so far, concatenated.  _contract takes one table per
# slot and serves evaluation and every tree sum; _composition_degree sums
# the states of all compositions that have consumed the same degree, whose
# prefixes have the same length.

def _slot_step(state, tbl, dd, out=None):
    """Contract the next slot of every state entry against the table tbl:
    (prefix, (j, rest)) -> v adds tbl[key][j] v at (prefix + key, rest) for
    each key of tbl, into out (a new dict when None), which is returned."""
    new = {} if out is None else out
    for (prefix, jsuf), vec in state.items():
        j0, rest = jsuf[0], jsuf[1:]
        for key_i, avec in tbl.items():
            c = avec[j0]
            if not c:
                continue
            nk = (prefix + key_i, rest)
            cur = new.get(nk)
            if cur is None:
                new[nk] = [c * x for x in vec]
            else:
                for t in range(dd):
                    cur[t] += c * vec[t]
    return new


def _contract(fk_table, fk_den, parts, dd):
    """f_k contracted against one (table, denominator) part per slot.

    Returns ({concatenated output key: integer vector}, denominator).
    """
    state = {((), j): vec for j, vec in fk_table.items()}
    den = fk_den
    for tbl, dn in parts:
        state = _slot_step(state, tbl, dd)
        den *= dn
    return {prefix: vec for (prefix, _), vec in state.items()}, den


def _composition_degree(f_maps, g_maps, k_min, n, d, first=None):
    """The degree-n map summing f_k(g_{m_1}, ..., g_{m_k}) over k >= k_min
    and m_1 + ... + m_k = n, skipping zero or missing g_m; f_maps and
    g_maps are indexed by degree.  With `first`, the table of a degree-1
    map over denominator 1, every f_k reads it in its first slot and g in
    the other k - 1, whose degrees sum to n - 1.

    A term with one g slot reads the top g (degree n, or n - 1 after
    `first`) alone and is one _contract.  Otherwise f_k keeps one state
    per consumed degree s (_slot_step), and a slot contracts g_m only while
    s + m leaves a degree for each later slot; the last slot takes
    m = n - s alone.  These terms read g below the top only, each brought
    to their least common denominator D, so the term of f_k is over
    den(f_k) D^(number of g slots) and no table of the top degree is
    copied.
    """
    dd = d * d
    s0 = 0 if first is None else 1  # the degree that `first` consumes
    top = n - s0
    below = [m for m in range(1, min(top, len(g_maps))) if g_maps[m].table]
    D = lcm(*(g_maps[m].den for m in below))
    g_tabs = {}
    for m in below:
        up, table = D // g_maps[m].den, g_maps[m].table
        g_tabs[m] = table if up == 1 else {
            key: [up * x for x in vec] for key, vec in table.items()}
    head = [] if first is None else [(first, 1)]

    def terms():
        for k in range(k_min, min(n, len(f_maps) - 1) + 1):
            fk = f_maps[k]
            if fk.is_zero():
                continue
            if k - s0 == 1:
                if top < len(g_maps) and g_maps[top].table:
                    yield _contract(fk.table, fk.den, head + [
                        (g_maps[top].table, g_maps[top].den)], dd)
                continue
            state = {((), j): vec for j, vec in fk.table.items()}
            if first is not None:
                state = _slot_step(state, first, dd)
            states = {s0: state}
            for left in reversed(range(k - s0)):  # g slots after this one
                new = {}
                for s, state in states.items():
                    if not state:
                        continue
                    for m in ([n - s] if not left else below):
                        if s + m > n - left:
                            break
                        if m in g_tabs:
                            new[s + m] = _slot_step(state, g_tabs[m], dd,
                                                    new.get(s + m))
                states = new
            if states.get(n):
                # popped, so the term is the only table left to free
                yield ({prefix: vec for (prefix, _), vec
                        in states.pop(n).items()}, fk.den * D ** (k - s0))
    return _merge(terms(), d, n)


def compose_at(f, g, order):
    """(f o g) to the given order; g must have zero constant term.

    Degree n consumes f_k for k <= n // lead(g) and g_m for
    m <= n - (lead_+(f) - 1) * lead(g), where lead_+ is the first nonzero
    positive degree; the output order is admissible only when every consumed
    degree lies inside the truncations.

    An outer f = I.F or F.I (_shape) with order >= lead(g) composes as
    the product g.(F o g) or (F o g).g, F o g to order - lead(g), and
    mul_at takes that product through the shape of g; any other f sums f_k
    over the compositions of each degree.
    """
    if f.d != g.d:
        raise ValueError("dimension mismatch")
    if not g[0].is_zero():
        raise ValueError("composition needs a zero constant term on the right")
    d = f.d
    lg = g.lead()
    if lg is None:
        maps = [f[0]] + [MultiMap.zero(d, n) for n in range(1, order + 1)]
        return TruncSeries(d, order, maps)
    pos_lead = next((k for k in range(1, f.N + 1) if not f[k].is_zero()), None)
    if order // lg > f.N or \
       (pos_lead is not None and order - (pos_lead - 1) * lg > g.N):
        raise ValueError(f"order {order} not determined by inputs of orders "
                         f"{f.N} and {g.N}")
    side, F = _shape(f)
    if side is not None and order >= lg:
        return mul_at(*_ordered(g, compose_at(F, g, order - lg), side), order)
    out = [f[0]] + [_composition_degree(f.maps, g.maps, 1, n, d)
                    for n in range(1, order + 1)]
    return TruncSeries(d, order, out)


def _ordered(x, y, side):
    """The factors of x.y (side 0) or y.x (side 1): x stands on the side of
    the absorbed argument."""
    return (y, x) if side else (x, y)


def mult_inverse(f):
    """Inverse for the convolution product; needs f in G^inv.

    inv_n = -c0 sum_{k>=1} f_k (x) inv_{n-k} with c0 = f_0^{-1}; the factor
    -c0 is multiplied into each f_k once.
    """
    d, N = f.d, f.N
    try:
        c0 = f[0].inverse()
    except NotInvertibleError:
        raise ValueError("constant term is not invertible") from None
    left = c0.scale(-1)
    scaled = [None] + [tensor_product_sum([(left, f[k])], d, k)
                       for k in range(1, N + 1)]
    inv = [c0]
    for n in range(1, N + 1):
        inv.append(tensor_product_sum(((scaled[k], inv[n - k])
                                       for k in range(1, n + 1)), d, n))
    return TruncSeries(d, N, inv)


def comp_inverse(f):
    """Inverse for composition; needs f in G^dif.

    For f = I.F or F.I (_shape) the reversion is revert_absorbed(F, side).
    Otherwise g_1 = f_1^{-1} and g_n = -f_1^{-1}(sum_{k>=2} f_k(g_{m_1}, ...,
    g_{m_k})), -f_1^{-1} contracted into each f_k once, as an integer
    matrix.
    """
    if not f[0].is_zero() or f.N < 1:
        raise ValueError("series is not compositionally invertible")
    side, F = _shape(f)
    if side is not None:
        return revert_absorbed(F, side)
    d, N = f.d, f.N
    try:
        g1 = f[1].inverse()
    except NotInvertibleError:
        raise ValueError("series is not compositionally invertible") from None
    neg = g1.scale(-1)
    scaled = [None, None] + [
        _merge([_contract(neg.table, neg.den, [(f[k].table, f[k].den)],
                          d * d)], d, k)
        for k in range(2, N + 1)]
    g = [MultiMap.zero(d, 0), g1]
    for n in range(2, N + 1):
        g.append(_composition_degree(scaled, g, 2, n, d))
    return TruncSeries(d, N, g)


def revert_absorbed(F, side):
    """comp_inverse of I.F (side 0) or F.I (side 1), given F: the series
    g = I.S or S.I with g.(F o g) = I or (F o g).g = I, that is S.(F o g) = 1
    or (F o g).S = 1.  With c = F_0^{-1}, S_0 = c and S_{n-1} is
    sum_{a<n} S_{a-1} (x) (F o g)_{n-a} (-c) or its mirror, each (F o g)_j
    built once with -c multiplied in, every product taken on S."""
    d, N = F.d, F.N + 1
    try:
        c = F[0].inverse()
    except NotInvertibleError:
        raise ValueError("series is not compositionally invertible") from None
    neg = c.scale(-1)
    S = [c]
    g = [MultiMap.zero(d, 0), _times_x(c, side)]
    scaled = [None]
    for n in range(2, N + 1):
        fg = _composition_degree(F.maps, g, 1, n - 1, d)
        scaled.append(tensor_product_sum([_ordered(fg, neg, side)], d, n - 1))
        S.append(tensor_product_sum((_ordered(S[a - 1], scaled[n - a], side)
                                     for a in range(1, n)), d, n - 1))
        g.append(_times_x(S[n - 1], side))
    return _absorbing(TruncSeries(d, N - 1, S), side, g)


# -- tree-indexed evaluation ------------------------------------------------------
#
# For a binary tree t with n vertices, f_t is the n-multilinear map built by
# reading t along right spines: if t has spine length m with left subtrees
# s_1..s_m, then f_t(x_1..x_n) = f_m(v_1, ..., v_m) where
# v_i = f_{s_i}(arguments under s_i) . x_{spine position of vertex i},
# and f_leaf = 1.  The two-series variant alternates which series supplies
# the spine map at each nesting depth, outermost from g.

def alt_tree_eval(f, g, t, args):
    """(f u g)_t (args); spine maps come from g at the outermost level."""
    if is_leaf(t):
        raise ValueError("the empty tree does not index a map")
    if len(args) != tree_size(t):
        raise ValueError("argument count must match the vertex count")
    return _alt_eval(f, g, t, tuple(args))


def tree_eval(f, t, args):
    """f_t(args): the one-series case."""
    return alt_tree_eval(f, f, t, args)


def _alt_eval(f, g, t, args):
    parts = comb_decompose(t)
    m = len(parts)
    if m > g.N:
        raise ValueError(f"tree needs a degree-{m} map but the series stops at {g.N}")
    values = []
    pos = 0
    for s in parts:
        w = tree_size(s)
        if w == 0:
            values.append(args[pos])
        else:
            values.append(_alt_eval(g, f, s, args[pos:pos + w]) * args[pos + w])
        pos += w + 1
    return g[m](*values)


# -- tree sums as tensors -----------------------------------------------------------
#
# Every tree sum in the package (the boxed convolutions, both moment-cumulant
# conversions, the product oracle) evaluates tree maps at arguments that are
# free variables x or the unit, chosen by the parity of the position: box
# reads x,1,x,1,..., line 1,x,1,x,..., the moments x,x,x,....  A subtree's
# value then depends only on the subtree, the parity at which its argument
# segment starts and the series supplying its spine, and it is a multilinear
# map in the x's of that segment.  TreeTensors builds each such map once, as
# an integer tensor over one denominator, instead of evaluating every tree at
# every basis key.


def _times_units(table, d, side):
    """The tensor of (x, x_1..x_k) -> x T(x_1..x_k) (side 0) or
    (x_1..x_k, x) -> T(x_1..x_k) x (side 1), for T given by `table`.

    E_rs T(..) moves row s of T(..) to row r, and T(..) E_rs moves column r
    to column s; each zeroes the rest.
    """
    at = _lines(d, side)
    out = {}
    for key, vec in table.items():
        for src in range(d):
            line = vec[at[src]]
            if not any(line):
                continue
            for dst in range(d):
                new = [0] * (d * d)
                new[at[dst]] = line
                if side:
                    out[key + (src * d + dst,)] = new
                else:
                    out[(dst * d + src,) + key] = new
    return out


class TreeTensors:
    """Tree maps at one fixed pattern of x and unit arguments, as tensors.

    `series` holds one or two sequences of MultiMaps indexed by degree (the
    ``maps`` of a TruncSeries, or a list that grows between calls);
    `x_at[p]` says whether the argument at a position of parity p is a free
    variable x rather than the unit.  Without `freeness` the spine series
    alternates with the nesting depth, as in alt_tree_eval.  With it, a
    spine whose arguments all sit at parity p reads series[p] and a spine
    that mixes the parities is zero, as in mixed_tree_cumulant.

    A tree's value is its spine map contracted (_contract) against one slot
    table per spine vertex: the inner subtree's tensor times E_k when the
    vertex's argument is an x, the inner tensor alone when it is the unit,
    and e_k or the unit when the subtree is empty.  The slots of inner
    subtrees are memoised on (subtree, parity of its segment start, series
    index), each with the subtree's width beside it, so no tree is walked
    for its size; the trees handed to tree_sum are not.  The memo belongs
    to the object, which one call owns.
    """

    def __init__(self, d, series, x_at, freeness=False):
        dd = d * d
        self.d = d
        self.series = series
        self.x_at = x_at
        self.freeness = freeness
        # a pattern that ignores parity needs no parity in its memo keys
        self._parity_mask = 1 if freeness or x_at[0] != x_at[1] else 0
        self._slots = {}
        self._x_slot = ((MultiMap.identity(d).table, 1), 0)
        self._unit_slot = (({(): [int(i % (d + 1) == 0) for i in range(dd)]},
                            1), 0)

    def tree_sum(self, forest, n, role=0):
        """The degree-n MultiMap summing the trees' maps at the pattern, in
        the n x's of each tree; outer spines from series[role] unless
        `freeness` decides.  The trees' tables are merged over one running
        common denominator."""
        return _merge((self.value(t, 0, role)[:2] for t in forest), self.d, n)

    def value(self, t, parity, role):
        """(integer table, denominator, width) of the tree t whose argument
        segment starts at `parity`, its spine from series[role] unless
        `freeness` decides; keys run over the x's of the segment.  A zero
        table comes with width None: it zeroes every tree it sits in, so no
        caller reads that width."""
        parts = comb_decompose(t)
        if self.freeness:
            inner = 0
        else:
            spine_map = self._spine_map(role, len(parts))
            if spine_map is None:
                return _ZERO_VALUE
            inner = (role + 1) % len(self.series)
        slots = []
        pos = parity
        for s in parts:
            slot, w = self._slot(s, pos & 1, inner)
            if not slot[0]:
                return _ZERO_VALUE
            if self.freeness:
                # the spine reads the series of its arguments' parity, and
                # is zero as soon as they mix parities
                if slots and (pos + w) & 1 != role:
                    return _ZERO_VALUE
                role = (pos + w) & 1
            slots.append(slot)
            pos += w + 1
        if self.freeness:
            spine_map = self._spine_map(role, len(parts))
            if spine_map is None:
                return _ZERO_VALUE
        table, den = _contract(spine_map.table, spine_map.den, slots,
                               self.d * self.d)
        return table, den, pos - parity

    def _spine_map(self, role, k):
        """series[role]'s degree-k map, or None when it is zero."""
        maps = self.series[role]
        if k >= len(maps):
            raise ValueError(f"tree needs a degree-{k} map but the "
                             f"series stops at {len(maps) - 1}")
        return None if maps[k].is_zero() else maps[k]

    def _slot(self, s, parity, role):
        """((table, den), width) of the slot that subtree s fills, its
        segment at `parity`; memoised with the width beside the slot."""
        if not s:
            return self._x_slot if self.x_at[parity] else self._unit_slot
        key = (s, parity & self._parity_mask, role)
        entry = self._slots.get(key)
        if entry is None:
            table, den, w = self.value(s, parity, role)
            if table and self.x_at[(parity + w) & 1]:
                table = _times_units(table, self.d, 1)
            entry = self._slots[key] = ((table, den), w)
        return entry


_ZERO_VALUE = ({}, 1, None)


# -- the same sums degree by degree --------------------------------------------
#
# The tree sums define the boxed convolutions and the moment series, but
# each also satisfies a composition identity whose degree n reads only
# lower degrees of its own output (Dykema's multilinear function series).
# With Q = redred.I and P = (1 + m).I, so that P_1 = I and
# P_j(x_1..x_j) = m_{j-1}(x_1..x_{j-1}) x_j:
#
#   red_n  = sum f_{r+1}(x, Q_{m_1}, ..., Q_{m_r})  over 1 + m_1 + ... + m_r = n
#   redred = strip_identity(g) o red,  redred_0 = g_1(1)
#   m_n    = sum k_j(P_{m_1}, ..., P_{m_j})          over m_1 + ... + m_j = n
#
# red_n reads redred only below degree n - 1 and m_n reads m only below
# degree n, so each output grows one degree per step on the integer kernel:
# one _composition_degree per degree (red_n with x in f's first slot), no
# tree walked.
#
# A series that absorbs its first argument, f = I.F (absorbed), is
# contracted through F, whose degree-n table is d^2 times smaller than
# f's at degree n + 1:
#
#   red = I.(F o Q),  so red_n = x (F o Q)_{n-1}
#   m = k o P = P.(K o P) for k = I.K, so with m = I.M
#       M_j = (K o P)_j + sum_{a=2}^{j+1} M_{a-2}.x.(K o P)_{j+1-a}
#
# The cumulants solve the second equation for K_j given M, through
# (K o P)_j = K_j + (the composition over K below degree j).  The sum is a
# product across the unit (_sandwich).  Cumulant and moment series have
# the I.K shape, so the conversions run on K and M alone; red keeps the
# full recursion for an f outside it.  None of these contracts a table of
# the top degree, and for g = I.G boxconv reads box and line off the same
# red/redred pass.


def _times_x(m, side):
    """The degree-(n+1) map (x, x_1..x_n) -> x m(x_1..x_n) (side 0) or
    (x_1..x_n, x) -> m(x_1..x_n) x (side 1) of a degree-n map; it moves the
    entries without changing them, so `den` stays the least common
    denominator."""
    return MultiMap._of(m.d, m.n + 1, _times_units(m.table, m.d, side), m.den)


def red_and_redred(f, g, red_order, redred_order):
    """red(f, g) through red_order and redred(f, g) through redred_order,
    as series, for red_order - 2 <= redred_order <= red_order: red_n needs
    redred through degree n - 2, and redred_n needs red through n.
    boxconv reads its four variants off them; boxconv_by_trees is their
    tree-sum definition.

    When f = I.F (absorbed(f, 0)), red = I.R with R = F o Q and red_n =
    x R_{n-1}, and red records R as absorb does (for red_order >= 1).
    strip_identity(g) is G when g = I.G, and is read off g's unit slots
    otherwise."""
    d = f.d
    x = MultiMap.identity(d).table
    F, G = absorbed(f, 0), absorbed(g, 0)
    strip = G.maps if G is not None else [None] + [
        g[m + 1].unit_in_first_slot() for m in range(1, redred_order + 1)]
    red = [MultiMap.zero(d, 0), f[1]]
    redred = [MultiMap.constant(g[1](AlgebraElement.unit(d)))]
    R = None if F is None else [F[0]]
    q = [MultiMap.zero(d, 0)]  # q[m] = Q_m
    for n in range(1, red_order + 1):
        if n >= 2:
            q.append(_times_x(redred[n - 2], 1))
            if F is not None:
                R.append(_composition_degree(F.maps, q, 1, n - 1, d))
                red.append(_times_x(R[n - 1], 0))
            else:
                red.append(_composition_degree(f.maps, q, 2, n, d, first=x))
        if n <= redred_order:
            redred.append(_composition_degree(strip, red, 1, n, d))
    red = TruncSeries(d, red_order, red[:red_order + 1])
    if F is not None and red_order:
        red = _absorbing(TruncSeries(d, red_order - 1, R), 0, red.maps)
    return red, TruncSeries(d, len(redred) - 1, redred)  # degree 0 at least


def _spine_tail(M, kp, j, d):
    """sum_{a=2}^{j+1} M_{a-2}.x.(K o P)_{j+1-a}, with kp[i] = (K o P)_i,
    on _sandwich: M_j minus (K o P)_j."""
    return _across_sum(((M[a - 2], kp[j + 1 - a]) for a in range(2, j + 2)),
                       d, j)


def moments_by_recursion(K):
    """M of the moment series m = I.M of the cumulant series k = I.K: M_j is
    (K o P)_j plus _spine_tail, with P_1 = I and P_j = x.M_{j-2}.x over the
    moments found so far.  The tree sum m_n = sum over n-vertex trees t of
    k_t defines m."""
    d = K.d
    p = [MultiMap.zero(d, 0), MultiMap.identity(d)]
    kp, M = [K[0]], []
    for j in range(K.N + 1):
        if j >= 2:
            p.append(_times_x(_times_x(M[j - 2], 1), 0))
        if j >= 1:
            kp.append(_composition_degree(K.maps, p, 1, j, d))
        M.append(kp[j] + _spine_tail(M, kp, j, d))
    return TruncSeries(d, K.N, M)


def cumulants_by_recursion(M):
    """K of the cumulant series k = I.K with moments m = I.M, inverting
    moments_by_recursion degree by degree: (K o P)_j = M_j minus
    _spine_tail, and K_j, the one term of (K o P)_j that reads K at degree
    j, is that minus the composition over K below degree j."""
    d = M.d
    p = [MultiMap.zero(d, 0), MultiMap.identity(d)]
    p += [_times_x(_times_x(M[j - 2], 1), 0) for j in range(2, M.N + 1)]
    kp, K = [], []
    for j in range(M.N + 1):
        kp.append(M[j] + _spine_tail(M, kp, j, d).scale(-1))
        K.append(kp[j] + _composition_degree(K, p, 1, j, d).scale(-1))
    return TruncSeries(d, M.N, K)


# -- the same maps through words ---------------------------------------------------
#
# When f_n(x_1...x_n) = x_1 f_n(1, x_2...) (the G^I shape), f extends to a
# module morphism from the tensor algebra, and f_t factors through a single
# word in B built by a two-generator recursion: the tree with one vertex reads
# its argument, a left subtree is folded to f(word) times the root argument,
# and a right subtree concatenates.  The equality with tree_eval is the
# content of the operadic description and is pinned by the test suite.
# The G^I shape belongs to the series, not to a tree: operad_evaluator(f)
# checks it once, and the evaluator it returns serves every tree of f.

def word_of_tree(f, t, args):
    """The element of the tensor algebra produced by reading t at args."""
    if is_leaf(t):
        raise ValueError("the empty tree produces no word")
    left, right = t
    s = tree_size(left)
    if s == 0:
        head = (args[0],)
    else:
        head = (apply_to_word(f, word_of_tree(f, left, args[:s])) * args[s],)
    if is_leaf(right):
        return head
    return head + word_of_tree(f, right, args[s + 1:])


def apply_to_word(f, word):
    """f as a map on the tensor algebra: a k-letter word feeds f_k."""
    if len(word) > f.N:
        raise ValueError(f"word of length {len(word)} exceeds order {f.N}")
    return f[len(word)](*word)


def operad_evaluator(f):
    """evaluate(t, args) = f_t(args) through the word recursion, for any tree t.

    f must have the G^I shape; that is checked here, once, so a caller that
    reads many trees of one series pays for one is_gi pass.
    """
    if not is_gi(f):
        raise ValueError("the word recursion is only valid for series in I.Mult")

    def evaluate(t, args):
        if len(args) != tree_size(t):
            raise ValueError("argument count must match the vertex count")
        return apply_to_word(f, word_of_tree(f, t, tuple(args)))

    return evaluate


def operad_eval(f, t, args):
    """f_t(args) computed through the word recursion; needs f in G^I shape.

    One tree: operad_evaluator(f) checks the shape and evaluates t.  To read
    several trees of one series, build the evaluator once instead.
    """
    return operad_evaluator(f)(t, args)


def word_action(f, u, v):
    """The module action on word pairs, u|v -> f(u) v.

    Together with concatenation this generates everything word_of_tree
    builds; the two operations satisfy three mixed associativity laws
    (u|v|w -> f(u)f(v)w, u (+) v (+) w, and f(u)v (+) w no matter how the
    pair operations are nested), which the verification suite checks on
    random words.
    """
    if not v:
        raise ValueError("the action needs a nonempty right word")
    return (apply_to_word(f, u) * v[0],) + tuple(v[1:])


# -- randomized series for the verification suites ---------------------------------

def random_multimap(rng, d, n, bound=3):
    return MultiMap(d, n, {key: random_element_from(rng, bound, d)
                           for key in product(range(d * d), repeat=n)})


def random_series(rng, d, N, kind, bound=3):
    """Draw a series from one of the structured classes.

    kind: 'ginv' (invertible constant term), 'gdif' (zero constant, bijective
    linear term), 'gi' (the I.h shape with h in G^inv), or 'mult' (zero
    constant term, no other constraint).
    """
    if kind == "ginv":
        maps = [MultiMap.constant(random_invertible_from(rng, bound, d))]
        maps += [random_multimap(rng, d, n, bound) for n in range(1, N + 1)]
        return TruncSeries(d, N, maps)
    if kind == "gdif":
        m1 = random_multimap(rng, d, 1, bound)
        while not _has_inverse(m1):
            m1 = random_multimap(rng, d, 1, bound)
        maps = [MultiMap.zero(d, 0), m1]
        maps += [random_multimap(rng, d, n, bound) for n in range(2, N + 1)]
        return TruncSeries(d, N, maps)
    if kind == "gi":
        return absorb(random_series(rng, d, N - 1, "ginv", bound), 0)
    if kind == "mult":
        maps = [MultiMap.zero(d, 0)]
        maps += [random_multimap(rng, d, n, bound) for n in range(1, N + 1)]
        return TruncSeries(d, N, maps)
    raise ValueError(f"unknown kind {kind!r}")
