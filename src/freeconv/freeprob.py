"""Random variables as cumulant series, and products of two free ones.

A variable enters only through its cumulant maps
``k_n(x1, ..., xn) = kappa(x1 a, x2 a, ..., xn a)``; there is no ambient
algebra object.  Freeness of ``a`` from ``b`` is imposed by fiat: any tree
cumulant whose spine mixes the two letters vanishes.  That rule plus the two
stand-alone series determines a value for every tree cumulant of a word in
``a`` and ``b``, which is enough to compute the moments of the product ``ab``
from first principles and to cross-check the boxed convolution, the
S/U-transform product formulas, and the tree-combinatorial structure behind
them.

The moments are defined as a sum over every tree of the tree cumulants.
``moments_by_trees``, ``cumulants_by_trees`` and the product oracle compute
such sums, each tree evaluated from its definition, at the tensor level:
``multiseries.TreeTensors`` builds each subtree's value once as a
multilinear map in the free arguments under it, rather than once per basis
tuple.  ``mixed_tree_cumulant`` and ``alt_tree_eval`` remain the
single-point definitions that the tensors are tested against.  The
conversions used everywhere else, ``moments_from_cumulants`` and
``cumulants_from_moments``, compute the same series degree by degree from
m = k o ((1 + m).I) and walk no tree; the tree sums are their oracles.
"""

import random
from itertools import product as _cartesian

from .algebra import AlgebraElement, random_element_from, random_invertible_from
from .multiseries import (MultiMap, TreeTensors, TruncSeries, absorb,
                          absorb_at, absorbed, alt_tree_eval, comp_inverse,
                          compose_at, cumulants_by_recursion, gi_stripped,
                          moments_by_recursion, mul_at, random_multimap,
                          random_series, tree_eval)
from .transforms import boxconv, s_prime, s_transform, u_transform
from .trees import (BE, BO, LEAF, NONE, SINGLE, classify, comb_decompose,
                    enumerate_trees, parity_trees, pi_set, right_comb, size,
                    splits, substitute, wedge, yb_set)
from .verify import Report


class CumulantSpec:
    """A random variable, recorded as its cumulant or its moment series.

    As cumulants, ``series[n]`` sends (x1, ..., xn) to the cumulant of the
    word x1 a x2 a ... xn a; as moments (the name MomentSpec), to
    E(x1 a x2 a ... xn a).  Either series must have the left-module shape
    x1 * (rest) with an invertible first coefficient; the latter is the
    standing invertibility assumption behind the S-transform.  The
    constructor checks the shape once (gi_stripped: the F stored in the
    series' memo when absorb built it, else one read of its tables, which
    the memo then keeps), so absorbed(spec.series, 0) reads F from the memo.
    """

    __slots__ = ("series",)

    def __init__(self, series):
        if gi_stripped(series) is None:
            raise ValueError("cumulant and moment series must have the shape "
                             "I.g with g(1) invertible")
        self.series = series

    @property
    def d(self):
        return self.series.d

    @property
    def N(self):
        return self.series.N

    def __eq__(self, other):
        return isinstance(other, CumulantSpec) and self.series == other.series

    def __repr__(self):
        return "CumulantSpec(d=%d, N=%d)" % (self.d, self.N)

    def to_json(self):
        return self.series.to_json()

    @classmethod
    def from_json(cls, obj):
        return cls(TruncSeries.from_json(obj))


# One class serves both: cumulant and moment series have the same shape.
MomentSpec = CumulantSpec


def moments_from_cumulants(k):
    """The moment series of the cumulant series k.

    moments_by_trees defines it, m_n = sum over all n-vertex trees of k_t;
    this computes M of m = I.M from K of k = I.K degree by degree as
    m = k o ((1 + m).I) (multiseries.moments_by_recursion), with no tree
    walked.
    """
    return MomentSpec(absorb(moments_by_recursion(absorbed(k.series, 0)), 0))


def cumulants_from_moments(m):
    """The cumulant series with moment series m, the inverse of
    moments_from_cumulants.

    Degree n of k o ((1 + m).I) reads k_n only through k_n(x_1, ..., x_n),
    so k_n is m_n minus the same composition over the cumulants below
    degree n (multiseries.cumulants_by_recursion, on K of k = I.K and M of
    m = I.M); cumulants_by_trees is the tree-sum definition.
    """
    return CumulantSpec(absorb(cumulants_by_recursion(absorbed(m.series, 0)),
                               0))


def moments_by_trees(k):
    """Sum the tree cumulants: m_n = sum over all n-vertex trees of k_t.

    The oracle for moments_from_cumulants.  The sum runs over every tree,
    each evaluated from its definition, at the tensor level: TreeTensors
    builds each subtree's k_t once as a multilinear map in its arguments,
    instead of per basis tuple.
    """
    d, N = k.d, k.N
    sums = TreeTensors(d, (k.series.maps,), (True, True))
    maps = [MultiMap.zero(d, 0)]
    maps += [sums.tree_sum(enumerate_trees(n), n) for n in range(1, N + 1)]
    return MomentSpec(TruncSeries(d, N, maps))


def cumulants_by_trees(m):
    """Invert the tree sum degree by degree: the oracle for
    cumulants_from_moments.

    At degree n the right comb is the only tree whose evaluation touches
    k_n; every other tree combines cumulants of degree < n, so subtracting
    their sum from m_n isolates k_n.  That sum is a tensor-level tree sum
    (TreeTensors) over the cumulants found so far; its memo of subtrees
    carries over from degree to degree, since a subtree of size < n reads
    only cumulants that are already fixed.
    """
    ser = m.series
    kmaps = [MultiMap.zero(m.d, 0), ser[1]]
    sums = TreeTensors(m.d, (kmaps,), (True, True))
    for n in range(2, m.N + 1):
        comb_n = right_comb(n)
        others = sums.tree_sum((t for t in enumerate_trees(n) if t != comb_n), n)
        kmaps.append(ser[n] + others.scale(-1))
    return CumulantSpec(TruncSeries(m.d, m.N, kmaps))


def speicher_relation_check(k, m):
    """Check the two moment-cumulant fixed-point equations.

    With M and K the stripped series (m = I.M, k = I.K), both
    M = (K o (I + I.M.I)) * (1 + I.M) and M = (1 + M.I) * (K o (I + I.M.I))
    must hold exactly through order N-1.  Returns a report dict.
    """
    if (k.d, k.N) != (m.d, m.N):
        raise ValueError("cumulant and moment series must share (d, N)")
    K, M = absorbed(k.series, 0), absorbed(m.series, 0)
    d, order = K.d, K.N
    ident = TruncSeries.identity(d, order)
    one = TruncSeries.constant(AlgebraElement.unit(d), order)
    im = absorb_at(M, 0, order)
    core = compose_at(K, ident + absorb_at(im, 1, order), order)
    report = Report("moment-cumulant", seed=None, order=order, dim=d)
    for cid, statement, lhs in (
            ("fixed-point-right", "M == (K o (I + I.M.I)) * (1 + I.M)",
             mul_at(core, one + im, order)),
            ("fixed-point-left", "M == (1 + M.I) * (K o (I + I.M.I))",
             mul_at(one + absorb_at(M, 1, order), core, order))):
        report.compare(cid, statement, lhs, M, {"order": order})
    return report.finish()


# ---------------------------------------------------------------------------
# mixed tree cumulants of words in two free letters


def _mixed(t, letters, ka, kb):
    """Evaluate one tree cumulant of a word of (coefficient, letter) pairs.

    The letters sitting on the outermost spine pick the cumulant that gets
    applied; if they disagree the whole value is zero by freeness, and no
    inner work happens.  Inner subtrees recurse, their values multiplying
    into the coefficient of the next spine letter.
    """
    parts = comb_decompose(t)
    spots = []
    pos = 0
    for s in parts:
        w = size(s)
        spots.append((s, pos, w))
        pos += w + 1
    spine = {letters[start + w][1] for _, start, w in spots}
    if len(spine) > 1:
        return AlgebraElement.zero(ka.d)
    series = ka if spine == {"a"} else kb
    if len(parts) > series.N:
        raise ValueError("tree needs a degree-%d cumulant but the "
                         "series stops at %d" % (len(parts), series.N))
    vals = []
    for s, start, w in spots:
        coeff = letters[start + w][0]
        if w:
            inner = _mixed(s, letters[start:start + w], ka, kb)
            if inner.is_zero():
                return AlgebraElement.zero(ka.d)
            coeff = inner * coeff
        vals.append(coeff)
    return series[len(parts)](*vals)


def mixed_tree_cumulant(t, letters, ka, kb):
    """Tree cumulant of a word w1 ... wn, each wi a pair (coefficient, letter).

    ``letters`` is a sequence of (AlgebraElement, "a" or "b") pairs, one per
    vertex of ``t`` in order; ``ka`` and ``kb`` are the CumulantSpecs of the
    two letters, assumed free from each other.
    """
    letters = tuple((coeff, name) for coeff, name in letters)
    if len(letters) != size(t):
        raise ValueError("expected %d letters, got %d"
                         % (size(t), len(letters)))
    for coeff, name in letters:
        if name not in ("a", "b"):
            raise ValueError("letters must be 'a' or 'b', got %r" % (name,))
        if coeff.d != ka.d:
            raise ValueError("coefficient dimension mismatch")
    if (ka.d, ka.N) != (kb.d, kb.N):
        raise ValueError("the two cumulant series must share (d, N)")
    return _mixed(t, letters, ka.series, kb.series)


def product_moments_oracle(ka, kb, order=None):
    """Moments of the product: E(x1 ab x2 ab ... xn ab), from first principles.

    Each degree sums the mixed tree cumulant over every tree on 2n vertices
    with the alternating word (x1 a, 1 b, x2 a, 1 b, ...).  No structural
    shortcuts: the only pruning is the freeness rule itself (a mixed spine
    is zero, and no work happens under it).  The sum runs at the tensor
    level: TreeTensors builds each subtree's mixed cumulant once as a
    multilinear map in the x's under it, instead of per basis tuple.
    """
    if (ka.d, ka.N) != (kb.d, kb.N):
        raise ValueError("the two cumulant series must share (d, N)")
    N = ka.N if order is None else order
    if not 1 <= N <= ka.N:
        raise ValueError("order must lie in 1..%d" % ka.N)
    d = ka.d
    sums = TreeTensors(d, (ka.series.maps, kb.series.maps), (True, False),
                       freeness=True)
    maps = [MultiMap.zero(d, 0)]
    maps += [sums.tree_sum(enumerate_trees(2 * n), n) for n in range(1, N + 1)]
    return MomentSpec(TruncSeries(d, N, maps))


def product_cumulants_oracle(ka, kb, order=None):
    """Cumulant series of ab for free a, b, via moments and back: tree sums
    both ways."""
    return cumulants_by_trees(product_moments_oracle(ka, kb, order))


def product_cumulants(ka, kb, order=None):
    """Cumulant series of ab computed by the boxed convolution (fast path)."""
    if (ka.d, ka.N) != (kb.d, kb.N):
        raise ValueError("the two cumulant series must share (d, N)")
    fa, fb = ka.series, kb.series
    if order is not None:
        if not 1 <= order <= ka.N:
            raise ValueError("order must lie in 1..%d" % ka.N)
        fa, fb = fa.truncate(order), fb.truncate(order)
    return CumulantSpec(boxconv("box", fa, fb))


# ---------------------------------------------------------------------------
# the identity suite


def _planted(t):
    return wedge(t, LEAF)


def _double_decompositions(t, planted_first):
    """All ways to write t as rho with planted trees and singles alternating.

    With planted_first, vertex i of rho receives a planted even-parity tree
    for even i and a single vertex for odd i; otherwise the roles swap.
    Returns the list of (rho, sigmas) that reproduce t.
    """
    n2 = size(t)
    found = []
    for k in range(1, n2 // 2 + 1):
        budget = n2 - 2 * k  # total vertices across the sigma_i
        for rho in yb_set(k):
            for sizes in _even_compositions(budget, k):
                pools = [parity_trees(BE, s) for s in sizes]
                for sigmas in _cartesian(*pools):
                    subs = []
                    for s in sigmas:
                        if planted_first:
                            subs.extend((_planted(s), ((), ())))
                        else:
                            subs.extend((((), ()), _planted(s)))
                    if substitute(rho, subs) == t:
                        found.append((rho, sigmas))
    return found


def _even_compositions(total, parts):
    """Ordered lists of `parts` even nonnegative integers summing to total."""
    if parts == 1:
        return [[total]] if total % 2 == 0 else []
    out = []
    for first in range(0, total + 1, 2):
        for rest in _even_compositions(total - first, parts - 1):
            out.append([first] + rest)
    return out


def _interleave_letters(xs, ys):
    letters = []
    for x, y in zip(xs, ys):
        letters.append((x, "a"))
        letters.append((y, "b"))
    return tuple(letters)


def verify_freeprob_identities(N=4, d=2, trials=10, seed=0):
    """Check the product formulas and their tree-combinatorial support.

    Random cumulant pairs feed the first-principles oracle, the boxed
    convolution, and the transform product rules; the structural checks run
    exhaustively over trees at sizes up to 2N.  Returns a report dict in the
    same shape as the transforms suite.
    """
    rng = random.Random(seed)
    report = Report("freeprob", seed=seed, order=N, dim=d, trials=trials)
    record, compare = report.record, report.compare

    for trial in range(trials):
        params = {"trial": trial}
        ka = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
        kb = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
        # tree-sum moments, so the round trip checks the cumulant recursion
        # against the tree sum
        ma = moments_by_trees(ka)

        record("moment-cumulant-round-trip",
               "cumulants_from_moments(moments_from_cumulants(k)) == k",
               cumulants_from_moments(ma) == ka, None, params)

        for c in speicher_relation_check(ka, ma)["checks"]:
            record("moment-cumulant-fixed-points",
                   "M == (K o (I + I.M.I)) * (1 + I.M) and its left-handed "
                   "twin", c["status"] == "pass", c.get("witness"), params)

        kab = product_cumulants_oracle(ka, kb)
        box = boxconv("box", ka.series, kb.series)
        compare("product-cumulants", "oracle cumulants of ab == box(ka, kb)",
                kab.series, box, params)

        s_ab = s_transform(kab.series)
        s_a, s_b = s_transform(ka.series), s_transform(kb.series)
        u_a, u_b = u_transform(ka.series), u_transform(kb.series)
        rhs = mul_at(s_b, compose_at(s_a, u_b, N - 1), N - 1)
        statement = "S(ab) == S(b) * (S(a) o U(b)), via oracle and via box"
        compare("s-of-product", statement, s_ab, rhs, params)
        compare("s-of-product", statement, s_transform(box), rhs, params)

        sp_a, sp_b = s_prime(ka.series), s_prime(kb.series)
        compare("s-of-product-primed", "S(ab) == (S'(b) * S(a)) o U(b)",
                s_ab, compose_at(mul_at(sp_b, s_a, N - 1), u_b, N - 1), params)

        compare("u-from-moments", "U(a) == (M.I) o (I.M)^{o-1}",
                u_a, compose_at(absorb(absorbed(ma.series, 0), 1),
                                comp_inverse(ma.series), N), params)

        compare("u-of-product", "U(ab) == U(a) o U(b)",
                u_transform(kab.series), compose_at(u_a, u_b, N), params)

        sp_ab = s_prime(kab.series)
        ua_inv = comp_inverse(u_a)
        compare("sprime-of-product", "S'(ab) == (S'(b) o U(a)^{o-1}) * S'(a)",
                sp_ab, mul_at(compose_at(sp_b, ua_inv, N - 1), sp_a, N - 1),
                params)
        compare("sprime-of-product-joint",
                "S'(ab) == (S'(b) * S(a)) o U(a)^{o-1}",
                sp_ab, compose_at(mul_at(sp_b, s_a, N - 1), ua_inv, N - 1),
                params)

        if d == 1:
            compare("s-of-product-scalar", "S(ab) == S(b) * S(a) when d == 1",
                    s_ab, mul_at(s_b, s_a, N - 1), params)

    # a constant cumulant series multiplies S-transforms without composing
    c = random_invertible_from(rng, 2, d)
    const_maps = [MultiMap.zero(d, 0),
                  MultiMap.from_function(d, 1, lambda x: x * c)]
    const_maps += [MultiMap.zero(d, n) for n in range(2, N + 1)]
    ka_c = CumulantSpec(TruncSeries(d, N, const_maps))
    kb_r = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
    box_c = boxconv("box", ka_c.series, kb_r.series)
    compare("product-cumulants-constant-factor",
            "oracle cumulants of ab == box(ka, kb) for constant ka",
            product_cumulants_oracle(ka_c, kb_r).series, box_c,
            {"constant": True})
    rhs = mul_at(s_transform(kb_r.series), s_transform(ka_c.series), N - 1)
    compare("s-of-product-constant-factor",
            "S(ab) == S(b) * S(a) when the cumulant series of a is constant",
            s_transform(box_c), rhs, {"constant": True})

    # fresh pair for the structural checks; each registers before its loop
    # and records every item, so a failure keeps its first failing item
    ka = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
    kb = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
    kab = product_cumulants_oracle(ka, kb)
    mab = moments_from_cumulants(kab)
    one = AlgebraElement.unit(d)

    cid = "split-iff-parity-class"
    statement = "a tree splits exactly when its parity classification succeeds"
    record(cid, statement, True, None, {"sizes": "1..%d" % (2 * N)})
    for sz in range(1, 2 * N + 1):
        for t in enumerate_trees(sz):
            record(cid, statement, splits(t) == (classify(t) != NONE),
                   {"tree": t})

    cid = "non-split-vanishing"
    statement = "kappa_t(x1 a, y1 b, ..., xn a, yn b) == 0 unless t splits"
    record(cid, statement, True, None, {"sizes": "2..%d" % (2 * N)})
    for n in range(1, N + 1):
        xs = [random_element_from(rng, 3, d) for _ in range(n)]
        for variant in ("units", "random"):
            if variant == "units":
                ys = [one] * n
            else:
                ys = [random_element_from(rng, 3, d) for _ in range(n)]
            letters = _interleave_letters(xs, ys)
            for t in enumerate_trees(2 * n):
                if not splits(t):
                    val = mixed_tree_cumulant(t, letters, ka, kb)
                    record(cid, statement, val.is_zero(),
                           {"tree": t, "n": n, "variant": variant})

    cid = "split-evaluation"
    statement = ("on a splitting tree the mixed cumulant is the alternating "
                 "two-series evaluation")
    record(cid, statement, True, None, {"sizes": "even 2..6, odd 1..7"})
    for n in range(1, min(N, 3) + 1):
        xs = [random_element_from(rng, 3, d) for _ in range(n)]
        ys = [random_element_from(rng, 3, d) for _ in range(n)]
        for t in parity_trees(BE, 2 * n):
            lhs = mixed_tree_cumulant(t, _interleave_letters(xs, ys), ka, kb)
            flat = []
            for x, y in zip(xs, ys):
                flat.extend((x, y))
            rhs = alt_tree_eval(ka.series, kb.series, t, tuple(flat))
            record(cid, statement, lhs == rhs, {"tree": t, "parity": "even"})
    for n in range(0, min(N - 1, 3) + 1):
        xs = [random_element_from(rng, 3, d) for _ in range(n + 1)]
        ys = [random_element_from(rng, 3, d) for _ in range(n)]
        for t in parity_trees(BO, 2 * n + 1):
            letters = list(_interleave_letters(xs[:n], ys)) + [(xs[n], "a")]
            lhs = mixed_tree_cumulant(t, letters, ka, kb)
            flat = []
            for x, y in zip(xs[:n], ys):
                flat.extend((x, y))
            flat.append(xs[n])
            rhs = alt_tree_eval(kb.series, ka.series, t, tuple(flat))
            record(cid, statement, lhs == rhs, {"tree": t, "parity": "odd"})

    cid = "even-parity-restriction"
    statement = ("restricting the product-moment sum to the even parity class "
                 "changes nothing")
    record(cid, statement, True, None, {"sizes": "2..%d" % (2 * N)})
    for n in range(1, N + 1):
        xs = [random_element_from(rng, 3, d) for _ in range(n)]
        letters = _interleave_letters(xs, [one] * n)
        full = AlgebraElement.zero(d)
        for t in enumerate_trees(2 * n):
            full = full + mixed_tree_cumulant(t, letters, ka, kb)
        even = AlgebraElement.zero(d)
        for t in parity_trees(BE, 2 * n):
            even = even + mixed_tree_cumulant(t, letters, ka, kb)
        record(cid, statement, full == even == mab.series[n](*xs), {"n": n})

    cid = "pi-partitions-even-class"
    statement = ("the per-tree families partition the even parity class, with "
                 "the right comb owning the doubled trees")
    record(cid, statement, True, None, {"sizes": "n <= 4"})
    for n in range(1, min(N, 4) + 1):
        seen = set()
        for t in enumerate_trees(n):
            for s in pi_set(t):
                record(cid, statement, s not in seen, {"tree": s, "n": n})
                seen.add(s)
        record(cid, statement, seen == set(parity_trees(BE, 2 * n)),
               {"n": n, "missing": True})
        record(cid, statement, pi_set(right_comb(n)) == frozenset(yb_set(n)),
               {"n": n, "right_comb": True})

    cid = "unique-double-decomposition"
    statement = ("each even-parity tree factors once as alternating planted "
                 "trees and single vertices, in either interleaving")
    record(cid, statement, True, None, {"sizes": "n <= 3"})
    for n in range(1, min(N, 3) + 1):
        for t in parity_trees(BE, 2 * n):
            for planted_first in (True, False):
                found = _double_decompositions(t, planted_first)
                record(cid, statement, len(found) == 1,
                       {"tree": t, "count": len(found),
                        "planted_first": planted_first})

    cid = "per-tree-extraction"
    statement = ("the product's tree cumulant is the sum of alternating "
                 "evaluations over its own family")
    record(cid, statement, True, None, {"sizes": "n <= 3"})
    for n in range(1, min(N, 3) + 1):
        xs = tuple(random_element_from(rng, 3, d) for _ in range(n))
        doubled = []
        for x in xs:
            doubled.extend((x, one))
        doubled = tuple(doubled)
        for t in enumerate_trees(n):
            lhs = tree_eval(kab.series, t, xs)
            rhs = AlgebraElement.zero(d)
            for s in pi_set(t):
                rhs = rhs + alt_tree_eval(ka.series, kb.series, s, doubled)
            record(cid, statement, lhs == rhs, {"tree": t, "n": n})

    _substitution_check(report, rng, d)

    if d >= 2:
        # the factorization leans on the absorbing shape: with a transpose
        # in degree one it already fails on the 4-vertex left comb
        tr = TruncSeries(d, 4, [MultiMap.zero(d, 0), MultiMap.transpose(d)]
                         + [MultiMap.zero(d, n) for n in range(2, 5)])
        rho = wedge(SINGLE, LEAF)
        sigma = wedge(SINGLE, LEAF)
        whole = substitute(rho, [SINGLE, _planted(sigma)])
        basis = [AlgebraElement.basis(d, i) for i in range(d * d)]

        def factors(key):
            args = tuple(basis[i] for i in key)
            inner = alt_tree_eval(tr, tr, sigma, args[1:3]) * args[3]
            return (alt_tree_eval(tr, tr, whole, args)
                    == alt_tree_eval(tr, tr, rho, (args[0], inner)))

        record("substitution-needs-absorption",
               "the planted factorization fails for some series without "
               "the absorbing shape",
               not all(map(factors, _cartesian(range(d * d), repeat=4))),
               None, {"degree_one": "transpose"})

    return report.finish()


# the order of the substitution check's series, and its largest tree
_SUB_ORDER = 6


def _substitution_check(report, rng, d):
    """Record the planted-substitution factorization on small shapes.

    Both series need the absorbing shape x1 * (rest): the factorization
    reassociates products across nesting levels, which is only sound when
    every map hands its first argument straight through (the paired
    negative check shows it genuinely failing without that).  The
    substituted trees can have spines as long as their total size, so the
    series are built at order _SUB_ORDER and the placements walk every
    even-parity piece assignment that fits.
    """
    cid = "two-series-substitution"
    statement = ("evaluating a tree built from planted even-parity pieces "
                 "factors through the pieces with alternating series roles")
    report.record(cid, statement, True)

    def absorbing():
        return absorb(TruncSeries(d, _SUB_ORDER - 1, [
            random_multimap(rng, d, n, bound=1) for n in range(_SUB_ORDER)]), 0)

    f = absorbing()
    g = absorbing()

    def nested(rho, sigmas, args, roles_start_fg):
        vals = []
        pos = 0
        for i, s in enumerate(sigmas):
            w = size(s)
            use_fg = roles_start_fg if i % 2 == 0 else not roles_start_fg
            if w == 0:
                vals.append(args[pos])
            else:
                first, second = (f, g) if use_fg else (g, f)
                vals.append(alt_tree_eval(first, second, s,
                                          args[pos:pos + w]) * args[pos + w])
            pos += w + 1
        return alt_tree_eval(f, g, rho, tuple(vals))

    for parity, roles_start_fg in ((BE, True), (BO, False)):
        for rho_size in (1, 2, 3, 4):
            for rho in parity_trees(parity, rho_size):
                slots = rho_size
                for sigma_total in range(0, _SUB_ORDER - slots + 1, 2):
                    for sizes in _even_compositions(sigma_total, slots):
                        total = sigma_total + slots
                        pools = [parity_trees(BE, s) for s in sizes]
                        for sigmas in _cartesian(*pools):
                            args = tuple(random_element_from(rng, 2, d)
                                         for _ in range(total))
                            whole = substitute(rho,
                                               [_planted(s) for s in sigmas])
                            lhs = alt_tree_eval(f, g, whole, args)
                            rhs = nested(rho, sigmas, args, roles_start_fg)
                            report.record(cid, statement, lhs == rhs,
                                          {"rho": rho, "sigmas": sigmas,
                                           "parity": parity})


def sab_search(N=4, d=2, trials=50, seed=0):
    """Random search for S(ab) == S(b) * S(a) outside the known reasons.

    The equality is guaranteed when the first cumulant series is constant or
    when the second moment series commutes with the identity series; whether
    anything else can force it is open.  This scans random pairs and reports
    any hit that fits neither reason.  Nothing is asserted either way.
    """
    rng = random.Random(seed)
    report = Report("sab-search", seed=seed, order=N, dim=d, trials=trials)
    hits = []
    commuting = 0
    for trial in range(trials):
        ka = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
        kb = CumulantSpec(random_series(rng, d, N, "gi", bound=2))
        box = boxconv("box", ka.series, kb.series)
        s_ab = s_transform(box)
        plain = mul_at(s_transform(kb.series), s_transform(ka.series), N - 1)
        if s_ab != plain:
            continue
        M = absorbed(moments_from_cumulants(kb).series, 0)
        commutes = absorb(M, 1) == absorb(M, 0)
        ka_constant = all(ka.series[n].is_zero() for n in range(2, N + 1))
        if commutes or ka_constant:
            commuting += 1
        else:
            hits.append({"trial": trial, "ka_constant": ka_constant,
                         "moment_commutes": commutes})
    note = ("no unexplained coincidences found"
            if not hits else "unexplained coincidences found")
    report.note("sab-coincidence-scan",
                "scan for S(ab) == S(b) * S(a) with neither a constant first "
                "factor nor a commuting second moment series", hits,
                {"trials": trials, "explained_hits": commuting, "note": note})
    return report.finish()
