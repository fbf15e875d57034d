"""Boxed convolutions and the S-, U-, and S'-transforms.

Four convolution products on truncated series are defined by summing the
two-series tree evaluations over doubled trees R(tau), with unit elements
interleaved between the genuine arguments in a pattern that depends on the
variant.  boxconv_by_trees computes that definition and is kept as the
oracle; boxconv computes the same series degree by degree from the
composition identities box = g o red and redred = strip_identity(g) o red,
which walk no tree.  The S-transform of f = I.F is the series S with
f^{o-1} = I.S; the U-transform is S^{-1}.I.S; the primed transform inverts
F.I instead.  Each transform reads f's shape once, as F, and reverts I.F
or F.I from F: revert_absorbed returns S or S' itself, with no reversion
to read it off, beside the composite C = F o (I.S) it solved against.  S
is checked against S = C^{-1} on that C: a check of the solve step only,
as C and S both come from the reversion's g, so that g reverts f and
C = F o g are left to the tests, as is S' whole.  U's three expressions
S^{-1}.I.S, C.I.S and (F.I) o f^{o-1} agree exactly when S = C^{-1} and
f^{o-1} = I.S, since X -> X.I.S (S_0 invertible) and X -> (F.I) o X
(zero-constant X) are injective; I.S is absorb(S, 0), so U takes the one
check and is one product, C times absorb(S, 0), across the unit.
"""

import random

from .algebra import AlgebraElement
from .multiseries import (MultiMap, TreeTensors, TruncSeries, absorb,
                          absorbed, compose_at, gi_stripped,
                          is_gdif, is_gi, is_ginv, mul_at, mult_inverse,
                          random_series, red_and_redred, revert_absorbed,
                          strip_identity)
from .trees import enumerate_trees, rmap
from .verify import Report

BOX_VARIANTS = ("box", "line", "red", "redred")


def _doubled_forest(n, planted):
    """All R(tau) for tau in Y_n, each prefixed with an extra root if planted."""
    if planted:
        return [((), rmap(t)) for t in enumerate_trees(n)]
    return [rmap(t) for t in enumerate_trees(n)]


# variant: (x at even positions, x at odd positions), series of the outer spine
_PATTERNS = {"box": ((True, False), 1), "line": ((False, True), 1),
             "red": ((True, False), 0), "redred": ((False, True), 1)}


def _check_pair(variant, f, g):
    if variant not in BOX_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if f.d != g.d or f.N != g.N:
        raise ValueError("series must share dimension and truncation order")
    if f.N < 1:
        raise ValueError("convolution needs at least order 1")


def boxconv(variant, f, g):
    """One of the four boxed convolutions of f and g.

    boxconv_by_trees defines them as tree sums; this computes the same
    series degree by degree, on the composition identities behind them
    (multiseries.red_and_redred):

    variant   computed as                            degree 0
    box       g o red(f, g)                          g_0
    line      g o (redred(g, f).I)                   g_0
    red       f_{r+1}(x, Q_{m_1}, ..., Q_{m_r})      0
    redred    strip_identity(g) o red(f, g)          g_1(1)

    with Q = redred(f, g).I.  Degree n of 'redred' reads g at degree n+1,
    so its output is truncated one order lower than the inputs.  Each
    variant computes only the degrees of red and redred that it reads.

    A series of the shape I.F is contracted through F: for f = I.F,
    red = I.R with R = F o Q.  For g = I.G, g o red = red.(G o red) gives
    box = red(f, g).redred(f, g); and red(g, f) = I.(G o Q') with
    Q' = redred(g, f).I gives line = g o Q' = Q'.(G o Q') =
    redred(g, f).red(g, f).  mul_at takes each product through the shape
    red records, so neither composes g.
    """
    _check_pair(variant, f, g)
    N = f.N
    if variant == "red":
        return red_and_redred(f, g, N, N - 2)[0]
    if variant == "redred":
        return red_and_redred(f, g, N - 1, N - 1)[1]
    if absorbed(g, 0) is None:
        if variant == "box":
            return compose_at(g, red_and_redred(f, g, N, N - 2)[0], N)
        redred = red_and_redred(g, f, N - 1, N - 1)[1]
        return compose_at(g, absorb(redred, 1), N)
    if variant == "box":
        return mul_at(*red_and_redred(f, g, N, N - 1), N)
    red, redred = red_and_redred(g, f, N, N - 1)
    return mul_at(redred, red, N)


def boxconv_by_trees(variant, f, g):
    """The boxed convolution as its defining tree sum: the oracle for boxconv.

    variant   trees          argument pattern         degree 0
    box       R(tau)         x1,1,x2,1,...,xn,1       g_0
    line      R(tau)         1,x1,1,x2,...,1,xn       g_0
    red       (|,R(tau))     x1,1,x2,1,...,1,xn       0
    redred    (|,R(tau))     1,x1,1,x2,...,xn,1       g_1(1)

    For 'red' the tree sum at degree n runs over Y_{n-1} and the two series
    swap roles inside the evaluation.  Degree n is the sum of (f u g)_t over
    the forest, every tree evaluated from its definition, but at the tensor
    level: TreeTensors builds each subtree's value once as a multilinear map
    in the x's under it, instead of evaluating each tree at each basis tuple.
    """
    _check_pair(variant, f, g)
    d, N = f.d, f.N
    order = N - 1 if variant == "redred" else N
    if variant == "red":
        out = [MultiMap.zero(d, 0)]
    elif variant == "redred":
        out = [MultiMap.constant(g[1](AlgebraElement.unit(d)))]
    else:
        out = [g[0]]
    x_at, outer = _PATTERNS[variant]
    sums = TreeTensors(d, (f.maps, g.maps), x_at)
    for n in range(1, order + 1):
        if variant == "box" or variant == "line":
            forest = _doubled_forest(n, planted=False)
        elif variant == "red":
            forest = _doubled_forest(n - 1, planted=True)
        else:
            forest = _doubled_forest(n, planted=True)
        out.append(sums.tree_sum(forest, n, role=outer))
    return TruncSeries(d, order, out)


def _stripped(f, name):
    """F of f = I.F with F in G^inv (gi_stripped), or a ValueError."""
    F = gi_stripped(f)
    if F is None:
        raise ValueError(f"the {name} needs a series of the I.F shape")
    return F


def _check_fixed_point(C, s):
    """S = C^{-1}: the left inverse revert_absorbed solved against the right
    one mult_inverse builds, a check of the solve step, not of C."""
    if mult_inverse(C) != s:
        raise ArithmeticError("S does not solve its fixed-point equation")


def s_transform(f):
    """S with f^{o-1} = I.S; one order shorter than f.

    Solved once, by revert_absorbed, which returns S itself beside the
    composite C = F o (I.S) it solved against, and checked against
    S = C^{-1} on that C.
    """
    S, C = revert_absorbed(_stripped(f, "S-transform"), 0)
    _check_fixed_point(C, S)
    return S


def u_transform(f):
    """S^{-1}.I.S, which equals (F.I) o (I.S) = (F o (I.S)).I.S and
    (F.I) o f^{o-1}; lands in the composition group, same order as f.

    The three expressions can differ only where two injective maps meet.
    X -> X.I.S is injective when S_0 is invertible (if X and X' first
    differ at degree k, X.I.S and X'.I.S first differ at degree k + 1, by
    (X - X')_k(...) x S_0), so the first two agree exactly when
    S^{-1} = F o (I.S): S's fixed-point check.  Composing on the left with
    F.I, which is in G^dif, is injective on zero-constant series, so the
    last two agree exactly when f^{o-1} = I.S, which holds for the S that
    revert_absorbed solves: absorb builds I.S from S.  So f's shape is
    read once, f is reverted once, and one product of the composite
    C = F o (I.S) it returns with absorb(S, 0), which mul_at takes across
    the unit through the record absorb writes, gives U.
    """
    S, C = revert_absorbed(_stripped(f, "U-transform"), 0)
    _check_fixed_point(C, S)
    return mul_at(C, absorb(S, 0), f.N)


def s_prime(f):
    """S' with S'.I = (F.I)^{o-1}, for f = I.F; one order shorter than f.

    f's shape is read once, and F.I is reverted from F by revert_absorbed,
    which returns S' itself.  S' has no run-time check: that S'.I reverts
    F.I is its defining property, a Tier-1 test.
    """
    return revert_absorbed(_stripped(f, "primed transform"), 1)[0]


# -- the identity suite ---------------------------------------------------------

def verify_transform_identities(N=4, d=2, trials=20, seed=0):
    """Check every convolution/transform identity on seeded random series.

    Returns a report dict; each check carries an id, a code-like statement,
    a pass/fail status, and on failure the first differing tensor entry.
    """
    rng = random.Random(seed)
    report = Report("transforms", seed=seed, order=N, dim=d, trials=trials)
    compare = report.compare

    for trial in range(trials):
        params = {"trial": trial}
        f = random_series(rng, d, N, "gi", bound=2)
        g = random_series(rng, d, N, "gi", bound=2)
        p = random_series(rng, d, N, "mult", bound=2)
        q = random_series(rng, d, N, "mult", bound=2)

        # composition factorizations hold for arbitrary zero-constant pairs;
        # box and line are the tree sums, red and redred the recursion, so
        # neither side is computed from the other
        for tag, (a, b) in (("general", (p, q)), ("absorbing", (f, g))):
            box = boxconv_by_trees("box", a, b)
            red = boxconv("red", a, b)
            compare(f"box-compose-{tag}", "box(f,g) == compose(g, red(f,g))",
                    box, compose_at(b, red, N), params)
            line = boxconv_by_trees("line", b, a)
            redred = boxconv("redred", a, b)
            compare(f"line-compose-{tag}",
                    "line(g,f) == compose(f, redred(f,g)*I)",
                    line, compose_at(a, absorb(redred, 1), N), params)

        # the absorbing pass left box, red, redred and line(g,f) of (f, g)
        compare("box-mult-split",
                "box(f,g) == red(f,g) * redred(f,g) on I.Mult",
                box, mul_at(red, redred, N), params)
        compare("line-mult-split",
                "line(g,f) == redred(f,g) * red(f,g) on I.Mult",
                line, mul_at(redred, red, N), params)

        report.record("box-class", "box and red stay in I.Mult; redred "
                      "invertible; line compositionally invertible",
                      is_gi(box) and is_gi(red) and is_ginv(redred)
                      and is_gdif(line), None, params)

        s_box = s_transform(box)
        s_f, s_g = s_transform(f), s_transform(g)
        u_f, u_g = u_transform(f), u_transform(g)
        compare("s-of-box", "S(box(f,g)) == S(g) * (S(f) o U(g))",
                s_box, mul_at(s_g, compose_at(s_f, u_g, N - 1), N - 1), params)
        compare("u-of-box", "U(box(f,g)) == U(f) o U(g)",
                u_transform(box), compose_at(u_f, u_g, N), params)

        if d == 1:
            compare("s-of-box-scalar",
                    "S(box(f,g)) == S(g) * S(f) when d == 1",
                    s_box, mul_at(s_g, s_f, N - 1), params)

    if d >= 2:
        # outside I.Mult the product factorization breaks: degree one of
        # box is g1(f1(x)) while red*redred gives f1(x) g1(1), and a
        # transpose in g1 tells them apart.
        zero, one_m = MultiMap.zero(d, 0), MultiMap.identity(d)
        pad = [MultiMap.zero(d, n) for n in range(2, N + 1)]
        f_bad = TruncSeries(d, N, [zero, one_m] + pad)
        g_bad = TruncSeries(d, N, [zero, MultiMap.transpose(d)] + pad)
        box = boxconv("box", f_bad, g_bad)
        rhs = mul_at(boxconv("red", f_bad, g_bad),
                     boxconv("redred", f_bad, g_bad), N)
        report.record("mult-split-needs-absorption",
                      "box(f,g) != red(f,g) * redred(f,g) for some f,g "
                      "outside I.Mult", box != rhs, None, {"g1": "transpose"})

    return report.finish()
