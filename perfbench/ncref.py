"""Scalar references computed from noncrossing partitions, without freeconv.

For d = 1 a series of the I.F shape is a power series f(z) = sum a_n z^n,
with a_n = f_n(1, ..., 1).  Its free moments, the boxed convolution of two
such series and their S-transforms have classical closed forms over NC(n):

    m_n   = sum_{pi in NC(n)} prod_{V in pi} a_|V|
    box_n = sum_{pi in NC(n)} prod_{V in pi} a_|V| prod_{W in K(pi)} b_|W|

(the second is the Nica-Speicher product formula, K the Kreweras
complement), and S(box) = S(g) S(f) for the S-transform defined by
f^{<-1>}(z) = z S(z).  Only the block sizes of pi and K(pi) enter, so each
level is tabulated once as a count per pair of block-size multisets.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache


def nc_partitions(n):
    """All noncrossing partitions of 1..n, each a tuple of sorted blocks."""
    return tuple(_nc(tuple(range(1, n + 1))))


def _nc(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    # the block of `first` is first < p_1 < ... < p_k; every gap between
    # consecutive members, and the tail after the last, is partitioned on
    # its own, which is exactly what keeps the whole partition noncrossing
    for size in range(len(rest) + 1):
        for chosen in _increasing(len(rest), size):
            block = (first,) + tuple(rest[i] for i in chosen)
            bounds = [-1] + list(chosen) + [len(rest)]
            gaps = [rest[bounds[j] + 1:bounds[j + 1]] for j in range(len(bounds) - 1)]
            for parts in _product(gaps):
                yield (block,) + parts


def _increasing(n, k, start=0):
    if k == 0:
        yield ()
        return
    for i in range(start, n - k + 1):
        for tail in _increasing(n, k - 1, i + 1):
            yield (i,) + tail


def _product(gaps):
    if not gaps:
        yield ()
        return
    for head in _nc(gaps[0]):
        for tail in _product(gaps[1:]):
            yield head + tail


def kreweras(partition, n):
    """Kreweras complement as the cycles of pi^{-1} gamma, gamma = (1 2 ... n).

    Each block of pi is read as an increasing cycle; the complement's blocks
    are the cycles of the product permutation, returned sorted.
    """
    succ = {}
    for block in partition:
        for i, x in enumerate(block):
            succ[x] = block[(i + 1) % len(block)]
    pred = {y: x for x, y in succ.items()}
    perm = {x: pred[x % n + 1] for x in range(1, n + 1)}
    seen, blocks = set(), []
    for x in range(1, n + 1):
        if x in seen:
            continue
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = perm[x]
        blocks.append(tuple(sorted(cycle)))
    return tuple(sorted(blocks))


def _block_type(partition):
    return tuple(sorted(Counter(len(b) for b in partition).items()))


@lru_cache(maxsize=None)
def _level_types(n):
    """Counter over (type of pi, type of K(pi)) for pi in NC(n)."""
    return Counter((_block_type(p), _block_type(kreweras(p, n)))
                   for p in nc_partitions(n))


def _weight(a, btype):
    w = Fraction(1)
    for size, mult in btype:
        w *= a[size] ** mult
    return w


def moments(a, N):
    """m_1..m_N from a_1..a_N; `a` is indexed from 1 (a[0] is ignored)."""
    out = [Fraction(0)]
    for n in range(1, N + 1):
        by_pi = Counter()
        for (tp, _), count in _level_types(n).items():
            by_pi[tp] += count
        out.append(sum((count * _weight(a, tp) for tp, count in by_pi.items()),
                       Fraction(0)))
    return out


def box(a, b, N):
    """box_1..box_N by the Nica-Speicher formula; indexed like `a`."""
    out = [Fraction(0)]
    for n in range(1, N + 1):
        out.append(sum((count * _weight(a, tp) * _weight(b, tk)
                        for (tp, tk), count in _level_types(n).items()),
                       Fraction(0)))
    return out


def _poly_mul(p, q, N):
    out = [Fraction(0)] * (N + 1)
    for i, x in enumerate(p):
        if x:
            for j in range(min(len(q), N + 1 - i)):
                out[i + j] += x * q[j]
    return out


def s_transform(a, N):
    """S_0..S_{N-1} with f^{<-1>}(z) = z S(z), f(z) = sum_{n=1}^N a_n z^n."""
    if not a[1]:
        raise ZeroDivisionError("a_1 must be nonzero")
    h = [Fraction(0), 1 / Fraction(a[1])]
    for n in range(2, N + 1):
        trial = h + [Fraction(0)]
        # [z^n] f(h) = a_1 h_n + (terms in h_1..h_{n-1}) must vanish
        power, rest = list(trial), Fraction(0)
        for k in range(2, n + 1):
            power = _poly_mul(power, trial, n)
            rest += a[k] * power[n]
        h.append(-rest / a[1])
    return h[1:]


def series_product(p, q):
    """Truncated product of two coefficient lists of equal length."""
    return _poly_mul(p, q, len(p) - 1)
