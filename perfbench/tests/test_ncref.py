"""The NC-partition references, checked against classical counts."""

from fractions import Fraction

import pytest

import ncref


def catalan(n):
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


@pytest.mark.parametrize("n", range(0, 10))
def test_nc_count_is_catalan(n):
    parts = ncref.nc_partitions(n)
    assert len(parts) == catalan(n)
    assert len(set(parts)) == len(parts)


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_block_count(n):
    for p in ncref.nc_partitions(n):
        k = ncref.kreweras(p, n)
        assert sorted(x for b in k for x in b) == list(range(1, n + 1))
        assert len(p) + len(k) == n + 1


def test_kreweras_extremes():
    assert ncref.kreweras(((1,), (2,), (3,)), 3) == ((1, 2, 3),)
    assert len(ncref.kreweras(((1, 2, 3),), 3)) == 3


def test_unit_cumulants_give_catalan_moments():
    N = 9
    a = [Fraction(0)] + [Fraction(1)] * N
    assert ncref.moments(a, N) == [0] + [catalan(n) for n in range(1, N + 1)]


def test_box_with_unit_delta():
    # b = (1, 0, 0, ...) has S-transform 1, so box(a, b) = a
    N = 6
    a = [Fraction(0)] + [Fraction(n, n + 1) for n in range(1, N + 1)]
    b = [Fraction(0), Fraction(1)] + [Fraction(0)] * (N - 1)
    assert ncref.box(a, b, N) == a
    assert ncref.box(b, a, N) == a


def test_s_transform_inverts_the_series():
    N = 6
    a = [Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(5), Fraction(0),
         Fraction(1, 7), Fraction(3)]
    s = ncref.s_transform(a, N)
    h = [Fraction(0)] + s            # h(z) = z S(z), the compositional inverse
    composed = [Fraction(0)] * (N + 1)
    power = h
    for k in range(1, N + 1):
        for i, x in enumerate(power):
            composed[i] += a[k] * x
        power = ncref.series_product(power, h)
    assert composed == [0, 1] + [0] * (N - 1)
