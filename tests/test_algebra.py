"""Matrix algebra over the rationals: exactness, inverses, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from freeconv.algebra import (AlgebraElement, NotInvertibleError,
                              is_invertible, linmap_inverse, mat_inverse,
                              random_element_from, random_invertible_from)


def test_unit_is_multiplicative_identity():
    a = AlgebraElement.from_rows([[1, 2], [3, Fraction(1, 5)]])
    one = AlgebraElement.unit(2)
    assert one * a == a
    assert a * one == a


def test_zero_and_is_zero():
    z = AlgebraElement.zero(3)
    assert z.is_zero()
    assert not AlgebraElement.unit(3).is_zero()
    a = AlgebraElement.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert (a - a).is_zero()


def test_basis_indexing_is_row_major():
    # index p*d + q puts the single 1 in row p, column q
    e = AlgebraElement.basis(2, 1)
    assert e == AlgebraElement.from_rows([[0, 1], [0, 0]])
    e = AlgebraElement.basis(2, 2)
    assert e == AlgebraElement.from_rows([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        AlgebraElement.basis(2, 4)


def test_coords_round_trip():
    a = AlgebraElement.from_rows([[Fraction(1, 2), 3], [-4, 0]])
    assert AlgebraElement.from_coords(2, a.coords()) == a
    assert len(a.coords()) == 4


def test_fractions_stay_exact():
    a = AlgebraElement.from_rows([[Fraction(1, 3)]])
    total = AlgebraElement.zero(1)
    for _ in range(3):
        total = total + a
    assert total == AlgebraElement.unit(1)


def test_matrix_inverse_round_trip():
    a = AlgebraElement.from_rows([[2, 1], [7, 4]])
    inv = mat_inverse(a)
    assert a * inv == AlgebraElement.unit(2)
    assert inv * a == AlgebraElement.unit(2)


def test_singular_matrix_raises():
    a = AlgebraElement.from_rows([[1, 2], [2, 4]])
    assert not is_invertible(a)
    with pytest.raises(NotInvertibleError):
        mat_inverse(a)
    # NotInvertibleError is a ValueError so callers can catch broadly
    with pytest.raises(ValueError):
        mat_inverse(a)


def test_mul_is_noncommutative():
    a = AlgebraElement.basis(2, 1)
    b = AlgebraElement.basis(2, 2)
    assert a * b != b * a


def test_scale_and_rmul():
    a = AlgebraElement.from_rows([[1, 2], [3, 4]])
    assert a.scale(Fraction(1, 2)) == Fraction(1, 2) * a
    assert a.scale(0).is_zero()


def test_hash_consistent_with_eq():
    a = AlgebraElement.from_rows([[1, 2], [3, 4]])
    b = AlgebraElement.from_coords(2, (1, 2, 3, 4))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_json_round_trip_preserves_fractions():
    a = AlgebraElement.from_rows([[Fraction(22, 7), 0], [1, Fraction(-3, 11)]])
    assert AlgebraElement.from_json(a.to_json()) == a


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_mul_is_associative(xs, ys, zs):
    a = AlgebraElement.from_coords(2, xs)
    b = AlgebraElement.from_coords(2, ys)
    c = AlgebraElement.from_coords(2, zs)
    assert (a * b) * c == a * (b * c)


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_mul_distributes_over_add(xs, ys):
    a = AlgebraElement.from_coords(2, xs)
    b = AlgebraElement.from_coords(2, ys)
    c = AlgebraElement.from_rows([[0, 1], [1, 1]])
    assert c * (a + b) == c * a + c * b
    assert (a + b) * c == a * c + b * c


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_linmap_identity_and_inverse():
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert linmap_inverse(ident) == ident
    # int rows come back as Fractions, not as the floats a bare / would give
    m = [[2, 0, 0, 1], [0, 3, 0, 0], [1, 0, 1, 0], [0, 0, 0, 5]]
    inv = linmap_inverse(m)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert inv[1][1] == Fraction(1, 3)
    assert _matmul(m, inv) == ident and _matmul(inv, m) == ident
    with pytest.raises(TypeError):
        linmap_inverse([[2.0, 0], [0, 1]])
    with pytest.raises(ValueError):
        linmap_inverse([[1, 0, 0], [0, 1, 0]])


def test_linmap_inverse_swaps_rows_past_a_zero_pivot():
    # each of the first two columns has a zero on the diagonal when it is
    # reached, so both rows of the inverse are swapped with the matrix's
    m = [[0, 2, 1], [0, 0, 3], [4, 1, 0]]
    inv = linmap_inverse(m)
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    assert _matmul(m, inv) == ident and _matmul(inv, m) == ident


def test_linmap_inverse_rejects_rank_deficient():
    # the third row is the sum of the first two
    with pytest.raises(NotInvertibleError):
        linmap_inverse([[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    with pytest.raises(NotInvertibleError):
        linmap_inverse([[0, 0], [0, 0]])


def test_random_invertible_is_invertible():
    rng = random.Random(0)
    for _ in range(25):
        a = random_invertible_from(rng, 3, 2)
        assert is_invertible(a)


def test_random_element_is_reproducible():
    assert (random_element_from(random.Random(7), 3, 2)
            == random_element_from(random.Random(7), 3, 2))
