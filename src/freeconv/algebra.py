"""Exact linear algebra over the base algebra B = M_d(Q).

Everything here is a thin, exact layer over :class:`fractions.Fraction`:
square matrices with rational entries, the one Gauss-Jordan inverse
(linmap_inverse, on the rows of a square matrix; mat_inverse wraps it for
B), and random elements drawn from a caller-owned generator.  Linear maps
B -> B are degree-1 multiseries.MultiMaps.  No floats anywhere.

The basis of B is the family of matrix units E_pq, ordered row-major, so the
flat index of E_pq is ``p*d + q`` (0-based, range ``0..d*d-1``).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Iterable, Sequence


class NotInvertibleError(ValueError):
    """Raised when a matrix or linear map has no inverse."""


def as_fraction(x) -> Fraction:
    """x as an exact Fraction: an int, a Fraction or a string; never a float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class AlgebraElement:
    """A d x d matrix with Fraction entries; immutable and hashable.

    >>> a = AlgebraElement.from_rows([[1, 1], [0, 1]])
    >>> (a * a).rows[0]
    (Fraction(1, 1), Fraction(2, 1))
    """

    __slots__ = ("d", "rows", "_hash", "_coords")

    def __init__(self, d: int, rows: tuple):
        self.d = d
        self.rows = rows
        self._hash = None
        self._coords = None

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "AlgebraElement":
        tup = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        d = len(tup)
        if any(len(row) != d for row in tup):
            raise ValueError("matrix must be square")
        return cls(d, tup)

    @classmethod
    def zero(cls, d: int) -> "AlgebraElement":
        z = Fraction(0)
        return cls(d, tuple((z,) * d for _ in range(d)))

    @classmethod
    def unit(cls, d: int) -> "AlgebraElement":
        return cls(d, tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d)))

    @classmethod
    def basis(cls, d: int, index: int) -> "AlgebraElement":
        """The matrix unit E_pq with flat row-major index ``index = p*d + q``."""
        if not 0 <= index < d * d:
            raise ValueError(f"basis index {index} out of range for d={d}")
        p, q = divmod(index, d)
        return cls(d, tuple(tuple(Fraction(1 if (i, j) == (p, q) else 0) for j in range(d)) for i in range(d)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.d, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.d, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.d, tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Matrix product."""
        self._check(other)
        d = self.d
        cols = tuple(zip(*other.rows))
        return AlgebraElement(d, tuple(
            tuple(sum(a * b for a, b in zip(row, col) if a and b) for col in cols)
            for row in self.rows))

    def __rmul__(self, scalar) -> "AlgebraElement":
        c = as_fraction(scalar)
        return AlgebraElement(self.d, tuple(tuple(c * a for a in row) for row in self.rows))

    def scale(self, scalar) -> "AlgebraElement":
        return self.__rmul__(scalar)

    # -- structure ----------------------------------------------------------

    @classmethod
    def from_coords(cls, d: int, flat: Sequence[Fraction]) -> "AlgebraElement":
        """Rebuild an element from its flat row-major coordinate tuple."""
        if len(flat) != d * d:
            raise ValueError("coordinate count mismatch")
        return cls(d, tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d)))

    def coords(self) -> tuple:
        """Coordinates on the matrix-unit basis, row-major flat tuple."""
        if self._coords is None:
            self._coords = tuple(x for row in self.rows for x in row)
        return self._coords

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def _check(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement) or other.d != self.d:
            raise ValueError("dimension mismatch")

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.d == other.d and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.d, self.rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.rows)
        return f"AlgebraElement[{body}]"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"d": self.d, "entries": [[str(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "AlgebraElement":
        if isinstance(obj, str):
            obj = json.loads(obj)
        d = json_field(obj, "d", int, "an algebra element")
        if d < 1:
            raise ValueError(f"an algebra element needs d >= 1, not {d}")
        rows = json_field(obj, "entries", list, "an algebra element")
        if not all(isinstance(row, list) and all(type(x) in (int, str)
                                                 for x in row) for row in rows):
            raise ValueError("an algebra element's 'entries' must be rows of "
                             "integers or rational strings")
        elem = cls.from_rows(rows)
        if elem.d != d:
            raise ValueError("declared dimension does not match entries")
        return elem


def json_field(obj, key: str, kind: type, what: str):
    """obj[key] of parsed JSON, or a ValueError unless its type is `kind`."""
    if not isinstance(obj, dict) or type(obj.get(key)) is not kind:
        raise ValueError(f"{what} needs a JSON object with a field {key!r} "
                         f"of type {kind.__name__}")
    return obj[key]


def linmap_inverse(rows: Sequence[Sequence]) -> list:
    """Inverse of the linear map with the square matrix `rows`, by
    Gauss-Jordan, as a list of Fraction rows.

    Entries may be ints, Fractions or strings (never floats); raises
    NotInvertibleError when the matrix is singular.
    """
    n = len(rows)
    a = [[as_fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise NotInvertibleError("matrix is singular")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        if p != 1:
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def mat_inverse(a: AlgebraElement) -> AlgebraElement:
    """Exact inverse in M_d(Q); raises NotInvertibleError on singular input."""
    return AlgebraElement(a.d, tuple(tuple(row) for row in linmap_inverse(a.rows)))


def is_invertible(a: AlgebraElement) -> bool:
    try:
        mat_inverse(a)
    except NotInvertibleError:
        return False
    return True


def random_element_from(rng: random.Random, bound: int, d: int) -> AlgebraElement:
    """Random element drawn from `rng`: numerators in [-bound, bound],
    denominators in [1, bound]."""
    return AlgebraElement.from_rows(
        [[Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(d)]
         for _ in range(d)])


def random_invertible_from(rng: random.Random, bound: int, d: int) -> AlgebraElement:
    """Rejection-sample an invertible element (singular draws are rare)."""
    while True:
        a = random_element_from(rng, bound, d)
        if is_invertible(a):
            return a
