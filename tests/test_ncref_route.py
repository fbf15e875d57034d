"""A third route at d = 1: the moment-cumulant conversions and box against
noncrossing partitions.

``perfbench/ncref.py`` computes scalar free moments and the Nica-Speicher
product formula over NC(n) and imports no freeconv code, so agreement here
does not lean on anything the recursions or the tree sums share with the
rest of the package.  Orders reach 9, the shape of the ``scalar`` benchmark.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import ncref  # noqa: E402

from freeconv.algebra import AlgebraElement  # noqa: E402
from freeconv.freeprob import (CumulantSpec, MomentSpec,  # noqa: E402
                               cumulants_from_moments, moments_from_cumulants)
from freeconv.multiseries import MultiMap, TruncSeries, random_series  # noqa: E402
from freeconv.transforms import boxconv  # noqa: E402


def _coefficients(series):
    """[0, a_1, ..., a_N] with a_n = f_n(1, ..., 1) for a d = 1 series."""
    out = [0]
    for n in range(1, series.N + 1):
        value = series[n].tensor.get((0,) * n)
        out.append(value.rows[0][0] if value is not None else 0)
    return out


def _series(coefficients):
    """The d = 1 series with f_n(x_1, ..., x_n) = a_n x_1 ... x_n."""
    maps = [MultiMap.zero(1, 0)]
    maps += [MultiMap(1, n, {(0,) * n: AlgebraElement.from_coords(1, (a,))})
             for n, a in enumerate(coefficients) if n]
    return TruncSeries(1, len(coefficients) - 1, maps)


@pytest.mark.parametrize("order,seed",
                         [(1, 0), (3, 1), (5, 2), (7, 3), (7, 4), (9, 5)])
def test_moments_and_box_match_the_nc_sums(order, seed):
    rng = random.Random(f"ncref-{order}-{seed}")
    f = random_series(rng, 1, order, "gi")
    g = random_series(rng, 1, order, "gi")
    a, b = _coefficients(f), _coefficients(g)
    nc_moments = ncref.moments(a, order)
    moments = moments_from_cumulants(CumulantSpec(f)).series
    assert _coefficients(moments) == nc_moments
    assert _coefficients(boxconv("box", f, g)) == ncref.box(a, b, order)
    # and back: the cumulants of the NC moments are the coefficients drawn
    cumulants = cumulants_from_moments(MomentSpec(_series(nc_moments)))
    assert _coefficients(cumulants.series) == a
