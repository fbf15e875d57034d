"""A third route at d = 1: the tree sums against noncrossing partitions.

``perfbench/ncref.py`` computes scalar free moments and the Nica-Speicher
product formula over NC(n) and imports no freeconv code, so agreement here
does not lean on anything the tree sums share with the rest of the package.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import ncref  # noqa: E402

from freeconv.freeprob import CumulantSpec, moments_from_cumulants  # noqa: E402
from freeconv.multiseries import random_series  # noqa: E402
from freeconv.transforms import boxconv  # noqa: E402


def _coefficients(series):
    """[0, a_1, ..., a_N] with a_n = f_n(1, ..., 1) for a d = 1 series."""
    out = [0]
    for n in range(1, series.N + 1):
        value = series[n].tensor.get((0,) * n)
        out.append(value.rows[0][0] if value is not None else 0)
    return out


@pytest.mark.parametrize("order,seed", [(1, 0), (3, 1), (5, 2), (7, 3), (7, 4)])
def test_moments_and_box_match_the_nc_sums(order, seed):
    rng = random.Random(f"ncref-{order}-{seed}")
    f = random_series(rng, 1, order, "gi")
    g = random_series(rng, 1, order, "gi")
    a, b = _coefficients(f), _coefficients(g)
    moments = moments_from_cumulants(CumulantSpec(f)).series
    assert _coefficients(moments) == ncref.moments(a, order)
    assert _coefficients(boxconv("box", f, g)) == ncref.box(a, b, order)
