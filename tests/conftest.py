"""Fixtures shared by the test modules."""

import pytest

from freeconv import multiseries, transforms


@pytest.fixture()
def shape_passes(monkeypatch):
    """The orders of the series whose tables are read to learn F, one entry
    per read: an absorbed call on a series that absorb did not build on the
    side asked, with a zero constant term and order >= 1 (the shape is
    ruled out before any table is read otherwise), and a strip_identity
    call on a series that absorb did not build on side 0.  Both are wrapped
    where they are defined and in transforms, which imports them."""
    passes = []
    real_absorbed, real_strip = multiseries.absorbed, multiseries.strip_identity

    def absorbed(f, side):
        if f._absorbs[0] != side and f[0].is_zero() and f.N >= 1:
            passes.append(f.N)
        return real_absorbed(f, side)

    def strip_identity(f):
        if f._absorbs[0] != 0:
            passes.append(f.N)
        return real_strip(f)

    for module in (multiseries, transforms):
        monkeypatch.setattr(module, "absorbed", absorbed)
        monkeypatch.setattr(module, "strip_identity", strip_identity)
    return passes
