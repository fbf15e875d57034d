"""Fixtures shared by the test modules."""

import pytest

from freeconv import multiseries, transforms


@pytest.fixture()
def shape_passes(monkeypatch):
    """The orders of the series that absorbed reads by a pass over their
    tables, one entry per pass: a call on a series that absorb did not
    build on the side asked, with a zero constant term and order >= 1 (the
    shape is ruled out before any table is read otherwise).  absorbed is
    wrapped where it is defined and in transforms, which imports it."""
    passes = []
    real = multiseries.absorbed

    def counted(f, side):
        if f._absorbs[0] != side and f[0].is_zero() and f.N >= 1:
            passes.append(f.N)
        return real(f, side)

    monkeypatch.setattr(multiseries, "absorbed", counted)
    monkeypatch.setattr(transforms, "absorbed", counted)
    return passes
