import dataclasses
import sys

import pytest

import sl2cox.exactmath as em


@pytest.fixture
def corrupted_smith_form(monkeypatch):
    """``smith_normal_form`` returns its first invariant factor negated, so
    U·M·V = D no longer holds; a factor -1 is no torsion, so only the
    certificate sees it."""
    real = em.smith_normal_form

    def corrupted(M):
        s = real(M)
        d = s.invariant_factors
        return dataclasses.replace(s, invariant_factors=(-d[0], *d[1:]))

    monkeypatch.setattr(em, "smith_normal_form", corrupted)


@pytest.fixture
def corrupted_lattice_smith_form(monkeypatch):
    """The Smith form that ``RelationLattice`` makes has a V off by one in
    its first entry (row 0 of its first column), so L·Qᵀ = D·I no longer
    holds; every other Smith form, the cokernel's among them, stays exact."""
    real = em.smith_normal_form

    def corrupted(M):
        s = real(M)
        if sys._getframe(1).f_code is not em.RelationLattice.__init__.__code__:
            return s
        col = dict(s.v_cols[0])
        col[0] = col.get(0, 0) + 1
        return dataclasses.replace(s, v_cols=(col, *s.v_cols[1:]))

    monkeypatch.setattr(em, "smith_normal_form", corrupted)
