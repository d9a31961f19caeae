import dataclasses
import sys

import pytest

import sl2cox.exactmath as em


@pytest.fixture
def corrupted_smith_form(monkeypatch):
    """``smith_normal_form`` returns a D off by one in its first entry, so
    U·M·V = D no longer holds."""
    real = em.smith_normal_form

    def corrupted(M):
        s = real(M)
        D = em.IntMatrix(s.D.data, cols=s.D.cols)
        D.data[0][0] += 1
        return dataclasses.replace(s, D=D)

    monkeypatch.setattr(em, "smith_normal_form", corrupted)


@pytest.fixture
def corrupted_lattice_smith_form(monkeypatch):
    """The Smith form that ``RelationLattice`` makes has a V off by one in
    its first entry, so L·Qᵀ = D·I no longer holds; every other Smith form,
    the cokernel's among them, stays exact."""
    real = em.smith_normal_form

    def corrupted(M):
        s = real(M)
        if sys._getframe(1).f_code is not em.RelationLattice.__init__.__code__:
            return s
        V = em.IntMatrix([list(row) for row in s.V.data], cols=s.V.cols)
        V.data[0][0] += 1
        return dataclasses.replace(s, V=V)

    monkeypatch.setattr(em, "smith_normal_form", corrupted)
