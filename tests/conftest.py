import dataclasses

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
