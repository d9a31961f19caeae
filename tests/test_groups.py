"""Laws of the canonical-point table (``FiniteSubgroup.canonical``), checked
on every group without reading the table's literals."""

from itertools import combinations

import pytest

from sl2cox.exactmath import qi_div
from sl2cox.groups import ICOSA, OCTA, TETRA, cyclic, dihedral

GROUPS = ([cyclic(n) for n in range(1, 41)] + [dihedral(n) for n in range(2, 41)]
          + [TETRA, OCTA, ICOSA])
# |F|: n for mu_n, 4n for the binary dihedral group, 24, 48, 120 for the
# binary tetrahedral, octahedral and icosahedral groups
ORDER = {"tetrahedral": 24, "octahedral": 48, "icosahedral": 120}


def order(F) -> int:
    return {"cyclic": F.n, "dihedral": 4 * F.n}.get(F.kind) or ORDER[F.kind]


@pytest.mark.parametrize("F", GROUPS, ids=str)
def test_n0_is_the_order_of_the_image_in_PSL2(F):
    # -1 lies in F unless F is cyclic of odd order
    contains_minus_one = not (F.is_cyclic and F.n % 2)
    assert F.canonical().n0 == order(F) // (2 if contains_minus_one else 1)


@pytest.mark.parametrize("F", [F for F in GROUPS if not F.is_cyclic or F.n >= 3], ids=str)
def test_riemann_hurwitz(F):
    # P^1 -> P^1 / (F's image in PSL2), branched over the canonical points
    # with ramification m each: sum (n0 - n0/m) = 2 n0 - 2
    table = F.canonical()
    n0 = table.n0
    assert all(n0 % c.mult == 0 for c in table.points.values())
    assert sum(n0 - n0 // c.mult for c in table.points.values()) == 2 * n0 - 2


@pytest.mark.parametrize("F", GROUPS, ids=str)
def test_m_times_a_weight_is_the_rest_weight(F):
    # s^m spans the same linear system as the remaining colors' sections
    table = F.canonical()
    assert F.color_restriction(None) == F.color_restriction("xd") == table.rest_weight
    for tag, c in table.points.items():
        assert F.color_restriction(tag) == c.weight
        assert F.char_scale(c.mult, c.weight) == table.rest_weight


@pytest.mark.parametrize("F", GROUPS, ids=str)
def test_canonical_points_are_distinct_points_of_P1(F):
    points = F.canonical().points
    assert len(points) == (0 if F.is_cyclic and F.n <= 2 else 2 if F.is_cyclic else 3)
    for c in points.values():
        assert any(c.alpha[:2]) or any(c.beta[:2])
    for a, b in combinations(points.values(), 2):
        assert qi_div(a.alpha, a.beta) != qi_div(b.alpha, b.beta)
