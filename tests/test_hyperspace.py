import pickle
from fractions import Fraction

import pytest

from sl2cox.groups import FiniteSubgroup, ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import (
    HyperspaceVector,
    MalformedGenerators,
    Section,
    WrongKind,
    X0,
    XD,
    XE,
    XF,
    XINF,
    XV,
    color_vector,
    epsilon,
    hypercone_from_generators,
    interiors_disjoint,
    is_supported,
    point,
    valuation_cone_contains,
)

ALL_GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(6), cyclic(7),
              dihedral(2), dihedral(3), dihedral(6), TETRA, OCTA, ICOSA]


class TestBasePoint:
    def test_projective_equality(self):
        assert point(2, 4) == point(1, 2)
        assert point(1, 0) == point(-3, 0)
        assert point(1, 1) != point(1, 2)
        assert X0 != point(0, 1)  # tags are symbolic, not coordinates

    def test_gaussian_coordinates(self):
        assert point({"re": "1", "im": "1"}, 1) == point({"re": "2", "im": "2"}, 2)

    def test_eq_and_hash_agree_across_representatives(self):
        i = {"re": "0", "im": "1"}
        classes = [
            [point(1, 2), point(2, 4), point(-3, -6)],
            [point(1, 0), point(3, 0), point(i, 0)],
            [point(0, 1), point(0, {"re": "2", "im": "-1"})],
            [point(1, i), point({"re": "0", "im": "-1"}, 1), point({"re": "2", "im": "2"},
                                                                     {"re": "-2", "im": "2"})],
        ]
        for cls in classes:
            for p in cls:
                for q in cls:
                    assert p == q and hash(p) == hash(q)
        assert len({p for cls in classes for p in cls}) == len(classes)
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert classes[a][0] != classes[b][0]

    def test_hash_is_fixed_at_construction(self):
        # projectively equal points hash alike and find one dict entry; the
        # hash is computed once, in __post_init__, and rebuilt on unpickling
        i = {"re": "0", "im": "1"}
        pairs = [(point(2, 4), point(1, 2)),
                 (point({"re": "1", "im": "1"}, 1), point({"re": "2", "im": "2"}, 2)),
                 (point(i, 1), point(-1, i)), (point(3, 0), point(i, 0)), (XD, XD)]
        table = {p: k for k, (p, _) in enumerate(pairs)}
        for k, (p, q) in enumerate(pairs):
            assert hash(p) == hash(q) == p._hash == hash(p._key)
            assert table[q] == k
            copy = pickle.loads(pickle.dumps(q))
            assert copy == q and hash(copy) == hash(q) and table[copy] == k

    def test_tag_never_equals_a_coordinate_point(self):
        coords = [point(0, 1), point(1, 0), point(1, 1), point(-1, 1)]
        for tag in (X0, XINF, XV, XE, XF, XD):
            assert all(tag != p for p in coords)
            assert tag not in set(coords)
        assert len({X0, XINF, XV, XE, XF, XD}) == 6


class TestValuationCone:
    def test_cyclic_examples(self):
        assert valuation_cone_contains(cyclic(5), HyperspaceVector(point(3, 1), 1, -1))
        assert valuation_cone_contains(cyclic(3), HyperspaceVector(XD, 1, 0))
        assert not valuation_cone_contains(cyclic(5), HyperspaceVector(X0, 1, 1))

    def test_tetrahedral_color_is_not_valuation(self):
        v = HyperspaceVector(XV, 3, 1)
        assert not valuation_cone_contains(TETRA, v)

    def test_cyclic_grid(self):
        F = cyclic(4)
        for hnum in range(1, 11):
            for den in (1, 2):
                h = Fraction(hnum, den)
                for lnum in range(-10, 11):
                    v = HyperspaceVector(point(9, 1), h, Fraction(lnum))
                    assert valuation_cone_contains(F, v) == (2 * lnum + h <= 0)

    def test_colors_never_interior(self):
        # every color is outside the open valuation cone for every group
        for F in ALL_GROUPS:
            pts = [X0, XINF] if (F.is_cyclic and F.n >= 3) else []
            if not F.is_cyclic:
                pts = [XV, XE, XF]
            if F.is_cyclic:
                pts.append(XD)
            for k in range(1, 101):
                pts.append(point(k, 1))
            for p in pts:
                c = color_vector(F, p)
                strict = _strictly_inside(F, c)
                assert not strict, (F, p, c)


def _strictly_inside(F, v):
    from sl2cox.hyperspace import valuation_cone_form

    a, b = valuation_cone_form(F, v.base)
    return a * v.h + b * v.l < 0


class TestColorVectors:
    def test_generic_epsilon(self):
        assert color_vector(cyclic(7), point(5, 1)) == epsilon(point(5, 1))

    def test_canonical_tables(self):
        assert color_vector(cyclic(7), X0) == HyperspaceVector(X0, 7, -3)
        assert color_vector(cyclic(6), XINF) == HyperspaceVector(XINF, 3, -1)
        assert color_vector(cyclic(5), XD) == HyperspaceVector(XD, 1, 1)
        assert color_vector(TETRA, XV) == HyperspaceVector(XV, 3, 1)
        assert color_vector(TETRA, XE) == HyperspaceVector(XE, 2, -1)
        assert color_vector(TETRA, XF) == HyperspaceVector(XF, 3, 1)
        assert color_vector(OCTA, XF) == HyperspaceVector(XF, 4, 1)
        assert color_vector(ICOSA, XE) == HyperspaceVector(XE, 2, -1)
        assert color_vector(ICOSA, XV) == HyperspaceVector(XV, 5, 1)
        assert color_vector(dihedral(4), XF) == HyperspaceVector(XF, 4, -3)
        assert color_vector(dihedral(4), XE) == HyperspaceVector(XE, 2, 1)

    def test_section_override(self):
        F = cyclic(1)
        p = point(1, 0)
        s = Section.at(p)
        assert color_vector(F, p, s) == HyperspaceVector(p, 1, 1)
        assert color_vector(F, XD, s) == epsilon(XD)
        # the special valuation slice moves to p
        assert valuation_cone_contains(F, HyperspaceVector(p, 2, 1), s)
        assert not valuation_cone_contains(F, HyperspaceVector(point(5, 1), 2, 1), s)


class TestHypercone:
    def test_one_generator_is_type_b(self):
        # a divisor over x0 with epsilon everywhere else: no slice equals K,
        # so the hypercone is of type B
        c = hypercone_from_generators([HyperspaceVector(X0, 1, -1)])
        assert c.kind == "B"
        assert c.K == "neg"
        assert c.strictly_convex

    def test_a_chart_shape(self):
        F = cyclic(5)
        gens = [HyperspaceVector(X0, 1, -1), color_vector(F, XINF), color_vector(F, XD)]
        c = hypercone_from_generators(gens)
        assert c.kind == "B"
        assert (c.B_lo, c.B_hi) == ("-inf", Fraction(-2, 5))
        assert is_supported(c, F)

    def test_omitted_point_gives_type_a(self):
        c = hypercone_from_generators(
            [HyperspaceVector(X0, 1, -1), color_vector(cyclic(5), XINF)], omitted=[XD])
        assert c.kind == "A"
        with pytest.raises(WrongKind):
            is_supported(c, cyclic(5))

    def test_empty_generators(self):
        c = hypercone_from_generators([])
        assert c.kind == "B"
        assert c.K == "zero"
        # B = {0}: not strictly convex, hence not a valid colored hypercone
        assert not c.strictly_convex

    def test_invariance_under_scaling_and_permutation(self):
        F = cyclic(5)
        v1 = HyperspaceVector(X0, 1, -1)
        v2 = color_vector(F, XINF)
        v3 = color_vector(F, XD)
        c1 = hypercone_from_generators([v1, v2, v3])
        c2 = hypercone_from_generators([
            v3, HyperspaceVector(XINF, 2 * v2.h, 2 * v2.l),
            HyperspaceVector(X0, Fraction(1, 3), Fraction(-1, 3))])
        assert (c1.kind, c1.K, c1.B_lo, c1.B_hi) == (c2.kind, c2.K, c2.B_lo, c2.B_hi)

    def test_malformed(self):
        with pytest.raises(MalformedGenerators):
            HyperspaceVector(X0, -1, 0)
        with pytest.raises(MalformedGenerators):
            hypercone_from_generators([HyperspaceVector(X0, 0, -1)])

    def test_type_b_never_has_slice_equal_k(self):
        # mutual exclusion on valid generated hypercones: type B means every
        # point carries a generator, so no slice collapses to K
        F = cyclic(5)
        c = hypercone_from_generators(
            [HyperspaceVector(X0, 1, -1), color_vector(F, XINF), color_vector(F, XD)])
        assert c.kind == "B"
        for p in (X0, XINF, XD, point(11, 1)):
            assert c.slice_sector(p) is not None


class TestSupportedness:
    def test_unsupported_cone_above_boundary(self):
        # all generators strictly above the valuation boundary, K positive
        F = cyclic(5)
        gens = [HyperspaceVector(point(7, 1), 1, 1), HyperspaceVector(XD, 1, 2)]
        c = hypercone_from_generators(gens)
        assert c.kind == "B" and c.K == "pos"
        assert not is_supported(c, F)

    def test_negative_k_ray_supports(self):
        F = cyclic(5)
        c = hypercone_from_generators([HyperspaceVector(X0, 1, -1)])
        assert is_supported(c, F)


class TestInteriorsDisjoint:
    def test_self_not_disjoint(self):
        F = cyclic(5)
        c = hypercone_from_generators(
            [HyperspaceVector(X0, 1, -1), color_vector(F, XINF), color_vector(F, XD)])
        assert not interiors_disjoint(c, c, F)

    def test_zero_k_type_a_cones_disjoint(self):
        # type-A cones over disjoint point sets with K = {0}: only rays, no
        # 2D interiors, so they are disjoint inside V
        F = cyclic(1)
        x1, x2, x3, x4 = point(1, 0), point(0, 1), point(1, 1), point(2, 1)
        c1 = hypercone_from_generators(
            [HyperspaceVector(x1, 1, -1), color_vector(F, XD)], omitted=[x2])
        c2 = hypercone_from_generators(
            [HyperspaceVector(x3, 1, -1), color_vector(F, XD)], omitted=[x4])
        assert c1.kind == "A" and c1.K == "zero"
        assert interiors_disjoint(c1, c2, F)

    def test_shared_epsilon_ray_only(self):
        # two type-A cones whose slices meet only along the epsilon ray at a
        # common point: the ray is not interior, so they are disjoint
        F = cyclic(1)
        x1, x2 = point(1, 0), point(0, 1)
        shared = point(1, 1)
        c1 = hypercone_from_generators(
            [HyperspaceVector(x1, 1, -1), HyperspaceVector(shared, 1, 0),
             color_vector(F, XD)], omitted=[x2])
        c2 = hypercone_from_generators(
            [HyperspaceVector(x2, 2, -2), HyperspaceVector(shared, 1, 0),
             color_vector(F, XD)], omitted=[x1])
        assert c1.K == "zero" and c2.K == "zero"
        assert interiors_disjoint(c1, c2, F)

    def test_overlapping_type_b_not_disjoint(self):
        F = cyclic(5)
        c1 = hypercone_from_generators([HyperspaceVector(X0, 1, -1),
                                        color_vector(F, XINF), color_vector(F, XD)])
        c2 = hypercone_from_generators([HyperspaceVector(XINF, 1, -1),
                                        color_vector(F, X0), color_vector(F, XD)])
        # both K-parts are the negative ray: their interiors share it inside V
        assert not interiors_disjoint(c1, c2, F)
