import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from sl2cox.exactmath import GaussianRational
from sl2cox.groups import FiniteSubgroup, ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import (
    HyperspaceVector,
    MalformedGenerators,
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
    ratio_key,
    valuation_cone_contains,
)

from test_classgroup import FAMILIES

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


# -- the former Q(i) point key and Fraction cone form, kept as oracles --------


def oracle_key(p):
    """The former comparison key of a point: its tag, alpha/beta in Q(i), or
    None for beta = 0."""
    if p.tag is not None:
        return p.tag
    return p.alpha / p.beta if p.beta else None


def oracle_cone_contains(F, base, h, l, section):
    """The former membership test: the Appendix-table form with Fraction
    coefficients, the special slices found by comparing oracle keys."""
    if F.is_cyclic:
        special = [XD] if section is None else [section]
    else:
        special = [XV, XE] if F.kind == "dihedral" else [XV, XF]
    if any(oracle_key(base) == oracle_key(q) for q in special):
        a, b = (Fraction(-1), Fraction(2)) if F.is_cyclic else (Fraction(0), Fraction(1))
    else:
        a, b = (Fraction(1), Fraction(2)) if F.is_cyclic else (Fraction(1), Fraction(1))
    return a * Fraction(h) + b * Fraction(l) <= 0


def _gaussian(rng, zero=0.2):
    """A Gaussian rational as a JSON coordinate: zero with probability about
    ``zero``, otherwise negative, Gaussian and unreduced parts ("4/6")."""
    if rng.random() < zero:
        return "0"
    k = rng.randint(1, 3)  # writes each part unreduced, k times its numerator and denominator

    def part():
        return f"{k * rng.randint(-5, 5)}/{k * rng.randint(1, 4)}"

    re, im = part(), part()
    if rng.random() < 0.4:
        im = "0"
    if re.startswith("0/") and im.startswith("0"):
        re = f"{k}/{k}"
    return re if im == "0" else {"re": re, "im": im}


def _random_points(rng):
    """Coordinate points with alpha = 0 or beta = 0 among them, each with
    complex scalar multiples of itself, plus the symbolic tags."""
    pts = [X0, XINF, XV, XE, XF, XD, point(0, 1), point(1, 0), point(0, -3),
           point({"re": "0", "im": "2"}, 0)]
    for _ in range(8):
        alpha, beta = _gaussian(rng), _gaussian(rng)
        if alpha == beta == "0":
            beta = "-1"
        p = point(alpha, beta)
        pts.append(p)
        for _ in range(2):
            lam = point(_gaussian(rng, zero=0), 1).alpha
            pts.append(point(lam * p.alpha, lam * p.beta))
    return pts


class TestOracles:
    @pytest.mark.parametrize("seed", range(20))
    def test_equality_and_hash_agree_with_the_q_i_key(self, seed):
        pts = _random_points(random.Random(f"point-key-{seed}"))
        for p in pts:
            for q in pts:
                assert (p == q) == (oracle_key(p) == oracle_key(q)), (p, q)
                if p == q:
                    assert hash(p) == hash(q)
        assert len(set(pts)) == len({oracle_key(p) for p in pts})

    @pytest.mark.parametrize("seed", range(20))
    def test_ratio_key_is_the_reduced_quotient(self, seed):
        for p in _random_points(random.Random(f"ratio-key-{seed}")):
            if p.tag is not None:
                continue
            key = ratio_key(p.alpha, p.beta)
            assert key == p._key
            if key is None:
                assert not p.beta
                continue
            x, y, d = key
            assert d > 0 and gcd(x, y, d) == 1
            assert oracle_key(p) == GaussianRational(Fraction(x, d), Fraction(y, d))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cone_verdicts_agree_with_the_fraction_form(self, family):
        # both sections, every point kind, and h, l on and around the
        # boundaries 2l + h = 0, 2l - h = 0, l = 0 and l + h = 0
        rng = random.Random(f"cone-form-{family}")
        checked = 0
        for _ in range(2):
            F = FAMILIES[family](rng)
            pts = _random_points(rng)
            at = rng.choice([p for p in pts if p.tag is None])
            copy = point(2 * at.alpha, 2 * at.beta)  # the section point, as another representative
            for section in (None, at):
                for base in pts + [copy]:
                    for h in range(1, 4):
                        ls = {Fraction(-h, 2), Fraction(h, 2), Fraction(0), Fraction(-h),
                              Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3]))}
                        for l in ls:
                            for dl in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
                                assert (valuation_cone_contains(F, base, h, l + dl, section)
                                        == oracle_cone_contains(F, base, h, l + dl, section)), (
                                    F, base, h, l + dl, section)
                                checked += 1
        assert checked > 2000


class TestValuationCone:
    def test_cyclic_examples(self):
        assert valuation_cone_contains(cyclic(5), point(3, 1), 1, -1)
        assert valuation_cone_contains(cyclic(3), XD, 1, 0)
        assert not valuation_cone_contains(cyclic(5), X0, 1, 1)

    def test_tetrahedral_color_is_not_valuation(self):
        assert not valuation_cone_contains(TETRA, XV, 3, 1)

    def test_cyclic_grid(self):
        F = cyclic(4)
        for hnum in range(1, 11):
            for den in (1, 2):
                h = Fraction(hnum, den)
                for lnum in range(-10, 11):
                    assert valuation_cone_contains(F, point(9, 1), h, Fraction(lnum)) == (
                        2 * lnum + h <= 0)

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
        s = p  # the section at p
        assert color_vector(F, p, s) == HyperspaceVector(p, 1, 1)
        assert color_vector(F, XD, s) == epsilon(XD)
        # the special valuation slice moves to p
        assert valuation_cone_contains(F, p, 2, 1, s)
        assert not valuation_cone_contains(F, point(5, 1), 2, 1, s)


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
        # slopes -1 over x0, -2/5 over xinf and 1 over xd sum to p_hi = -2/5 < 0
        assert (c.K, c.strictly_convex) == ("neg", True)
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
        assert (c1.kind, c1.K, c1.strictly_convex) == (c2.kind, c2.K, c2.strictly_convex)

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

    def test_cones_that_meet_only_at_generic_points(self):
        # each type-A cone omits every point the other lists and xd; both
        # have K negative, so over every other point both slices are the
        # sector from the negative E-ray to epsilon, inside V near E
        F = cyclic(5)
        c1 = hypercone_from_generators([HyperspaceVector(X0, 1, -1)], omitted=[XINF, XD])
        c2 = hypercone_from_generators([HyperspaceVector(XINF, 1, -1)], omitted=[X0, XD])
        assert (c1.kind, c1.K, c2.kind, c2.K) == ("A", "neg", "A", "neg")
        assert not interiors_disjoint(c1, c2, F)

    def test_overlapping_type_b_not_disjoint(self):
        F = cyclic(5)
        c1 = hypercone_from_generators([HyperspaceVector(X0, 1, -1),
                                        color_vector(F, XINF), color_vector(F, XD)])
        c2 = hypercone_from_generators([HyperspaceVector(XINF, 1, -1),
                                        color_vector(F, X0), color_vector(F, XD)])
        # both K-parts are the negative ray: their interiors share it inside V
        assert not interiors_disjoint(c1, c2, F)
