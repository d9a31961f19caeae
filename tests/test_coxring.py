import itertools
import pathlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from sl2cox import classgroup as cg
from sl2cox import coxring, exactmath
from sl2cox.coxring import (
    HeightOutOfRange,
    NotAffineShape,
    NotCyclic,
    NotLinearInTarget,
    SectionModule,
    TorsionAfterAugmentation,
    _product_monomial,
    _transvectant,
    batyrev_haddad,
    classify_fiber_presentation,
    clebsch_gordan,
    cox_u_presentation,
    eliminate,
    full_cox_presentation_cyclic,
    special_fiber_u,
    verify_cox_u,
    verify_full_cox,
)
from sl2cox.embedding import (
    EmbeddingData,
    GStableDivisorSpec,
    affine_embedding,
    load_embedding,
    point_coordinates,
)
from sl2cox.exactmath import EmptySolutionSet, FinAbGroup, RelationLattice, qi
from sl2cox.groups import ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import BasePoint, X0, XE, XF, XINF, XV, point
from sl2cox.ogpoly import G1, G2, G3, G4, GPoly, combination_nullspace
from sl2cox.presentation import (
    GradedPresentation,
    GradedVariable,
    SparsePoly,
    canonicalize,
    monomial,
    relation_degree,
    term_degree,
)

from gaussian_oracle import (
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussianRational,
    gauss,
    gauss_ipow,
    gr,
    gr_terms,
    qpoint,
    to_qi,
)
from test_classgroup import AdaptedOracle, dense_u, outcome, solve_integer
from test_embedding import mu3_example, trivial_four_points
from test_ogpoly import evaluate, raise_op, sl2_normal_form, sl2z_points

GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def relation_b_weight(poly: SparsePoly, weights: dict[str, int]):
    """Oracle: the common B-weight of all terms; raises when inhomogeneous."""
    w = None
    for m in poly.num:
        cur = sum(e * weights[v] for v, e in m)
        if w is None:
            w = cur
        elif w != cur:
            raise ValueError(f"relation not B-weight homogeneous: {w} vs {cur}")
    return w


def rel(*terms) -> SparsePoly:
    """Build a relation from (coeff, {var: exp}) pairs, each coeff anything
    ``gauss`` reads."""
    acc = SparsePoly()
    for c, mono in terms:
        acc = acc + SparsePoly.term(to_qi(c), mono)
    return acc


def canonical_key(poly: SparsePoly, var_order: list[str]):
    """Hashable form of a relation up to its global sign (fixed by
    ``canonicalize`` in the variable order), for exact comparison."""
    p = canonicalize(poly, {v: i for i, v in enumerate(var_order)})
    return frozenset(p.terms.items())


def keys_of(P: GradedPresentation):
    order = P.var_order()
    return {canonical_key(r, order) for r in P.relations}


def expect_keys(P: GradedPresentation, expected):
    order = P.var_order()
    assert keys_of(P) == {canonical_key(r, order) for r in expected}


class TestClebschGordan:
    def test_examples(self):
        assert clebsch_gordan(1, 1) == [2, 0]
        assert clebsch_gordan(3, 3) == [6, 4, 2, 0]
        assert clebsch_gordan(5, 0) == [5]
        assert clebsch_gordan(1, 3) == [4, 2]


class TestCoxU:
    def test_trivial_two_points_polynomial(self):
        p1, p2 = point(1, 0), point(0, 1)
        E = EmbeddingData(cyclic(1), (p1, p2), (
            GStableDivisorSpec(p1, 2, -1), GStableDivisorSpec(p2, 3, -2)))
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        _assert_cox_u_oracle(E, P)
        Q, log = eliminate(P)
        assert Q.relations == []
        assert len(log) == 2

    def test_cyclic_eliminated_form(self):
        E = mu3_example()  # x1 = [2:3]
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        _assert_cox_u_oracle(E, P)
        Q, log = eliminate(P)
        assert log[0].startswith("a = ")
        assert log[1].startswith("b = ")
        expected = rel(
            (3, {"s0": 3, "r0": 1}), (-2, {"sinf": 3, "rinf": 1}),
            (-1, {"sp1": 1, "rp1": 1}))
        expect_keys(Q, [expected])

    def test_tetrahedral_relations(self):
        E = EmbeddingData(TETRA, (point(2, 3),), (
            GStableDivisorSpec(XV, 1, -1), GStableDivisorSpec(XE, 1, -3),
            GStableDivisorSpec(XF, 2, -2), GStableDivisorSpec(point(2, 3), 1, -1)))
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        # functions in the subregular semi-invariants: a = fv^3, b = -fe^2,
        # s' over [2:3] is 3a - 2b
        assert {v.name: v.function for v in P.variables} == {
            "a": rel((1, {"fv": 3})), "b": rel((-1, {"fe": 2})),
            "sv": rel((1, {"fv": 1})), "se": rel((1, {"fe": 1})), "sf": rel((1, {"ff": 1})),
            "sp1": rel((3, {"fv": 3}), (2, {"fe": 2})),
            "rv": rel((1, {})), "re": rel((1, {})), "rf": rel((1, {})), "rp1": rel((1, {})),
        }
        Q, _ = eliminate(P)
        expected = [
            rel((1, {"sv": 3, "rv": 1}), (1, {"se": 2, "re": 1}), (1, {"sf": 3, "rf": 2})),
            rel((3, {"sv": 3, "rv": 1}), (2, {"se": 2, "re": 1}), (-1, {"sp1": 1, "rp1": 1})),
        ]
        expect_keys(Q, expected)

    def test_dihedral_gaussian_coefficient(self):
        n = 3
        E = EmbeddingData(dihedral(n), (), (
            GStableDivisorSpec(XV, 1, -2), GStableDivisorSpec(XE, 1, -1),
            GStableDivisorSpec(XF, 1, -2)))
        assert not E.validate()
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        assert {v.name: v.function for v in P.variables} == {
            "a": rel((1, {"fv": 2})), "b": rel((-1, {"fe": 2})),
            "sv": rel((1, {"fv": 1})), "se": rel((1, {"fe": 1})), "sf": rel((1, {"ff": 1})),
            "rv": rel((1, {})), "re": rel((1, {})), "rf": rel((1, {})),
        }
        Q, _ = eliminate(P)
        lam = 4 * gauss_ipow(-n)
        expected = [rel(
            (lam, {"sf": n, "rf": 1}), (-1, {"sv": 2, "rv": 1}), (1, {"se": 2, "re": 1}))]
        expect_keys(Q, expected)

    def test_all_polyhedral_groups_verify(self):
        for F, third_h in ((TETRA, 2), (OCTA, 3), (ICOSA, 2), (dihedral(4), 3)):
            E = EmbeddingData(F, (point(2, 3),), (
                GStableDivisorSpec(XV, 1, -2), GStableDivisorSpec(XE, 1, -3),
                GStableDivisorSpec(XF, third_h, -third_h),
                GStableDivisorSpec(point(2, 3), 1, -1)))
            assert not E.validate(), F
            P = cox_u_presentation(E)
            verify_cox_u(E, P)
            Q, log = eliminate(P)
            assert len(log) == 2 and len(Q.relations) == 2

    def test_dominating_divisor_free_generator(self):
        E = EmbeddingData(cyclic(3), (), (
            GStableDivisorSpec(X0, 1, -1), GStableDivisorSpec(None, 0, Fraction(-1))))
        P = cox_u_presentation(E)
        assert "rdom" in P.var_order()
        assert all("rdom" not in r.variables() for r in P.relations)
        _assert_cox_u_oracle(E, P)

    def test_random_cyclic_sweep_matches_oracle(self):
        rng = random.Random(271828)
        coords = [(1, 1), (2, 1), (3, 1), (1, 3), (5, 2), (-1, 2)]
        for n in range(1, 9):
            done = 0
            while done < 3:
                extras = tuple(point(*c) for c in rng.sample(coords, k=rng.randint(0, 3)))
                divisors = [GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3))
                            for p in extras]
                if n >= 3:
                    divisors += [GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 2))
                                 for p in (X0, XINF) if rng.random() < 0.7]
                E = EmbeddingData(cyclic(n), extras, tuple(divisors))
                if E.validate():
                    continue
                P = cox_u_presentation(E)
                verify_cox_u(E, P)
                _assert_cox_u_oracle(E, P)
                done += 1

    def test_degrees_and_weights_homogeneous(self):
        for E in (mu3_example(), trivial_four_points()):
            P = cox_u_presentation(E)
            degs = P.degree_map()
            wts = P.weight_map()
            for r in P.relations:
                relation_degree(r, degs, P.grading)
                relation_b_weight(r, wts)


class TestEliminate:
    def test_no_relations_identity(self):
        P = GradedPresentation(
            [GradedVariable("a", (0,), 1), GradedVariable("x", (0,), 1)],
            [], FinAbGroup(1))
        Q, log = eliminate(P)
        assert Q.variables == P.variables and log == []

    def test_not_linear(self):
        P = GradedPresentation(
            [GradedVariable("a", (0,), 1), GradedVariable("x", (0,), 2)],
            [rel((1, {"a": 2}), (-1, {"x": 1}))], FinAbGroup(1))
        with pytest.raises(NotLinearInTarget):
            eliminate(P, targets=("a",))

    def test_substitution_roundtrip(self):
        # eliminating a then re-substituting its definition restores the zero
        # relation term by term
        E = mu3_example()
        P = cox_u_presentation(E)
        Q, log = eliminate(P, targets=("a",))
        # the killed relation was a - s0^3 r0: substitute back into itself
        value = rel((1, {"s0": 3, "r0": 1}))
        killed = P.relations[0]
        assert killed.substitute("a", value).is_zero()


    def test_one_power_map_per_target(self, monkeypatch):
        # the relations of one eliminate call share the target's power map,
        # so each power of each target's value is computed once
        P = cox_u_presentation(_cyclic_with_points(5, [(2, 3), (3, 5), (1, 4), (4, 7)]))
        want, _ = eliminate(P)
        calls = []
        pow_ = SparsePoly.pow

        def counted(self, k):
            calls.append((self, k))  # keeps self alive, so its id stays unique
            return pow_(self, k)

        monkeypatch.setattr(SparsePoly, "pow", counted)
        Q, log = eliminate(P)
        assert Q == want and len(log) == 2 and len(P.relations) == 6
        assert Counter((id(p), k) for p, k in calls).most_common(1)[0][1] == 1
        assert len(calls) == 4  # the unit and the first power of each value


class TestSpecialFiber:
    def _fiber(self, E):
        P, _ = eliminate(cox_u_presentation(E))
        return special_fiber_u(P)

    def test_three_shapes(self):
        x1, x2 = point(2, 3), point(1, 1)
        both = mu3_example()
        assert classify_fiber_presentation(self._fiber(both)) == "polynomial"
        none1 = EmbeddingData(cyclic(5), (x1,), (GStableDivisorSpec(x1, 1, -1),))
        assert classify_fiber_presentation(self._fiber(none1)) == "reduced_reducible"
        none2 = EmbeddingData(cyclic(5), (x1, x2), (
            GStableDivisorSpec(x1, 1, -1), GStableDivisorSpec(x2, 1, -1)))
        assert classify_fiber_presentation(self._fiber(none2)) == "nonreduced"

    def test_shapes_match_normality_randomized(self):
        from sl2cox.diagnostics import special_fiber_normal

        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(3, 8)
            extras = []
            divisors = []
            if rng.random() < 0.6:
                divisors.append(GStableDivisorSpec(X0, rng.randint(1, 4), -rng.randint(1, 3)))
            if rng.random() < 0.6:
                divisors.append(GStableDivisorSpec(XINF, rng.randint(1, 4), -rng.randint(1, 3)))
            for k in range(rng.randint(0, 3)):
                p = point(k + 1, 1)
                extras.append(p)
                divisors.append(GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3)))
            E = EmbeddingData(cyclic(n), tuple(extras), tuple(divisors))
            if E.validate():
                continue
            verdict = classify_fiber_presentation(self._fiber(E))
            assert (verdict == "polynomial") == special_fiber_normal(E), E

    def test_brieskorn_pham_trinomials(self):
        # with no points and no divisors the one relation is a trinomial of
        # pure powers in distinct variables, e.g. sv^3 + sf^3 + se^2 (T)
        from sl2cox.diagnostics import special_fiber_normal

        for F in (TETRA, OCTA, ICOSA, dihedral(2), dihedral(3), dihedral(4)):
            E = EmbeddingData(F, (), ())
            fib = self._fiber(E)
            assert [len(r.terms) for r in fib.relations] == [3], F
            assert classify_fiber_presentation(fib) == "brieskorn_pham", F
            assert special_fiber_normal(E), F

    def test_pure_powers_of_one_variable_are_not_brieskorn_pham(self):
        P = GradedPresentation(
            [GradedVariable("s", (0,), 0), GradedVariable("t", (0,), 0)],
            [rel((1, {"s": 2}), (1, {"s": 3}), (1, {"t": 2}))], FinAbGroup(1))
        assert classify_fiber_presentation(P) == "other"

    def test_coprime_binomial_is_not_reducible(self):
        # T with (1, -1) over xf: the fiber is the irreducible cusp sv^3 + se^2
        fib = self._fiber(EmbeddingData(TETRA, (), (GStableDivisorSpec(XF, 1, -1),)))
        assert [len(r.terms) for r in fib.relations] == [2]
        assert classify_fiber_presentation(fib) == "other"

    @pytest.mark.parametrize("p", range(2, 13))
    def test_binomial_is_reducible_iff_its_exponents_share_a_factor(self, p):
        # s^p - t^q splits into gcd(p, q) factors s^(p/g) - zeta t^(q/g)
        for q in range(2, 13):
            P = GradedPresentation(
                [GradedVariable("s", (0,), 0), GradedVariable("t", (0,), 0)],
                [rel((1, {"s": p}), (-1, {"t": q}))], FinAbGroup(1))
            want = "reduced_reducible" if gcd(p, q) > 1 else "other"
            assert classify_fiber_presentation(P) == want, (p, q)

    def test_polyhedral_shapes_match_normality_randomized(self):
        # affine space and a Brieskorn-Pham trinomial are the normal verdicts
        from sl2cox.diagnostics import special_fiber_normal

        rng = random.Random("polyhedral-fibers")
        groups = [TETRA, OCTA, ICOSA] + [dihedral(n) for n in range(2, 8)]
        verdicts = Counter()
        for _ in range(200):
            F = rng.choice(groups)
            over = [p for p in (XV, XE, XF) if rng.random() < 0.5]
            extras = list(dict.fromkeys(point(rng.randint(2, 9), rng.randint(2, 9))
                                        for _ in range(rng.randint(0, 2))))
            divisors = []
            for p in over + extras:
                h = rng.randint(1, 3)
                divisors.append(GStableDivisorSpec(p, h, -h - rng.randint(0, 2)))
            E = EmbeddingData(F, tuple(extras), tuple(divisors))
            if E.validate():
                continue
            verdict = classify_fiber_presentation(self._fiber(E))
            assert (verdict in ("polynomial", "brieskorn_pham")) == special_fiber_normal(E), E
            verdicts[verdict] += 1
        assert set(verdicts) == {"polynomial", "brieskorn_pham", "reduced_reducible",
                                 "nonreduced", "other"}, verdicts

    def test_fiber_dimension_counts(self):
        # normal cyclic fiber: affine space of dimension 2 + #extras
        fib = self._fiber(mu3_example())
        assert len(fib.variables) == 3 and not fib.relations
        # n <= 2 with k extras: affine space of dimension k
        pts = (point(1, 0), point(0, 1), point(1, 1), point(2, 1))
        E = trivial_four_points()
        fib = self._fiber(E)
        assert len(fib.variables) == 4 and not fib.relations


PRINTED_TRIVIAL = [
    rel((1, {"s1": 1, "t2": 1}), (-1, {"s2": 1, "t1": 1}),
        (-1, {"r1": 4, "r2": 7, "r3": 2, "r4": 8})),
    rel((1, {"s1": 1, "t3": 1}), (-1, {"s3": 1, "t1": 1}),
        (-1, {"r1": 4, "r2": 10, "r3": 1, "r4": 8})),
    rel((1, {"s1": 1, "t4": 1}), (-1, {"s4": 1, "t1": 1}),
        (-1, {"r1": 4, "r2": 10, "r3": 2, "r4": 3})),
    rel((1, {"s2": 1, "t3": 1}), (-1, {"s3": 1, "t2": 1}),
        (1, {"r1": 6, "r2": 7, "r3": 1, "r4": 8})),
    rel((1, {"s2": 1, "t4": 1}), (-1, {"s4": 1, "t2": 1}),
        (2, {"r1": 6, "r2": 7, "r3": 2, "r4": 3})),
    rel((1, {"s3": 1, "t4": 1}), (-1, {"s4": 1, "t3": 1}),
        (1, {"r1": 6, "r2": 10, "r3": 1, "r4": 3})),
    rel((1, {"s2": 1, "r2": 3}), (1, {"s1": 1, "r1": 2}), (-1, {"s3": 1, "r3": 1})),
    rel((1, {"t2": 1, "r2": 3}), (1, {"t1": 1, "r1": 2}), (-1, {"t3": 1, "r3": 1})),
    rel((1, {"s2": 1, "r2": 3}), (2, {"s1": 1, "r1": 2}), (-1, {"s4": 1, "r4": 5})),
    rel((1, {"t2": 1, "r2": 3}), (2, {"t1": 1, "r1": 2}), (-1, {"t4": 1, "r4": 5})),
]


class TestFullCoxTrivial:
    def test_twelve_generators_ten_relations(self):
        res = full_cox_presentation_cyclic(trivial_four_points())
        names = [v.name for v in res.presentation.variables]
        assert names == ["s1", "t1", "s2", "t2", "s3", "t3", "s4", "t4",
                         "r1", "r2", "r3", "r4"]
        assert len(res.presentation.relations) == 10
        expect_keys(res.presentation, PRINTED_TRIVIAL)
        assert res.preprocessing_log == []
        verify_full_cox(res)
        _assert_relations_vanish(res)

    def test_plucker_syzygy(self):
        # s_k D_lm - s_l D_km + s_m D_kl = 0 identically, and the induced
        # combination of the emitted relations lies in the relation ideal
        # (its function part vanishes)
        res = full_cox_presentation_cyclic(trivial_four_points())
        by_pair = {}
        for mod in res.modules:
            if mod.kind == "M":
                by_pair[mod.points] = mod.rows[0].poly
        s = {k: SparsePoly.variable(f"s{k}") for k in (1, 2, 3)}
        t = {k: SparsePoly.variable(f"t{k}") for k in (1, 2, 3)}

        def D(k, l):
            return s[k] * t[l] - s[l] * t[k]

        plucker = s[1] * D(2, 3) - s[2] * D(1, 3) + s[3] * D(1, 2)
        assert plucker.is_zero()
        combo = (s[1] * by_pair[("x2", "x3")]
                 - s[2] * by_pair[("x1", "x3")]
                 + s[3] * by_pair[("x1", "x2")])
        # the combination contains only r-monomial multiples of s-variables,
        # and its function part vanishes at integer points of SL2
        _assert_relations_vanish(res, [combo])


PRINTED_MU3 = {
    # (module points, iso, weight) -> relation with alpha = 2, beta = 3
    ("x0", "xinf"): rel((1, {"t0": 1, "sinf": 1}), (-1, {"s0": 1, "tinf": 1}),
                        (-1, {"r0": 1, "rinf": 1, "r1": 2})),
    ("x0", "x1"): rel((1, {"t1": 1, "s0": 1}), (-1, {"s1": 1, "t0": 1}),
                      (-2, {"sinf": 2, "r0": 1, "rinf": 2, "r1": 1})),
    ("xinf", "x1"): rel((1, {"t1": 1, "sinf": 1}), (-1, {"s1": 1, "tinf": 1}),
                        (-3, {"s0": 2, "r0": 2, "rinf": 1, "r1": 1})),
    ("x1", "x1"): rel((1, {"t1": 2}), (-1, {"s1": 1, "u1": 1}),
                      (-6, {"s0": 1, "sinf": 1, "r0": 3, "rinf": 3, "r1": 2})),
    ("x1",): rel((3, {"s0": 3, "r0": 1}), (-2, {"sinf": 3, "rinf": 1}),
                 (-1, {"s1": 1, "r1": 1})),
}


class TestFullCoxMu3:
    def test_table(self):
        res = full_cox_presentation_cyclic(mu3_example())
        assert res.class_group.group == FinAbGroup(3)
        order = res.presentation.var_order()
        got = {}
        weights = {}
        for mod in res.modules:
            assert len(mod.rows) == 1
            got[mod.points] = canonical_key(mod.rows[0].poly, order)
            weights[mod.points] = (mod.rows[0].iso_m, mod.rows[0].b_weight)
        assert set(got) == set(PRINTED_MU3)
        for pts, expected in PRINTED_MU3.items():
            assert got[pts] == canonical_key(expected, order), pts
        assert weights == {
            ("x0", "xinf"): (0, 0),
            ("x0", "x1"): (2, 2),
            ("xinf", "x1"): (2, 2),
            ("x1", "x1"): (2, 2),
            ("x1",): (3, 3),
        }
        verify_full_cox(res)

    def test_other_coordinates(self):
        # alpha = 1, beta = 1: the scalars become 1, 1, 1
        res = full_cox_presentation_cyclic(mu3_example(1, 1))
        verify_full_cox(res)
        order = res.presentation.var_order()
        n1 = next(m for m in res.modules if m.kind == "N")
        expected = rel((1, {"s0": 3, "r0": 1}), (-1, {"sinf": 3, "rinf": 1}),
                       (-1, {"s1": 1, "r1": 1}))
        assert canonical_key(n1.rows[0].poly, order) == canonical_key(expected, order)


class TestFullCoxShapes:
    def test_not_cyclic(self):
        E = EmbeddingData(TETRA, (), (GStableDivisorSpec(XV, 1, -2),))
        with pytest.raises(NotCyclic):
            full_cox_presentation_cyclic(E)

    def test_affine_single_relation(self):
        for (n, h, l) in [(5, 7, -4), (3, 1, -1), (4, 6, Fraction(-7, 2)), (1, 3, -2)]:
            E = affine_embedding(n, h, l)
            res = full_cox_presentation_cyclic(E)
            assert len(res.presentation.relations) == 1
            poly = res.presentation.relations[0]
            rname = "r0" if n >= 3 else "r1"
            b = -(h + 2 * Fraction(l))
            mono = dict(next(iter(
                m for m in poly.terms if all(v.startswith("r") for v, _ in m))))
            assert mono == ({rname: int(b)} if b else {})
            verify_full_cox(res)
            _assert_relations_vanish(res)

    def test_point_free_embedding_is_determinant(self):
        # X = G: the Cox ring is O(SL2), one relation s_inf t_0 - s_0 t_inf = 1
        E = EmbeddingData(cyclic(1))
        res = full_cox_presentation_cyclic(E)
        assert [v.name for v in res.presentation.variables] == ["s0", "t0", "sinf", "tinf"]
        expected = rel((1, {"s0": 1, "tinf": 1}), (-1, {"t0": 1, "sinf": 1}), (1, {}))
        expect_keys(res.presentation, [expected])
        verify_full_cox(res)
        _assert_relations_vanish(res)

    def test_augmentation_when_fiber_not_normal(self):
        x1, x2 = point(2, 3), point(1, 1)
        E = EmbeddingData(cyclic(3), (x1, x2), (
            GStableDivisorSpec(x1, 1, -1), GStableDivisorSpec(x2, 1, -1)))
        from sl2cox.diagnostics import special_fiber_normal

        assert not special_fiber_normal(E)
        res = full_cox_presentation_cyclic(E)
        assert len(res.preprocessing_log) == 2
        assert "r0" in res.presentation.var_order()
        assert "rinf" in res.presentation.var_order()
        verify_full_cox(res)
        # the augmented embedding has a normal special fiber
        assert special_fiber_normal(res.embedding)

    def test_small_n_normalization_required(self):
        # for n <= 2 the points [0:1] and [1:0] must be present
        p1, p2, p3 = point(1, 1), point(2, 1), point(3, 1)
        E = EmbeddingData(cyclic(1), (p1, p2, p3), tuple(
            GStableDivisorSpec(p, 1, -1) for p in (p1, p2, p3)))
        with pytest.raises(NotAffineShape):
            full_cox_presentation_cyclic(E)

    def test_torsion_after_augmentation(self):
        p1, p2, p3 = point(1, 1), point(2, 1), point(3, 1)
        E = EmbeddingData(cyclic(2), (p1, p2, p3), tuple(
            GStableDivisorSpec(p, 1, -1) for p in (p1, p2, p3)))
        assert cg.class_group(E).group.torsion
        with pytest.raises(TorsionAfterAugmentation):
            full_cox_presentation_cyclic(E)

    def test_kernel_component_for_antipodal_points(self):
        # alpha1*beta2 + alpha2*beta1 = 0: the middle Clebsch-Gordan component
        # of V_{E^{x1}} V_{E^{x2}} dies in the Cox ring, so its relation is a
        # pure kernel vector with no section monomial
        x1, x2 = point(1, 1), point(-1, 1)
        E = EmbeddingData(cyclic(3), (x1, x2), tuple(
            GStableDivisorSpec(p, 1, -1) for p in (X0, XINF, x1, x2)))
        res = full_cox_presentation_cyclic(E)
        pair = next(m for m in res.modules if m.points == ("x1", "x2"))
        kinds = {(row.iso_m, row.in_kernel) for row in pair.rows}
        assert kinds == {(4, False), (2, True), (0, False)}
        kernel_row = next(r for r in pair.rows if r.in_kernel)
        assert all(not v.startswith("r")
                   for mono in kernel_row.poly.terms for v, _ in mono)
        verify_full_cox(res)

    def test_random_cyclic_sweep_verifies(self):
        rng = random.Random(314159)
        done = 0
        while done < 25:
            n = rng.randint(1, 6)
            coords = rng.sample([(1, 1), (2, 1), (3, 1), (1, 3), (5, 2)],
                                k=rng.randint(0, 2))
            if n <= 2:
                pts = [point(0, 1), point(1, 0)] + [point(*c) for c in coords]
            else:
                pts = [point(*c) for c in coords]
            extras = tuple(p for p in pts if p.tag is None)
            divisors = []
            if n >= 3:
                divisors += [GStableDivisorSpec(X0, rng.randint(1, 3), -rng.randint(1, 2)),
                             GStableDivisorSpec(XINF, rng.randint(1, 3), -rng.randint(1, 2))]
            for p in extras:
                divisors.append(GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3)))
            E = EmbeddingData(cyclic(n), extras, tuple(divisors))
            if E.validate():
                continue
            try:
                res = full_cox_presentation_cyclic(E)
            except (TorsionAfterAugmentation, NotAffineShape):
                continue
            verify_full_cox(res)
            _assert_relations_vanish(res)
            _assert_functions_match_oracle(res)
            # the relations are the module rows' polynomials, in order (the
            # pretty report renders each once, for both lines)
            assert ([row.poly for mod in res.modules for row in mod.rows]
                    == res.presentation.relations)
            done += 1

    def test_gaussian_sweep_matches_the_point_oracle(self):
        # the closed-form product monomials against exact evaluation at
        # integer points of SL2, with Gaussian coordinates and n up to 24
        rng = random.Random(2718)
        coords = [(to_qi((2, 1)), 3), (to_qi((0, -3)), 1), (1, to_qi((1, 2))), (2, 7),
                  (to_qi((1, -1)), to_qi((0, 2))), (Fraction(1, 2), to_qi((3, 1))), (-1, 1)]
        done, sizes = 0, set()
        while done < 14:
            n = rng.randint(1, 24)
            extras = [qpoint(*c) for c in rng.sample(coords, k=rng.randint(0, 4))]
            if n <= 2:
                extras = [point(0, 1), point(1, 0)] + extras
            over = extras if n <= 2 else [X0, XINF] + extras
            E = EmbeddingData(cyclic(n), tuple(extras), tuple(
                GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3)) for p in over))
            if E.validate():
                continue
            try:
                res = full_cox_presentation_cyclic(E)
            except (TorsionAfterAugmentation, NotAffineShape):
                continue
            verify_full_cox(res)
            _assert_relations_vanish(res)
            done += 1
            sizes.add((n <= 2, len(extras) - 2 * (n <= 2)))
        assert any(small for small, _ in sizes)
        assert any(not small and k >= 3 for small, k in sizes)

    def test_homogeneity_of_everything(self):
        for E in (trivial_four_points(), mu3_example(), affine_embedding(5, 7, -4)):
            res = full_cox_presentation_cyclic(E)
            degs = res.presentation.degree_map()
            wts = res.presentation.weight_map()
            for r in res.presentation.relations:
                relation_degree(r, degs, res.presentation.grading)
                relation_b_weight(r, wts)


def _numerators(alpha, beta) -> tuple:
    """(alpha, beta), anything ``gauss`` reads, as Gaussian-integer numerators
    over one denominator: a section module's ``coords``."""
    (ar, ai, ad), (br, bi, bd) = to_qi(alpha), to_qi(beta)
    d = ad * bd // gcd(ad, bd)
    return (ar * (d // ad), ai * (d // ad)), (br * (d // bd), bi * (d // bd)), d


def _extra_module(nb: int, alpha, beta, idx: str = "1") -> SectionModule:
    """The extra-point module of [alpha:beta] for nbar = nb, built as in the
    construction: beta g3^(nb-k) g1^k - alpha g4^(nb-k) g2^k, weight nb - 2k."""
    fns = tuple((G3.pow(nb - k) * G1.pow(k)).scale(to_qi(beta))
                - (G4.pow(nb - k) * G2.pow(k)).scale(to_qi(alpha))
                for k in range(nb + 1))
    names = tuple(f"m{k}_{idx}" for k in range(nb + 1))
    return SectionModule(f"x{idx}", {}, names, fns, _numerators(alpha, beta), 1)


def _uniform_module(alpha, beta, idx: str = "1") -> SectionModule:
    """The n <= 2 module of [alpha:beta]: beta g3 - alpha g4, alpha g2 - beta g1."""
    a, b = to_qi(alpha), to_qi(beta)
    fns = (G3.scale(b) - G4.scale(a), G2.scale(a) - G1.scale(b))
    return SectionModule(f"x{idx}", {}, (f"s{idx}", f"t{idx}"), fns, _numerators(alpha, beta), -1)


X0_MODULE = SectionModule("x0", {}, ("s0", "t0"), (G3, G1), ((0, 0), (1, 0), 1), 1)
XINF_MODULE = SectionModule("xinf", {}, ("sinf", "tinf"), (G4, G2), ((-1, 0), (0, 0), 1), 1)


def _module_functions(res) -> dict[str, list[GPoly]]:
    """The recorded functions of each section module of a full presentation,
    by module tag, in basis order (weights descending)."""
    out: dict[str, list[GPoly]] = {}
    for v in res.presentation.variables:
        if v.module_tag.startswith("V(E^"):
            out.setdefault(v.module_tag, []).append(v.function)
    return out


def _raising_scalars(fns: list[GPoly]) -> list:
    """Oracle: the scalars a_k with raise(fn_k) = a_k fn_(k-1) and a_0 = 0,
    read off one term and confirmed by exact equality, so a span the
    raising operator does not stabilize fails the assertion."""
    assert raise_op(fns[0]).is_zero()
    scalars = [gauss(0)]
    for above, f in zip(fns, fns[1:]):
        raised = raise_op(f)
        mono, c = next(iter(gr_terms(raised).items()))
        scalars.append(c / gr(above.coeff(mono)))
        assert raised == above.scale(to_qi(scalars[-1]))
    return scalars


def _cyclic_with_points(n: int, coords) -> EmbeddingData:
    """cyclic(n) with one (1, -1) divisor over each exceptional point; for
    n <= 2 the points [0:1] and [1:0] come first."""
    extras = [qpoint(*c) for c in coords]
    if n <= 2:
        extras = [point(0, 1), point(1, 0)] + extras
    over = extras if n <= 2 else [X0, XINF] + extras
    return EmbeddingData(cyclic(n), tuple(extras),
                         tuple(GStableDivisorSpec(p, 1, -1) for p in over))


class TestRaisingScalars:
    """The raising operator on the functions the construction records: the
    chains assume raise(fn_i) = i eps_i / eps_(i-1) fn_(i-1), with eps = -1
    only for n <= 2."""

    def test_extra_point_module(self):
        # nbar = n for odd n and n/2 for even n; n = 2 mod 4 keeps 2-torsion here
        for n in [*range(3, 25, 2), *range(4, 25, 4)]:
            fns = _module_functions(full_cox_presentation_cyclic(_cyclic_with_points(n, [(2, 3)])))
            nb = cyclic(n).nbar
            assert _raising_scalars(fns["V(E^x1)"]) == [gauss(i) for i in range(nb + 1)]

    def test_uniform_module(self):
        for n in (1, 2):
            res = full_cox_presentation_cyclic(_cyclic_with_points(n, [(2, 3)] if n == 1 else []))
            for fns in _module_functions(res).values():
                assert _raising_scalars(fns) == [gauss(0), gauss(-1)]

    def test_x0_and_xinf_modules(self):
        fns = _module_functions(full_cox_presentation_cyclic(_cyclic_with_points(5, [(2, 3)])))
        assert _raising_scalars(fns["V(E^x0)"]) == [gauss(0), gauss(1)]
        assert _raising_scalars(fns["V(E^xinf)"]) == [gauss(0), gauss(1)]

    def test_gaussian_sweep_obeys_the_module_formula(self):
        rng = random.Random(1618)
        coords = [(to_qi((2, 1)), 3), (to_qi((0, -3)), 1), (1, to_qi((1, 2))), (2, 7),
                  (to_qi((1, -1)), to_qi((0, 2))), (Fraction(1, 2), to_qi((3, 1))), (-1, 1)]
        done, small = 0, 0
        while done < 24:
            n = rng.randint(1, 24)
            E = _cyclic_with_points(n, rng.sample(coords, k=rng.randint(0, 4)))
            if E.validate():
                continue
            try:
                res = full_cox_presentation_cyclic(E)
            except (TorsionAfterAugmentation, NotAffineShape):
                continue
            eps = [1] + [-1 if n <= 2 else 1] * cyclic(n).nbar  # eps_0, eps_1, ...
            for fns in _module_functions(res).values():
                assert raise_op(fns[0]).is_zero()
                for i in range(1, len(fns)):
                    assert raise_op(fns[i]) == fns[i - 1].scale(i * eps[i] * eps[i - 1])
            done += 1
            small += n <= 2
        assert 0 < small < done


def _dense_raising(mod: SectionModule) -> list:
    """Oracle: the matrix M with raise(fn_j) = sum_k M[k][j] fn_k, found by
    matching raise(fn_j) against the one basis vector of weight w_j + 2."""
    M = [[gauss(0)] * mod.dim for _ in range(mod.dim)]
    for j, f in enumerate(mod.fns):
        raised = raise_op(f)
        if raised.is_zero():
            continue
        k = next(k for k, w in enumerate(mod.weights) if w == mod.weights[j] + 2)
        mono, c = next(iter(gr_terms(raised).items()))
        M[k][j] = c / gr(mod.fns[k].coeff(mono))
        assert raised == mod.fns[k].scale(to_qi(M[k][j]))
    return M


def _kernel_vector(rows: list[dict], ncols: int) -> list:
    """The vector spanning the one-dimensional right kernel of the sparse
    rows {column: coefficient}: row echelon form, eliminating only below
    each pivot and touching only non-zero entries, then back-substitution
    with the free variable set to 1."""
    rows = [{k: x for k, x in r.items() if x} for r in rows]
    pivots = {}  # column -> its pivot row, non-zero only from that column on
    for c in range(ncols):
        piv = next((r for r in rows if c in r), None)
        if piv is None:
            continue
        rows = [r for r in rows if r is not piv]
        for r in rows:
            if c in r:
                f = r[c] / piv[c]
                for k, x in piv.items():
                    y = r.get(k, GAUSS_ZERO) - f * x
                    if y:
                        r[k] = y
                    else:
                        del r[k]
        pivots[c] = piv
    free = [c for c in range(ncols) if c not in pivots]
    assert len(free) == 1
    v = {free[0]: GAUSS_ONE}
    for c in sorted(pivots, reverse=True):
        s = sum((x * v[k] for k, x in pivots[c].items() if k in v), GAUSS_ZERO)
        if s:
            v[c] = -s / pivots[c][c]
    return [v.get(c, GAUSS_ZERO) for c in range(ncols)]


def _nullspace_hwv(A: SectionModule, B: SectionModule, m: int, ra: list, rb: list) -> dict:
    """Oracle: the highest-weight vector of V_m in A (x) B (in Sym^2 A when
    A is B) as the kernel of the raising operator, with matrices ra =
    ``_dense_raising(A)`` and rb on B, on the formal tensors of weight m,
    computed by ``_kernel_vector``; normalized so its first non-zero
    coefficient, in ascending i, is 1."""
    sym = A is B
    wa, wb = A.weights, B.weights

    def fold(i, j):
        return (min(i, j), max(i, j)) if sym else (i, j)

    pairs = [(i, j) for i in range(A.dim) for j in range(B.dim)
             if wa[i] + wb[j] == m and (not sym or i <= j)]
    up = [(i, j) for i in range(A.dim) for j in range(B.dim)
          if wa[i] + wb[j] == m + 2 and (not sym or i <= j)]
    mat = [{} for _ in up]
    for col, (i, j) in enumerate(pairs):
        images = [((k, j), ra[k][i]) for k in range(A.dim)]
        images += [((i, k), rb[k][j]) for k in range(B.dim)]
        for key, c in images:
            if c and fold(*key) in up:
                row = mat[up.index(fold(*key))]
                row[col] = row.get(col, GAUSS_ZERO) + c
    null = _kernel_vector(mat, len(pairs))
    lead = next(c for c in null if c)
    return {p: c / lead for p, c in zip(pairs, null) if c}


def _reference_transvectant(a: list, b: list, k: int, sym: bool) -> dict:
    """The chain as a GaussianRational recurrence, one division per step:
    c_0k = 1, c_(i+1),(k-i-1) = -c_i,(k-i) b_(k-i) / a_(i+1), folded when
    ``sym`` and scaled to lead with 1."""
    chain: dict = {}
    c = GAUSS_ONE
    for i in range(k + 1):
        key = (min(i, k - i), max(i, k - i)) if sym else (i, k - i)
        chain[key] = chain.get(key, GAUSS_ZERO) + c
        if i < k:
            c = -c * gauss(b[k - i]) / gauss(a[i + 1])
    lead = next(x for x in chain.values() if x)
    return {key: x / lead for key, x in chain.items() if x}


def _components(A: SectionModule, B: SectionModule) -> list[int]:
    """Transvectant orders k of the non-leading Clebsch-Gordan components of
    A (x) B (of Sym^2 A when A is B), as the construction builds them."""
    comps = clebsch_gordan(A.dim - 1, B.dim - 1)[1:]
    if A is B:
        comps = comps[1::2]
    return [(A.weights[0] + B.weights[0] - m) // 2 for m in comps]


class TestTransvectant:
    def _check(self, A: SectionModule, B: SectionModule):
        sym = A is B
        a = _raising_scalars(A.fns)
        b = a if sym else _raising_scalars(B.fns)
        ra, rb = _dense_raising(A), _dense_raising(B)
        for k in _components(A, B):
            m = A.weights[0] + B.weights[0] - 2 * k
            chain = _transvectant(A, B, k, sym)
            assert all(type(c) is int for c in chain.values())
            chain = [(key, gauss(c)) for key, c in chain.items()]
            assert chain == list(_nullspace_hwv(A, B, m, ra, rb).items()), (A.names, B.names, m)
            assert chain == list(_reference_transvectant(a, b, k, sym).items()), (A.names, k)

    def test_cyclic_modules_match_nullspace(self):
        for nb in range(1, 25):
            mods = [X0_MODULE, XINF_MODULE, _extra_module(nb, 2, 3, "1"),
                    _extra_module(nb, 1, 1, "2")]
            for i, A in enumerate(mods):
                for B in mods[i:]:
                    self._check(A, B)

    def test_uniform_modules_match_nullspace(self):
        mods = [_uniform_module(0, 1, "1"), _uniform_module(1, 0, "2"),
                _uniform_module(2, 3, "3")]
        for i, A in enumerate(mods):
            for B in mods[i:]:
                self._check(A, B)

    def test_n_module_scalars_match_combination_nullspace(self):
        # n = 2 with three or more points keeps torsion here, so n <= 2 is n = 1;
        # [0:2] and [3:0] give s0 and sinf coefficients other than 1
        cases = [(n, (point(1, 1), point(2, 3))) for n in (3, 4, 5, 7, 8)]
        cases += [(1, (point(0, 2), point(3, 0), point(1, 1), point(2, 1))),
                  (1, (point(0, 1), point(1, 0), point(2, 3)))]
        for n, extras in cases:
            over = extras if n <= 2 else (X0, XINF) + extras
            E = EmbeddingData(cyclic(n), extras, tuple(GStableDivisorSpec(p, 1, -1) for p in over))
            res = full_cox_presentation_cyclic(E)
            fn = {v.name: v.function for v in res.presentation.variables}
            n_rows = [r for mod in res.modules if mod.kind == "N" for r in mod.rows]
            assert n_rows
            for row in n_rows:
                monos, coeffs = zip(*gr_terms(row.poly).items())
                polys = []
                for mono in monos:
                    f = GPoly.const(1)
                    for v, e in mono:
                        f = f * fn[v].pow(e)
                    polys.append(f)
                null = [list(map(gr, v)) for v in combination_nullspace(polys)]
                assert len(null) == 1
                j = next(j for j, c in enumerate(null[0]) if c)
                assert [c * coeffs[j] / null[0][j] for c in null[0]] == list(coeffs)
                assert gauss(-1) in coeffs


def _chain_sum_monomial(A: SectionModule, B: SectionModule, k: int):
    """Oracle: (c, n0, ninf, in_kernel) of the chain's function on SL2,
    summed term by term in GPoly arithmetic and brought to the SL2 normal
    form; c is 0 for a kernel row."""
    fy = GPoly()
    for (i, j), c in _transvectant(A, B, k, A is B).items():
        fy = fy + (A.fns[i] * B.fns[j]).scale(c)
    fy = sl2_normal_form(fy)
    if fy.is_zero():
        return GAUSS_ZERO, None, None, True
    ((e1, e2, n0, ninf),) = fy.num  # a single monomial in g3, g4
    assert e1 == e2 == 0
    return gr(fy.coeff((0, 0, n0, ninf))), n0, ninf, False


def _closed_monomial(A: SectionModule, B: SectionModule, k: int):
    closed = _product_monomial(A, B, k, A is B)
    if closed is None:
        return GAUSS_ZERO, None, None, True
    x, y, r, n0, ninf = closed
    return GaussianRational(Fraction(x, r), Fraction(y, r)), n0, ninf, False


class TestProductMonomial:
    """The closed form of ``_product_monomial`` against the GPoly chain sum
    on every component of every pair, A is B included."""

    def _check_all_pairs(self, mods):
        kernel = 0
        for i, A in enumerate(mods):
            for B in mods[i:]:
                for k in _components(A, B):
                    got = _closed_monomial(A, B, k)
                    assert got == _chain_sum_monomial(A, B, k), (A.names, B.names, k)
                    kernel += got[3]
        return kernel

    def test_cyclic_modules(self):
        for nb in range(1, 25):
            self._check_all_pairs([X0_MODULE, XINF_MODULE, _extra_module(nb, 2, 3, "1"),
                                   _extra_module(nb, gauss((2, 1)), gauss((0, -3)), "2")])

    def test_rational_gaussian_coordinates(self):
        coords = [(Fraction(1, 2), gauss((Fraction(2, 3), 1))), (gauss((0, -3)), 1), (-1, 1), (1, 1)]
        for nb in range(1, 9):
            mods = [_extra_module(nb, al, be, str(j)) for j, (al, be) in enumerate(coords)]
            self._check_all_pairs([X0_MODULE, XINF_MODULE] + mods)

    def test_uniform_modules(self):
        mods = [_uniform_module(0, 1, "1"), _uniform_module(1, 0, "2"), _uniform_module(2, 3, "3"),
                _uniform_module(gauss((2, 1)), gauss((0, -3)), "4"), _uniform_module(0, 2, "5")]
        # [0:1] with itself and [0:1] with [0:2]: alpha beta' + alpha' beta = 0
        assert self._check_all_pairs(mods) > 0

    def test_antipodal_points_give_a_kernel_component(self):
        # alpha1 beta2 + alpha2 beta1 = 0 kills the even-k components
        A, B = _extra_module(3, 1, 1, "1"), _extra_module(3, -1, 1, "2")
        assert [_closed_monomial(A, B, k)[3] for k in _components(A, B)] == [False, True, False]


def _orbit_value(var: GradedVariable, E: EmbeddingData, keys: dict, g):
    """The function on SL2 behind a full-presentation variable, at the integer
    matrix g; the r sections are 1.  For n >= 3: s0, t0 = g3, g1; sinf, tinf =
    g4, g2; the weight-(nbar - 2k) vector of an extra point [alpha:beta] is
    beta g3^(nbar-k) g1^k - alpha g4^(nbar-k) g2^k.  For n <= 2 every module
    is s = beta g3 - alpha g4, t = alpha g2 - beta g1 for its point, and the
    modules x0, xinf of absent points are those of [0:1] and [1:0]."""
    g1, g2, g3, g4 = g
    if not var.module_tag.startswith("V(E^"):
        return gauss(1)
    key = var.module_tag[len("V(E^"):-1]
    if E.group.n >= 3 and key == "x0":
        return gauss(g3 if var.b_weight == 1 else g1)
    if E.group.n >= 3 and key == "xinf":
        return gauss(g4 if var.b_weight == 1 else g2)
    p = next((q for q in E.extra_points if keys[q] == key), None)
    if p is not None:
        alpha, beta = gr(p.alpha), gr(p.beta)
    else:
        alpha, beta = {"x0": (gauss(0), gauss(1)), "xinf": (gauss(1), gauss(0))}[key]
    if E.group.n <= 2:
        return beta * g3 - alpha * g4 if var.b_weight == 1 else alpha * g2 - beta * g1
    nb = E.group.nbar
    k = (nb - var.b_weight) // 2
    return beta * (g3 ** (nb - k) * g1 ** k) - alpha * (g4 ** (nb - k) * g2 ** k)


def _cox_u_value(var: GradedVariable, E: EmbeddingData, keys: dict, g):
    """The function on SL2 behind a cyclic cox_u variable, at the integer
    matrix g: a = g3^nbar, b = g4^nbar, s0 = g3, sinf = g4, s' over
    [alpha:beta] = beta g3^nbar - alpha g4^nbar, and 1 for every r section."""
    g1, g2, g3, g4 = g
    nb = E.group.nbar
    if var.name in ("a", "b"):
        return gauss(g3 ** nb if var.name == "a" else g4 ** nb)
    if not var.module_tag.startswith("E["):
        return gauss(1)
    key = var.module_tag[2:-1]
    if key in ("x0", "xinf"):
        return gauss(g3 if key == "x0" else g4)
    p = next(q for q in E.extra_points if keys[q] == key)
    return gr(p.beta) * g3 ** nb - gr(p.alpha) * g4 ** nb


def _assert_cox_u_oracle(E: EmbeddingData, P: GradedPresentation):
    """Each cyclic cox_u generator's recorded function takes the closed-form
    value at integer points of SL2, and every relation vanishes there."""
    keys = cg.class_group(E).point_keys
    for g in sl2z_points(3):
        val = {v.name: _cox_u_value(v, E, keys, g) for v in P.variables}
        for v in P.variables:
            assert evaluate(v.function, g) == val[v.name], v.name
        for r in P.relations:
            assert not _value_at(r, val)


def _value_at(poly: SparsePoly, val: dict):
    """poly with every variable replaced by its value in ``val``."""
    acc = gauss(0)
    for mono, c in gr_terms(poly).items():
        term = c
        for v, e in mono:
            for _ in range(e):
                term = term * val[v]
        acc = acc + term
    return acc


def _oracle_values(res, g) -> dict:
    keys = res.class_group.point_keys
    return {v.name: _orbit_value(v, res.embedding, keys, g)
            for v in res.presentation.variables}


def _assert_relations_vanish(res, polys=None):
    """Every relation of a full presentation (or every poly given) vanishes
    at integer points of SL2."""
    for g in sl2z_points(3):
        val = _oracle_values(res, g)
        for r in res.presentation.relations if polys is None else polys:
            assert not _value_at(r, val)


def _assert_functions_match_oracle(res):
    """The generator functions recorded by the construction take the oracle's
    values at integer points of SL2."""
    for g in sl2z_points(2):
        val = _oracle_values(res, g)
        for v in res.presentation.variables:
            assert evaluate(v.function, g) == val[v.name], v.name


def _perturbed(P: GradedPresentation, pick=lambda mono, c: True) -> GradedPresentation:
    """P with the coefficient of its first term (in relation order) that
    satisfies ``pick`` doubled: the relation stays homogeneous but no longer
    vanishes."""
    for i, r in enumerate(P.relations):
        for mono, c in r.terms.items():
            if pick(mono, c):
                bad = r + SparsePoly.term(c, dict(mono))
                return replace(P, relations=P.relations[:i] + [bad] + P.relations[i + 1:])
    raise AssertionError("no term to perturb")


def _unit_names(P: GradedPresentation, one) -> set:
    """The generators whose function is the unit: the r sections."""
    return {v.name for v in P.variables if v.function == one}


def _gaussian(mono, c) -> bool:
    return c[1] != 0


def _with_inhomogeneous(P: GradedPresentation) -> GradedPresentation:
    """P plus the relation s - 1 for a generator s of non-zero B-weight:
    neither Cl- nor B-homogeneous."""
    s = next(v.name for v in P.variables if v.b_weight)
    bad = SparsePoly.variable(s) - SparsePoly.term(1, {})
    return replace(P, relations=P.relations + [bad])


class TestConstructionComputesVerifierChecks:
    def test_one_homogeneity_check_per_verified_build(self, monkeypatch):
        # the construction checks no relation; verify_full_cox checks once
        calls = []
        check = coxring._check_homogeneous
        monkeypatch.setattr(coxring, "_check_homogeneous", lambda P: calls.append(check(P)))
        for E in (mu3_example(), trivial_four_points()):
            calls.clear()
            res = full_cox_presentation_cyclic(E)
            assert not calls
            verify_full_cox(res)
            assert len(calls) == 1


class TestVerifiersReject:
    def test_full_cox_perturbed_coefficient(self):
        res = full_cox_presentation_cyclic(mu3_example())
        verify_full_cox(res)
        with pytest.raises(RuntimeError, match="does not vanish"):
            verify_full_cox(replace(res, presentation=_perturbed(res.presentation)))
        with pytest.raises(RuntimeError, match="homogeneous"):
            verify_full_cox(replace(res, presentation=_with_inhomogeneous(res.presentation)))

    def test_full_cox_perturbed_unit_or_gaussian_term(self):
        x1 = qpoint((2, 1), 3)
        E = EmbeddingData(cyclic(3), (x1,), tuple(
            GStableDivisorSpec(p, 1, -1) for p in (X0, XINF, x1)))
        res = full_cox_presentation_cyclic(E)
        verify_full_cox(res)
        units = _unit_names(res.presentation, GPoly.const(1))
        assert units == {"r0", "rinf", "r1"}

        def unit_only(mono, c):
            return all(v in units for v, _ in mono)

        for pick in (unit_only, _gaussian):
            with pytest.raises(RuntimeError, match="does not vanish"):
                verify_full_cox(replace(res, presentation=_perturbed(res.presentation, pick)))

    def test_polyhedral_cox_u_unit_or_gaussian_term(self):
        x1 = qpoint((2, 1), 3)
        E = EmbeddingData(TETRA, (x1,), (
            GStableDivisorSpec(XV, 1, -1), GStableDivisorSpec(XE, 1, -3),
            GStableDivisorSpec(XF, 2, -2), GStableDivisorSpec(x1, 1, -1)))
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        with pytest.raises(RuntimeError, match="does not vanish"):
            verify_cox_u(E, _perturbed(P, _gaussian))
        # every cox_u term has B-weight n0, so no term is a product of r
        # sections alone; a one-term relation i * r^2 is one (and homogeneous)
        r = min(_unit_names(P, SparsePoly.term(1, {})))
        unit_rel = SparsePoly.term((0, 1, 1), {r: 2})
        with pytest.raises(RuntimeError, match="does not vanish"):
            verify_cox_u(E, replace(P, relations=P.relations + [unit_rel]))

    def test_cyclic_cox_u_perturbed_coefficient(self):
        E = mu3_example()
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        with pytest.raises(RuntimeError, match="does not vanish"):
            verify_cox_u(E, _perturbed(P))
        with pytest.raises(RuntimeError, match="homogeneous"):
            verify_cox_u(E, _with_inhomogeneous(P))

    def test_polyhedral_cox_u_perturbed_coefficient(self):
        E = EmbeddingData(TETRA, (point(2, 3),), (
            GStableDivisorSpec(XV, 1, -1), GStableDivisorSpec(XE, 1, -3),
            GStableDivisorSpec(XF, 2, -2), GStableDivisorSpec(point(2, 3), 1, -1)))
        P = cox_u_presentation(E)
        verify_cox_u(E, P)
        with pytest.raises(RuntimeError, match="does not vanish"):
            verify_cox_u(E, _perturbed(P))
        with pytest.raises(RuntimeError, match="homogeneous"):
            verify_cox_u(E, _with_inhomogeneous(P))


class TestWork:
    def test_pair_rows_does_no_gpoly_arithmetic(self, monkeypatch):
        extras = (point(1, 1), point(2, 1), point(3, 1))
        E = EmbeddingData(cyclic(24), extras, tuple(
            GStableDivisorSpec(p, 1, -1) for p in (X0, XINF) + extras))
        calls = {True: 0, False: 0}  # keyed by "inside _pair_rows"
        inside = [False]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[inside[0]] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("__mul__", "__add__", "scale", "pow"):
            monkeypatch.setattr(GPoly, name, counted(getattr(GPoly, name)))
        pair_rows = coxring._pair_rows

        def tracked(*args):
            inside[0] = True
            try:
                return pair_rows(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(coxring, "_pair_rows", tracked)
        res = full_cox_presentation_cyclic(E)
        assert sum(len(m.rows) for m in res.modules if m.kind == "M") > 40
        verify_full_cox(res)
        assert calls[True] == 0
        assert calls[False] > 0  # the counters do see the verifier's products

    def test_no_exponent_solve_per_row_or_pair(self, monkeypatch):
        # mu_64 with ten extra points and three divisors per point: 1631
        # relations, of which the 10 N rows need no exponents; the 1621 M
        # rows read theirs off sums of the lattice numerators of the twelve
        # section modules; the whole build runs two Smith forms, the
        # cokernel's and the lattice's, and none per row or pair
        pts = [(2, 7), (5, 11), (3, 13), (7, 2), (11, 5), (13, 3), (4, 9), (9, 4), (6, 17), (17, 6)]
        extras = tuple(point(a, b) for a, b in pts)
        E = EmbeddingData(cyclic(64), extras, tuple(
            GStableDivisorSpec(p, 1, -j) for p in (X0, XINF) + extras for j in (1, 2, 3)))
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cg, "solve_nonneg", counting("nonneg", cg.solve_nonneg))
        monkeypatch.setattr(exactmath, "smith_normal_form",
                            counting("smith", exactmath.smith_normal_form))
        monkeypatch.setattr(RelationLattice, "numerators",
                            counting("numerators", RelationLattice.numerators))
        monkeypatch.setattr(RelationLattice, "solve", counting("read", RelationLattice.solve))
        res = full_cox_presentation_cyclic(E)
        rows = [(mod.kind, row.in_kernel) for mod in res.modules for row in mod.rows]
        assert len(rows) == 1631 and rows.count(("N", False)) == 10
        assert rows.count(("M", False)) == 1621
        assert calls["nonneg"] == 0
        assert calls["smith"] == 2
        assert calls["numerators"] == len(E.exceptional_points()) == 12
        assert calls["read"] == 1621

    def test_the_divisors_of_the_embedding_are_scanned_once_per_point(self, monkeypatch):
        # mu_64 with ten extra points and 1 or 3 divisors per point, those
        # over an extra point given a fresh copy of it: validation groups the
        # divisors by point in one pass (one point comparison per fresh copy,
        # where a scan per point compares every divisor with every point),
        # and the class group and the full presentation read that grouping,
        # so their comparisons do not grow with the divisors
        compared = [0]
        eq = BasePoint.__eq__

        def counted_eq(self, other):
            compared[0] += 1
            return eq(self, other)

        monkeypatch.setattr(BasePoint, "__eq__", counted_eq)
        counts = []
        pts = [(2, 7), (5, 11), (3, 13), (7, 2), (11, 5), (13, 3), (4, 9), (9, 4), (6, 17), (17, 6)]
        extras = tuple(point(a, b) for a, b in pts)
        for per_point in (1, 3):
            E = EmbeddingData(cyclic(64), extras, tuple(
                GStableDivisorSpec(p, 1, -j)
                for p in (X0, XINF) + tuple(point(a, b) for a, b in pts)
                for j in range(1, per_point + 1)))
            compared[0] = 0
            E.validate()
            validated = compared[0]
            cg.class_group(E)
            grouped = compared[0]
            full_cox_presentation_cyclic(E)
            counts.append((grouped, grouped - validated, compared[0] - grouped))
        # 84 more comparisons over validation and the class group, at most,
        # is what a second grouping of the divisors in the class group cost
        assert counts[1][0] - counts[0][0] <= 84
        assert counts[1][1:] == counts[0][1:]


# -- the exponent walk and the N-row scalars against per-row oracles ----------------


def _row_combo(ctx, A, B, n0: int, ninf: int) -> dict:
    """[A] + [B] - n0 [s0] - ninf [sinf] as a combination of generators."""
    combo = Counter()
    for mod, c in ((A, 1), (B, 1), (ctx.mod0, -n0), (ctx.modinf, -ninf)):
        for lbl, e in mod.color_combo.items():
            combo[lbl] += c * e
    return dict(combo)


def _walk_sweep():
    """(name, embedding): extra points [a:b] and [a:-b] for n = 3..12, whose
    kernel rows at even k leave gaps of 2 (n = 2 mod 4 keeps torsion and
    fails); mu_3 + 2 x 5; mu_1, one row per pair; cyclic9_deep (r-exponent
    137)."""
    rng = random.Random("exponent-walk")
    for n in range(3, 13):
        for _ in range(3):
            a, b = rng.randint(1, 12), rng.randint(1, 12)
            yield f"mu{n} [{a}:{b}] [{a}:{-b}]", _cyclic_with_points(n, [(a, b), (a, -b)])
    pts = (point(2, 7), point(5, 11))
    yield "mu3 + 2 x 5", EmbeddingData(cyclic(3), pts, tuple(
        GStableDivisorSpec(p, 1, -j) for p in (X0, XINF) + pts for j in range(1, 6)))
    yield "mu1", _cyclic_with_points(1, [(2, 3)])
    yield "cyclic9_deep", load_embedding(GOLDEN_INPUTS / "cyclic9_deep.json")


def _outcome(E):
    """The presentation's relations, or the type and message it raised."""
    return outcome(lambda: full_cox_presentation_cyclic(E).presentation.relations)


class TestExponentWalk:
    def test_walked_exponents_equal_a_solve_per_row(self, monkeypatch):
        # every walked row has the numerators of its own class, and the
        # exponents of the adapted-coordinate solve
        walk = coxring._Ctx.r_exponents
        seen: dict = {}

        def checked(ctx, A, B, k, n0, ninf, last):
            X, got = walk(ctx, A, B, k, n0, ninf, last)
            assert X == walk(ctx, A, B, k, n0, ninf, None)[0]
            assert got == oracle(_row_combo(ctx, A, B, n0, ninf))
            gaps[None if last is None else k - last[0]] += 1
            tops[0] = max(tops[0], *got)
            return X, got

        monkeypatch.setattr(coxring._Ctx, "r_exponents", checked)
        capture = coxring._pair_rows

        def pair_rows(A, B, ctx):
            nonlocal oracle
            if oracle is None or oracle.R is not ctx.R:
                oracle = AdaptedOracle(ctx.R)
            return capture(A, B, ctx)

        monkeypatch.setattr(coxring, "_pair_rows", pair_rows)
        failed = []
        for name, E in _walk_sweep():
            gaps, tops, oracle = Counter(), [0], None
            try:
                res = full_cox_presentation_cyclic(E)
            except TorsionAfterAugmentation:
                failed.append(name)
                continue
            verify_full_cox(res)
            seen[name] = gaps, tops[0]
        kernel = [name for name, (gaps, _) in seen.items() if gaps[2]]
        assert len(seen) >= 20 and len(kernel) >= 10 and failed
        assert seen["cyclic9_deep"][1] == 137
        assert all(gaps[None] for gaps, _ in seen.values())
        assert seen["mu3 + 2 x 5"][0][1] and seen["mu1"][0][None]

    def test_every_outcome_matches_one_solve_per_row(self, monkeypatch):
        walked = {name: _outcome(E) for name, E in _walk_sweep()}
        walk = coxring._Ctx.r_exponents
        monkeypatch.setattr(coxring._Ctx, "r_exponents",
                            lambda ctx, *args: walk(ctx, *args[:-1], None))
        per_row = {name: _outcome(E) for name, E in _walk_sweep()}
        assert walked == per_row
        assert any(type(out) is tuple for out in per_row.values())

    def test_a_walked_row_raises_as_its_own_solve(self, monkeypatch):
        ctxs, calls = [], []
        pair_rows = coxring._pair_rows

        def capture(A, B, ctx):
            ctxs.append(ctx)
            return pair_rows(A, B, ctx)

        monkeypatch.setattr(coxring, "_pair_rows", capture)
        walk = coxring._Ctx.r_exponents

        def recorded(ctx, *args):
            out = walk(ctx, *args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(coxring._Ctx, "r_exponents", recorded)
        full_cox_presentation_cyclic(load_embedding(GOLDEN_INPUTS / "cyclic9_deep.json"))
        ctx = ctxs[0]
        oracle = AdaptedOracle(ctx.R)
        (A, B, k, n0, ninf, last), (X, x) = next(c for c in calls if c[0][-1] is not None)
        assert x == oracle(_row_combo(ctx, A, B, n0, ninf))
        # with n0, ninf 200 higher (as if the last row sat 200 units of k
        # further on) no non-negative solution exists, and the walk raises
        # what the row's own solve raises
        deeper = (last[0] + 200, last[1])
        want = outcome(oracle, _row_combo(ctx, A, B, n0 + 200, ninf + 200))
        assert want == (EmptySolutionSet, "no integer x >= 0 solves the exact rows")
        assert outcome(walk, ctx, A, B, k, n0 + 200, ninf + 200, None) == want
        assert outcome(walk, ctx, A, B, k, n0 + 200, ninf + 200, deeper) == want

    def test_n_row_scalars_are_the_coordinate_ratios(self, monkeypatch):
        # the oracle divides the points' coordinates in Q(i), apart from the
        # integer coords that the rows are built from
        rows = []
        n_rows = coxring._n_rows

        def capture(mod, ctx, p):
            out = n_rows(mod, ctx, p)
            rows.append((mod, ctx, p, out))
            return out

        monkeypatch.setattr(coxring, "_n_rows", capture)
        rng = random.Random("n-row-scalars")

        def coordinate():
            return to_qi((Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                          Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 6))))

        for n in (1, 3, 4, 5, 7, 8, 9, 12, 16):  # n = 2 keeps torsion with four points
            extras = [qpoint(coordinate(), coordinate()) for _ in range(2)]
            if n <= 2:  # the designated points at non-real [0:b] and [a:0], |a|, |b| != 1
                extras = [qpoint(0, coordinate()), qpoint(coordinate(), 0)] + extras
            over = extras if n <= 2 else [X0, XINF] + extras
            E = EmbeddingData(cyclic(n), tuple(extras),
                              tuple(GStableDivisorSpec(p, 1, -1) for p in over))
            rows.clear()
            verify_full_cox(full_cox_presentation_cyclic(E))
            assert len(rows) == 2
            for mod, ctx, p, out in rows:
                F = ctx.E.group
                alpha, beta = map(gr, point_coordinates(F, p))
                beta0 = gr(point_coordinates(F, ctx.p0_point)[1])
                alphainf = gr(point_coordinates(F, ctx.pinf_point)[0])
                assert alpha.im and beta.im and mod.coords[2] > 1
                want = (beta / beta0, alpha / alphainf, gauss(-1))
                for i, row in enumerate(out):  # and the lowered row when nbar = 1
                    names = (ctx.mod0.names[i], ctx.modinf.names[i], mod.names[i])
                    got = {v: c for m, c in gr_terms(row.poly).items() for v, _ in m
                           if v in names}
                    assert got == dict(zip(names, want)), (n, mod.point_key, i)


def _lattice_sweep(rng, count: int):
    """``count`` seeded valid cyclic embeddings: n = 1..12, 0-3 extra points
    (for n <= 2 led by [0:1] and [1:0], where the presentation wants them),
    1-5 divisors over each exceptional point, a dominating divisor one time
    in four; the h of one embedding often share a factor, which leaves
    torsion in the class group."""
    made = 0
    while made < count:
        n = rng.randint(1, 12)
        k = rng.randint(0, 3)
        coords = set()
        while len(coords) < k:
            coords.add(point(rng.randint(1, 9), rng.choice([-1, 1]) * rng.randint(1, 9)))
        extras = sorted(coords, key=str)
        if n <= 2:
            extras = [point(0, 1), point(1, 0), *extras][:k]
        F = cyclic(n)
        hs = rng.choice([(1, 2, 3), (2, 4, 6), (3, 6, 9)])
        divisors = []
        for p in EmbeddingData(F, tuple(extras)).exceptional_points():
            for _ in range(rng.randint(1, 5)):
                h = rng.choice(hs)
                lo = -(-F.u * h // 2)
                divisors.append(GStableDivisorSpec(p, h, -Fraction(lo + rng.randint(0, 3), F.u)))
        if rng.random() < 0.25:
            divisors.append(GStableDivisorSpec(None, 0, -1))
        E = EmbeddingData(F, tuple(extras), tuple(divisors))
        if not E.validate():
            made += 1
            yield E


def _raised(out) -> bool:
    """Whether an ``outcome`` is a raised (type, message) pair."""
    return isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], type)


def _random_combos(rng, R, count: int):
    """Classes sum x_j X_j + P^T y, x >= 0, of which about half are moved by
    one unit on a random generator or by a non-zero torsion class: solvable
    ones, and ones that fail for each reason."""
    labels = [g.label for g in R.generators]
    U, free = dense_u(R), R.group.free_rank
    torsion = [solve_integer(U, [int(i == free + t) for i in range(U.rows)], [0] * U.rows)
               for t in range(len(R.group.torsion))]  # a lift of each torsion generator
    for _ in range(count):
        combo = Counter({lbl: rng.randint(0, 3) for lbl in R.divisor_labels})
        for row in R.presentation.data:
            y = rng.randint(-2, 2)
            for lbl, a in zip(labels, row):
                combo[lbl] += y * a
        if torsion and rng.random() < 0.3:
            for lbl, a in zip(labels, rng.choice(torsion)):
                combo[lbl] += a
        elif rng.random() < 0.5:
            combo[rng.choice(labels)] += rng.choice([-1, 1])
        yield dict(combo)


class TestLatticeOracle:
    def test_every_row_and_random_class_matches_the_adapted_solve(self, monkeypatch):
        # the lattice solve against the adapted-coordinate one: the same
        # exponents, or the same exception type and message, on every M-row
        # of every presentation and on random classes; every input with a
        # dominating divisor that keeps no torsion past augmentation builds
        # and verifies, rdom entering the section monomials
        rng = random.Random("lattice-oracle")
        walk = coxring._Ctx.r_exponents
        oracles: dict = {}
        rows, combos, builds, kinds = Counter(), Counter(), Counter(), Counter()
        dominating_verified = 0

        def checked(ctx, A, B, k, n0, ninf, last):
            if ctx.R not in oracles.values():
                oracles.clear()
                oracles[AdaptedOracle(ctx.R)] = ctx.R
            (oracle,) = oracles
            got = outcome(walk, ctx, A, B, k, n0, ninf, last)
            want = outcome(oracle, _row_combo(ctx, A, B, n0, ninf))
            assert (got if _raised(got) else got[1]) == want
            rows[want[1] if _raised(want) else "solved"] += 1
            return walk(ctx, A, B, k, n0, ninf, last)

        monkeypatch.setattr(coxring._Ctx, "r_exponents", checked)
        for E in _lattice_sweep(rng, 100):
            R = cg.class_group(E)
            oracle = AdaptedOracle(R)
            for combo in _random_combos(rng, R, 10):
                got = outcome(lambda c: cg.express_in_invariant_divisors(R, c)[1][0], combo)
                want = outcome(oracle, combo)
                assert got == want, (E, combo)
                combos[want[1] if _raised(want) else "solved"] += 1
            kinds["n<=2"] += E.group.n <= 2
            kinds["torsion"] += bool(R.group.torsion)
            kinds["dominating"] += E.dominating_divisor() is not None
            kinds["extra points"] += len(E.extra_points)
            built = outcome(full_cox_presentation_cyclic, E)
            builds[built[0].__name__ if _raised(built) else "built"] += 1
            if E.dominating_divisor() is not None and \
                    not (_raised(built) and built[0] is TorsionAfterAugmentation):
                assert not _raised(built), (E, built)
                verify_full_cox(built)
                dominating_verified += 1
        assert set(combos) == {"solved", "no integer x solves the exact rows",
                               "no integer x >= 0 solves the exact rows",
                               "free parts match but the torsion part of the class obstructs"}
        assert min(combos.values()) >= 10
        assert rows["solved"] >= 500 and dominating_verified >= 10
        assert builds["built"] >= 60
        assert min(kinds.values()) >= 10

    def test_mu3_with_thirty_divisors_per_point(self, monkeypatch):
        # mu_3 + 2 x 30: 120 invariant divisors, and still two Smith forms:
        # the cokernel's of Pᵀ and the lattice's of the columns of the other
        # generators
        pts = (point(2, 7), point(5, 11))
        E = EmbeddingData(cyclic(3), pts, tuple(
            GStableDivisorSpec(p, 1, -j) for p in (X0, XINF) + pts for j in range(1, 31)))
        calls = Counter()
        smith = exactmath.smith_normal_form

        def counted(M):
            calls[M.rows, M.cols] += 1
            return smith(M)

        monkeypatch.setattr(exactmath, "smith_normal_form", counted)
        res = full_cox_presentation_cyclic(E)
        P, labels = res.class_group.presentation, res.class_group.divisor_labels
        assert len(labels) == 120
        assert calls == {(P.cols, P.rows): 1, (P.cols - len(labels), P.rows): 1}
        verify_full_cox(res)
        ranks = ([row.iso_m for row in mod.rows] for mod in res.modules if mod.kind == "M")
        assert sum(map(len, ranks)) > 0


def _gpoly_module_fns(alpha, beta, d: int, eps: int) -> tuple[GPoly, ...]:
    """Oracle: the basis fn_k = eps_k (beta g1^k g3^(d-k) - alpha g2^k
    g4^(d-k)) of a section module in GPoly arithmetic."""
    return tuple((GPoly({(k, 0, d - k, 0): beta}) - GPoly({(0, k, 0, d - k): alpha}))
                 .scale(eps if k else 1) for k in range(d + 1))


class TestIntegerModules:
    def test_module_functions_match_the_gpoly_formula(self):
        coords = [(2, 3), (to_qi((2, 1)), 3), (Fraction(1, 2), to_qi((Fraction(2, 3), 1))),
                  (to_qi((0, -3)), 1), (-1, 1)]
        # no extra points for n = 2 mod 4, whose class groups keep torsion
        cases = [(n, [] if n % 4 == 2 else [coords[n % 5], coords[(n + 2) % 5]])
                 for n in range(3, 25)]
        cases += [(1, [(0, 1)]), (1, [(0, 2), (3, 0), (2, 3)]), (2, [(0, 1), (1, 0)])]
        for n, cs in cases:
            extras = [qpoint(*c) for c in cs]
            over = extras if n <= 2 else [X0, XINF] + extras
            E = EmbeddingData(cyclic(n), tuple(extras),
                              tuple(GStableDivisorSpec(p, 1, -1) for p in over))
            res = full_cox_presentation_cyclic(E)
            keys = res.class_group.point_keys
            at = {"x0": (qi(0), qi(1)), "xinf": (qi(1), qi(0))}  # no point there
            at.update((keys[p], point_coordinates(E.group, p))
                      for p in res.embedding.exceptional_points())
            for tag, fns in _module_functions(res).items():
                alpha, beta = at[tag[len("V(E^"):-1]]
                assert fns == list(_gpoly_module_fns(alpha, beta, len(fns) - 1,
                                                     -1 if n <= 2 else 1)), (n, tag)

    def test_coords_are_the_coordinates_over_one_denominator(self):
        mod = _extra_module(2, Fraction(1, 2), gauss((Fraction(2, 3), 1)))
        (ar, ai), (br, bi), den = mod.coords
        assert den == 6 and (ar, ai, br, bi) == (3, 0, 4, 6)
        assert _uniform_module(0, 1).coords == ((0, 0), (1, 0), 1)


# -- the packed homogeneity check against the term-by-term oracle -----------------


def _oracle_homogeneous(P: GradedPresentation, r: SparsePoly) -> bool:
    """Oracle: all terms of r share one Cl-degree and one B-weight."""
    try:
        relation_degree(r, P.degree_map(), P.grading)
        relation_b_weight(r, P.weight_map())
    except ValueError:
        return False
    return True


def _packed_homogeneous(P: GradedPresentation, r: SparsePoly) -> bool:
    try:
        coxring._check_homogeneous(replace(P, relations=[r]))
    except RuntimeError as exc:
        assert "not homogeneous" in str(exc)
        return False
    return True


def _parts(P: GradedPresentation, m) -> tuple:
    """(free part, torsion part, B-weight) of a monomial, term by term."""
    deg = term_degree(m, P.degree_map(), P.grading)
    free = P.grading.free_rank
    return deg[:free], deg[free:], sum(e * P.weight_map()[v] for v, e in m)


def _seeded_relations(P: GradedPresentation, rng, count: int):
    """Relations of two or three terms in three of P's generators, exponents
    up to the largest torsion order; mostly drawn from one class of equal
    free part and B-weight, so that the torsion parts decide."""
    top = max(P.grading.torsion, default=2)
    for _ in range(count):
        vs = rng.sample(P.var_order(), min(3, len(P.variables)))
        monos = [monomial(dict(zip(vs, exps)))
                 for exps in itertools.product(range(top + 1), repeat=len(vs))]
        classes: dict = {}
        for m in monos:
            free, _, w = _parts(P, m)
            classes.setdefault((free, w), []).append(m)
        pools = [ms for ms in classes.values() if len(ms) > 1]
        pool = rng.choice(pools) if pools and rng.random() < 0.8 else monos
        picked = rng.sample(pool, min(len(pool), rng.randint(2, 3)))
        yield rel(*[(rng.choice([1, -2, gauss((1, 1))]), dict(m)) for m in picked])


def _pair_differing_in(P: GradedPresentation, part: int):
    """Monomials m1, m2 of total degree <= 5 whose (free part, torsion part,
    B-weight) differ in entry ``part`` alone."""
    seen: dict = {}
    names = P.var_order()
    for t in range(6):
        for vs in itertools.combinations_with_replacement(names, t):
            m = monomial(Counter(vs))
            parts = _parts(P, m)
            m1, p1 = seen.setdefault(parts[:part] + parts[part + 1:], (m, parts[part]))
            if p1 != parts[part]:
                return m1, m
    raise AssertionError(f"no monomials differing in part {part} alone")


def _shifted(r: SparsePoly, m1, m2) -> SparsePoly:
    """r with its first term multiplied by m1 and every other one by m2."""
    (m0, c0), *rest = gr_terms(r).items()
    out = rel((c0, dict(m0))) * rel((1, dict(m1)))
    return out + rel(*[(c, dict(m)) for m, c in rest]) * rel((1, dict(m2)))


class TestPackedHomogeneity:
    def _sweep(self, presentations, rng) -> dict:
        verdicts = {True: 0, False: 0}
        for P in presentations:
            coxring._check_homogeneous(P)
            for r in _seeded_relations(P, rng, 12):
                ok = _oracle_homogeneous(P, r)
                assert _packed_homogeneous(P, r) == ok, (P.grading, r)
                verdicts[ok] += 1
        return verdicts

    def test_cyclic_with_torsion_agrees_with_the_oracle(self):
        rng = random.Random(1729)
        coords = [(1, 1), (2, 1), (3, 1), (1, 3), (to_qi((2, 1)), 3)]
        found: list[GradedPresentation] = []
        while len(found) < 10:
            n = rng.randint(1, 12)
            extras = [qpoint(*c) for c in rng.sample(coords, k=rng.randint(0, 2))]
            if n <= 2:
                extras = [point(0, 1), point(1, 0)][:rng.randint(1, 2)]
            over = extras if n <= 2 else [X0, XINF] + extras
            E = EmbeddingData(cyclic(n), tuple(extras), tuple(
                GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3))
                for p in over if rng.random() < 0.8))
            if E.validate():
                continue
            try:
                res = full_cox_presentation_cyclic(E)
            except (TorsionAfterAugmentation, NotAffineShape):
                continue
            found += [P for P in (res.presentation, cox_u_presentation(E)) if P.grading.torsion]
        verdicts = self._sweep(found, rng)
        assert min(verdicts.values()) >= 20

    def test_cox_u_of_every_family_agrees_with_the_oracle(self):
        rng = random.Random(31)
        presentations = [cox_u_presentation(E) for E in (
            mu3_example(), trivial_four_points(), affine_embedding(4, 6, Fraction(-7, 2)))]
        for F, third_h in ((TETRA, 2), (OCTA, 3), (ICOSA, 2), (dihedral(4), 3), (dihedral(3), 2)):
            presentations.append(cox_u_presentation(EmbeddingData(F, (point(2, 3),), (
                GStableDivisorSpec(XV, 1, -2), GStableDivisorSpec(XE, 1, -3),
                GStableDivisorSpec(XF, third_h, -third_h), GStableDivisorSpec(point(2, 3), 1, -1)))))
        verdicts = self._sweep(presentations, rng)
        assert min(verdicts.values()) >= 10

    @pytest.mark.parametrize("part", [0, 1, 2], ids=["free", "torsion", "weight"])
    def test_mutant_inhomogeneous_in_one_part_is_rejected(self, part):
        E = affine_embedding(4, 6, Fraction(-7, 2))  # Cl = Z x Z/4
        res = full_cox_presentation_cyclic(E)
        cases = [(res.presentation, lambda P: verify_full_cox(replace(res, presentation=P))),
                 (cox_u_presentation(E), lambda P: verify_cox_u(E, P))]
        for P, verify in cases:
            assert P.grading == FinAbGroup(1, (4,))
            verify(P)
            bad = _shifted(P.relations[0], *_pair_differing_in(P, part))
            assert not _oracle_homogeneous(P, bad)
            with pytest.raises(RuntimeError, match="not homogeneous"):
                verify(replace(P, relations=P.relations + [bad]))

    def test_digits_close_to_half_the_base(self):
        # C = 7 and T = 146 give 4 T C = 4088, so B = 4096: x^146 against
        # y^146 differs by 2044 in the free and the weight digit, 4 below B/2
        P = GradedPresentation([GradedVariable("x", (7, 0), 7), GradedVariable("y", (-7, 0), -7),
                                GradedVariable("u", (7, 4), 7), GradedVariable("z", (0, 7), 0)],
                               [], FinAbGroup(1, (8,)))
        assert not _packed_homogeneous(P, rel((1, {"x": 146}), (-1, {"y": 146})))
        assert _packed_homogeneous(P, rel((1, {"x": 146}), (-1, {"x": 144, "u": 2})))
        assert not _packed_homogeneous(P, rel((1, {"x": 146}), (-1, {"x": 145, "u": 1})))
        assert _packed_homogeneous(P, rel((1, {"x": 73, "y": 73}), (-1, {"z": 144, "x": 1, "y": 1})))
        rng = random.Random(4096)
        widest = 0
        for _ in range(300):
            monos = set()
            for _ in range(rng.randint(2, 3)):
                # total degree 146, nearly all of it on one generator
                exps = Counter(rng.choice("xyuz") for _ in range(rng.randint(0, 8)))
                exps[rng.choice("xyuz")] += 146 - sum(exps.values())
                monos.add(monomial(exps))
            r = rel(*[(1, dict(m)) for m in monos])
            assert _packed_homogeneous(P, r) == _oracle_homogeneous(P, r), r
            free = [_parts(P, m)[0][0] for m in r.num]
            widest = max(widest, max(free) - min(free))
        assert widest >= 2000

    def test_a_base_at_the_bound_is_needed(self):
        # x^64 against y^63 w: free parts (512, 0) and (-512, 1), so the key
        # difference is 1024 - B, which vanishes for B = 1024 > T C but not
        # for the B = 4096 > 4 T C of the check
        P = GradedPresentation([GradedVariable("x", (8, 0), 0), GradedVariable("y", (-8, 0), 0),
                                GradedVariable("w", (-8, 1), 0)], [], FinAbGroup(2))
        r = rel((1, {"x": 64}), (-1, {"y": 63, "w": 1}))
        assert not _oracle_homogeneous(P, r) and not _packed_homogeneous(P, r)
        # torsion coordinates +-7 (unreduced) in Z/3, T = 146: a torsion digit
        # 2030 of the difference, which a base of 2048 > 2 T C would read as -18
        P = GradedPresentation([GradedVariable("a", (0, 7), 0), GradedVariable("b", (0, -7), 0),
                                GradedVariable("z", (0, 0), 0), GradedVariable("c", (0, 1), 0)],
                               [], FinAbGroup(1, (3,)))
        r = rel((1, {"a": 146}), (-1, {"b": 144, "z": 2}))
        assert not _oracle_homogeneous(P, r) and not _packed_homogeneous(P, r)
        # torsion digits +-3, divisible by 3 only when read balanced (in one
        # term order the difference is -3)
        for r in (rel((1, {"z": 3}), (-1, {"c": 3})), rel((1, {"c": 3}), (-1, {"z": 3}))):
            assert _oracle_homogeneous(P, r) and _packed_homogeneous(P, r)


# (n, extra points, divisors per point) of the benchmark's full_cyclic_sweep
# and many_divisors inputs
BENCH_SHAPES = ((4, 3, 1), (8, 2, 1), (12, 3, 1), (16, 2, 1), (20, 3, 1), (24, 2, 1),
                (3, 2, 5), (4, 2, 4), (5, 3, 2), (3, 2, 3))
COPRIME = [(a, b) for a in range(1, 8) for b in range(1, 8) if a != b and gcd(a, b) == 1]


def _shaped_input(rng, n: int, k: int, d: int) -> EmbeddingData:
    """cyclic(n) with k extra points at seeded coprime [a:b] and d divisors
    (1, l) over each point, l = -2 for odd n and -3/2 for even n."""
    extras = tuple(point(a, b) for a, b in rng.sample(COPRIME, k))
    l = Fraction(-2) if n % 2 else Fraction(-3, 2)
    return EmbeddingData(cyclic(n), extras, tuple(
        GStableDivisorSpec(p, 1, l) for p in (X0, XINF) + extras for _ in range(d)))


def _on_sl2(rel: SparsePoly, functions: dict) -> GPoly:
    """The relation's function on SL2 in the SL2 normal form (the oracle)."""
    out = GPoly()
    for mono, c in rel.terms.items():
        term = GPoly.const(c)
        for v, e in mono:
            term = term * functions[v].pow(e)
        out = out + term
    return sl2_normal_form(out)


class TestMutantsOnBenchmarkShapes:
    @pytest.mark.parametrize("shape", BENCH_SHAPES, ids=str)
    def test_doubled_coefficient_is_rejected(self, shape):
        rng = random.Random(f"mutants:{shape}")
        res = full_cox_presentation_cyclic(_shaped_input(rng, *shape))
        verify_full_cox(res)
        P = res.presentation
        functions = {v.name: v.function for v in P.variables}
        for _ in range(10):
            i = rng.randrange(len(P.relations))
            mono, c = rng.choice(sorted(P.relations[i].terms.items()))
            bad = P.relations[i] + SparsePoly.term(c, dict(mono))
            assert _on_sl2(P.relations[i], functions).is_zero()
            assert not _on_sl2(bad, functions).is_zero()
            mutant = replace(P, relations=P.relations[:i] + [bad] + P.relations[i + 1:])
            with pytest.raises(RuntimeError, match="does not vanish"):
                verify_full_cox(replace(res, presentation=mutant))


class TestFullCoxScale:
    def test_cyclic_32_with_two_extra_points(self):
        extras = (point(1, 1), point(2, 1))
        E = EmbeddingData(cyclic(32), extras, tuple(
            GStableDivisorSpec(p, 1, -1) for p in (X0, XINF) + extras))
        res = full_cox_presentation_cyclic(E)
        verify_full_cox(res)
        assert len(res.presentation.relations) == 39
        _assert_relations_vanish(res)

    def test_cyclic_64_with_two_extra_points(self):
        extras = (point(1, 1), point(2, 1))
        E = EmbeddingData(cyclic(64), extras, tuple(
            GStableDivisorSpec(p, 1, -1) for p in (X0, XINF) + extras))
        res = full_cox_presentation_cyclic(E)
        verify_full_cox(res)
        assert len(res.presentation.relations) == 71
        _assert_relations_vanish(res)

    def test_cyclic_64_with_three_divisors_per_point(self):
        # the unique exponent vector of one relation reaches 192: no cap on
        # the exponents may turn this valid input into an error
        extras = (point(1, 1), point(2, 1))
        E = EmbeddingData(cyclic(64), extras, tuple(
            GStableDivisorSpec(p, 1, -j) for p in (X0, XINF) + extras for j in (1, 2, 3)))
        res = full_cox_presentation_cyclic(E)
        verify_full_cox(res)
        r_names = {v.name for v in res.presentation.variables if v.name.startswith("r")}
        assert len(r_names) == 12

        def top(rel):
            return max((e for mono in rel.terms for v, e in mono if v in r_names), default=0)

        deepest = [r for r in res.presentation.relations if top(r) == 192]
        assert deepest and max(map(top, res.presentation.relations)) == 192
        _assert_relations_vanish(res, deepest)

    def test_cyclic_3_with_twenty_invariant_divisors(self):
        extras = (point(1, 1), point(2, 1))
        E = EmbeddingData(cyclic(3), extras, tuple(
            GStableDivisorSpec(p, 1, -2) for p in (X0, XINF) + extras for _ in range(5)))
        res = full_cox_presentation_cyclic(E)
        verify_full_cox(res)
        assert res.class_group.group == FinAbGroup(20)
        assert len(res.presentation.relations) == 12
        _assert_relations_vanish(res)


class TestBatyrevHaddad:
    def test_height_one_iff_slope_half(self):
        bh = batyrev_haddad(affine_embedding(2, 1, Fraction(-1, 2)))
        assert bh.height == 1 and bh.b == 0
        bh = batyrev_haddad(affine_embedding(5, 7, -4))
        assert bh.height < 1

    def test_out_of_range(self):
        with pytest.raises(HeightOutOfRange):
            batyrev_haddad(affine_embedding(3, 1, -1))

    def test_not_affine_shape(self):
        with pytest.raises(NotAffineShape):
            batyrev_haddad(mu3_example())

    def test_odd_b_formula(self):
        # the last five keep torsion in the class group (Z/2, Z/3, Z/4, Z/2
        # with k = 3, Z/4 with k = 2), so the torsion parts are matched too
        for (n, h, l) in [(5, 7, -4), (7, 9, -5), (3, 5, -3), (1, 3, -2), (2, 3, -2),
                          (3, 9, -5), (4, 6, Fraction(-7, 2)), (6, 5, -3), (8, 8, Fraction(-9, 2))]:
            E = affine_embedding(n, h, l)
            if E.validate():
                continue
            bh = batyrev_haddad(E)
            assert bh.b == -(h + 2 * l)
            from math import gcd

            assert gcd(bh.p, bh.q) == 1
            assert bh.a * bh.k == n
