import random
from fractions import Fraction
from itertools import product

import pytest

from sl2cox.diagnostics import (
    HypothesesNotMet,
    classify_hypercone_orbit,
    constant_functions_only,
    is_platonic_ring,
    is_platonic_tuple,
    log_terminal_X,
    special_fiber_normal,
)
from sl2cox.embedding import EmbeddingData, GStableDivisorSpec, affine_embedding, derive_ap0_input
from sl2cox.groups import ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import (
    HyperspaceVector,
    X0,
    XD,
    XE,
    XF,
    XINF,
    XV,
    color_vector,
    hypercone_from_generators,
    point,
)

from test_embedding import mu3_example, trivial_four_points


def divisor_vector(d) -> HyperspaceVector:
    """The divisor's own vector (x, h, l) over its point."""
    return HyperspaceVector(d.over, d.h, d.l)


def verdict_X(E, cones):
    """Log terminality of X from the orbit classes of the cones."""
    return log_terminal_X([classify_hypercone_orbit(c, E) for c in cones])


def brute_force_platonic(t) -> bool:
    s = tuple(sorted(t, reverse=True))
    if len(s) <= 2:
        return True
    if any(x != 1 for x in s[3:]):
        return False
    a, b, c = s[:3]
    patterns = [(5, 3, 2), (4, 3, 2), (3, 3, 2)]
    if (a, b, c) in patterns:
        return True
    if b == 2 and c == 2:
        return True
    if c == 1:
        return True
    return False


class TestPlatonicTuple:
    def test_examples(self):
        assert is_platonic_tuple((2, 3, 5, 1)).is_platonic
        assert not is_platonic_tuple((3, 3, 3)).is_platonic
        assert is_platonic_tuple((7,)).is_platonic
        assert is_platonic_tuple((2, 2, 2)).is_platonic  # (x,2,2) with x = 2
        assert is_platonic_tuple((9, 9, 1, 1)).is_platonic

    def test_exhaustive_against_brute_force(self):
        count = 0
        for length in range(1, 6):
            for t in product(range(1, 9), repeat=length):
                count += 1
                assert is_platonic_tuple(t).is_platonic == brute_force_platonic(t), t
        assert count > 30000

    def test_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            t = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            v = is_platonic_tuple(tuple(t)).is_platonic
            rng.shuffle(t)
            assert is_platonic_tuple(tuple(t)).is_platonic == v
            assert is_platonic_tuple(tuple(t) + (1, 1)).is_platonic == v


class TestPlatonicRing:
    def test_examples(self):
        assert is_platonic_ring((None, [(3, 1), (3, 1), (1, 1)], 0)).is_platonic
        assert not is_platonic_ring((None, [(2,), (3,), (7,)], 0)).is_platonic
        # the witness of a failure is the sorted tuple of per-vector maxima
        verdict = is_platonic_ring((None, [(2, 1), (3, 3), (1, 7), (1,)], 0))
        assert not verdict and verdict.witness == (7, 3, 2, 1)
        assert is_platonic_ring((None, [(9, 4, 7)], 0)).is_platonic  # r <= 1

    def test_fast_path_agreement(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 500:
            nvec = rng.randint(3, 6)
            vectors = []
            size = 1
            for _ in range(nvec):
                ln = rng.randint(1, 6)
                size *= ln
                vectors.append(tuple(rng.randint(1, 6) for _ in range(ln)))
            if size > 10 ** 4:
                continue
            checked += 1
            exhaustive = all(brute_force_platonic(t) for t in product(*vectors))
            assert is_platonic_ring((None, vectors, 0)).is_platonic == exhaustive


class TestLogTerminalTotalSpace:
    def test_mu3_example(self):
        assert is_platonic_ring(derive_ap0_input(mu3_example())).is_platonic

    def test_trivial_example(self):
        # exponent vectors (1,2),(1,3),(1,1),(1,5): the cross tuple (2,3,5,1)
        # is Platonic and so is every other one
        assert is_platonic_ring(derive_ap0_input(trivial_four_points())).is_platonic

    def test_icosahedral_with_double_entries(self):
        x1 = point(1, 2)
        E = EmbeddingData(ICOSA, (x1,), (
            GStableDivisorSpec(XV, 2, -3), GStableDivisorSpec(XE, 2, -3),
            GStableDivisorSpec(XF, 2, -3), GStableDivisorSpec(x1, 2, -3)))
        assert not E.validate()
        # vectors (5,2),(2,2),(3,2),(1,2): the cross tuple (5,2,2,2) keeps an
        # entry > 1 beyond the leading triple, so the ring is not Platonic
        A, vectors, _ = derive_ap0_input(E)
        assert vectors == [(5, 2), (2, 2), (3, 2), (1, 2)]
        assert not is_platonic_ring(derive_ap0_input(E)).is_platonic

    def test_no_exceptional_points(self):
        assert is_platonic_ring(derive_ap0_input(EmbeddingData(cyclic(2)))).is_platonic


class TestSpecialFiberNormal:
    def test_cyclic_cases(self):
        assert special_fiber_normal(mu3_example())
        x1 = point(2, 3)
        E = EmbeddingData(cyclic(5), (x1,), (GStableDivisorSpec(x1, 1, -1),))
        assert not special_fiber_normal(E)
        assert special_fiber_normal(EmbeddingData(cyclic(2)))
        assert special_fiber_normal(trivial_four_points())

    def test_polyhedral_cases(self):
        assert special_fiber_normal(EmbeddingData(TETRA))
        E = EmbeddingData(TETRA, (), (
            GStableDivisorSpec(XV, 1, -1), GStableDivisorSpec(XE, 1, -3),
            GStableDivisorSpec(XF, 2, -2)))
        assert special_fiber_normal(E)
        E = EmbeddingData(TETRA, (), (GStableDivisorSpec(XV, 1, -1),))
        assert not special_fiber_normal(E)


class TestConstantFunctions:
    def test_mu3_certificate(self):
        ok, cert = constant_functions_only(mu3_example())
        assert ok == (cert < 0)
        assert ok and cert == Fraction(-2)

    def test_two_points_not_applicable(self):
        with pytest.raises(HypothesesNotMet):
            constant_functions_only(affine_embedding(5, 7, -4))

    def test_boundary_slopes(self):
        x1 = point(2, 3)
        E = EmbeddingData(cyclic(4), (x1,), (
            GStableDivisorSpec(X0, 2, -1), GStableDivisorSpec(XINF, 2, -1),
            GStableDivisorSpec(x1, 2, -1)))
        ok, cert = constant_functions_only(E)
        assert ok == (cert < 0)
        assert ok and cert == Fraction(-1, 2)

    def test_every_input_in_the_regime_gets_a_certificate(self):
        # a seeded sweep of valid cyclic inputs: with three exceptional
        # points or more and a normal special fiber, the test applies and
        # three divisors over distinct points are always found; otherwise it
        # says which hypothesis fails
        rng = random.Random("constant-functions")
        coords = [(1, 1), (2, 1), (3, 1), (1, 3), (5, 2), (2, 5), (3, 7)]
        certified = skipped = 0
        for _ in range(800):
            F = cyclic(rng.randint(1, 12))
            extras = tuple(point(*c) for c in rng.sample(coords, rng.randint(0, 4)))
            divisors = tuple(
                GStableDivisorSpec(p, rng.randint(1, 4), -Fraction(rng.randint(1, 9)))
                for p in EmbeddingData(F, extras).exceptional_points()
                for _ in range(rng.randint(0 if p.tag else 1, 2)))
            E = EmbeddingData(F, extras, divisors)
            if E.validate():
                continue
            if len(E.exceptional_points()) < 3 or not special_fiber_normal(E):
                with pytest.raises(HypothesesNotMet) as exc:
                    constant_functions_only(E)
                assert str(exc.value) in ("at least three exceptional points required",
                                          "the special fiber must be normal")
                skipped += 1
                continue
            ok, cert = constant_functions_only(E)
            assert ok == (cert < 0)
            slopes = {Fraction(d.l, d.h) for d in divisors}
            assert any(cert - 1 - a - b in slopes for a in slopes for b in slopes)
            certified += 1
        assert certified >= 150 and skipped >= 150


class TestOrbits:
    def setup_method(self):
        self.F = cyclic(5)
        self.x1 = point(4, 1)
        self.E = EmbeddingData(self.F, (self.x1,), (
            GStableDivisorSpec(X0, 2, -1), GStableDivisorSpec(XINF, 3, -2),
            GStableDivisorSpec(self.x1, 7, -4)))

    def _al_chart(self, E):
        gens = [divisor_vector(d) for d in E.divisors] + [color_vector(E.group, XD)]
        return hypercone_from_generators(gens)

    def _fixed_chart(self, E):
        gens = [divisor_vector(d) for d in E.divisors]
        for p in list(E.exceptional_points()) + [XD]:
            gens.append(color_vector(E.group, p))
        return hypercone_from_generators(gens)

    def test_a_l_detection(self):
        orbit = classify_hypercone_orbit(self._al_chart(self.E), self.E)
        assert orbit.kind == "A_l" and orbit.tuple == (2, 3, 7)

    def test_fixed_point_detection(self):
        orbit = classify_hypercone_orbit(self._fixed_chart(self.E), self.E)
        assert orbit.kind == "fixed_point"

    def test_type_a_is_other(self):
        c = hypercone_from_generators(
            [HyperspaceVector(X0, 2, -1), color_vector(self.F, XINF)], omitted=[XD])
        assert classify_hypercone_orbit(c, self.E).kind == "other"

    def test_log_terminal_X(self):
        # (2,3,7) is not Platonic
        assert not verdict_X(self.E, [self._al_chart(self.E)]).is_platonic
        # a fixed point always blocks log terminality
        assert not verdict_X(self.E, [self._fixed_chart(self.E)]).is_platonic
        # platonic A_l tuple (5,3,2)
        E2 = EmbeddingData(self.F, (self.x1,), (
            GStableDivisorSpec(X0, 5, -3), GStableDivisorSpec(XINF, 3, -2),
            GStableDivisorSpec(self.x1, 2, -1)))
        assert not E2.validate()
        assert verdict_X(E2, [self._al_chart(E2)]).is_platonic
        # no type-B hypercones at all
        assert verdict_X(self.E, []).is_platonic
        # removing the offending hypercone flips false -> true, monotone
        assert verdict_X(self.E, []).is_platonic

    def test_a1_a2_always_platonic(self):
        E = EmbeddingData(self.F, (), (GStableDivisorSpec(X0, 7, -4),))
        gens = [divisor_vector(d) for d in E.divisors] + [
            color_vector(self.F, XINF), color_vector(self.F, XD)]
        c = hypercone_from_generators(gens)
        orbit = classify_hypercone_orbit(c, E)
        assert orbit.kind == "A_l" and orbit.tuple == (7,)
        assert verdict_X(E, [c]).is_platonic
