"""GPoly against an oracle independent of its normal form: exact evaluation
at integer matrices of determinant 1."""

import random
from math import comb

from sl2cox.exactmath import GAUSS_ZERO, GaussianRational, gauss
from sl2cox.ogpoly import G1, G2, G3, G4, GPoly


def sl2z_points(count: int, seed: int = 20200918) -> list[tuple[int, int, int, int]]:
    """Entries (g1, g2, g3, g4) of products of elementary integer matrices
    [[1, t], [0, 1]] and [[1, 0], [t, 1]], so g1*g4 - g2*g3 = 1 exactly."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c, d = 1, 0, 0, 1
        for step in range(rng.randint(2, 5)):
            t = rng.choice([-3, -2, -1, 1, 2, 3])
            if step % 2:
                a, b, c, d = a + t * c, b + t * d, c, d
            else:
                a, b, c, d = a, b, c + t * a, d + t * b
        assert a * d - b * c == 1
        out.append((a, b, c, d))
    return out


POINTS = sl2z_points(6)


def evaluate(p: GPoly, g) -> GaussianRational:
    """p at the matrix g, term by term; never rewrites a monomial."""
    acc = GAUSS_ZERO
    for (e1, e2, e3, e4), c in p.terms.items():
        acc = acc + c * (g[0] ** e1 * g[1] ** e2 * g[2] ** e3 * g[3] ** e4)
    return acc


def random_gpoly(rng: random.Random) -> GPoly:
    """A few terms with small exponents, g1 and g4 allowed together."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 3) for _ in range(4))
        terms[mono] = gauss((rng.randint(-4, 4), rng.randint(-2, 2)))
    return GPoly(terms)


def in_normal_form(p: GPoly) -> bool:
    return all(not (a and d) for a, _, _, d in p.terms)


def test_points_are_distinct_and_nontrivial():
    assert len(set(POINTS)) == len(POINTS)
    assert all(g != (1, 0, 0, 1) for g in POINTS)


def test_monomial_products_match_integer_products():
    rng = random.Random(7)
    for a in range(13):
        for d in range(13):
            b, c = rng.randint(0, 2), rng.randint(0, 2)
            prod = G1.pow(a) * G2.pow(b) * G3.pow(c) * G4.pow(d)
            direct = GPoly.monomial(1, a, b, c, d)
            assert prod == direct
            assert in_normal_form(prod)
            assert len(prod.terms) == min(a, d) + 1
            for g in POINTS:
                want = g[0] ** a * g[1] ** b * g[2] ** c * g[3] ** d
                assert evaluate(prod, g) == gauss(want)


def test_ring_laws_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(40):
        p, q, r = (random_gpoly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        for s in (p, q, p * q, p + q):
            assert in_normal_form(s)
        for g in POINTS:
            assert evaluate(p * q, g) == evaluate(p, g) * evaluate(q, g)
            assert evaluate(p + q, g) == evaluate(p, g) + evaluate(q, g)


def test_determinant_multiples_cancel():
    # (g1*g4 - g2*g3 - 1) * q, each product reduced on its own, is zero
    rng = random.Random(13)
    for _ in range(20):
        p, q = random_gpoly(rng), random_gpoly(rng)
        shifted = p + G1 * (G4 * q) - G2 * (G3 * q) - q
        assert shifted == p
        assert all(evaluate(shifted, g) == evaluate(p, g) for g in POINTS)


def test_high_power_of_the_determinant_term_is_binomial():
    # one g1*g4 factor at a time this needs 2^64 rewrites
    p = G1.pow(64) * G4.pow(64)
    assert len(p.terms) == 65
    assert p.terms == {(0, i, i, 0): gauss(comb(64, i)) for i in range(65)}
