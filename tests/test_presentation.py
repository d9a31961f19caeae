"""The render helpers of ``presentation`` against the Fraction-based forms
they replaced: coefficient strings from ``GaussianRational``, JSON terms from
``SparsePoly.terms`` and the graded-lex order over dense exponent vectors.
A seeded sweep must give identical strings, leading terms and term orders."""

import random
from fractions import Fraction

import pytest

from sl2cox.exactmath import GAUSS_ONE, GaussianRational
from sl2cox.presentation import (
    SparsePoly,
    _coeff_str,
    _frac_str,
    _mono_key,
    canonicalize,
    monomial,
    poly_to_json,
    pretty_name,
    pretty_poly,
)

# -- oracles: the Fraction-based helpers and the dense graded-lex key ---------


def oracle_mono_key(m, order):
    dense = [0] * len(order)
    for v, e in m:
        dense[order[v]] = e
    return (sum(e for _, e in m), tuple(dense))


def oracle_negative(c):
    return c.re < 0 or (c.re == 0 and c.im < 0)


def oracle_coeff_str(c):
    return str(c.re) if c.im == 0 else f"({c})"


def oracle_canonicalize(poly, var_order):
    if poly.is_zero():
        return poly
    order = {v: i for i, v in enumerate(var_order)}
    lead = max(poly.num, key=lambda m: oracle_mono_key(m, order))
    return poly.scale(-1) if oracle_negative(poly.coeff(lead)) else poly


def oracle_pretty_poly(poly, var_order):
    if poly.is_zero():
        return "0"
    order = {v: i for i, v in enumerate(var_order)}
    items = sorted(poly.terms.items(), key=lambda kv: oracle_mono_key(kv[0], order),
                   reverse=True)
    s = ""
    for m, c in items:
        mono = ""
        for v, e in sorted(m, key=lambda ve: order[ve[0]]):
            mono += pretty_name(v) + (str(e).translate(str.maketrans(
                "0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")) if e > 1 else "")
        neg = oracle_negative(c)
        mag = -c if neg else c
        body = mono if mono and mag == GAUSS_ONE else oracle_coeff_str(mag) + mono
        if s:
            s += f" {'-' if neg else '+'} {body}"
        else:
            s = ("-" if neg else "") + body
    return s


def oracle_poly_to_json(poly):
    return [{"coeff": {"re": str(c.re), "im": str(c.im)}, "monomial": {v: e for v, e in m}}
            for m, c in sorted(poly.terms.items())]


# -- the sweep -------------------------------------------------------------------

# 336 names of every shape pretty_name reads: s/r, primed, indexed, inf, dom
NAMES = ([f"s{i}" for i in range(100)] + [f"sp{i}" for i in range(60)]
         + [f"r{i}_{j}" for i in range(40) for j in range(4)]
         + ["sinf", "rinf", "spinf", "rpinf", "rdom", "sdom", "rinf_2", "a", "b",
            "se", "sv", "sf", "re", "rv", "rf", "x0"])


def random_order(rng):
    names = list(NAMES)
    rng.shuffle(names)
    return names


def random_coeff(rng):
    """A Gaussian rational with a zero, negative or unreduced real or
    imaginary part."""
    def part():
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(0)
        d = rng.choice([1, 1, 2, 3, 4, 6, 9, 12])
        return Fraction(rng.randint(-20, 20) * rng.choice([1, d]), d)
    return GaussianRational(part(), part())


def random_poly(rng, order):
    terms = {}
    for _ in range(rng.randint(0, 12)):
        k = rng.randint(0, 6)
        exps = {v: rng.randint(1, 4) for v in rng.sample(order, k)}
        terms[monomial(exps)] = random_coeff(rng)
    return SparsePoly(terms)


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_render_helpers_match_the_fraction_oracles(seed):
    rng = random.Random(seed)
    var_order = random_order(rng)
    order = {v: i for i, v in enumerate(var_order)}
    names = [pretty_name(v) for v in var_order]
    for _ in range(10):
        poly = random_poly(rng, var_order)
        assert poly_to_json(poly) == oracle_poly_to_json(poly)
        assert pretty_poly(poly, order, names) == oracle_pretty_poly(poly, var_order)
        assert canonicalize(poly, order) == oracle_canonicalize(poly, var_order)
        if not poly.is_zero():
            lead = max(poly.num, key=lambda m: _mono_key(m, order))
            assert lead == max(poly.num, key=lambda m: oracle_mono_key(m, order))
            assert (sorted(poly.num, key=lambda m: _mono_key(m, order))
                    == sorted(poly.num, key=lambda m: oracle_mono_key(m, order)))


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_key_orders_as_the_dense_key(seed):
    # monomials over at least 300 variables, many sharing a prefix or a degree
    rng = random.Random(1000 + seed)
    var_order = random_order(rng)
    order = {v: i for i, v in enumerate(var_order)}
    pool = rng.sample(var_order, 8)
    monos = [monomial({v: rng.randint(1, 3) for v in rng.sample(
        pool if rng.random() < 0.5 else var_order, rng.randint(0, 5))}) for _ in range(60)]
    for a in monos:
        for b in monos[:20]:
            assert ((_mono_key(a, order) < _mono_key(b, order))
                    == (oracle_mono_key(a, order) < oracle_mono_key(b, order)))
    assert (sorted(set(monos), key=lambda m: _mono_key(m, order))
            == sorted(set(monos), key=lambda m: oracle_mono_key(m, order)))


def test_coefficient_strings_from_integers():
    rng = random.Random(7)
    cases = [(0, 0, 1), (0, 5, 10), (-4, 0, 6), (4, -6, 8), (-3, -3, 3), (12, 18, 6),
             (0, -7, 14), (9, 1, 1), (-1, 2, 3)]
    cases += [(rng.randint(-50, 50), rng.randint(-50, 50) * rng.randrange(2),
               rng.randint(1, 36)) for _ in range(2000)]
    for x, y, den in cases:
        c = GaussianRational(Fraction(x, den), Fraction(y, den))
        assert _frac_str(x, den) == str(Fraction(x, den)), (x, den)
        assert _coeff_str(x, y, den) == oracle_coeff_str(c), (x, y, den)
