"""GPoly and SparsePoly against oracles independent of the integer
coefficient storage they share: exact evaluation at integer matrices of
determinant 1, and products and sums over GaussianRational dictionaries.
GPoly is the free ring Q(i)[g1..g4]; the SL2 normal form below (modulo
g1*g4 - g2*g3 - 1) is the oracle for equality on SL2 and for
``GPoly.vanishes_on_sl2``.  The ring map ``SparsePoly.evaluate``, which
both verifiers use, is checked against substitution one factor at a
time."""

import pathlib
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from sl2cox.coxring import _exceptional_reduction, full_cox_presentation_cyclic, verify_full_cox
from sl2cox.embedding import exceptional_relation_scalar, load_embedding, point_coordinates
from sl2cox.exactmath import GAUSS_ZERO, GaussianRational, gauss
from sl2cox.groups import ICOSA, OCTA, TETRA, dihedral
from sl2cox.hyperspace import XF
from sl2cox.ogpoly import G1, G2, G3, G4, GPoly, _collect
from sl2cox.presentation import SparsePoly, monomial

GOLDEN_INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"


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


def gmono(c, e1=0, e2=0, e3=0, e4=0) -> GPoly:
    """The monomial c g1^e1 g2^e2 g3^e3 g4^e4."""
    return GPoly({(e1, e2, e3, e4): c})


def evaluate(p: GPoly, g) -> GaussianRational:
    """p at the matrix g, term by term; never rewrites a monomial."""
    acc = GAUSS_ZERO
    for (e1, e2, e3, e4), c in p.terms.items():
        acc = acc + c * (g[0] ** e1 * g[1] ** e2 * g[2] ** e3 * g[3] ** e4)
    return acc


def raise_op(p: GPoly) -> GPoly:
    """The raising operator g3 d/dg1 + g4 d/dg2 of the left translation
    action, term by term; it kills g1 g4 - g2 g3 - 1, so it is well defined
    on O(SL2)."""
    out = GPoly()
    for (a, b, c, d), coeff in p.terms.items():
        if a:
            out = out + gmono(coeff * a, a - 1, b, c + 1, d)
        if b:
            out = out + gmono(coeff * b, a, b - 1, c, d + 1)
    return out


def expand_g1g4(items):
    """The (monomial, numerator pair) items with each g1^m g4^m expanded
    binomially, (g1 g4)^m = (1 + g2 g3)^m: g1^a g2^b g3^c g4^d with
    m = min(a, d) becomes sum_i C(m, i) g1^(a-m) g2^(b+i) g3^(c+i) g4^(d-m),
    which holds no g1 next to g4."""
    for (a, b, c, d), (x, y) in items:
        m = min(a, d)
        if not m:
            yield (a, b, c, d), (x, y)
            continue
        for i in range(m + 1):
            k = comb(m, i)
            yield (a - m, b + i, c + i, d - m), (x * k, y * k)


def sl2_normal_form(p: GPoly) -> GPoly:
    """p modulo g1*g4 - g2*g3 - 1, with no monomial holding both g1 and g4:
    two polynomials agree on SL2 iff their normal forms are equal."""
    out = {}
    _collect(out, expand_g1g4(p.num.items()))
    return GPoly._canonical(out, p.den)


def random_gaussian(rng: random.Random) -> GaussianRational:
    """re + im*i with small numerators and denominators 1 to 6."""
    return gauss((Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                  Fraction(rng.randint(-2, 2), rng.randint(1, 6))))


def random_gpoly(rng: random.Random) -> GPoly:
    """A few terms with small exponents, g1 and g4 allowed together, and
    coefficients in Q(i)."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 3) for _ in range(4))
        terms[mono] = random_gaussian(rng)
    return GPoly(terms)


def reference_accumulate(out: dict, terms: dict, sl2: bool = False) -> None:
    """Add ``terms`` to ``out`` over GaussianRational coefficients, an oracle
    that shares nothing with GPoly's integer numerators; with ``sl2`` each
    term is first brought to the SL2 normal form."""
    for (a, b, c, d), coeff in terms.items():
        if not coeff:
            continue
        m = min(a, d) if sl2 else 0
        if m:
            expansion = [((a - m, b + i, c + i, d - m), coeff * comb(m, i))
                         for i in range(m + 1)]
        else:
            expansion = (((a, b, c, d), coeff),)
        for mono, x in expansion:
            prev = out.get(mono)
            if prev is None:
                out[mono] = x
                continue
            cur = prev + x
            if cur:
                out[mono] = cur
            else:
                del out[mono]


def reference_mul(p: dict, q: dict, sl2: bool = False) -> dict:
    """The product of two term dictionaries in the free ring, or with
    ``sl2`` in the SL2 normal form."""
    acc = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            c = c1 * c2
            prev = acc.get(m)
            acc[m] = prev + c if prev is not None else c
    out = {}
    reference_accumulate(out, acc, sl2)
    return out


def random_sparsepoly(rng: random.Random) -> SparsePoly:
    """A few terms over named variables (the constant term included), with
    coefficients in Q(i)."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        names = rng.sample(("a", "b", "s0", "sinf"), rng.randint(0, 3))
        terms[monomial({v: rng.randint(1, 3) for v in names})] = random_gaussian(rng)
    return SparsePoly(terms)


def reference_sparse_mul(p: dict, q: dict) -> dict:
    """The product of two term dictionaries over named variables, in
    GaussianRational arithmetic throughout."""
    out = {}
    for m1, c1 in p.items():
        d1 = dict(m1)
        for m2, c2 in q.items():
            d = dict(d1)
            for v, e in m2:
                d[v] = d.get(v, 0) + e
            mono = tuple(sorted(d.items()))
            cur = out.get(mono, GAUSS_ZERO) + c1 * c2
            if cur:
                out[mono] = cur
            else:
                out.pop(mono, None)
    return out


def reference_sparse_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        cur = out.get(m, GAUSS_ZERO) + c
        if cur:
            out[m] = cur
        else:
            out.pop(m, None)
    return out


def reference_substitute(p: dict, name: str, q: dict) -> dict:
    """q in place of the variable ``name``, one factor q at a time."""
    out = {}
    for m, c in p.items():
        piece = {tuple((v, e) for v, e in m if v != name): c}
        for _ in range(dict(m).get(name, 0)):
            piece = reference_sparse_mul(piece, q)
        out = reference_sparse_add(out, piece)
    return out


def reference_add(p: dict, q: dict) -> dict:
    out = dict(p)
    reference_accumulate(out, q)
    return out


# ring -> (random element, unit monomial, reference product, reference sum)
RINGS = {
    GPoly: (random_gpoly, (0, 0, 0, 0), reference_mul, reference_add),
    SparsePoly: (random_sparsepoly, (), reference_sparse_mul, reference_sparse_add),
}


def is_canonical(p) -> bool:
    """den > 0, no zero pair, and gcd(den, numerators) = 1 (so den = 1 for 0)."""
    nums = [v for xy in p.num.values() for v in xy]
    return p.den > 0 and (0, 0) not in p.num.values() and gcd(p.den, *nums) == 1


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
            assert prod == gmono(1, a, b, c, d)
            reduced = sl2_normal_form(prod)
            assert in_normal_form(reduced)
            assert len(reduced.terms) == min(a, d) + 1
            for g in POINTS:
                want = g[0] ** a * g[1] ** b * g[2] ** c * g[3] ** d
                assert evaluate(prod, g) == evaluate(reduced, g) == gauss(want)


def test_ring_laws_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(40):
        p, q, r = (random_gpoly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        for s in (p, q, p * q, p + q, p - q):
            assert is_canonical(s)
            assert in_normal_form(sl2_normal_form(s))
        # the normal form is a ring map
        assert sl2_normal_form(p * q) == sl2_normal_form(sl2_normal_form(p) * sl2_normal_form(q))
        assert sl2_normal_form(p + q) == sl2_normal_form(p) + sl2_normal_form(q)
        for g in POINTS:
            assert evaluate(p * q, g) == evaluate(p, g) * evaluate(q, g)
            assert evaluate(p + q, g) == evaluate(p, g) + evaluate(q, g)


def test_determinant_multiples_cancel():
    # (g1*g4 - g2*g3 - 1) * q is zero on SL2 but not in the free ring
    rng = random.Random(13)
    for _ in range(20):
        p, q = random_gpoly(rng), random_gpoly(rng)
        shifted = p + G1 * (G4 * q) - G2 * (G3 * q) - q
        assert shifted != p
        assert sl2_normal_form(shifted) == sl2_normal_form(p)
        assert (shifted - p).vanishes_on_sl2()
        assert all(evaluate(shifted, g) == evaluate(p, g) for g in POINTS)


def test_high_power_of_the_determinant_term_is_binomial():
    # one g1*g4 factor at a time this needs 2^64 rewrites
    p = sl2_normal_form(G1.pow(64) * G4.pow(64))
    assert len(p.terms) == 65
    assert p.terms == {(0, i, i, 0): gauss(comb(64, i)) for i in range(65)}


DET = G1 * G4 - G2 * G3
ONE = GPoly.const(1)


@pytest.mark.parametrize("poly, vanishes", [
    (DET - ONE, True),
    (DET - GPoly.const(2), False),
    (DET.pow(5) - ONE, True),
    ((DET - ONE) * G3 + (DET - ONE) * G1, True),  # weights -1 and +1
    (DET - ONE + G3 - G4, False),
], ids=["det-1", "det-2", "det^5-1", "weight-mixed", "det-1+g3-g4"])
def test_vanishing_on_sl2_explicit_cases(poly, vanishes):
    assert poly.vanishes_on_sl2() is vanishes
    assert sl2_normal_form(poly).is_zero() is vanishes
    if vanishes:
        assert all(evaluate(poly, g) == GAUSS_ZERO for g in POINTS)


def test_vanishing_on_sl2_agrees_with_the_normal_form():
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(150):
        p, q, r = (random_gpoly(rng) for _ in range(3))
        # det multiples of mixed weights and degrees, and their mutants
        zero = q * (DET.pow(rng.randint(1, 3)) - ONE) + r * (DET - ONE).pow(rng.randint(1, 2))
        mutant = zero + gmono(1, *(rng.randint(0, 3) for _ in range(4)))
        for f in (p, zero, p - sl2_normal_form(p), mutant, p * zero + q, sl2_normal_form(zero * p)):
            got = f.vanishes_on_sl2()
            assert got == sl2_normal_form(f).is_zero()
            seen[got] += 1
            if got:
                assert all(evaluate(f, g) == GAUSS_ZERO for g in POINTS)
    assert min(seen.values()) > 100


def test_pow_starts_from_the_first_factor(monkeypatch):
    # floor(log2 e) squarings and popcount(e) - 1 products (3 for e = 8): none by the unit
    count = 0
    mul = GPoly.__mul__

    def counting_mul(self, other):
        nonlocal count
        count += 1
        return mul(self, other)

    monkeypatch.setattr(GPoly, "__mul__", counting_mul)
    for e in range(25):
        count = 0
        assert G3.pow(e) == gmono(1, 0, 0, e, 0)
        assert count == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0), e


def test_products_match_the_gaussian_rational_reference():
    for ring, (random_poly, _, ref_mul, ref_add) in RINGS.items():
        rng = random.Random(17)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            for got, want in ((p * q, ref_mul(p.terms, q.terms)),
                              (p + q, ref_add(p.terms, q.terms))):
                assert type(got) is ring
                assert got.terms == want
                assert len(got.terms) == len(got.num)
                assert is_canonical(got)
    rng = random.Random(17)
    for _ in range(200):
        p, q = random_gpoly(rng), random_gpoly(rng)
        assert sl2_normal_form(p * q).terms == reference_mul(p.terms, q.terms, sl2=True)


def test_canonical_form():
    for ring, (random_poly, one, _, _) in RINGS.items():
        assert ring({one: Fraction(2, 4)}) == ring({one: Fraction(1, 2)})
        assert ring({one: Fraction(2, 4)}).den == 2
        assert ring({one: 0}) == ring() and ring().den == 1
        rng = random.Random(19)
        for _ in range(40):
            p = random_poly(rng)
            assert p.scale(Fraction(1, 3)).scale(3) == p
            assert p.scale(gauss((0, 1))).scale(gauss((0, -1))) == p
            zero = p - p
            assert zero.is_zero() and zero.den == 1 and zero == ring()
            assert (p * (p - p)).den == 1
            c = random_gaussian(rng)
            assert p.scale(c).terms == {m: x * c for m, x in p.terms.items() if x * c}
    assert SparsePoly() != GPoly() and GPoly() != SparsePoly()
    rng = random.Random(23)
    for _ in range(40):
        p, q = random_sparsepoly(rng), random_sparsepoly(rng)
        killed = p.kill_variables(["a", "s0"])
        assert is_canonical(killed)
        assert killed.terms == {m: c for m, c in p.terms.items()
                                if not any(v in ("a", "s0") for v, _ in m)}
        for name in ("a", "b"):
            got = p.substitute(name, q)
            assert is_canonical(got)
            assert got.terms == reference_substitute(p.terms, name, q.terms)
            assert p.substitute(name, SparsePoly.variable(name)) == p


def test_coefficients_at_the_boundary():
    p = GPoly({(0, 0, 2, 1): gauss((Fraction(1, 2), 1)), (1, 0, 0, 0): gauss(Fraction(2, 3))})
    assert p.coeff((0, 0, 2, 1)) == gauss((Fraction(1, 2), 1))
    assert p.coeff((1, 0, 0, 0)) == gauss(Fraction(2, 3))
    assert p.coeff((0, 1, 0, 0)) == GAUSS_ZERO
    assert p.den == 6 and p.num == {(0, 0, 2, 1): (3, 6), (1, 0, 0, 0): (4, 0)}
    # (1/2) g1^2 raised is g1*g3: the factor 2 cancels the denominator
    assert raise_op(gmono(Fraction(1, 2), 2)) == G1 * G3


def test_int_fraction_and_gaussian_coefficients_agree():
    # int and Fraction coefficients take a shortcut past GaussianRational
    rng = random.Random(41)
    for _ in range(50):
        raw = [(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
        monos = [(0, 0, 1, 0), (2, 0, 0, 1), (1, 1, 0, 0)]
        as_int = GPoly({m: p for m, (p, _) in zip(monos, raw)})
        assert as_int == GPoly({m: Fraction(p) for m, (p, _) in zip(monos, raw)})
        assert as_int == GPoly({m: gauss(p) for m, (p, _) in zip(monos, raw)})
        as_frac = GPoly({m: Fraction(p, q) for m, (p, q) in zip(monos, raw)})
        assert as_frac == GPoly({m: gauss(Fraction(p, q)) for m, (p, q) in zip(monos, raw)})
        assert is_canonical(as_int) and is_canonical(as_frac)
        p, q = raw[0]
        for c in (p, Fraction(p, q)):
            assert as_frac.scale(c) == as_frac.scale(gauss(c))
            assert SparsePoly.term(c, {"x": 2}) == SparsePoly.term(gauss(c), {"x": 2})


def reference_evaluate(p: dict, images: dict, unit, ref_mul, ref_add) -> dict:
    """The image of p with each variable replaced by its image, one factor at
    a time; a variable whose image is None is replaced by 1."""
    out = {}
    for m, c in p.items():
        piece = {unit: c}
        for v, e in m:
            for _ in range(e if images[v] is not None else 0):
                piece = ref_mul(piece, images[v].terms)
        out = ref_add(out, piece)
    return out


def test_evaluate_matches_one_factor_at_a_time():
    for ring, (random_poly, unit, ref_mul, ref_add) in RINGS.items():
        rng = random.Random(43)
        one = ring({unit: 1})
        skipped = 0
        for _ in range(100):
            p = random_sparsepoly(rng)
            images = {v: None if rng.random() < 0.25 else random_poly(rng)
                      for v in ("a", "b", "s0", "sinf")}
            skipped += any(images[v] is None for v in p.variables())
            got = p.evaluate(lambda v, e: None if images[v] is None else images[v].pow(e), one)
            assert type(got) is ring
            assert got.terms == reference_evaluate(p.terms, images, unit, ref_mul, ref_add)
            assert is_canonical(got)
        assert skipped > 20


def test_evaluate_matches_reference_substitute_over_mixed_denominators():
    # coefficients over coprime denominators in both polynomials, so the
    # running common denominator grows term by term; the variables in
    # ``ones`` map to None (that is, to 1), so their factors are skipped
    rng = random.Random(47)
    dens = (1, 2, 3, 5, 7)

    def coefficient():
        return gauss((Fraction(rng.randint(-9, 9), rng.choice(dens)),
                      Fraction(rng.randint(-9, 9), rng.choice(dens))))

    def poly(names, terms):
        return SparsePoly({monomial({v: rng.randint(0, 3) for v in rng.sample(names, 2)}):
                           coefficient() for _ in range(terms)})

    names = ("a", "b", "s0", "sinf", "r0")
    for _ in range(60):
        ps = [poly(names, rng.randint(2, 6)) for _ in range(3)]
        name, value = rng.choice(("a", "b")), poly(("s0", "r0", "x"), rng.randint(1, 3))
        ones = set(rng.sample(("sinf", "r0"), rng.randint(0, 2)))
        substitution = SparsePoly.substitution(name, value)

        def power(v, e):
            return None if v in ones else substitution(v, e)

        for p in ps:  # one map, shared by every polynomial
            got = p.evaluate(power, value.pow(0))
            cut = {}
            for m, c in p.terms.items():
                cut = reference_sparse_add(cut, {tuple((v, e) for v, e in m if v not in ones): c})
            assert is_canonical(got)
            assert got.terms == reference_substitute(cut, name, value.terms)
            if not ones:
                assert got == p.substitute(name, value)


def reference_exceptional_reduction(f: dict, F) -> dict:
    """f with ff^nf replaced by R one step at a time, until no term holds
    ff^nf.  R comes from the fiber relation over xf, beta a - alpha b =
    lam ff^nf with a = fv^nv and b = -fe^ne: R = (beta fv^nv + alpha fe^ne)
    / lam, (alpha, beta) the coordinates of xf."""
    mult = F.canonical_multiplicities()
    alpha, beta = point_coordinates(F, XF)
    inv = exceptional_relation_scalar(F).inverse()
    R = {monomial({"fv": mult["xv"]}): beta * inv, monomial({"fe": mult["xe"]}): alpha * inv}
    out = dict(f)
    while (m := next((m for m in out if dict(m).get("ff", 0) >= mult["xf"]), None)) is not None:
        exps = dict(m)
        exps["ff"] -= mult["xf"]
        out = reference_sparse_add(out, reference_sparse_mul({monomial(exps): out.pop(m)}, R))
    return out


@pytest.mark.parametrize("F", [TETRA, OCTA, ICOSA] + [dihedral(n) for n in range(2, 7)],
                         ids=lambda F: F.kind if F.kind != "dihedral" else f"BD{F.n}")
def test_exceptional_reduction_matches_one_step_at_a_time(F):
    rng = random.Random(47)
    reduce = _exceptional_reduction(F)
    nf = F.canonical_multiplicities()["xf"]
    for _ in range(40):
        f = SparsePoly({monomial({"fv": rng.randint(0, 3), "fe": rng.randint(0, 3),
                                  "ff": rng.randint(0, 3 * nf)}): random_gaussian(rng)
                        for _ in range(rng.randint(1, 4))})
        got = reduce(f)
        assert got.terms == reference_exceptional_reduction(f.terms, F)
        assert is_canonical(got)


def test_verify_full_cox_computes_each_power_once(monkeypatch):
    result = full_cox_presentation_cyclic(load_embedding(str(GOLDEN_INPUTS / "cyclic12.json")))
    P = result.presentation
    functions = {v.name: v.function for v in P.variables}
    wanted = {(v, e) for rel in P.relations for m in rel.num for v, e in m
              if functions[v] != GPoly.const(1)}
    assert len(wanted) > 20 and any(e > 1 for _, e in wanted)
    calls = []
    pow_ = GPoly.pow

    def counting_pow(self, k):
        calls.append((id(self), k))
        return pow_(self, k)

    monkeypatch.setattr(GPoly, "pow", counting_pow)
    for passes in (1, 2):  # the powers are not kept from one call to the next
        verify_full_cox(result)
        assert len(calls) == passes * len(wanted)
    assert len(set(calls)) == len(wanted)
