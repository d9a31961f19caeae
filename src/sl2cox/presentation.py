"""Graded presentations: variables with degrees, sparse polynomial relations.

Relations are ``SparsePoly``: polynomials over the Gaussian rationals in
named variables, on the integer-backed core ``ogpoly.QiPoly``.  The ring
part here is only the monomial type, a tuple of (name, exponent) pairs
sorted by name: its product, its unit () and plain collection of terms as
the normal form; ``SparsePoly.evaluate`` is the one ring map out of it
(substitution, the polyhedral reduction, both verifiers).  A presentation
fixes the variable order, the Cl(X)-degrees in adapted coordinates and the
B-weights.  Every emitted relation must be homogeneous for both gradings;
the term-by-term Cl-degree checker here (with a B-weight one in the tests)
is the oracle for the packed check that ``--verify`` runs (``coxring``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd

from .exactmath import FinAbGroup, GaussianRational
from .ogpoly import GPoly, QiPoly

Monomial = tuple[tuple[str, int], ...]  # sorted by variable name, exponents > 0


def monomial(exps: dict[str, int]) -> Monomial:
    """The monomial with the given exponents (zero exponents dropped)."""
    return tuple(sorted((v, e) for v, e in exps.items() if e))


class SparsePoly(QiPoly):
    """A polynomial over Q(i) in named variables."""

    __slots__ = ()

    @staticmethod
    def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
        if not m1 or not m2:
            return m1 or m2
        d = dict(m1)
        for v, e in m2:
            d[v] = d.get(v, 0) + e
        return tuple(sorted(d.items()))

    @staticmethod
    def term(coeff, exps: dict[str, int]) -> "SparsePoly":
        return SparsePoly({monomial(exps): coeff})

    @staticmethod
    def variable(name: str) -> "SparsePoly":
        return SparsePoly.term(1, {name: 1})

    def variables(self) -> set[str]:
        return {v for m in self.num for v, _ in m}

    def evaluate(self, power, one):
        """The image under the ring map v^e -> ``power(v, e)`` into the ring
        with unit ``one``; ``None`` means 1, and that factor is skipped.  One
        pass per term: the product of its factors' integer numerators and
        denominators, then the term's coefficient folded in while the
        product is collected over the running common denominator."""
        mono_mul = one._mono_mul
        unit = ((one._ONE, (1, 0)),)
        den, out = 1, {}
        for mono, (x, y) in self.num.items():
            items, fden = unit, 1
            for v, e in mono:
                f = power(v, e)
                if f is not None:
                    fden *= f.den
                    items = f.num.items() if items is unit else [
                        (mono_mul(m1, m2), (x1 * x2 - y1 * y2, x1 * y2 + y1 * x2))
                        for m1, (x1, y1) in items for m2, (x2, y2) in f.num.items()]
            if den % fden:  # bring the sum so far to a common denominator
                g = fden // gcd(den, fden)
                out = {m: (p * g, q * g) for m, (p, q) in out.items()}
                den *= g
            s = den // fden
            x, y = x * s, y * s
            for m, (p, q) in items:
                a, b = x * p - y * q, x * q + y * p
                if (prev := out.get(m)) is not None:
                    a, b = a + prev[0], b + prev[1]
                if a or b:  # only a sum with an earlier term can vanish
                    out[m] = (a, b)
                else:
                    del out[m]
        return one._canonical(out, den * self.den)

    @staticmethod
    def substitution(name: str, value: "SparsePoly"):
        """``evaluate``'s ``power`` for ``value`` in place of the variable
        ``name`` (unit ``value.pow(0)``): each power computed once per map."""
        return cache(lambda v, e: value.pow(e) if v == name
                     else SparsePoly._canonical({((v, e),): (1, 0)}, 1))

    def substitute(self, name: str, value: "SparsePoly") -> "SparsePoly":
        """``value`` in place of the variable ``name``, each power computed once."""
        return self.evaluate(SparsePoly.substitution(name, value), value.pow(0))

    def kill_variables(self, names) -> "SparsePoly":
        names = set(names)
        return self._canonical({m: xy for m, xy in self.num.items()
                                if not any(v in names for v, _ in m)}, self.den)

    def coefficient_of_linear(self, name: str) -> GaussianRational | None:
        """Coefficient of the bare monomial ``name`` when the variable occurs
        nowhere else in the polynomial; None otherwise."""
        target: Monomial = ((name, 1),)
        if target not in self.num:
            return None
        for m in self.num:
            if m != target and any(v == name for v, _ in m):
                return None
        return self.coeff(target)


def _mono_key(m: Monomial, order: dict[str, int]):
    """Graded-lex key in the variable order: the total degree, then the
    (-index, exponent) pairs by increasing index, which compare as the
    dense exponent vectors would."""
    return (sum(e for _, e in m), tuple(sorted([(-order[v], e) for v, e in m], reverse=True)))


def _negative(x: int, y: int) -> bool:
    """The sign convention on Q(i), for (x + y*i) / den with den > 0: negative
    when the real part is, or when it vanishes and the imaginary part is."""
    return x < 0 or (x == 0 and y < 0)


def canonicalize(poly: SparsePoly, order: dict[str, int]) -> SparsePoly:
    """Normalize the global unit: the leading term (graded-lex in the
    variable order, ``order`` mapping each name to its index) gets a
    coefficient that is not ``_negative``.  Only +-1 is used so integrality
    of coefficients is preserved."""
    if poly.is_zero():
        return poly
    lead = max(poly.num, key=lambda m: _mono_key(m, order))
    return poly.scale(-1) if _negative(*poly.num[lead]) else poly


@dataclass(frozen=True)
class GradedVariable:
    name: str
    degree: tuple[int, ...]  # adapted coordinates in Cl(X)
    b_weight: int
    module_tag: str = ""
    # the generator as a function: on SL2 (GPoly) for cyclic F, in the
    # subregular semi-invariants fv, fe, ff (SparsePoly) for polyhedral F
    function: GPoly | SparsePoly | None = field(default=None, compare=False)


@dataclass
class GradedPresentation:
    variables: list[GradedVariable]
    relations: list[SparsePoly]
    grading: FinAbGroup

    def var_order(self) -> list[str]:
        return [v.name for v in self.variables]

    def var_index(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    def pretty_names(self) -> list[str]:
        return [pretty_name(v.name) for v in self.variables]

    def degree_map(self) -> dict[str, tuple[int, ...]]:
        return {v.name: v.degree for v in self.variables}

    def weight_map(self) -> dict[str, int]:
        return {v.name: v.b_weight for v in self.variables}

    def canonical_relations(self, order: dict[str, int] | None = None) -> list[SparsePoly]:
        """Each relation canonicalized once, over ``var_index()`` unless given."""
        order = order or self.var_index()
        return [canonicalize(r, order) for r in self.relations]


def term_degree(m: Monomial, degrees: dict[str, tuple[int, ...]], group: FinAbGroup):
    acc = [0] * (group.free_rank + len(group.torsion))
    for v, e in m:
        acc = [a + e * x for a, x in zip(acc, degrees[v])]
    return group.reduce(acc)


def relation_degree(poly: SparsePoly, degrees, group: FinAbGroup):
    """Common degree of all terms; raises when inhomogeneous."""
    deg = None
    for m in poly.num:
        cur = term_degree(m, degrees, group)
        if deg is None:
            deg = cur
        elif deg != cur:
            raise ValueError(f"relation not Cl-homogeneous: {deg} vs {cur}")
    return deg


# -- pretty printing -------------------------------------------------------------

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def pretty_name(name: str) -> str:
    """s0 -> s_0, sinf -> s_inf, sp1 -> s'_1, r0_2 -> r_0,2 in unicode."""
    out = name
    prime = ""
    if len(out) > 1 and out[1] == "p" and out[0] in "sr":
        prime = "′"
        out = out[0] + out[2:]
    head = out[0]
    rest = out[1:]
    j = None
    if "_" in rest:
        rest, js = rest.split("_", 1)
        j = js
    if rest == "inf":
        sub = "∞"
    elif rest == "dom":
        sub = "dom"
    else:
        sub = rest.translate(_SUB)
    if j is not None:
        sub += "," + j.translate(_SUB)
    return head + prime + sub


def _frac_str(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for den > 0, without the Fraction."""
    if den == 1:
        return str(x)
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _coeff_str(x: int, y: int, den: int) -> str:
    """The coefficient (x + y*i) / den as pretty text: the rational alone, or
    the Gaussian rational in parentheses."""
    if not y:
        return _frac_str(x, den)
    im = _frac_str(abs(y), den) + "i"
    if not x:
        return f"({'-' if y < 0 else ''}{im})"
    return f"({_frac_str(x, den)}{'-' if y < 0 else '+'}{im})"


def pretty_poly(poly: SparsePoly, order: dict[str, int], names: list[str]) -> str:
    """The polynomial in graded-lex order, leading term first; ``order``
    maps each variable to its index and ``names`` holds the pretty names
    by index, both built once per presentation."""
    if poly.is_zero():
        return "0"
    den = poly.den
    s = ""
    for (_, pairs), (x, y) in sorted(((_mono_key(m, order), xy) for m, xy in poly.num.items()),
                                     reverse=True):
        mono = "".join(names[-i] + (str(e).translate(_SUP) if e > 1 else "") for i, e in pairs)
        neg = _negative(x, y)
        if neg:
            x, y = -x, -y
        body = mono if mono and x == den and not y else _coeff_str(x, y, den) + mono
        if s:
            s += f" {'-' if neg else '+'} {body}"
        else:
            s = ("-" if neg else "") + body
    return s


def poly_to_json(poly: SparsePoly) -> list[dict]:
    den = poly.den
    return [{"coeff": {"re": _frac_str(x, den), "im": _frac_str(y, den)}, "monomial": dict(m)}
            for m, (x, y) in sorted(poly.num.items())]
