"""Exact polynomial arithmetic on the coordinate ring of SL2.

O(SL2) = k[g1,g2,g3,g4]/(g1*g4 - g2*g3 - 1) over the Gaussian rationals.
The normal form has no monomial containing both g1 and g4, so equality is a
dictionary comparison.  A monomial g1^a g2^b g3^c g4^d is reduced in one step
by the binomial expansion of (g1*g4)^m = (1 + g2*g3)^m with m = min(a, d):

    sum_i C(m, i) * g1^(a-m) g2^(b+i) g3^(c+i) g4^(d-m),

which is already in normal form, so the cost is m + 1 terms, not the 2^m of
rewriting one g1*g4 factor at a time.

Coefficients are Gaussian integers over one common denominator: ``num`` maps
each monomial to the pair (re, im) of integer numerators and ``den`` is a
positive integer, so the coefficient of m is (re + im*i) / den.  The form is
canonical: no pair is (0, 0), gcd(den, every numerator) = 1, and the zero
polynomial has den = 1.  Ring operations run on Python ints, with one gcd
pass per result; ``GaussianRational`` appears only where a coefficient enters
(the constructor, ``const``, ``monomial``, ``scale``) or leaves (``terms``,
``coeff``, ``as_g34_monomial``).

Under the left translation action the torus weights are -1 on g1, g2 and +1
on g3, g4 (units of the fundamental character), the raising operator acts as
the derivation g3*d/dg1 + g4*d/dg2; U-invariants are exactly the polynomials
in g3, g4.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .exactmath import GAUSS_ONE, GAUSS_ZERO, GaussianRational, gauss

Mono = tuple[int, int, int, int]
Num = tuple[int, int]


def _split(c) -> tuple[int, int, int]:
    """(p, q, r) with c = (p + q*i) / r and r > 0."""
    c = gauss(c)
    r = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (r // c.re.denominator), c.im.numerator * (r // c.im.denominator), r


def _reduce_into(out: dict[Mono, Num], items) -> None:
    """Add the (monomial, numerator pair) items to ``out`` in normal form,
    expanding g1^m g4^m binomially and dropping terms that cancel."""
    get = out.get
    for (a, b, c, d), (x, y) in items:
        if not (x or y):
            continue
        m = min(a, d)
        if m:
            expansion = [((a - m, b + i, c + i, d - m), comb(m, i)) for i in range(m + 1)]
        else:
            expansion = (((a, b, c, d), 1),)
        for mono, k in expansion:
            prev = get(mono)
            if prev is None:
                out[mono] = (x * k, y * k)
                continue
            sx, sy = prev[0] + x * k, prev[1] + y * k
            if sx or sy:
                out[mono] = (sx, sy)
            else:
                del out[mono]


def _canonical(num: dict[Mono, Num], den: int) -> "GPoly":
    """The GPoly num / den with gcd(den, numerators) divided out (so den = 1
    when num is empty); ``num`` must be in normal form without zero pairs."""
    if den != 1:
        g = den
        for x, y in num.values():
            g = gcd(g, x, y)
            if g == 1:
                break
        if g != 1:
            num = {m: (x // g, y // g) for m, (x, y) in num.items()}
            den //= g
    p = GPoly.__new__(GPoly)
    p.num = num
    p.den = den
    return p


class GPoly:
    __slots__ = ("num", "den")

    def __init__(self, terms: dict[Mono, GaussianRational] | None = None):
        self.num: dict[Mono, Num] = {}
        self.den = 1
        if terms:
            split = [(m, _split(c)) for m, c in terms.items()]
            den = lcm(*(r for _, (_, _, r) in split))
            num: dict[Mono, Num] = {}
            _reduce_into(num, [(m, (p * (den // r), q * (den // r))) for m, (p, q, r) in split])
            canonical = _canonical(num, den)
            self.num, self.den = canonical.num, canonical.den

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def const(c) -> "GPoly":
        return GPoly({(0, 0, 0, 0): c})

    @staticmethod
    def gen(i: int) -> "GPoly":
        """g_i for i in 1..4."""
        m = [0, 0, 0, 0]
        m[i - 1] = 1
        return GPoly({tuple(m): GAUSS_ONE})

    @staticmethod
    def monomial(c, e1=0, e2=0, e3=0, e4=0) -> "GPoly":
        return GPoly({(e1, e2, e3, e4): c})

    # -- coefficients at the boundary -------------------------------------------

    @property
    def terms(self) -> dict[Mono, GaussianRational]:
        """The monomial -> coefficient view of the normal form (a new dict)."""
        den = self.den
        return {m: GaussianRational(Fraction(x, den), Fraction(y, den))
                for m, (x, y) in self.num.items()}

    def coeff(self, mono: Mono) -> GaussianRational:
        """The coefficient of one normal-form monomial (0 when absent)."""
        xy = self.num.get(mono)
        if xy is None:
            return GAUSS_ZERO
        return GaussianRational(Fraction(xy[0], self.den), Fraction(xy[1], self.den))

    # -- ring operations --------------------------------------------------------

    def _add(self, other: "GPoly", sign: int) -> "GPoly":
        """self + sign * other, over the lcm of the two denominators."""
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        f1, f2 = d2 // g, sign * (d1 // g)
        out = dict(self.num)
        if f1 != 1:
            out = {m: (x * f1, y * f1) for m, (x, y) in out.items()}
        _reduce_into(out, ((m, (x * f2, y * f2)) for m, (x, y) in other.num.items()))
        return _canonical(out, d1 * f1)

    def __add__(self, other: "GPoly") -> "GPoly":
        return self._add(other, 1)

    def __sub__(self, other: "GPoly") -> "GPoly":
        return self._add(other, -1)

    def __mul__(self, other: "GPoly") -> "GPoly":
        acc: dict[Mono, Num] = {}
        get = acc.get
        items2 = other.num.items()
        for (a1, b1, c1, d1), (x1, y1) in self.num.items():
            for (a2, b2, c2, d2), (x2, y2) in items2:
                m = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                x = x1 * x2 - y1 * y2
                y = x1 * y2 + y1 * x2
                prev = get(m)
                acc[m] = (prev[0] + x, prev[1] + y) if prev is not None else (x, y)
        out: dict[Mono, Num] = {}
        _reduce_into(out, acc.items())
        return _canonical(out, self.den * other.den)

    def scale(self, c) -> "GPoly":
        p, q, r = _split(c)
        if not (p or q):
            return GPoly()
        return _canonical({m: (x * p - y * q, x * q + y * p) for m, (x, y) in self.num.items()},
                          self.den * r)

    def pow(self, k: int) -> "GPoly":
        out = _canonical({(0, 0, 0, 0): (1, 0)}, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return isinstance(other, GPoly) and self.den == other.den and self.num == other.num

    def __repr__(self):
        if not self.num:
            return "0"
        names = ("g1", "g2", "g3", "g4")
        terms = self.terms
        parts = []
        for m in sorted(terms):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            parts.append(f"({terms[m]})" + ("*" + "*".join(factors) if factors else ""))
        return " + ".join(parts)

    # -- sl2 operators -----------------------------------------------------------

    def raise_op(self) -> "GPoly":
        acc: dict[Mono, Num] = {}
        get = acc.get
        for (a, b, c, d), (x, y) in self.num.items():
            if a:
                m = (a - 1, b, c + 1, d)
                prev = get(m, (0, 0))
                acc[m] = (prev[0] + x * a, prev[1] + y * a)
            if b:
                m = (a, b - 1, c, d + 1)
                prev = get(m, (0, 0))
                acc[m] = (prev[0] + x * b, prev[1] + y * b)
        out: dict[Mono, Num] = {}
        _reduce_into(out, acc.items())
        return _canonical(out, self.den)

    def as_g34_monomial(self) -> tuple[GaussianRational, int, int] | None:
        """(c, p, q) when the normal form is c * g3^p * g4^q, else None."""
        if len(self.num) != 1:
            return None
        (mono,) = self.num
        a, b, c3, c4 = mono
        if a or b:
            return None
        return self.coeff(mono), c3, c4


G1, G2, G3, G4 = GPoly.gen(1), GPoly.gen(2), GPoly.gen(3), GPoly.gen(4)


# -- linear algebra over the Gaussian rationals ----------------------------------
# Only gr_rref has a caller in the package; perfbench/spans.py wraps the other
# four by name, and the tests use the two nullspaces as oracles.


def gr_rref(rows: list[list[GaussianRational]]) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form and pivot columns, exact over Q(i)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def gr_nullspace(rows: list[list[GaussianRational]], ncols: int) -> list[list[GaussianRational]]:
    """Basis of the right kernel; free variables set to 1 in column order."""
    if not rows:
        return [[GAUSS_ONE if i == j else GAUSS_ZERO for i in range(ncols)]
                for j in range(ncols)]
    m, pivots = gr_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [GAUSS_ZERO] * ncols
        v[f] = GAUSS_ONE
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def gr_solve(rows: list[list[GaussianRational]], rhs: list[GaussianRational]):
    """One solution of rows * x = rhs, or None."""
    aug = [row + [b] for row, b in zip(rows, rhs)]
    m, pivots = gr_rref(aug)
    n = len(rows[0]) if rows else 0
    if n in pivots:
        return None
    x = [GAUSS_ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = m[r][n]
    return x


def express_in_span(vecs: list[GPoly], target: GPoly):
    """Coefficients writing target in the span of vecs, or None."""
    monos = sorted({m for v in vecs for m in v.terms} | set(target.terms))
    idx = {m: i for i, m in enumerate(monos)}
    rows = [[GAUSS_ZERO] * len(vecs) for _ in monos]
    for j, v in enumerate(vecs):
        for m, c in v.terms.items():
            rows[idx[m]][j] = c
    rhs = [GAUSS_ZERO] * len(monos)
    for m, c in target.terms.items():
        rhs[idx[m]] = c
    return gr_solve(rows, rhs)


def combination_nullspace(polys: list[GPoly]) -> list[list[GaussianRational]]:
    """Basis of {c : sum c_i * polys_i = 0 in O(SL2)}."""
    monos = sorted({m for p in polys for m in p.terms})
    idx = {m: i for i, m in enumerate(monos)}
    rows = [[GAUSS_ZERO] * len(polys) for _ in monos]
    for j, p in enumerate(polys):
        for m, c in p.terms.items():
            rows[idx[m]][j] = c
    if not rows:
        rows = [[GAUSS_ZERO] * len(polys)]
    return gr_nullspace(rows, len(polys))
