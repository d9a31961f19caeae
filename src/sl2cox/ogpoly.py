"""Exact sparse polynomials over the Gaussian rationals, and functions on
SL2 as polynomials in the matrix entries.

One core, two monomial types.  ``QiPoly`` holds the coefficients of every
polynomial in the package: Gaussian integers over one common denominator.
``num`` maps each monomial to the pair (re, im) of integer numerators and
``den`` is a positive integer, so the coefficient of m is (re + im*i) / den.
The form is canonical: no pair is (0, 0), gcd(den, every numerator) = 1, and
the zero polynomial has den = 1.  Sums, products, scaling and powers run on
Python ints, with one gcd pass per result; ``GaussianRational`` appears only
where a coefficient enters (the constructor, ``scale``) or leaves (``terms``,
``coeff``).  A ring is a subclass that supplies its unit monomial ``_ONE``
and its monomial product ``_mono_mul``; both rings are free, so collecting
terms is the normal form and equality is a dictionary comparison.
``GPoly`` below is Q(i)[g1, g2, g3, g4], and ``presentation.SparsePoly`` is
the polynomial ring over named variables.

A ``GPoly`` stands for a function on SL2, but it is not reduced modulo
g1*g4 - g2*g3 - 1: two GPolys can differ and agree on SL2.  Whether one
vanishes on SL2 is decided by ``vanishes_on_sl2``, with the certificate
stated there; products in the free ring are sums of exponents, so an
order-k Clebsch-Gordan chain costs O(k) terms, not the O(k^2) of a normal
form that expands g1^a g4^d binomially.

Under the left translation action the torus weights are -1 on g1, g2 and +1
on g3, g4 (units of the fundamental character), the raising operator acts as
the derivation g3*d/dg1 + g4*d/dg2; U-invariants are exactly the polynomials
in g3, g4.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .exactmath import GAUSS_ONE, GAUSS_ZERO, GaussianRational, gauss

Num = tuple[int, int]


def _split(c) -> tuple[int, int, int]:
    """(p, q, r) with c = (p + q*i) / r and r > 0; an int or a Fraction is
    read directly, anything else through ``gauss``."""
    if type(c) is int:
        return c, 0, 1
    if type(c) is Fraction:
        return c.numerator, 0, c.denominator
    c = gauss(c)
    r = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (r // c.re.denominator), c.im.numerator * (r // c.im.denominator), r


def _collect(out: dict, items) -> None:
    """Add the (monomial, numerator pair) items to ``out``, dropping terms
    that cancel: the normal form of a free polynomial ring."""
    get = out.get
    for mono, (x, y) in items:
        prev = get(mono)
        if prev is None:
            if x or y:
                out[mono] = (x, y)
            continue
        sx, sy = prev[0] + x, prev[1] + y
        if sx or sy:
            out[mono] = (sx, sy)
        else:
            del out[mono]


class QiPoly:
    """A sparse polynomial over Q(i) in canonical integer form.  A subclass
    is one free ring: it sets ``_ONE`` and ``_mono_mul``."""

    __slots__ = ("num", "den")
    _ONE: tuple = ()

    def __init__(self, terms: dict[tuple, GaussianRational] | None = None):
        self.num: dict[tuple, Num] = {}
        self.den = 1
        if terms:
            split = [(m, _split(c)) for m, c in terms.items()]
            den = lcm(*(r for _, (_, _, r) in split))
            num: dict[tuple, Num] = {}
            _collect(num, [(m, (p * (den // r), q * (den // r))) for m, (p, q, r) in split])
            canonical = self._canonical(num, den)
            self.num, self.den = canonical.num, canonical.den

    @classmethod
    def _canonical(cls, num: dict[tuple, Num], den: int):
        """The polynomial num / den with gcd(den, numerators) divided out (so
        den = 1 when num is empty); ``num`` must have no zero pairs."""
        if den != 1:
            g = den
            for x, y in num.values():
                g = gcd(g, x, y)
                if g == 1:
                    break
            if g != 1:
                num = {m: (x // g, y // g) for m, (x, y) in num.items()}
                den //= g
        p = cls.__new__(cls)
        p.num = num
        p.den = den
        return p

    # -- coefficients at the boundary -------------------------------------------

    @property
    def terms(self) -> dict[tuple, GaussianRational]:
        """The monomial -> coefficient view (a new dict)."""
        den = self.den
        return {m: GaussianRational(Fraction(x, den), Fraction(y, den))
                for m, (x, y) in self.num.items()}

    def coeff(self, mono: tuple) -> GaussianRational:
        """The coefficient of one monomial (0 when absent)."""
        xy = self.num.get(mono)
        if xy is None:
            return GAUSS_ZERO
        return GaussianRational(Fraction(xy[0], self.den), Fraction(xy[1], self.den))

    # -- ring operations --------------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        f1, f2 = d2 // g, sign * (d1 // g)
        out = dict(self.num)
        if f1 != 1:
            out = {m: (x * f1, y * f1) for m, (x, y) in out.items()}
        _collect(out, ((m, (x * f2, y * f2)) for m, (x, y) in other.num.items()))
        return self._canonical(out, d1 * f1)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        acc: dict[tuple, Num] = {}
        get = acc.get
        mono_mul = self._mono_mul
        items2 = other.num.items()
        for m1, (x1, y1) in self.num.items():
            for m2, (x2, y2) in items2:
                m = mono_mul(m1, m2)
                x = x1 * x2 - y1 * y2
                y = x1 * y2 + y1 * x2
                prev = get(m)
                acc[m] = (prev[0] + x, prev[1] + y) if prev is not None else (x, y)
        return self._canonical({m: xy for m, xy in acc.items() if xy != (0, 0)},
                               self.den * other.den)

    def scale(self, c):
        p, q, r = _split(c)
        if not (p or q):
            return type(self)()
        return self._canonical({m: (x * p - y * q, x * q + y * p) for m, (x, y) in self.num.items()},
                               self.den * r)

    def pow(self, k: int):
        """self^k for k >= 0 by repeated squaring, starting from the lowest
        factor it needs: floor(log2 k) + popcount(k) - 1 products."""
        if not k:
            return self._canonical({self._ONE: (1, 0)}, 1)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                out = out * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return type(other) is type(self) and self.den == other.den and self.num == other.num

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


# -- functions on SL2 ---------------------------------------------------------------

Mono = tuple[int, int, int, int]


class GPoly(QiPoly):
    """A polynomial in g1..g4, read as a function on SL2."""

    __slots__ = ()
    _ONE = (0, 0, 0, 0)

    def vanishes_on_sl2(self) -> bool:
        """Whether this polynomial F is zero on SL2, decided in the free ring.

        Split F by the weight w = deg(g1, g2) - deg(g3, g4) of the left torus
        diag(t, 1/t), let D_w be the top total degree of weight w, and form
        H_w = sum over the terms m of weight w of det^((D_w - |m|)/2) * m,
        det = g1*g4 - g2*g3 (|m| = w mod 2, so the exponent is an integer).
        F vanishes on SL2 iff every H_w is zero.  Proof: distinct torus
        characters separate the weight parts, so F = 0 on SL2 iff every F_w
        is.  H_w agrees with F_w on SL2 and has bidegree ((D_w + w)/2,
        (D_w - w)/2) in the two rows; scaling the top row by s carries SL2
        onto det = s, so H_w vanishes on every det = s != 0, that is on GL2,
        which is dense in the 2 x 2 matrices.  The H_w have disjoint
        weights, so their sum is zero iff each is."""
        top: dict[int, int] = {}
        for a, b, c, d in self.num:
            w, deg = a + b - c - d, a + b + c + d
            if top.get(w, -1) < deg:
                top[w] = deg

        def homogenized():
            for (a, b, c, d), (x, y) in self.num.items():
                j = (top[a + b - c - d] - a - b - c - d) // 2
                if not j:  # already at its weight's top degree
                    yield (a, b, c, d), (x, y)
                    continue
                for i in range(j + 1):
                    k = (-1) ** i * comb(j, i)
                    yield (a + j - i, b + i, c + i, d + j - i), (x * k, y * k)

        out: dict[Mono, Num] = {}
        _collect(out, homogenized())
        return not out

    @staticmethod
    def _mono_mul(m1: Mono, m2: Mono) -> Mono:
        return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])

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


G1, G2, G3, G4 = GPoly.gen(1), GPoly.gen(2), GPoly.gen(3), GPoly.gen(4)
GPOLY_ONE = GPoly.const(1)  # shared: no QiPoly operation mutates its operands


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
    monos = sorted({m for v in vecs for m in v.num} | set(target.num))
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
    """Basis of {c : sum c_i * polys_i = 0} in the free ring."""
    monos = sorted({m for p in polys for m in p.num})
    idx = {m: i for i, m in enumerate(monos)}
    rows = [[GAUSS_ZERO] * len(polys) for _ in monos]
    for j, p in enumerate(polys):
        for m, c in p.terms.items():
            rows[idx[m]][j] = c
    if not rows:
        rows = [[GAUSS_ZERO] * len(polys)]
    return gr_nullspace(rows, len(polys))
