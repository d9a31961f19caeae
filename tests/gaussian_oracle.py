"""Q(i) as two Fractions: the oracle for the package's integer triples.

``GaussianRational`` is the scalar type the package used before it held
every element of Q(i) as the triple (x, y, d) = (x + y*i)/d.  It is kept
here, with its arithmetic, its text and the coercion ``gauss``, so that the
tests can check the triples against an independent implementation: ``gr``
reads a triple into it, ``to_qi`` writes one back, ``qpoint`` builds a point
from such coordinates, ``gr_terms`` reads a polynomial's coefficients.
``gr_rref`` is the reduced row echelon form over ``GaussianRational`` rows,
the oracle of ``ogpoly.gr_rref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from sl2cox.exactmath import rat
from sl2cox.hyperspace import BasePoint


@dataclass(frozen=True)
class GaussianRational:
    """Element re + im*i of Q(i); equality is structural, arithmetic exact."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other):
        other = gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-gauss(other))

    def __rsub__(self, other):
        return gauss(other) + (-self)

    def __mul__(self, other):
        other = gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * gauss(other).inverse()

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def gauss(x) -> GaussianRational:
    """Coerce ints, rationals, strings and pairs into Q(i)."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction, str)):
        return GaussianRational(rat(x))
    if isinstance(x, dict):
        return GaussianRational(rat(x.get("re", 0)), rat(x.get("im", 0)))
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return GaussianRational(rat(x[0]), rat(x[1]))
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


GAUSS_ZERO = GaussianRational()
GAUSS_ONE = GaussianRational(Fraction(1))
GAUSS_I = GaussianRational(Fraction(0), Fraction(1))


def gauss_ipow(k: int) -> GaussianRational:
    """i**k for any integer k."""
    k %= 4
    return (GAUSS_ONE, GAUSS_I, -GAUSS_ONE, -GAUSS_I)[k]


# -- between the oracle and the triples ----------------------------------------------


def gr(t: tuple[int, int, int]) -> GaussianRational:
    """The triple (x, y, d) as (x + y*i)/d."""
    x, y, d = t
    return GaussianRational(Fraction(x, d), Fraction(y, d))


def to_qi(c) -> tuple[int, int, int]:
    """The canonical triple of anything ``gauss`` reads or of a triple."""
    c = gr(c) if type(c) is tuple and len(c) == 3 else gauss(c)
    d = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator), d


def qpoint(alpha, beta) -> BasePoint:
    """The point [alpha:beta] of coordinates given as ``to_qi`` reads them."""
    return BasePoint(alpha=to_qi(alpha), beta=to_qi(beta))


def gr_terms(p) -> dict:
    """A polynomial's monomial -> ``GaussianRational`` coefficients."""
    return {m: gr(c) for m, c in p.terms.items()}


def gr_rref(rows: list[list[GaussianRational]]) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form and pivot columns over ``GaussianRational``:
    one inverse per pivot, each other row cleared by it."""
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
