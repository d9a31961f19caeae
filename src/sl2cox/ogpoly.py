"""Exact polynomial arithmetic on the coordinate ring of SL2.

O(SL2) = k[g1,g2,g3,g4]/(g1*g4 - g2*g3 - 1) over the Gaussian rationals.
The normal form has no monomial containing both g1 and g4, so equality is a
dictionary comparison.  A monomial g1^a g2^b g3^c g4^d is reduced in one step
by the binomial expansion of (g1*g4)^m = (1 + g2*g3)^m with m = min(a, d):

    sum_i C(m, i) * g1^(a-m) g2^(b+i) g3^(c+i) g4^(d-m),

which is already in normal form, so the cost is m + 1 terms, not the 2^m of
rewriting one g1*g4 factor at a time.

Under the left translation action the torus weights are -1 on g1, g2 and +1
on g3, g4 (units of the fundamental character), the raising operator acts as
the derivation g3*d/dg1 + g4*d/dg2; U-invariants are exactly the polynomials
in g3, g4.
"""

from __future__ import annotations

from math import comb

from .exactmath import GAUSS_ONE, GAUSS_ZERO, GaussianRational, gauss

Mono = tuple[int, int, int, int]


class GPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, GaussianRational] | None = None, *, reduced=False):
        self.terms: dict[Mono, GaussianRational] = {}
        if terms:
            if reduced:
                self.terms = {m: c for m, c in terms.items() if c}
            else:
                self._accumulate(terms)

    def _accumulate(self, terms):
        out = self.terms
        for (a, b, c, d), coeff in terms.items():
            if not coeff:
                continue
            m = min(a, d)
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

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def const(c) -> "GPoly":
        c = gauss(c)
        return GPoly({(0, 0, 0, 0): c}, reduced=True) if c else GPoly()

    @staticmethod
    def gen(i: int) -> "GPoly":
        """g_i for i in 1..4."""
        m = [0, 0, 0, 0]
        m[i - 1] = 1
        return GPoly({tuple(m): GAUSS_ONE}, reduced=True)

    @staticmethod
    def monomial(c, e1=0, e2=0, e3=0, e4=0) -> "GPoly":
        return GPoly({(e1, e2, e3, e4): gauss(c)})

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "GPoly") -> "GPoly":
        out = GPoly()
        out.terms = dict(self.terms)
        out._accumulate(other.terms)
        return out

    def __sub__(self, other: "GPoly") -> "GPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "GPoly") -> "GPoly":
        acc: dict[Mono, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                c = c1 * c2
                prev = acc.get(m)
                acc[m] = prev + c if prev is not None else c
        return GPoly(acc)

    def scale(self, c) -> "GPoly":
        c = gauss(c)
        if not c:
            return GPoly()
        return GPoly({m: x * c for m, x in self.terms.items()}, reduced=True)

    def pow(self, k: int) -> "GPoly":
        out = GPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GPoly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("g1", "g2", "g3", "g4")
        parts = []
        for m in sorted(self.terms):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            parts.append(f"({self.terms[m]})" + ("*" + "*".join(factors) if factors else ""))
        return " + ".join(parts)

    # -- sl2 operators -----------------------------------------------------------

    def raise_op(self) -> "GPoly":
        acc: dict[Mono, GaussianRational] = {}
        for (a, b, c, d), coeff in self.terms.items():
            if a:
                m = (a - 1, b, c + 1, d)
                acc[m] = acc.get(m, GAUSS_ZERO) + coeff * a
            if b:
                m = (a, b - 1, c, d + 1)
                acc[m] = acc.get(m, GAUSS_ZERO) + coeff * b
        return GPoly(acc)

    def as_g34_monomial(self) -> tuple[GaussianRational, int, int] | None:
        """(c, p, q) when the normal form is c * g3^p * g4^q, else None."""
        if len(self.terms) != 1:
            return None
        ((a, b, c3, c4), coeff), = self.terms.items()
        if a or b:
            return None
        return coeff, c3, c4


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
