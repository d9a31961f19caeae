"""Exact scalar arithmetic and integer linear algebra.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
An element of Q(i) is the integer triple (x, y, d), meaning (x + y*i)/d with
d > 0 and gcd(x, y, d) = 1, from parsing (``qi``) to printing (``qi_str``);
``qi_div`` is the one quotient.  On top of that this module provides dense
arbitrary precision integer matrices, Smith normal form with unimodular
transforms, cokernels of integer matrices as finitely generated abelian
groups, and one integer solver: a quotient of Z^n by a relation lattice,
solved on a set of columns by one fraction-free elimination pass
(``_echelon``), the only integer elimination beside the Smith form.

Everything here is pure and immutable after construction; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from math import gcd, lcm
from operator import mul
from typing import Sequence


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational; an
    integer string skips the parser's regular expression."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        return Fraction(int(s) if s.removeprefix("-").isdecimal() else s)
    raise TypeError(f"cannot interpret {x!r} as a rational")


Qi = tuple[int, int, int]  # (x + y*i) / d with d > 0


def qi(x) -> Qi:
    """Coerce into Q(i) as the canonical triple (x, y, d), meaning (x + y*i)/d
    with d > 0 and gcd(x, y, d) = 1: an int, a Fraction or a 'p/q' string is
    the real part, a dict {"re", "im"} (a missing part is 0) or a two-element
    list gives both parts."""
    if isinstance(x, (int, Fraction, str)):
        re, im = rat(x), Fraction(0)
    elif isinstance(x, dict):
        re, im = rat(x.get("re", 0)), rat(x.get("im", 0))
    elif isinstance(x, list) and len(x) == 2:
        re, im = rat(x[0]), rat(x[1])
    else:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    d = lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def qi_div(a: Qi, b: Qi) -> Qi | None:
    """a / b as a canonical triple, by one gcd pass; None for b = 0."""
    (p, q, r), (s, t, w) = a, b
    x, y, d = w * (p * s + q * t), w * (q * s - p * t), r * (s * s + t * t)
    if not d:
        return None
    g = gcd(x, y, d)
    return x // g, y // g, d // g


def gmul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers given as pairs (re, im)."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def frac_str(x: int, d: int) -> str:
    """``str(Fraction(x, d))`` for d > 0, without the Fraction."""
    if d == 1:
        return str(x)
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def qi_str(x: int, y: int, d: int) -> str:
    """(x + y*i) / d as text, d > 0: "3/2", "-1/2i", "1+2i", "1/3-1i"."""
    if not y:
        return frac_str(x, d)
    im = frac_str(abs(y), d) + "i"
    if not x:
        return ("-" if y < 0 else "") + im
    return frac_str(x, d) + ("-" if y < 0 else "+") + im


class IntMatrix:
    """Dense integer matrix with exact arithmetic; rows may be empty."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: int | None = None):
        self.data = [list(map(int, row)) for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise ValueError("ragged rows in IntMatrix")
            if cols is not None and cols != self.cols:
                raise ValueError("cols inconsistent with row length")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def from_sparse(rows: Sequence[dict[int, int]], cols: int) -> "IntMatrix":
        """The dense matrix of rows given as {column: coefficient}."""
        data = [[0] * cols for _ in rows]
        for out, row in zip(data, rows):
            for j, a in row.items():
                out[j] = a
        return IntMatrix(data, cols=cols)

    def transpose(self) -> "IntMatrix":
        data = [list(col) for col in zip(*self.data)] if self.rows else [[]] * self.cols
        return IntMatrix(data, cols=self.rows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            for k, a in enumerate(row):
                if a:
                    orow = other.data[k]
                    orow_out = out[i]
                    for j in range(other.cols):
                        orow_out[j] += a * orow[j]
        return IntMatrix(out, cols=other.cols)

    def mulvec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(map(mul, row, v)) for row in self.data]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"IntMatrix({self.data!r}, cols={self.cols})"


@dataclass(frozen=True)
class SmithDecomposition:
    """U*M*V = D with U, V unimodular, D diagonal, factors divisibility chained.

    U is kept as its rows, sparse ({column: coefficient}, zeros left out);
    the dense ``U`` is built on first read."""

    u_rows: tuple[dict[int, int], ...]
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def U(self) -> IntMatrix:
        return IntMatrix.from_sparse(self.u_rows, len(self.u_rows))

    def certifies(self, M: IntMatrix) -> bool:
        """Whether U·(M·V) = D: M·V is formed once, O(rows·cols²), then each
        sparse row of U combines its rows, O(nnz(U)·cols)."""
        if (M.rows, M.cols) != (self.D.rows, self.D.cols) or len(self.u_rows) != M.rows:
            return False
        vcols = list(zip(*self.V.data))
        MV = [[sum(map(mul, row, col)) for col in vcols] for row in M.data]
        for u, d in zip(self.u_rows, self.D.data):
            acc = [0] * M.cols
            for k, a in u.items():
                acc = [x + a * y for x, y in zip(acc, MV[k])]
            if acc != d:
                return False
        return True


def _add_row(u: dict[int, int], q: int, w: dict[int, int]) -> None:
    """u += q w on sparse rows, dropping the zeros."""
    for k, b in w.items():
        x = u.get(k, 0) + q * b
        if x:
            u[k] = x
        else:
            u.pop(k, None)


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations.

    Each round takes the first entry of minimal |a| in row-major order as
    the pivot, which limits coefficient growth, and clears its row and
    column with balanced quotients.  M is the class group's N x r matrix Pᵀ
    (N generators, r <= about a dozen relations): M is held column-major,
    so a clearing sweep is r list operations of length N, and U's rows are
    sparse, so a row operation costs the non-zeros of one row of U, not N.
    A round thus costs O(N r) plus the touched entries of U.
    """
    rows, cols = M.rows, M.cols
    c = [list(col) for col in zip(*M.data)] if rows else [[] for _ in range(cols)]
    u = [{i: 1} for i in range(rows)]
    v = [[int(i == j) for i in range(cols)] for j in range(cols)]  # columns of V

    t = 0
    while True:
        # rows above t are zero in the columns from t on
        absolute = [[*map(abs, c[j])] for j in range(t, cols)]
        mins = [min(filter(None, a), default=0) for a in absolute]
        best = min(filter(None, mins), default=0)
        if not best:
            break
        i, j = min((a.index(best), j + t) for j, (a, m) in enumerate(zip(absolute, mins))
                   if m == best)
        for col in c:
            col[t], col[i] = col[i], col[t]
        u[t], u[i] = u[i], u[t]
        c[t], c[j] = c[j], c[t]
        v[t], v[j] = v[j], v[t]
        if c[t][t] < 0:
            for col in c:
                col[t] = -col[t]
            u[t] = {k: -a for k, a in u[t].items()}
        p, h = c[t][t], c[t][t] // 2
        # one clearing sweep with balanced quotients; remainders stay put and
        # the global minimal pivot is re-selected on the next round, so the
        # pivot strictly decreases and entries stay tame.  Every row
        # operation subtracts a multiple of row t, which none changes, and
        # every column operation a multiple of column t: each sweep is one
        # vector operation per column
        q = c[t][:] if p == 1 else [(a + h) // p for a in c[t]]
        q[t] = 0
        for j in range(t, cols):
            x = c[j][t]
            if x:
                c[j] = [a - b * x for a, b in zip(c[j], q)]
        for i in compress(range(rows), q):
            _add_row(u[i], -q[i], u[t])
        pivot_col, pivot_v = c[t], v[t]
        for j in range(t + 1, cols):
            x = c[j][t]
            if x:
                x = (x + h) // p
                c[j] = [a - x * b for a, b in zip(c[j], pivot_col)]
                v[j] = [a - x * b for a, b in zip(v[j], pivot_v)]
        if any(islice(pivot_col, t + 1, None)) or any(c[j][t] for j in range(t + 1, cols)):
            continue
        # force the pivot to divide every remaining entry: fold the first row
        # (row-major) holding an entry it does not divide into row t, re-run
        if p > 1:
            i = min((next((i for i in range(t + 1, rows) if c[j][i] % p), rows)
                     for j in range(t + 1, cols)), default=rows)
            if i < rows:
                for col in c:
                    col[t] += col[i]
                _add_row(u[t], 1, u[i])
                continue
        t += 1

    factors = tuple(c[i][i] for i in range(min(rows, cols)) if c[i][i])
    D = [list(r) for r in zip(*c)] if cols else [[] for _ in range(rows)]
    return SmithDecomposition(tuple(u), IntMatrix(D, cols=cols),
                              IntMatrix([list(r) for r in zip(*v)], cols=cols), factors)


@dataclass(frozen=True)
class FinAbGroup:
    """Z^free_rank x prod Z/d_i with the d_i > 1 forming a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion factors must exceed 1")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def torsion_order(self) -> int:
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative: free part verbatim, torsion part mod d_i."""
        free = coords[: self.free_rank]
        tor = [c % d for c, d in zip(coords[self.free_rank:], self.torsion)]
        return tuple(free) + tuple(tor)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel(M: IntMatrix) -> tuple[FinAbGroup, tuple[dict[int, int], ...],
                                    tuple[tuple[int, ...], ...]]:
    """Z^cols modulo the row space of M, the rows of its change of basis U,
    and a lift of each torsion generator.

    U is n x n and unimodular, its rows sparse ({column: coefficient}) and
    ordered free part, torsion part, then the coordinates M kills: the
    adapted-basis coordinates of x are the leading entries of U x, reduced
    by ``FinAbGroup.reduce``; ``IntMatrix.from_sparse`` gives U dense.  The
    Smith form is certified on M itself: U Mᵀ V = D, else RuntimeError.  So
    Mᵀ V = U⁻¹ D, and the torsion generator of Smith index i, factor d_i,
    lifts to column i of U⁻¹, the x with U x = e_i: Mᵀ (column i of V) / d_i,
    O(n r) each for r rows of M, with no n x n matrix.  A 0 x n matrix gives
    Z^n.
    """
    Mt = M.transpose()
    snf = smith_normal_form(Mt)
    if not snf.certifies(Mt):
        raise RuntimeError("internal invariant broken: U·Mᵀ·V ≠ D in the Smith form")
    factors = snf.invariant_factors
    rank, n = len(factors), M.cols
    tor_rows = [i for i in range(rank) if factors[i] > 1]
    order = list(range(rank, n)) + tor_rows + [i for i in range(rank) if factors[i] == 1]
    lifts = []
    for i in tor_rows:
        x = [divmod(a, factors[i]) for a in Mt.mulvec([row[i] for row in snf.V.data])]
        if any(rem for _, rem in x):
            raise RuntimeError("internal invariant broken: the cokernel's change of basis "
                               "is not unimodular")
        lifts.append(tuple(q for q, _ in x))
    return (FinAbGroup(n - rank, tuple(factors[i] for i in tor_rows)),
            tuple(snf.u_rows[i] for i in order), tuple(lifts))


class EmptySolutionSet(Exception):
    """The system has no (non-negative) integer solution."""


def _echelon(rows, n: int) -> dict[int, list[int]]:
    """The fraction-free elimination pass over integer rows whose first n
    entries are the unknowns' coefficients: each row is reduced against the
    echelon rows kept so far (keyed by pivot column, zero left of it) and
    divided by its gcd; the pass stops at n pivots."""
    echelon: dict[int, list[int]] = {}
    for r in rows:
        if len(echelon) == n:
            break
        for p in sorted(echelon):
            if r[p]:
                e = echelon[p]
                g = gcd(e[p], r[p])
                u, v = e[p] // g, r[p] // g
                r = [u * a - v * c for a, c in zip(r, e)]
        p = next((j for j in range(n) if r[j]), None)
        if p is not None:
            g = gcd(*r)
            echelon[p] = [a // g for a in r]
    return echelon


class RelationLattice:
    """Z^n modulo the row space of an r x n matrix P, solved on the columns
    ``cols``: for a class c, the integer x on those columns (zero elsewhere)
    with c - x = Pᵀ y for an integer y.

    The other columns Q of P fix y alone, by Qᵀ y = c_Q, one unknown per
    row of P.  One pass (``_echelon``) over [Qᵀ | I] and a back-substitution
    give an integer matrix L and a denominator D > 0 with y = L c_Q / D
    whenever Qᵀ y = c_Q is solvable.  ``rank`` is rank Q, a certificate: at
    rank Q = r, y is unique, and the columns ``cols`` are independent in the
    quotient ⊗ Q iff rank P = r too.  The solve is thus linear in c:
    ``numerators`` gives (x, y, residual) over D, x = D c_cols - P_colsᵀ y
    and residual = D c_Q - Qᵀ y for y = L c_Q, so a sum of classes has the
    sum of their numerators; ``solve`` reads x off them.
    """

    def __init__(self, P: IntMatrix, cols: Sequence[int]):
        self.P, self.cols = P, list(cols)
        solved = set(self.cols)
        self.rest = [j for j in range(P.cols) if j not in solved]
        r, m = P.rows, len(self.rest)
        columns = list(zip(*P.data)) if r else [()] * P.cols
        self._solved_cols = [columns[j] for j in self.cols]
        self._rest_cols = [columns[j] for j in self.rest]
        echelon = _echelon(([*col, *(int(t == k) for t in range(m))]
                            for k, col in enumerate(self._rest_cols)), r)
        self.rank = len(echelon)
        self.L, self.D = [], 1  # y_k+1, ..., y_r-1 = L c_Q / D
        for k in range(r - 1, -1, -1) if self.rank == r else ():
            e = echelon[k]
            num = [self.D * w - sum(a * row[t] for a, row in zip(e[k + 1:r], self.L))
                   for t, w in enumerate(e[r:])]
            L, D = [num] + [[e[k] * a for a in row] for row in self.L], self.D * e[k]
            g = gcd(D, *(a for row in L for a in row)) * (-1 if D < 0 else 1)
            self.L, self.D = [[a // g for a in row] for row in L], D // g

    def numerators(self, c: Sequence[int]) -> tuple[int, ...]:
        """(x, y, residual) of the class c over ``D``, as one tuple; raises
        ``ValueError`` when rank Q < r (y would not be unique)."""
        if self.rank < self.P.rows:
            raise ValueError(f"relations of rank {self.rank} off the solved columns "
                             f"in {self.P.rows} unknowns")
        D, rest = self.D, [c[j] for j in self.rest]
        y = [sum(map(mul, row, rest)) for row in self.L]
        x = [D * c[j] - sum(map(mul, col, y)) for j, col in zip(self.cols, self._solved_cols)]
        residual = [D * t - sum(map(mul, col, y)) for t, col in zip(rest, self._rest_cols)]
        return (*x, *y, *residual)

    def solve(self, X: Sequence[int]) -> tuple[int, ...]:
        """The integer x of numerators X (``numerators``, or a sum of them).

        A non-zero residual (no rational y) or a non-integral x means no
        integer x matches c in the quotient ⊗ Q (the "exact rows" message).
        With x integral, c - x is torsion in the quotient, and zero there iff
        y is integral (the "torsion part" message).  Raises
        ``EmptySolutionSet``."""
        nx, r, D = len(self.cols), self.P.rows, self.D
        if any(X[nx + r:]) or (D > 1 and any(v % D for v in X[:nx])):
            raise EmptySolutionSet("no integer x solves the exact rows")
        if D > 1 and any(v % D for v in X[nx:nx + r]):
            raise EmptySolutionSet("free parts match but the torsion part of the class obstructs")
        return tuple(X[:nx]) if D == 1 else tuple(v // D for v in X[:nx])


def require_nonneg(x: tuple[int, ...]) -> tuple[int, ...]:
    """x when x >= 0; raises ``EmptySolutionSet`` on a negative entry."""
    if min(x, default=0) < 0:
        raise EmptySolutionSet("no integer x >= 0 solves the exact rows")
    return x


def solve_nonneg(lattice: RelationLattice, X: Sequence[int]) -> list[tuple[int, ...]]:
    """``[x]`` for x = ``lattice.solve(X)``, X a sum of numerators, when
    x >= 0; raises ``EmptySolutionSet`` when x does not exist or has a
    negative entry."""
    return [require_nonneg(lattice.solve(X))]
