"""Exact scalar arithmetic and integer linear algebra.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
An element of Q(i) is the integer triple (x, y, d), meaning (x + y*i)/d with
d > 0 and gcd(x, y, d) = 1, from parsing (``qi``) to printing (``qi_str``);
``qi_div`` is the one quotient.  On top of that this module provides
integer matrices, the Smith normal form with unimodular transforms, worked
on sparse vectors ({index: value}) so that its cost follows the non-zeros,
cokernels of integer matrices as finitely generated abelian groups, and one
integer solver: a quotient of Z^n by a relation lattice, solved on a set of
columns through the Smith form, the only integer elimination.

Everything here is pure and immutable after construction; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    def adopt(data: list[list[int]], cols: int) -> "IntMatrix":
        """The matrix whose rows are the lists ``data``, taken as they are:
        no copy, no ``int()`` and no row-length check, for rows of integers
        that the caller has just built and does not change."""
        M = object.__new__(IntMatrix)
        M.data, M.rows, M.cols = data, len(data), cols
        return M

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
        return IntMatrix.adopt(data, cols)

    def transpose(self) -> "IntMatrix":
        data = ([list(col) for col in zip(*self.data)] if self.rows
                else [[] for _ in range(self.cols)])
        return IntMatrix.adopt(data, self.rows)

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
        return IntMatrix.adopt(out, other.cols)

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

    U is kept as its rows and V as its columns, sparse ({index: coefficient},
    zeros left out), and D as its diagonal, the invariant factors; the dense
    ``U``, ``V`` and ``D`` are built on first read."""

    u_rows: tuple[dict[int, int], ...]
    v_cols: tuple[dict[int, int], ...]
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def U(self) -> IntMatrix:
        return IntMatrix.from_sparse(self.u_rows, len(self.u_rows))

    @cached_property
    def V(self) -> IntMatrix:
        return IntMatrix.from_sparse(self.v_cols, len(self.v_cols)).transpose()

    @cached_property
    def D(self) -> IntMatrix:
        return IntMatrix.from_sparse([{i: d} for i, d in enumerate(self.invariant_factors)]
                                     + [{}] * (len(self.u_rows) - self.rank), len(self.v_cols))

    def certifies(self, M: IntMatrix) -> bool:
        """Whether (U·M)·V = D, on sparse rows: a row of U·M sums the rows of
        M that its row of U names, and a row of (U·M)·V the rows of V that
        it names; one pass over M and over V, then the non-zeros the sums
        touch."""
        rows, cols, factors = M.rows, M.cols, self.invariant_factors
        if len(self.u_rows) != rows or len(self.v_cols) != cols or len(factors) > min(rows, cols):
            return False
        m = [{j: a for j, a in enumerate(row) if a} for row in M.data]
        v = [{} for _ in range(cols)]
        for j, col in enumerate(self.v_cols):
            for k, a in col.items():
                if a:
                    v[k][j] = a
        for i, u in enumerate(self.u_rows):
            um, out = {}, {}
            for k, a in u.items():
                if a:
                    _axpy(um, a, m[k])
            for k, a in um.items():
                _axpy(out, a, v[k])
            if out != ({i: factors[i]} if i < len(factors) else {}):
                return False
        return True


def _axpy(y: dict[int, int], a: int, x: dict[int, int]) -> None:
    """y += a·x on sparse vectors {index: value}, dropping the zeros; with a
    and the values of x non-zero, an entry turns zero only where y had one."""
    for k, b in x.items():
        if s := y.get(k, 0) + a * b:
            y[k] = s
        else:
            del y[k]


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations on sparse
    vectors: the columns of M and of V and the rows of U, each updated by
    ``_axpy``.

    Each round takes the first entry of minimal |a| in row-major order as
    the pivot p and clears its row and column with the balanced quotients q
    of column t (q_t = 0).  With y_j the entry of column j in row t and x_j
    its balanced quotient, one sweep does both: column j becomes
    c_j - x_j·c_t - (y_j - p·x_j)·q, v_j becomes v_j - x_j·v_t, u_i becomes
    u_i - q_i·u_t and column t becomes c_t - p·q, the remainders (0 for
    p = 1).  A remainder, smaller than p, re-runs the round, so the pivot
    strictly decreases; otherwise a p > 1 folds the first row (row-major)
    with an entry p does not divide into row t and re-runs.  Rows above t
    are zero in the columns from t on, so the pivot search, a row swap or
    sign change, the sweep and the fold scan read the non-zeros of columns
    t.. only; the sweep adds those of c_t, q, v_t and u_t once per column
    or row it touches.  D is read off the pivots, so the certificate
    U·M·V = D also checks that M ended diagonal.
    """
    rows, cols = M.rows, M.cols
    c = ([{i: a for i, a in enumerate(col) if a} for col in zip(*M.data)] if rows
         else [{} for _ in range(cols)])
    u = [{i: 1} for i in range(rows)]
    v = [{j: 1} for j in range(cols)]

    t, stop = 0, min(rows, cols)
    while t < stop:
        # the pivot: rows above t are zero in the columns from t on
        best = i = j = 0
        for k in range(t, cols):
            m = min(map(abs, c[k].values()), default=0)
            if not m or best and (m > best or m == best and i == t):
                continue
            r = min(s for s, a in c[k].items() if a == m or a == -m)
            if not best or m < best or r < i:
                best, i, j = m, r, k
                if best == 1 and i == t:
                    break
        if not best:
            break
        live = c[t:]  # the others are zero in rows t..; a column swap keeps this set
        if i != t:
            for col in live:
                a, b = col.pop(t, 0), col.pop(i, 0)
                if b:
                    col[t] = b
                if a:
                    col[i] = a
            u[t], u[i] = u[i], u[t]
        if j != t:
            c[t], c[j] = c[j], c[t]
            v[t], v[j] = v[j], v[t]
        ct, vt = c[t], v[t]
        if ct[t] < 0:
            for col in live:
                if t in col:
                    col[t] = -col[t]
            u[t] = {k: -a for k, a in u[t].items()}
        p = ct[t]
        h = p // 2
        q, rest = {}, {t: p}
        for k, a in ct.items():
            if k != t:
                if x := (a + h) // p:
                    q[k] = x
                if a != p * x:
                    rest[k] = a - p * x
        dirty = len(rest) > 1
        for k in range(t + 1, cols):
            if y := c[k].get(t):
                if x := (y + h) // p:
                    _axpy(c[k], -x, ct)
                    _axpy(v[k], -x, vt)
                if y != p * x:
                    _axpy(c[k], p * x - y, q)
                    dirty = True
        ut = u[t]
        for k, x in q.items():
            _axpy(u[k], -x, ut)
        c[t] = rest
        if dirty:
            continue
        # force the pivot to divide every remaining entry: fold the first row
        # (row-major) holding an entry it does not divide into row t, re-run;
        # rows up to t are zero in the columns after t
        if p > 1 and (i := min((k for col in c[t + 1:] for k, a in col.items() if a % p),
                               default=0)):
            for col in c[t + 1:]:
                if i in col:
                    col[t] = col[i]
            _axpy(ut, 1, u[i])
            continue
        t += 1

    return SmithDecomposition(tuple(u), tuple(v), tuple(c[i][i] for i in range(t)))


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
    the rows of M summed over the non-zeros of that column, with no n x n
    matrix.  A 0 x n matrix gives Z^n.

    Cost, for r rows and n columns: one transpose, O(n r); the Smith form,
    whose rounds read the non-zeros of the columns of Mᵀ still to clear (the
    rows of M) and of the rows of U and V they add; the certificate, which
    reads Mᵀ and V once and then the non-zeros its sums touch; O(n) per
    non-zero of V a lift reads.
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
        x = [0] * n
        for k, a in snf.v_cols[i].items():
            x = [s + a * b for s, b in zip(x, M.data[k])]
        x = [divmod(s, factors[i]) for s in x]
        if any(rem for _, rem in x):
            raise RuntimeError("internal invariant broken: the cokernel's change of basis "
                               "is not unimodular")
        lifts.append(tuple(q for q, _ in x))
    return (FinAbGroup(n - rank, tuple(factors[i] for i in tor_rows)),
            tuple(snf.u_rows[i] for i in order), tuple(lifts))


class EmptySolutionSet(Exception):
    """The system has no (non-negative) integer solution."""


class RelationLattice:
    """Z^n modulo the row space of an r x n matrix P, solved on the columns
    ``cols``: for a class c, the integer x on those columns (zero elsewhere)
    with c - x = Pᵀ y for an integer y.

    The other columns Q of P fix y alone, by Qᵀ y = c_Q, one unknown per
    row of P.  One Smith form U Qᵀ V = diag(d_1, ..., d_k) gives ``rank``
    = k = rank Q, a certificate: at rank Q = r, y is unique, and the columns
    ``cols`` are independent in the quotient ⊗ Q iff rank P = r too.  Then
    L = V diag(d_r/d_1, ..., d_r/d_r) U[:r] and D = d_r, reduced by their
    gcd, give L Qᵀ = D I, so y = L c_Q / D whenever Qᵀ y = c_Q is solvable;
    L is built and that identity checked once per lattice, on sparse rows,
    in the non-zeros of U, V and L, else RuntimeError.
    The solve is thus linear in c: ``numerators`` gives (x, y, residual)
    over D, x = D c_cols - P_colsᵀ y and residual = D c_Q - Qᵀ y for
    y = L c_Q, so a sum of classes has the sum of their numerators;
    ``solve`` reads x off them.
    """

    def __init__(self, P: IntMatrix, cols: Sequence[int]):
        self.P, self.cols = P, list(cols)
        solved = set(self.cols)
        self.rest = [j for j in range(P.cols) if j not in solved]
        r = P.rows
        columns = [list(col) for col in zip(*P.data)] if r else [[] for _ in range(P.cols)]
        self._solved_cols = [columns[j] for j in self.cols]
        self._rest_cols = [columns[j] for j in self.rest]
        snf = smith_normal_form(IntMatrix.adopt(self._rest_cols, r))
        d, self.rank = snf.invariant_factors, snf.rank
        D = d[-1] if d else 1
        L = [{} for _ in range(r)]
        for dk, u, v in zip(d, snf.u_rows, snf.v_cols):
            for i, a in v.items():
                _axpy(L[i], D // dk * a, u)
        if self.rank < r:
            L = []
        g = gcd(D, *(a for row in L for a in row.values()))
        self.L = [{k: a // g for k, a in row.items()} for row in L]  # y = L c_Q / D
        self.D = D // g
        Qt = [{i: a for i, a in enumerate(col) if a} for col in self._rest_cols]
        for i, row in enumerate(self.L):
            LQ = {}
            for k, a in row.items():
                _axpy(LQ, a, Qt[k])
            if LQ != {i: self.D}:
                raise RuntimeError("internal invariant broken: L·Qᵀ ≠ D·I in the relation lattice")

    def numerators(self, c: Sequence[int]) -> tuple[int, ...]:
        """(x, y, residual) of the class c over ``D``, as one tuple; raises
        ``ValueError`` when rank Q < r (y would not be unique)."""
        if self.rank < self.P.rows:
            raise ValueError(f"relations of rank {self.rank} off the solved columns "
                             f"in {self.P.rows} unknowns")
        D, rest = self.D, [c[j] for j in self.rest]
        y = [sum(map(mul, row.values(), map(rest.__getitem__, row))) for row in self.L]
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
