"""Exact scalar arithmetic and integer linear algebra.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
An element of Q(i) is the integer triple (x, y, d), meaning (x + y*i)/d with
d > 0 and gcd(x, y, d) = 1, from parsing (``qi``) to printing (``qi_str``);
``qi_div`` is the one quotient.  On top of that this module provides dense
arbitrary precision integer matrices, Smith normal form with unimodular
transforms, cokernels of integer matrices as finitely generated abelian
groups, and one integer solver: a quotient of Z^n by a relation lattice,
solved on a set of columns through the Smith form, the only integer
elimination.

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
        """Whether (U·M)·V = D.  Each row of U·M folds the non-zeros of that
        row of U over the non-zero rows of M, O(nnz(U)·cols) in all, and
        only its non-zero entries add rows of V, so a zero row of U·M costs
        nothing more and each of the others, at most cols of them on a
        correct decomposition, O(cols²)."""
        rows, cols = M.rows, M.cols
        if ((rows, cols) != (self.D.rows, self.D.cols) or len(self.u_rows) != rows
                or self.V.rows != cols):
            return False
        V = self.V.data
        live = [row if any(row) else None for row in M.data]
        for u, d in zip(self.u_rows, self.D.data):
            acc = None
            for k, a in u.items():
                if (row := live[k]) is not None:
                    acc = ([a * y for y in row] if acc is None
                           else [x + a * y for x, y in zip(acc, row)])
            out = [0] * cols
            for k in compress(range(cols), acc or ()):
                a = acc[k]
                out = [x + a * y for x, y in zip(out, V[k])]
            if out != d:
                return False
        return True


def _sweep_rows(u: list[dict[int, int]], t: int, q: Sequence[int]) -> None:
    """u[i] -= q[i] u[t] for every i > t with q[i] != 0, on sparse rows,
    dropping the zeros: an entry turns zero only where u[i] had one, since
    u[t] holds no zeros."""
    w = u[t].items()
    for i in compress(range(t + 1, len(u)), islice(q, t + 1, None)):
        ui, a = u[i], q[i]
        for k, b in w:
            if x := ui.get(k, 0) - a * b:
                ui[k] = x
            else:
                del ui[k]


def smith_normal_form(M: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column operations.

    Each round takes the first entry of minimal |a| in row-major order as
    the pivot, which limits coefficient growth, and clears its row and
    column with balanced quotients.  M is the class group's N x r matrix Pᵀ
    (N generators, r relations, one per exceptional point and the u*l-row):
    M is held column-major, so a clearing sweep is r list operations of
    length N, and U's rows are sparse, so a row operation costs the
    non-zeros of one row of U, not N.  M and V are dense, so the form is
    cubic in k extra points (x6.7-7.9 per doubling on mu_5; ROADMAP item 2).

    A round does only what that rule needs.  Rows above t are zero in the
    columns from t on, so the pivot search scans rows t.. of columns t..,
    O(N (r - t)), and a row swap or sign change touches only columns t..;
    the rounds stop once t reaches min(N, r).  A pivot 1 (81-86 % of the
    rounds on the benchmark workloads' class groups) clears its column and
    row exactly: its column is the quotients, so one pass over the columns
    with a non-zero in row t does the row and the column sweep at once,
    O(N) each, and no re-check or fold follows.  A larger pivot sweeps with
    balanced quotients, its U pass is skipped when every quotient is 0, and
    then the re-check and the fold scan, O(N r).  Each row operation on U
    costs the non-zeros of row t of U.  D is written from the pivots, so
    the certificate U·M·V = D also checks that the sweeps left M diagonal.
    """
    rows, cols = M.rows, M.cols
    c = [list(col) for col in zip(*M.data)] if rows else [[] for _ in range(cols)]
    u = [{i: 1} for i in range(rows)]
    v = [[0] * cols for _ in range(cols)]  # columns of V
    for j in range(cols):
        v[j][j] = 1

    t, stop = 0, min(rows, cols)
    while t < stop:
        # the pivot: rows above t are zero in the columns from t on
        best = i = j = 0
        for k in range(t, cols):
            m = min(map(abs, filter(None, islice(c[k], t, None))), default=0)
            if not m or best and (m > best or m == best and i == t):
                continue
            r = [*map(abs, c[k])].index(m, t)
            if not best or m < best or r < i:
                best, i, j = m, r, k
                if best == 1 and i == t:
                    break
        if not best:
            break
        live = c[t:]  # the others are zero in rows t..; a column swap keeps this set
        if i != t:
            for col in live:
                col[t], col[i] = col[i], col[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            c[t], c[j] = c[j], c[t]
            v[t], v[j] = v[j], v[t]
        pivot_col, pivot_v = c[t], v[t]
        if pivot_col[t] < 0:
            for col in live:
                col[t] = -col[t]
            u[t] = {k: -a for k, a in u[t].items()}
        p = pivot_col[t]
        if p == 1:
            # the quotients are column t itself: row op i -= a_i · row t and
            # column op j -= x_j · column t leave column j - x_j · column t
            for j in range(t + 1, cols):
                if x := c[j][t]:
                    c[j] = [a - x * b for a, b in zip(c[j], pivot_col)]
                    v[j] = [a - x * b for a, b in zip(v[j], pivot_v)]
            _sweep_rows(u, t, pivot_col)
            c[t] = [0] * rows
            c[t][t] = 1
            t += 1
            continue
        h = p // 2
        # one clearing sweep with balanced quotients; remainders stay put and
        # the global minimal pivot is re-selected on the next round, so the
        # pivot strictly decreases and entries stay tame.  Every row
        # operation subtracts a multiple of row t, which none changes, and
        # every column operation a multiple of column t: each sweep is one
        # vector operation per column
        q = [(a + h) // p for a in pivot_col]
        q[t] = 0
        if any(q):
            for j in range(t, cols):
                if x := c[j][t]:
                    c[j] = [a - b * x for a, b in zip(c[j], q)]
            _sweep_rows(u, t, q)
        pivot_col = c[t]
        for j in range(t + 1, cols):
            if x := c[j][t]:
                x = (x + h) // p
                c[j] = [a - x * b for a, b in zip(c[j], pivot_col)]
                v[j] = [a - x * b for a, b in zip(v[j], pivot_v)]
        if any(islice(pivot_col, t + 1, None)) or any(c[j][t] for j in range(t + 1, cols)):
            continue
        # force the pivot to divide every remaining entry: fold the first row
        # (row-major) holding an entry it does not divide into row t, re-run;
        # rows up to t are zero in the columns after t
        i = min((next(compress(range(rows), map(p.__rmod__, c[j])), rows)
                 for j in range(t + 1, cols)), default=rows)
        if i < rows:
            for col in c[t + 1:]:
                col[t] = col[i]
            ut = u[t]
            for k, b in u[i].items():
                if x := ut.get(k, 0) + b:
                    ut[k] = x
                else:
                    del ut[k]
            continue
        t += 1

    factors = tuple(c[i][i] for i in range(t))
    D = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(factors):
        D[i][i] = d
    return SmithDecomposition(tuple(u), IntMatrix.adopt(D, cols),
                              IntMatrix.adopt([list(r) for r in zip(*v)], cols), factors)


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

    Cost, for r rows and n columns: one transpose, O(n r); at most r Smith
    rounds with pivot 1, each O(n (r - t)) for the pivot search and one
    sweep of the columns after t, plus the touched non-zeros of U (a larger
    pivot adds its re-check and fold scans, O(n r), and may repeat the
    round); the certificate, O(nnz(U) r + r³).
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
    that identity is checked once per lattice, O(r² m) for the m columns of
    Q, else RuntimeError.
    The solve is thus linear in c: ``numerators`` gives (x, y, residual)
    over D, x = D c_cols - P_colsᵀ y and residual = D c_Q - Qᵀ y for
    y = L c_Q, so a sum of classes has the sum of their numerators;
    ``solve`` reads x off them.
    """

    def __init__(self, P: IntMatrix, cols: Sequence[int]):
        self.P, self.cols = P, list(cols)
        solved = set(self.cols)
        self.rest = [j for j in range(P.cols) if j not in solved]
        r, m = P.rows, len(self.rest)
        columns = [list(col) for col in zip(*P.data)] if r else [[] for _ in range(P.cols)]
        self._solved_cols = [columns[j] for j in self.cols]
        self._rest_cols = [columns[j] for j in self.rest]
        snf = smith_normal_form(IntMatrix.adopt(self._rest_cols, r))
        d, self.rank = snf.invariant_factors, snf.rank
        D = d[-1] if d else 1
        scaled = [{t: D // dk * a for t, a in u.items()} for dk, u in zip(d, snf.u_rows)]
        L = (snf.V * IntMatrix.from_sparse(scaled, m)).data if self.rank == r else []
        g = gcd(D, *(a for row in L for a in row))
        self.L, self.D = [[a // g for a in row] for row in L], D // g  # y = L c_Q / D
        if any(sum(map(mul, row, q)) != self.D * (i == k) for i, row in enumerate(self.L)
               for k, q in enumerate(zip(*self._rest_cols))):
            raise RuntimeError("internal invariant broken: L·Qᵀ ≠ D·I in the relation lattice")

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
