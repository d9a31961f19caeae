import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from sl2cox.exactmath import (
    EmptySolutionSet,
    FinAbGroup,
    IntMatrix,
    RelationLattice,
    cokernel,
    rat,
    smith_normal_form,
    solve_nonneg,
)

from gaussian_oracle import GaussianRational, gauss, gauss_ipow
from test_classgroup import dense_smith_normal_form, solve_integer
from test_classgroup import rank as dense_rank


def det(M: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    m = [row[:] for row in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gcd_of_minors(M: IntMatrix, k: int) -> int:
    """gcd of all k x k minors; independent oracle for invariant factors."""
    if k == 0:
        return 1
    g = 0
    for rs in combinations(range(M.rows), k):
        for cs in combinations(range(M.cols), k):
            sub = IntMatrix([[M.data[i][j] for j in cs] for i in rs], cols=k)
            g = gcd(g, abs(det(sub)))
    return g


def snf_oracle_factors(M: IntMatrix):
    """Independent invariant-factor oracle: d_k = gcd(k-minors)/gcd((k-1)-minors)."""
    out = []
    prev = 1
    for k in range(1, min(M.rows, M.cols) + 1):
        g = gcd_of_minors(M, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def rational_solution(A: IntMatrix, b, moduli=None):
    """Independent oracle on the exact rows: Fraction Gauss-Jordan gives
    (rank, x) with x the rational solution when the rank is full and the
    rows are consistent, else None."""
    mods = list(moduli) if moduli else [0] * A.rows
    n = A.cols
    m = [[Fraction(a) for a in A.data[i]] + [Fraction(b[i])]
         for i in range(A.rows) if not mods[i]]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [a / m[rank][col] for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a - m[i][col] * c for a, c in zip(m[i], m[rank])]
        rank += 1
    consistent = all(row[n] == 0 for row in m[rank:])
    x = [m[k][n] for k in range(n)] if rank == n and consistent else None
    return rank, x


def lattice_system(A: IntMatrix, moduli=None) -> RelationLattice:
    """A x = b (row i taken mod moduli[i] when > 0) as a relation lattice:
    Z^(k + rows) for k = A.cols, modulo the rows (-e_j, column j of A), one
    per unknown, and (0, moduli[i] e_i), solved on the first k columns.  The
    class (0, b) is x plus a relation iff A x = b, so ``solve`` reads x off
    its numerators; the rank is that of the exact rows plus the number of
    moduli, full iff the exact rows have rank k."""
    mods = list(moduli) if moduli else [0] * A.rows
    k = A.cols
    rows = [[-int(t == j) for t in range(k)] + [row[j] for row in A.data] for j in range(k)]
    rows += [[0] * k + [m * int(t == i) for t in range(A.rows)] for i, m in enumerate(mods) if m]
    return RelationLattice(IntMatrix(rows, cols=k + A.rows), range(k))


def solve(A: IntMatrix, b, moduli=None):
    lattice = lattice_system(A, moduli)
    return solve_nonneg(lattice, lattice.numerators([0] * A.cols + list(b)))


# the 4x8 presentation matrix of the four-point example
P4x8 = IntMatrix([
    [-1, -2, 1, 3, 0, 0, 0, 0],
    [-1, -2, 0, 0, 1, 1, 0, 0],
    [-1, -2, 0, 0, 0, 0, 1, 5],
    [1, -1, 0, -5, 0, -1, 0, -4],
])

# the 3x4 affine matrix for (n, h, l) = (3, 1, -1), u = 1
P3x4 = IntMatrix([
    [-1, 3, 1, 0],
    [-1, 0, 0, 3],
    [1, -1, -1, -1],
])


class TestSmithNormalForm:
    def test_identity(self):
        s = smith_normal_form(IntMatrix.identity(2))
        assert s.invariant_factors == (1, 1)
        assert s.D == IntMatrix.identity(2)

    def test_example_4x8(self):
        s = smith_normal_form(P4x8)
        assert (s.U * P4x8 * s.V) == s.D
        assert s.invariant_factors == (1, 1, 1, 1)
        assert s.invariant_factors == snf_oracle_factors(P4x8)

    def test_example_affine(self):
        s = smith_normal_form(P3x4)
        assert s.invariant_factors == snf_oracle_factors(P3x4)
        grp, _, _ = cokernel(P3x4)
        # cokernel Z x Z/1 = Z, consistent with d = gcd(3, 1) = 1
        assert grp == FinAbGroup(1)

    def test_empty_and_zero(self):
        s = smith_normal_form(IntMatrix([], cols=3))
        assert s.invariant_factors == ()
        s = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
        assert s.invariant_factors == ()

    def test_random_properties(self):
        rng = random.Random(1729)
        for _ in range(200):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            M = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)]
                           for _ in range(rows)])
            s = smith_normal_form(M)
            assert (s.U * M * s.V) == s.D
            assert abs(det(s.U)) == 1
            assert abs(det(s.V)) == 1
            for a, b in zip(s.invariant_factors, s.invariant_factors[1:]):
                assert b % a == 0
            for i in range(s.D.rows):
                for j in range(s.D.cols):
                    if i != j:
                        assert s.D.data[i][j] == 0

    def test_minor_oracle_agreement(self):
        rng = random.Random(31337)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)]
                           for _ in range(rows)])
            assert smith_normal_form(M).invariant_factors == snf_oracle_factors(M)


    def test_same_operations_as_the_dense_oracle(self):
        # U, D and V equal the dense routine's, entry for entry, and the
        # certificate holds: 0 x n, n x 0 and zero matrices, negative and
        # non-unit pivots (entries drawn from multiples of 2 or 3, or with
        # no entry of absolute value 1), torsion, and tall-thin matrices up
        # to 300 x 8 as sparse as a presentation matrix's transpose
        rng = random.Random(2023)
        shapes = [(0, 3), (3, 0), (0, 0), (4, 4), (300, 8)]
        cases = [IntMatrix([[0] * c for _ in range(r)], cols=c) for r, c in shapes]
        for trial in range(600):
            kind = trial % 4
            rows, cols = ((rng.randint(100, 300), rng.randint(1, 8)) if trial % 30 == 0
                          else (rng.randint(0, 12), rng.randint(0, 8)))
            draw = {0: lambda: rng.randint(-20, 20),
                    1: lambda: rng.choice((2, 3)) * rng.randint(-6, 6),
                    2: lambda: rng.choice((-1, 1)) * rng.randint(2, 9),
                    3: lambda: rng.choice((0, 0, 0, 1, -1, rng.randint(-80, 80)))}[kind]
            cases.append(IntMatrix([[draw() for _ in range(cols)] for _ in range(rows)],
                                   cols=cols))
        torsion = tall = 0
        for M in cases:
            s = smith_normal_form(M)
            assert (s.U, s.D, s.V) == dense_smith_normal_form(M)
            assert s.certifies(M)
            torsion += any(f > 1 for f in s.invariant_factors)
            tall += M.rows >= 100
        assert torsion > 100 and tall >= 20

    def test_the_certificate_sees_a_wrong_entry(self):
        M = IntMatrix([[2, 4], [6, 9], [1, 0]])
        s = smith_normal_form(M)
        assert s.certifies(M)
        assert not s.certifies(IntMatrix([[2, 4], [6, 9], [1, 1]]))
        row = dict(s.u_rows[1])
        row[0] = row.get(0, 0) + 1
        assert not replace(s, u_rows=(s.u_rows[0], row, *s.u_rows[2:])).certifies(M)

    def test_the_certificate_sees_a_wrong_entry_of_V_or_D(self):
        # M has full column rank, so no column of U·M is zero and a change of
        # any entry of V moves (U·M)·V: each stored entry of each column of V,
        # and each entry a column leaves out, in turn; D is its diagonal, so
        # each invariant factor in turn.  The zero row of M is skipped by the
        # fold
        M = IntMatrix([[2, 4, 1], [0, 0, 0], [6, 9, 0], [1, 0, 3], [0, 5, -2]])
        s = smith_normal_form(M)
        assert s.certifies(M) and s.rank == 3
        wrong, added = [], 0
        for j, col in enumerate(s.v_cols):
            for k in range(M.cols):
                added += k not in col
                v = dict(col)
                v[k] = v.get(k, 0) + 1
                wrong.append(replace(s, v_cols=(*s.v_cols[:j], v, *s.v_cols[j + 1:])))
        for i in range(s.rank):
            d = list(s.invariant_factors)
            d[i] += 1
            wrong.append(replace(s, invariant_factors=tuple(d)))
        assert added and len(wrong) == 12
        for i, w in enumerate(wrong):
            assert not w.certifies(M), i


class TestCokernel:
    def test_zero_matrix(self):
        grp, rows, _ = cokernel(IntMatrix([[0, 0, 0]], cols=3))
        U = IntMatrix.from_sparse(rows, 3)
        assert grp == FinAbGroup(3)
        # the change of basis must be unimodular on Z^3
        assert abs(det(U)) == 1

    def test_single_relation(self):
        grp, _, _ = cokernel(IntMatrix([[2]], cols=1))
        assert grp == FinAbGroup(0, (2,))

    def test_row_operations_invariance(self):
        rng = random.Random(207)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            M = IntMatrix(data)
            g1, U, _ = cokernel(M)
            assert abs(det(IntMatrix.from_sparse(U, cols))) == 1
            # permute rows, negate one, add one row to another
            perm = data[:]
            rng.shuffle(perm)
            perm = [row[:] for row in perm]
            perm[0] = [-x for x in perm[0]]
            if rows > 1:
                perm[1] = [a + b for a, b in zip(perm[1], perm[0])]
            g2, _, _ = cokernel(IntMatrix(perm))
            assert g1 == g2

    def test_images_kill_relations(self):
        grp, rows, _ = cokernel(P4x8)
        U = IntMatrix.from_sparse(rows, P4x8.cols)
        n = grp.free_rank + len(grp.torsion)
        for row in P4x8.data:
            img = [0] * n
            for j, c in enumerate(row):
                col = [U.data[i][j] for i in range(n)]
                img = [a + c * x for a, x in zip(img, col)]
            assert grp.reduce(img) == tuple([0] * n)


class TestSolveNonneg:
    def test_zero_rhs_contains_origin(self):
        A = IntMatrix([[1, 2], [3, 4]])
        assert (0, 0) in solve(A, [0, 0])

    def test_unique_solution(self):
        A = IntMatrix([[1, 0], [0, 1]])
        assert solve(A, [3, 4]) == [(3, 4)]

    def test_empty_raises(self):
        A = IntMatrix([[2]])
        with pytest.raises(EmptySolutionSet):
            solve(A, [3])

    def test_brute_force_agreement(self):
        # wide, square and tall systems; planted x0 may be negative and b
        # may be perturbed, so empty, fractional and modular failures occur;
        # systems without full exact-row rank must raise instead
        rng = random.Random(99)
        full = 0
        for _ in range(400):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 4)
            A = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)]
                           for _ in range(rows)])
            mods = [rng.choice([0, 0, 0, 2, 3]) for _ in range(rows)]
            x0 = [rng.randint(-1, 5) for _ in range(cols)]
            b = A.mulvec(x0)
            if rng.random() < 0.25:
                b[rng.randrange(rows)] += rng.choice([-1, 1])
            rank, x = rational_solution(A, b, mods)
            assert lattice_system(A, mods).rank == rank + sum(map(bool, mods))
            if rank < cols:
                with pytest.raises(ValueError):
                    solve(A, b, mods)
                continue
            full += 1
            try:
                (got,) = solve(A, b, mods)
            except EmptySolutionSet:
                assert (x is None or any(v.denominator != 1 or v < 0 for v in x)
                        or any((v - t) % m for v, t, m in zip(A.mulvec(x), b, mods) if m))
                continue
            vals = A.mulvec(list(got))
            assert all((v - t) % m == 0 if m else v == t for v, t, m in zip(vals, b, mods))
            assert list(got) == x and min(got, default=0) >= 0
        assert full >= 150

    def test_non_integral_candidate(self):
        A = IntMatrix([[1, 1], [1, -1]])
        with pytest.raises(EmptySolutionSet):
            solve(A, [3, 0])  # x = (3/2, 3/2)
        assert solve(A, [4, 0]) == [(2, 2)]

    def test_negative_candidate(self):
        A = IntMatrix([[1, 1], [1, -1]])
        with pytest.raises(EmptySolutionSet):
            solve(A, [1, 3])  # x = (2, -1)

    def test_candidate_checked_against_every_row(self):
        A = IntMatrix([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(EmptySolutionSet, match="torsion part"):
            solve(A, [1, 2, 0], [0, 0, 2])  # 1 + 2 is odd
        assert solve(A, [1, 2, 1], [0, 0, 2]) == [(1, 2)]
        with pytest.raises(EmptySolutionSet, match="exact rows"):
            solve(A, [1, 2, 4])  # the exact row after the pivots

    def test_dependent_rows_ahead_of_independent_ones(self):
        A = IntMatrix([[1, 2], [2, 4], [3, 6], [0, 1]])
        assert solve(A, [5, 10, 15, 2]) == [(1, 2)]
        with pytest.raises(EmptySolutionSet):
            solve(A, [5, 11, 15, 2])  # the second row is inconsistent

    def test_rank_deficient_system_raises(self):
        for A in (IntMatrix([[1, 1], [2, 2], [3, 3]]), IntMatrix([[1, 1]])):
            assert lattice_system(A).rank == 1
            with pytest.raises(ValueError):
                solve(A, A.mulvec([1, 2]))

    def test_no_unknowns(self):
        A = IntMatrix([[], []], cols=0)
        assert solve(A, [0, 6], [0, 3]) == [()]
        with pytest.raises(EmptySolutionSet):
            solve(A, [0, 1], [0, 3])

    def test_square_system_finds_planted_solution(self):
        # exponents far above any fixed cap, all from one factorization
        rng = random.Random(7)
        for n in (8, 20):
            while True:
                A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                if det(A):
                    break
            lattice = lattice_system(A)
            assert lattice.rank == n
            for _ in range(5):
                x0 = tuple(rng.randint(0, 400) for _ in range(n))
                X = lattice.numerators([0] * n + A.mulvec(list(x0)))
                assert solve_nonneg(lattice, X) == [x0]


class TestSolveInteger:
    """``RelationLattice.solve`` of ``lattice_system``: the integer solution
    at full column rank."""

    def test_roundtrip(self):
        # planted x of either sign; rows taken mod 4 constrain nothing more
        rng = random.Random(5)
        full = 0
        for _ in range(120):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 4)
            A = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)]
                           for _ in range(rows)])
            x0 = tuple(rng.randint(-5, 5) for _ in range(cols))
            mods = [rng.choice([0, 0, 4]) for _ in range(rows)]
            lattice = lattice_system(A, mods)
            if lattice.rank < lattice.P.rows:
                continue
            full += 1
            assert lattice.solve(lattice.numerators([0] * cols + A.mulvec(list(x0)))) == x0
        assert full >= 40

    def test_no_solution(self):
        lattice = lattice_system(IntMatrix([[2]]))
        with pytest.raises(EmptySolutionSet, match="exact rows"):
            lattice.solve(lattice.numerators([0, 3]))
        # x = -3 solves the exact row; the torsion row mod 4 decides
        lattice = lattice_system(IntMatrix([[1], [1]]), [0, 4])
        assert lattice.solve(lattice.numerators([0, -3, 1])) == (-3,)
        with pytest.raises(EmptySolutionSet, match="torsion part"):
            lattice.solve(lattice.numerators([0, -3, 2]))


class TestRelationLattice:
    """``RelationLattice``: Z^n modulo the rows of P, solved on some columns."""

    def test_brute_force_agreement(self):
        # c = x0 on the solved columns + P^T y0, sometimes moved by a unit or
        # by a fraction of a relation (a torsion class); the Smith-form solve
        # of [I_cols | P^T] (x, y) = c is the oracle, unique at rank Q = r
        rng = random.Random(22)
        seen = Counter()
        for _ in range(400):
            r, n = rng.randint(1, 3), rng.randint(2, 7)
            P = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)])
            cols = sorted(rng.sample(range(n), rng.randint(0, n - 1)))
            lattice = RelationLattice(P, cols)
            rest = [j for j in range(n) if j not in cols]
            if lattice.rank < r:
                assert dense_rank(IntMatrix([[row[j] for row in P.data] for j in rest], cols=r)) \
                    == lattice.rank
                with pytest.raises(ValueError):
                    lattice.numerators([0] * n)
                continue
            A = IntMatrix([[int(j == i) for i in cols] + [row[j] for row in P.data]
                           for j in range(n)])
            x0, y0 = [rng.randint(-2, 4) for _ in cols], [rng.randint(-3, 3) for _ in range(r)]
            c = A.mulvec(x0 + y0)
            kind = rng.choice(["planted", "unit", "torsion"])
            if kind == "unit":
                c[rng.randrange(n)] += rng.choice([-1, 1])
            elif kind == "torsion":
                d, row = rng.randint(2, 3), rng.randrange(r)
                if any(a % d for a in P.data[row]):
                    continue
                c = [t + a // d for t, a in zip(c, P.data[row])]
            sol = solve_integer(A, c, [0] * n)
            try:
                x = lattice.solve(lattice.numerators(c))
            except EmptySolutionSet as exc:
                assert sol is None, (P.data, cols, c)
                seen[str(exc)] += 1
                continue
            assert sol is not None and list(x) == list(sol[:len(cols)]), (P.data, cols, c)
            seen["solved"] += 1
        assert min(seen.values()) >= 5 and len(seen) == 3

    def test_numerators_add(self):
        P = IntMatrix([[2, 1, 0, 3], [0, 2, 2, 1]])
        lattice = RelationLattice(P, [3])
        a, b = [1, 2, 3, 4], [-5, 0, 7, 1]
        total = [s + t for s, t in zip(lattice.numerators(a), lattice.numerators(b))]
        assert total == list(lattice.numerators([s + t for s, t in zip(a, b)]))


class TestRat:
    @pytest.mark.parametrize("text", ["0", "-0", "7", "-12", " -3 ", "+4", "6/4", "-6/4", "1.5",
                                      "2e3", "١٢", "-١٢", "0012", "-0012"])
    def test_strings_read_as_fraction_reads_them(self, text):
        # integer strings skip Fraction's parser; the value must not change
        assert rat(text) == Fraction(text.strip())

    @pytest.mark.parametrize("text", ["", "-", "--1", "1-", "- 1", "1_0 0", "i"])
    def test_bad_strings_raise_as_fraction_does(self, text):
        with pytest.raises(ValueError):
            Fraction(text.strip())
        with pytest.raises(ValueError):
            rat(text)


class TestGaussianRational:
    def test_field_ops(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == gauss(-1)
        z = gauss("3/2") + i
        assert z * z.inverse() == gauss(1)
        assert (z - z) == gauss(0)
        assert str(gauss({"re": "1", "im": "-2"})) == "1-2i"

    def test_ipow(self):
        assert gauss_ipow(0) == gauss(1)
        assert gauss_ipow(2) == gauss(-1)
        assert gauss_ipow(-1) == gauss_ipow(3)
