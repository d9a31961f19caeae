import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from sl2cox import classgroup as cg
from sl2cox.coxring import full_cox_presentation_cyclic
from sl2cox.embedding import EmbeddingData, GStableDivisorSpec, affine_embedding
from sl2cox.exactmath import (
    EmptySolutionSet,
    FinAbGroup,
    IntMatrix,
    RelationLattice,
    cokernel,
    smith_normal_form,
)
from sl2cox.groups import ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import X0, XE, XF, XINF, XV, point
from sl2cox.iteration import torsion_characters

from test_embedding import mu3_example, trivial_four_points

PRINTED_P = [
    [-1, -2, 1, 3, 0, 0, 0, 0],
    [-1, -2, 0, 0, 1, 1, 0, 0],
    [-1, -2, 0, 0, 0, 0, 1, 5],
    [1, -1, 0, -5, 0, -1, 0, -4],
]


class TestPresentationMatrix:
    def test_trivial_example_entry_for_entry(self):
        R = cg.class_group(trivial_four_points())
        gens, P = R.generators, R.presentation
        assert [g.label for g in gens] == [
            "E[x1]", "X[x1,0]", "E[x2]", "X[x2,0]",
            "E[x3]", "X[x3,0]", "E[x4]", "X[x4,0]"]
        assert P.data == PRINTED_P

    def test_affine_matrix(self):
        R = cg.class_group(affine_embedding(3, 1, -1))
        gens, P = R.generators, R.presentation
        assert [g.label for g in gens] == ["Dxd", "E[x0]", "X[x0,0]", "E[xinf]"]
        assert P.data == [[-1, 3, 1, 0], [-1, 0, 0, 3], [1, -1, -1, -1]]

    def test_affine_matrix_even(self):
        # n = 4: nbar = 2, u = 2, l = -3/2; the l-row is cleared by u
        P = cg.class_group(affine_embedding(4, 1, Fraction(-3, 2))).presentation
        assert P.data == [[-1, 2, 1, 0], [-1, 0, 0, 2], [2, -1, -3, -1]]

    def test_single_point_no_divisors(self):
        # X = G/mu_n with no boundary: Cl = Z/n
        for n in (1, 2, 3, 5, 6):
            E = EmbeddingData(cyclic(n))
            R = cg.class_group(E)
            expected = FinAbGroup(0, (n,)) if n > 1 else FinAbGroup(0)
            assert R.group == expected, n


class TestClassGroup:
    def test_trivial_example_group_and_identities(self):
        # each color written in the invariant divisors, the printed basis
        R = cg.class_group(trivial_four_points())
        assert R.group == FinAbGroup(4)
        assert R.divisor_labels == ["X[x1,0]", "X[x2,0]", "X[x3,0]", "X[x4,0]"]
        expected = {
            "E[x1]": (1, 5, 1, 4),
            "E[x2]": (3, 2, 1, 4),
            "E[x3]": (3, 5, 0, 4),
            "E[x4]": (3, 5, 1, -1),
        }
        for lbl, coeffs in expected.items():
            assert R.lattice.solve(R.numerators({lbl: 1})) == coeffs

    def test_solving_needs_independent_labels(self):
        # five classes in Cl = Z^4 are dependent: the relations keep rank 3
        # off them, below the 4 unknowns, so no unique solve exists
        R = cg.class_group(trivial_four_points())
        lattice = RelationLattice(R.presentation, [0, 1, 3, 5, 7])
        assert lattice.rank == 3
        with pytest.raises(ValueError, match="rank 3 off the solved columns in 4 unknowns"):
            lattice.numerators([0, 1, 0, 0, 0, 0, 0, 0])

    def test_unsolvable_target(self):
        # Cl = Z x Z/4: E[x0] is (1, 0) and X[x0,0] is (-1, 1); no integer
        # multiple of X[x0,0] has free part -1 and torsion part 0
        R = cg.class_group(affine_embedding(4, 6, Fraction(-7, 2)))
        assert R.divisor_labels == ["X[x0,0]"]
        with pytest.raises(EmptySolutionSet, match="torsion part of the class obstructs"):
            R.lattice.solve(R.numerators({"E[x0]": -1}))
        assert R.lattice.solve(R.numerators({"X[x0,0]": 3})) == (3,)

    def test_corrupted_smith_form_raises(self, corrupted_smith_form):
        with pytest.raises(RuntimeError, match="internal invariant broken"):
            cg.class_group(mu3_example())

    def test_mu3_free_rank_3(self):
        R = cg.class_group(mu3_example())
        assert R.group == FinAbGroup(3)

    def test_affine_d_formula(self):
        from math import gcd

        for n in range(1, 13):
            nb = n if n % 2 else n // 2
            u = 1 if n % 2 else 2
            for h in range(1, 11):
                lo = -Fraction(h, 2) - Fraction(h, 2 * nb)
                hi = -Fraction(h, 2)
                l = hi
                while l > lo:
                    if (u * l).denominator == 1:
                        E = affine_embedding(n, h, l)
                        if not E.validate():
                            R = cg.class_group(E)
                            if n % 2 or (h + 2 * l) % 2 == 0:
                                d = gcd(n, h)
                            else:
                                d = gcd(nb + h, nb - h)
                            tor = (d,) if d > 1 else ()
                            assert R.group == FinAbGroup(1, tor), (n, h, l)
                    l -= Fraction(1, u)

    def test_images_satisfy_presentation_rows(self):
        for E in (trivial_four_points(), mu3_example(), affine_embedding(4, 6, Fraction(-7, 2))):
            R = cg.class_group(E)
            n = R.group.free_rank + len(R.group.torsion)
            labels = [g.label for g in R.generators]
            for row in R.presentation.data:
                combo = {lbl: c for lbl, c in zip(labels, row)}
                assert R.image_of(combo) == tuple([0] * n)

    def test_invariant_under_extra_point_permutation(self):
        E1 = mu3_example()
        x1 = point(2, 3)
        x2 = point(1, 1)
        Ea = EmbeddingData(cyclic(3), (x1, x2), (
            GStableDivisorSpec(X0, 1, -1), GStableDivisorSpec(XINF, 1, -1),
            GStableDivisorSpec(x1, 1, -1), GStableDivisorSpec(x2, 2, -1)))
        Eb = EmbeddingData(cyclic(3), (x2, x1), (
            GStableDivisorSpec(X0, 1, -1), GStableDivisorSpec(XINF, 1, -1),
            GStableDivisorSpec(x1, 1, -1), GStableDivisorSpec(x2, 2, -1)))
        assert cg.class_group(Ea).group == cg.class_group(Eb).group

    def test_torsion_free_for_trivial_and_icosahedral(self):
        cases = [
            EmbeddingData(cyclic(1), (point(1, 1),),
                          (GStableDivisorSpec(point(1, 1), 3, -2),)),
            EmbeddingData(ICOSA, (), (GStableDivisorSpec(XV, 1, -2),)),
            EmbeddingData(ICOSA, (point(1, 2),), (
                GStableDivisorSpec(XV, 1, -2), GStableDivisorSpec(point(1, 2), 2, -3))),
        ]
        for E in cases:
            assert not E.validate()
            assert cg.class_group(E).group.torsion == ()


def dense_smith_normal_form(M: IntMatrix, pivots: list | None = None
                            ) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Oracle: (U, D, V) with U M V = D, by elementary operations on dense
    row-major matrices, U rewritten one full row per row operation.  Pivot
    rule, balanced quotients and fold rule are those ``smith_normal_form``
    must reproduce exactly, on a column-major M and sparse rows of U.  Each
    round's pivot, made positive, is appended to ``pivots`` when given."""
    rows, cols = M.rows, M.cols
    d = [row[:] for row in M.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [a - q * b for a, b in zip(d[i], d[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    t = 0
    while True:
        pivot, best = None, None
        for i in range(t, rows):  # the first minimal |a| in row-major order
            for j in range(t, cols):
                if d[i][j] and (best is None or abs(d[i][j]) < best):
                    best, pivot = abs(d[i][j]), (i, j)
        if pivot is None:
            break
        i, j = pivot
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        for r in range(rows):
            d[r][t], d[r][j] = d[r][j], d[r][t]
        for r in range(cols):
            v[r][t], v[r][j] = v[r][j], v[r][t]
        if d[t][t] < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
        p = d[t][t]
        if pivots is not None:
            pivots.append(p)
        for i in range(t + 1, rows):
            if d[i][t]:
                row_op(i, t, (d[i][t] + p // 2) // p)
        for j in range(t + 1, cols):
            if d[t][j]:
                col_op(j, t, (d[t][j] + p // 2) // p)
        if any(d[i][t] for i in range(t + 1, rows)) or \
                any(d[t][j] for j in range(t + 1, cols)):
            continue
        # fold the first row holding an entry the pivot does not divide
        fold = next((i for i in range(t + 1, rows)
                     if any(d[i][j] % p for j in range(t + 1, cols))), None)
        if fold is not None:
            row_op(t, fold, -1)
            continue
        t += 1
    return IntMatrix(u, cols=rows), IntMatrix(d, cols=cols), IntMatrix(v, cols=cols)


def dense_u(R: cg.ClassGroupResult) -> IntMatrix:
    """The cokernel's U, dense, from its sparse rows."""
    return IntMatrix.from_sparse(R.basis_rows, len(R.generators))


def dense_images(R: cg.ClassGroupResult) -> tuple[FinAbGroup, IntMatrix, dict]:
    """Oracle: the group, the cokernel's U and the generators' images, from
    ``dense_smith_normal_form`` of Pᵀ, rows ordered free part, torsion part,
    then the rest."""
    P = R.presentation
    U, D, _ = dense_smith_normal_form(P.transpose())
    factors = [D.data[i][i] for i in range(min(D.rows, D.cols)) if D.data[i][i]]
    rank = len(factors)
    order = ([*range(rank, P.cols)] + [i for i in range(rank) if factors[i] > 1]
             + [i for i in range(rank) if factors[i] == 1])
    group = FinAbGroup(P.cols - rank, tuple(f for f in factors if f > 1))
    k = group.free_rank + len(group.torsion)
    images = {g.label: group.reduce([U.data[i][j] for i in order[:k]])
              for j, g in enumerate(R.generators)}
    return group, IntMatrix([U.data[i] for i in order], cols=P.cols), images


def rank(M: IntMatrix) -> int:
    """Oracle: the rank of M, the number of non-zero diagonal entries of
    ``dense_smith_normal_form``."""
    _, D, _ = dense_smith_normal_form(M)
    return sum(1 for i in range(min(D.rows, D.cols)) if D.data[i][i])


def adapted(R: cg.ClassGroupResult, labels) -> tuple[IntMatrix, list[int]]:
    """(A, moduli): the columns of A are the labels' adapted coordinates
    (``R.images``), row i read modulo moduli[i], 0 on the free part."""
    n = R.group.free_rank + len(R.group.torsion)
    A = IntMatrix([[R.images[lbl][i] for lbl in labels] for i in range(n)], cols=len(labels))
    return A, [0] * R.group.free_rank + list(R.group.torsion)


class AdaptedOracle:
    """Oracle: a class {label: coeff} in the invariant divisors, solved in
    the adapted coordinates of the Smith form by ``solve_integer`` over the
    divisors' images: on the free rows alone, where they have full column
    rank and so a unique solution, then again with the torsion moduli."""

    def __init__(self, R: cg.ClassGroupResult):
        self.R = R
        self.A, self.moduli = adapted(R, R.divisor_labels)
        free = R.group.free_rank
        self.free = IntMatrix(self.A.data[:free], cols=self.A.cols)
        assert rank(self.free) == len(R.divisor_labels)

    def __call__(self, combo: dict) -> tuple[int, ...]:
        b = self.R.image_of(combo)
        x = solve_integer(self.free, b[:self.free.rows], [0] * self.free.rows)
        if x is None:
            raise EmptySolutionSet("no integer x solves the exact rows")
        if solve_integer(self.A, b, self.moduli) is None:
            raise EmptySolutionSet("free parts match but the torsion part of the class obstructs")
        if min(x, default=0) < 0:
            raise EmptySolutionSet("no integer x >= 0 solves the exact rows")
        return x


def outcome(solve, *args):
    """What ``solve(*args)`` returned, or the type and message it raised."""
    try:
        return solve(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstDenseSmith:
    def test_many_divisors_match_the_dense_oracle(self):
        # mu_3 with the extra points [2:7], [5:11] and the divisors (1, -1),
        # ..., (1, -80) over each of its four points: 325 generators, five
        # relations; the group, U and every image as the dense routine's
        extras = (point(2, 7), point(5, 11))
        E = EmbeddingData(cyclic(3), extras, tuple(
            GStableDivisorSpec(p, 1, -j) for p in (X0, XINF) + extras for j in range(1, 81)))
        assert not E.validate()
        R = cg.class_group(E)
        assert len(R.generators) == 325 and R.presentation.rows == 5
        assert R.group == FinAbGroup(320)
        assert (R.group, dense_u(R), R.images) == dense_images(R)

    def test_small_inputs_match_the_dense_oracle(self):
        # every family, torsion included: the same U and images
        rng = random.Random(2323)
        with_torsion = 0
        for trial in range(60):
            family = list(FAMILIES)[trial % len(FAMILIES)]
            R = cg.class_group(_valid_embedding(rng, family))
            assert (R.group, dense_u(R), R.images) == dense_images(R)
            with_torsion += bool(R.group.torsion)
        assert with_torsion


def _sweep_embedding(rng, F, extras: int) -> EmbeddingData:
    """F with ``extras`` extra points and one to five divisors over every
    exceptional point, h in {1, 2} and l in the valuation cone, u*l even in
    about a third of the draws (torsion); redrawn until valid."""
    coords = [(a, b) for a in range(1, 8) for b in range(1, 8) if a != b and gcd(a, b) == 1]
    u, step = F.u, rng.choice((1, 1, 2))
    while True:
        points = tuple(point(*c) for c in rng.sample(coords, extras))
        divisors = []
        for p in EmbeddingData(F, points).exceptional_points():
            for _ in range(rng.randint(1, 5)):
                h = rng.randint(1, 2)
                lo = -(-u * h // 2) if F.is_cyclic else h
                ul = lo + rng.randint(0, 3)
                divisors.append(GStableDivisorSpec(p, h, -Fraction(ul + ul % step, u)))
        E = EmbeddingData(F, points, tuple(divisors))
        if not E.validate():
            return E


class TestSmithOnRelationMatrices:
    def test_a_seeded_sweep_takes_the_dense_oracle_steps(self):
        # the relation matrices class_group builds (``_relations``): cyclic
        # n <= 12 with 0-10 extra points, dihedral and the three polyhedral
        # groups with 0-3; the Smith form of Pᵀ, transposed as ``cokernel``
        # transposes it, has the oracle's U, D and V and certifies itself.
        # The sweep holds N >= 40 generators, matrices whose every pivot is
        # 1 (one sweep per round, no re-check) and matrices with a larger
        # pivot, torsion among them
        rng = random.Random("smith-on-relations")
        groups = [lambda: cyclic(rng.randint(1, 12))] * 4 + [
            lambda: dihedral(rng.randint(2, 6)), lambda: TETRA, lambda: OCTA, lambda: ICOSA]
        seen = Counter()
        for trial in range(320):
            F = groups[trial % len(groups)]()
            E = _sweep_embedding(rng, F, rng.randint(0, 10 if F.is_cyclic else 3))
            gens, _ = cg._walk(E)
            Pt = cg._relations(E, gens, cg._fibers(gens)).transpose()
            s, pivots = smith_normal_form(Pt), []
            assert (s.U, s.D, s.V) == dense_smith_normal_form(Pt, pivots)
            assert s.certifies(Pt)
            seen["N >= 40"] += Pt.rows >= 40
            seen["unit pivots"] += set(pivots) == {1}
            seen["larger pivot"] += max(pivots) > 1
            seen["torsion"] += any(f > 1 for f in s.invariant_factors)
            seen["polyhedral"] += not F.is_cyclic
        assert seen["N >= 40"] >= 25 and seen["unit pivots"] >= 70
        assert seen["larger pivot"] >= 200 and seen["torsion"] >= 15
        assert seen["polyhedral"] == 160


class TestExpress:
    def test_affine_exponent(self):
        # (6, 5, -4) has Cl = Z x Z/2 and needs the exponent 3
        for (n, h, l) in [(5, 7, -4), (6, 5, -4), (7, 9, -5)]:
            E = affine_embedding(n, h, l)
            assert E.validate() == [], (n, h, l)
            R = cg.class_group(E)
            labels, sols = cg.express_in_invariant_divisors(R, {"E[x0]": 1, "E[xinf]": 1})
            assert labels == ["X[x0,0]"]
            assert sols == [(-(h + 2 * l),)]

    def test_trivial_example_pairs(self):
        R = cg.class_group(trivial_four_points())
        labels, sols = cg.express_in_invariant_divisors(R, {"E[x1]": 1, "E[x2]": 1})
        assert sols == [(4, 7, 2, 8)]
        labels, sols = cg.express_in_invariant_divisors(R, {"E[x1]": 1, "E[x3]": 1})
        assert sols == [(4, 10, 1, 8)]

    def test_mu3_with_prescribed_powers(self):
        # [E^{x0}] + [E^{x1}] - 2[E^{xinf}] = r0 + 2 rinf + r1
        R = cg.class_group(mu3_example())
        labels, sols = cg.express_in_invariant_divisors(
            R, {"E[x0]": 1, "E[x1]": 1, "E[xinf]": -2})
        assert labels == ["X[x0,0]", "X[xinf,0]", "X[x1,0]"]
        assert sols == [(1, 2, 1)]

    def test_zero_target(self):
        R = cg.class_group(mu3_example())
        _, sols = cg.express_in_invariant_divisors(R, {})
        assert (0, 0, 0) in sols
        with pytest.raises(KeyError):  # as R.image_of does
            cg.express_in_invariant_divisors(R, {"X[x9,0]": 1})

    def test_empty_with_torsion_diagnostic(self):
        E = affine_embedding(4, 6, Fraction(-7, 2))  # Cl = Z x Z/4
        R = cg.class_group(E)
        with pytest.raises(EmptySolutionSet):
            cg.express_in_invariant_divisors(R, {"E[x0]": 1})

    def test_torsion_obstruction_message(self):
        # E[x0] has image (1, 0) and X[x0,0] (-1, 1): -E[x0] = X[x0,0] on the
        # free part, but the torsion parts 0 and 1 differ
        R = cg.class_group(affine_embedding(4, 6, Fraction(-7, 2)))
        with pytest.raises(EmptySolutionSet) as exc:
            cg.express_in_invariant_divisors(R, {"E[x0]": -1})
        assert str(exc.value) == "free parts match but the torsion part of the class obstructs"

    def test_dependent_invariant_divisors_raise(self):
        # a relation among the invariant divisors alone breaks the
        # independence the solver relies on; a repeated relation breaks the
        # uniqueness of the relation coefficients
        R = cg.class_group(mu3_example())
        P = R.presentation
        among = [int(g.label == "X[x0,0]") - int(g.label == "X[xinf,0]") for g in R.generators]
        broken = replace(R, presentation=IntMatrix(P.data + [among]))
        group, rows, _ = cokernel(broken.presentation)  # the oracle sees the relation
        U = IntMatrix.from_sparse(rows, broken.presentation.cols)
        k = group.free_rank + len(group.torsion)
        image = {g.label: group.reduce([U.data[i][j] for i in range(k)])
                 for j, g in enumerate(R.generators)}
        assert image["X[x0,0]"] == image["X[xinf,0]"]
        with pytest.raises(RuntimeError, match="invariant divisors dependent"):
            cg.express_in_invariant_divisors(broken, {})
        repeated = replace(R, presentation=IntMatrix(P.data + [P.data[0]]))
        with pytest.raises(RuntimeError, match=f"{P.rows + 1} relations of rank {P.rows}"):
            cg.express_in_invariant_divisors(repeated, {})
        assert cg.express_in_invariant_divisors(R, {}) == (R.divisor_labels, [(0, 0, 0)])


COORDS = [(1, 1), (2, 1), (3, 1), (1, 3), (5, 2), (2, 5), (3, 7)]
FAMILIES = {
    "cyclic": lambda rng: cyclic(rng.randint(3, 12)),
    "n<=2": lambda rng: cyclic(rng.randint(1, 2)),
    "dihedral": lambda rng: dihedral(rng.randint(2, 6)),
    "tetrahedral": lambda rng: TETRA,
    "octahedral": lambda rng: OCTA,
    "icosahedral": lambda rng: ICOSA,
}


def _random_embedding(rng, family: str) -> EmbeddingData:
    """Up to three extra points and up to three divisors over every
    exceptional point, sometimes a dominating divisor; may be invalid."""
    if family == "affine":
        l = -Fraction(rng.randint(1, 12), rng.choice([1, 2]))
        return affine_embedding(rng.randint(1, 9), rng.randint(1, 9), l)
    F = FAMILIES[family](rng)
    k = rng.randint(1 if F.n <= 2 else 0, 3)
    extras = tuple(point(*c) for c in rng.sample(COORDS, k))
    divisors = [GStableDivisorSpec(p, rng.randint(1, 4),
                                   -Fraction(rng.randint(1, 9), rng.choice([1, 1, 2])))
                for p in EmbeddingData(F, extras).exceptional_points()
                for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.2:
        divisors.append(GStableDivisorSpec(None, 0, -1))
    return EmbeddingData(F, extras, tuple(divisors))


class TestRankCertificate:
    @pytest.mark.parametrize("family", [*FAMILIES, "affine"])
    def test_invariant_divisors_have_full_rank(self, family):
        # the lattice certificate (rank off the divisors = rank P = rows of
        # P) holds, and the divisors' adapted images have full rank
        rng = random.Random(f"rank-{family}")
        valid = 0
        for _ in range(600):
            E = _random_embedding(rng, family)
            if E.validate():
                continue
            R = cg.class_group(E)
            lattice = R.lattice
            assert lattice.rank == R.presentation.rows, E
            assert rank(R.presentation) == lattice.rank, E
            AdaptedOracle(R)  # asserts the full rank of the divisors' free images
            valid += 1
            if valid == 20:
                break
        assert valid == 20

    def test_one_factorization_per_presentation(self, monkeypatch):
        # one lattice elimination per class group
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(RelationLattice, "__init__",
                            counting("lattice", RelationLattice.__init__))
        monkeypatch.setattr(RelationLattice, "solve", counting("solve", RelationLattice.solve))
        extras = (point(1, 1), point(2, 1))
        E = EmbeddingData(cyclic(5), extras, tuple(
            GStableDivisorSpec(p, 1, -j) for p in (X0, XINF) + extras for j in (1, 2)))
        full_cox_presentation_cyclic(E)
        assert counts["solve"] > 1
        assert counts["lattice"] == 1


class TestRestriction:
    def test_invariant_divisors_restrict_to_zero(self):
        R = cg.class_group(mu3_example())
        assert cg.restrict_to_Fhat(R, {"X[x0,0]": 1, "X[x1,0]": 5}) == (0,)

    def test_cyclic_weights(self):
        R = cg.class_group(mu3_example())
        assert cg.restrict_to_Fhat(R, {"E[x0]": 1}) == (1,)
        assert cg.restrict_to_Fhat(R, {"E[xinf]": 1}) == (2,)
        assert cg.restrict_to_Fhat(R, {"E[x1]": 1}) == (0,)  # nbar mod n

    def test_tetrahedral_weights(self):
        R = cg.class_group(EmbeddingData(TETRA, (), (GStableDivisorSpec(XV, 1, -2),)))
        assert cg.restrict_to_Fhat(R, {"E[xv]": 1}) == (1,)
        assert cg.restrict_to_Fhat(R, {"E[xe]": 1}) == (0,)
        assert cg.restrict_to_Fhat(R, {"E[xf]": 1}) == (2,)

    def test_torsion_injects_into_Fhat(self):
        # exactness of 0 -> Z^{N+N'} -> Cl(X) -> F-hat -> 0 on torsion
        from sl2cox.iteration import torsion_characters

        sweep = []
        for n in range(2, 13):
            nb = n if n % 2 else n // 2
            u = 1 if n % 2 else 2
            for h in (1, 2, 3, 5):
                l = -Fraction(h, 2)
                if (u * l).denominator != 1:
                    l -= Fraction(1, u)
                E = affine_embedding(n, h, l)
                if not E.validate():
                    sweep.append(E)
        for F, divs in [
            (dihedral(2), ((XF, 1, -1),)),
            (dihedral(3), ((XF, 1, -2),)),
            (dihedral(4), ((XV, 1, -2),)),
            (TETRA, ((XV, 1, -2),)),
            (OCTA, ((XV, 1, -2),)),
        ]:
            sweep.append(EmbeddingData(
                F, (), tuple(GStableDivisorSpec(p, h, Fraction(l)) for p, h, l in divs)))
        for E in sweep:
            assert not E.validate(), E
            R = cg.class_group(E)
            chars = torsion_characters(E)
            assert len(chars) == R.group.torsion_order(), (E.group, R.group)

    def test_torsion_lift_agrees_with_smith_oracle(self):
        # each torsion basis vector lifted by an independent Smith-form solve
        # of the generator images restricts to the same characters
        rng = random.Random("torsion-lift")
        with_torsion = 0
        for family in ("cyclic", "n<=2", "dihedral", "tetrahedral", "octahedral",
                       "icosahedral"):
            for _ in range(170):
                E = _valid_embedding(rng, family)
                R = cg.class_group(E)
                labels = [g.label for g in R.generators]
                A, moduli = adapted(R, labels)
                chars = []
                for i in range(R.group.free_rank, len(moduli)):
                    sol = solve_integer(A, [int(k == i) for k in range(len(moduli))], moduli)
                    chars.append(cg.restrict_to_Fhat(
                        R, {lbl: c for lbl, c in zip(labels, sol) if c}))
                assert torsion_characters(E) == E.group.char_subgroup(chars), E
                with_torsion += bool(R.group.torsion)
        assert with_torsion >= 200


def _valid_embedding(rng, family: str) -> EmbeddingData:
    """Like ``_random_embedding``, but every l lies in the valuation cone
    (l <= -h/2 for cyclic F, l <= -h otherwise) and every extra point
    carries a divisor, so a draw is rarely invalid."""
    F = FAMILIES[family](rng)
    u = F.u
    while True:
        extras = tuple(point(*c) for c in rng.sample(COORDS, rng.randint(0, 2)))
        divisors = []
        for p in EmbeddingData(F, extras).exceptional_points():
            for _ in range(rng.randint(1 if p in extras else 0, 2)):
                h = rng.randint(1, 4)
                lo = -(-u * h // 2) if F.is_cyclic else h
                divisors.append(GStableDivisorSpec(p, h, -Fraction(lo + rng.randint(0, 3), u)))
        if rng.random() < 0.2:
            divisors.append(GStableDivisorSpec(None, 0, -1))
        E = EmbeddingData(F, extras, tuple(divisors))
        if not E.validate():
            return E


def solve_integer(A: IntMatrix, b, moduli):
    """One integer solution of A x = b (row i mod moduli[i] when > 0), or
    None: every modulus gets a slack column, then the pure Z-system is
    solved through its own Smith normal form."""
    rows, n = A.rows, A.cols
    slack = [i for i in range(rows) if moduli[i]]
    ext = IntMatrix([row + [moduli[i] if r == i else 0 for i in slack]
                     for r, row in enumerate(A.data)], cols=n + len(slack))
    snf = smith_normal_form(ext)
    y = snf.U.mulvec(list(b))
    z = [0] * ext.cols
    for i in range(snf.rank):
        d = snf.D.data[i][i]
        if y[i] % d:
            return None
        z[i] = y[i] // d
    if any(y[snf.rank:]):
        return None
    return tuple(snf.V.mulvec(z)[:n])
