import random
from collections import Counter
from fractions import Fraction

import pytest

from sl2cox import classgroup as cg
from sl2cox import exactmath
from sl2cox.exactmath import IntMatrix
from sl2cox.embedding import EmbeddingData, GStableDivisorSpec, affine_embedding
from sl2cox.groups import FiniteSubgroup, ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import X0, XE, XF, XINF, XV, point
from sl2cox.iteration import (
    IterationReport,
    UnknownCharacterLattice,
    bound_for,
    cyclic_iteration_exact,
    descend_subgroup,
    _torsion_image,
    iterate,
    torsion_characters,
)

from test_classgroup import FAMILIES, _valid_embedding, dense_u, solve_integer


class TestRamificationCount:
    def test_total_on_all_divisors(self):
        from sl2cox.groups import dtilde, nbar_of

        for n in range(1, 41):
            for d in range(1, n + 1):
                if n % d:
                    continue
                dt = dtilde(n, d)
                assert dt >= 1
                assert nbar_of(n) == dt * nbar_of(n // d)
                if n % 2:
                    assert dt == d
        with pytest.raises(ValueError):
            dtilde(6, 4)


class TestBounds:
    def test_table(self):
        assert bound_for(cyclic(1)) == 1
        assert bound_for(cyclic(2)) == 1
        assert bound_for(cyclic(3)) == 2
        assert bound_for(cyclic(17)) == 2
        assert bound_for(dihedral(2)) == 3
        assert bound_for(dihedral(9)) == 3
        assert bound_for(TETRA) == 3
        assert bound_for(OCTA) == 4
        assert bound_for(ICOSA) == 1


class TestDescend:
    def test_octahedral_to_tetrahedral(self):
        F = OCTA
        assert descend_subgroup(F, F.char_elements()) == TETRA

    def test_tetrahedral_to_dihedral2(self):
        F = TETRA
        assert descend_subgroup(F, F.char_elements()) == dihedral(2)

    def test_cyclic_quotients(self):
        F = cyclic(12)
        assert descend_subgroup(F, [(4,)]) == cyclic(4)   # chars of order 3
        assert descend_subgroup(F, [(1,)]) == cyclic(1)
        assert descend_subgroup(F, []) == F

    def test_dihedral_lattice(self):
        F = dihedral(6)  # n even: characters Z/2 x Z/2
        assert descend_subgroup(F, [(0, 2)]) == cyclic(12)   # ker = <h> = mu_2n
        assert descend_subgroup(F, [(1, 0)]) == dihedral(3)
        assert descend_subgroup(F, [(1, 2)]) == dihedral(3)
        assert descend_subgroup(F, F.char_elements()) == cyclic(6)
        F = dihedral(2)  # the three order-4 cyclic subgroups of the quaternions
        assert descend_subgroup(F, [(1, 0)]) == cyclic(4)
        assert descend_subgroup(F, [(0, 2)]) == cyclic(4)
        F = dihedral(5)  # n odd: characters Z/4
        assert descend_subgroup(F, [(0, 2)]) == cyclic(10)
        assert descend_subgroup(F, [(1, 1)]) == cyclic(5)

    def test_trivial_characters_fix_group(self):
        for F in (cyclic(5), dihedral(3), TETRA, OCTA, ICOSA):
            assert descend_subgroup(F, []) == F


class TestCyclicExact:
    def test_x_equals_g(self):
        rep = cyclic_iteration_exact(EmbeddingData(cyclic(1)))
        assert rep.m == 0

    def test_mu2_always_one(self):
        rep = cyclic_iteration_exact(EmbeddingData(cyclic(2)))
        assert rep.m == 1
        rep = cyclic_iteration_exact(affine_embedding(2, 1, Fraction(-1, 2)))
        assert rep.m == 1

    def test_sweep_at_most_two(self):
        import random

        rng = random.Random(11)
        count = 0
        for n in range(1, 21):
            u = 1 if n % 2 else 2
            for h in range(1, 7):
                for lnum in range(-6 * u, 0):
                    l = Fraction(lnum, u)
                    E = affine_embedding(n, h, l)
                    if E.validate():
                        continue
                    rep = cyclic_iteration_exact(E)
                    assert rep.determined and rep.m <= 2
                    assert rep.m <= bound_for(cyclic(n))
                    count += 1
            # also embeddings with extra points
            x1 = point(rng.randint(1, 9), 1)
            E = EmbeddingData(cyclic(n), (x1,), (
                GStableDivisorSpec(x1, 1, -1),)
                + ((GStableDivisorSpec(X0, 1, -1), GStableDivisorSpec(XINF, 1, -1))
                   if n >= 3 else ()))
            if not E.validate():
                rep = cyclic_iteration_exact(E)
                assert rep.m <= 2
                count += 1
        assert count > 100

    def test_descent_reaches_torsion_free_within_two(self):
        for n in range(2, 21):
            E = EmbeddingData(cyclic(n))  # X = G/mu_n, Cl = Z/n
            chars = torsion_characters(E)
            F1 = descend_subgroup(cyclic(n), chars)
            assert F1 == cyclic(1)
            rep = cyclic_iteration_exact(E)
            assert rep.m <= 2


class TestPolyhedral:
    def test_icosahedral(self):
        E = EmbeddingData(ICOSA, (), (GStableDivisorSpec(XV, 1, -2),))
        rep = iterate(E)
        assert rep.determined and rep.m == 1
        assert [str(s.subgroup) for s in rep.steps] == ["F_I"]

    def test_octahedral_with_torsion(self):
        E = EmbeddingData(OCTA, (), (GStableDivisorSpec(XV, 1, -2),))
        assert cg.class_group(E).group.torsion == (2,)
        rep = iterate(E)
        assert (rep.m_lo, rep.m_hi) == (2, 4)
        assert rep.bound == 4
        assert [str(s.subgroup) for s in rep.steps] == ["F_O", "F_T"]
        assert tuple(rep.chains[0]) == ("F_O", "F_T")

    def test_dihedral_odd_descends_cyclic(self):
        E = EmbeddingData(dihedral(3), (), (GStableDivisorSpec(XF, 1, -2),))
        chars = torsion_characters(E)
        if len(chars) > 1:
            F1 = descend_subgroup(dihedral(3), chars)
            assert F1.is_cyclic
        rep = iterate(E)
        assert rep.m_hi <= 3

    def test_pruning_constraints(self):
        # every emitted chain must respect the two lemmas; verify on the
        # octahedral worst case by inspecting the chain structure
        E = EmbeddingData(OCTA, (), (GStableDivisorSpec(XV, 1, -2),))
        rep = iterate(E)
        for chain in rep.chains:
            assert chain[0] == "F_O"
            # no chain is longer than bound + 1 subgroups
            assert len(chain) <= rep.bound + 1
        assert ("F_O", "F_T", "BD_2", "mu_2") in rep.chains
        longest = max(rep.chains, key=len)
        assert len(longest) == rep.bound + 1 and longest[-1] == "mu_1"
        assert all(c[2] == "BD_2" for c in rep.chains if len(c) >= 3)

    def test_bound_respected_on_sweep(self):
        cases = [
            EmbeddingData(OCTA, (), (GStableDivisorSpec(XV, 1, -2),)),
            EmbeddingData(OCTA, (), (GStableDivisorSpec(XE, 1, -2),)),
            EmbeddingData(TETRA, (), (GStableDivisorSpec(XV, 1, -2),)),
            EmbeddingData(TETRA, (), (GStableDivisorSpec(XF, 1, -2),)),
            EmbeddingData(dihedral(2), (), (GStableDivisorSpec(XF, 1, -1),)),
            EmbeddingData(dihedral(3), (), (GStableDivisorSpec(XF, 1, -2),)),
            EmbeddingData(dihedral(4), (), (GStableDivisorSpec(XV, 1, -2),)),
            EmbeddingData(dihedral(6), (), (GStableDivisorSpec(XE, 1, -2),)),
            EmbeddingData(ICOSA, (), (GStableDivisorSpec(XF, 1, -2),)),
        ]
        for E in cases:
            assert not E.validate(), E
            rep = iterate(E)
            assert rep.m_hi <= rep.bound == bound_for(E.group)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bound_respected_on_random_inputs(self, family):
        # 150 seeded valid draws per family: the bound holds, and Cl(X) has
        # torsion iff its restriction to the character group of F is
        # non-trivial (the torsion injects into F-hat); both sides occur in
        # every family but the icosahedral one, whose F-hat is trivial
        rng = random.Random(f"iterate-{family}")
        with_torsion = 0
        for _ in range(150):
            E = _valid_embedding(rng, family)
            rep = iterate(E)
            assert rep.m_hi <= rep.bound == bound_for(E.group), E
            torsion = bool(cg.class_group(E).group.torsion)
            assert torsion == (len(torsion_characters(E)) > 1), E
            with_torsion += torsion
        assert (with_torsion == 0) == (family == "icosahedral"), with_torsion

    def test_torsion_characters_examples(self):
        # trivial and icosahedral groups always give the trivial subgroup
        E = EmbeddingData(ICOSA, (), (GStableDivisorSpec(XV, 1, -2),))
        assert len(torsion_characters(E)) == 1
        E = EmbeddingData(cyclic(1), (point(1, 1),),
                          (GStableDivisorSpec(point(1, 1), 3, -2),))
        assert len(torsion_characters(E)) == 1
        # affine cyclic with n odd: subgroup of order gcd(n, h)
        from math import gcd

        for (n, h, l) in [(5, 7, -4), (9, 6, -4), (15, 12, -7), (3, 5, -3)]:
            E = affine_embedding(n, h, l)
            if E.validate():
                continue
            assert len(torsion_characters(E)) == gcd(n, h), (n, h, l)


def _mu4_with_divisors(d: int) -> EmbeddingData:
    """mu_4 with the extra points [2:7], [5:11] and the divisors (2, -j),
    j = 2..d+1, over each of its four points: Cl = Z^(4d) x Z/2, N = 4d + 5
    generators."""
    extras = (point(2, 7), point(5, 11))
    return EmbeddingData(cyclic(4), extras, tuple(
        GStableDivisorSpec(p, 2, -j) for p in (X0, XINF) + extras for j in range(2, d + 2)))


class TestTorsionLift:
    def test_the_lift_builds_no_square_matrix(self, monkeypatch):
        # the lift of each torsion generator comes from P^T V = U^-1 D: no
        # matrix with N x N entries, N the number of generators
        E = _mu4_with_divisors(40)
        assert not E.validate()
        sizes = []
        init, adopt = IntMatrix.__init__, IntMatrix.adopt

        def recorded(self, data, cols=None):
            init(self, data, cols)
            sizes.append(self.rows * self.cols)

        def adopted(data, cols):
            M = adopt(data, cols)
            sizes.append(M.rows * M.cols)
            return M

        monkeypatch.setattr(exactmath.IntMatrix, "__init__", recorded)
        monkeypatch.setattr(exactmath.IntMatrix, "adopt", staticmethod(adopted))
        chars = torsion_characters(E)
        R = cg.class_group(E)
        N = len(R.generators)
        assert N == 165 and R.group.free_rank == 160 and R.group.torsion == (2,)
        assert len(chars) == 2 and sizes and max(sizes) < N * N

    def test_lifts_match_the_dense_lift(self):
        # the oracle: x with U x = e_i by a Smith-form solve of the dense U;
        # the same lifts, hence the same characters, on even-n cyclic inputs
        # and on every polyhedral family
        rng = random.Random("torsion-lift")
        with_torsion = Counter()
        for family in ("cyclic", "n<=2", "dihedral", "tetrahedral", "octahedral") * 40:
            E = _valid_embedding(rng, family)
            if E.group.is_cyclic and E.group.n % 2:
                continue
            R = cg.class_group(E)
            U, free = dense_u(R), R.group.free_rank
            dense = tuple(solve_integer(U, [int(k == free + t) for k in range(U.rows)],
                                        [0] * U.rows) for t in range(len(R.group.torsion)))
            assert R.torsion_lifts == dense, E
            chars = E.group.char_subgroup([cg.restrict_to_Fhat(
                R, {g.label: c for g, c in zip(R.generators, x) if c}) for x in dense])
            assert _torsion_image(R) == chars, E
            with_torsion[family] += bool(R.group.torsion)
        assert len(with_torsion) == 5 and min(with_torsion.values()) >= 5, with_torsion
