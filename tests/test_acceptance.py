"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer / rational equality); the runtime budgets
are asserted with time.monotonic().
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from sl2cox import classgroup as cg
from sl2cox.coxring import (
    batyrev_haddad,
    classify_fiber_presentation,
    cox_u_presentation,
    eliminate,
    full_cox_presentation_cyclic,
    special_fiber_u,
    verify_full_cox,
)
from sl2cox.diagnostics import (
    is_platonic_ring,
    is_platonic_tuple,
    special_fiber_normal,
)
from sl2cox.embedding import EmbeddingData, GStableDivisorSpec, affine_embedding
from sl2cox.exactmath import FinAbGroup, IntMatrix, smith_normal_form
from sl2cox.groups import ICOSA, OCTA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import X0, XE, XF, XINF, XV, point
from sl2cox.iteration import bound_for, cyclic_iteration_exact, iterate

from test_coxring import PRINTED_MU3, PRINTED_TRIVIAL, canonical_key
from test_diagnostics import brute_force_platonic
from test_embedding import mu3_example, trivial_four_points
from test_exactmath import det, gcd_of_minors


def report(n, text):
    print(f"PASS criterion {n}: {text}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"runtime {elapsed:.2f}s exceeds {self.limit}s"
        return elapsed


def test_criterion_1_class_group_of_trivial_example():
    budget = Budget(1.0)
    E = trivial_four_points()
    R = cg.class_group(E)
    assert R.presentation.data == [
        [-1, -2, 1, 3, 0, 0, 0, 0],
        [-1, -2, 0, 0, 1, 1, 0, 0],
        [-1, -2, 0, 0, 0, 0, 1, 5],
        [1, -1, 0, -5, 0, -1, 0, -4],
    ]
    assert R.group == FinAbGroup(4)
    assert R.divisor_labels == ["X[x1,0]", "X[x2,0]", "X[x3,0]", "X[x4,0]"]
    identities = {
        "E[x1]": (1, 5, 1, 4),
        "E[x2]": (3, 2, 1, 4),
        "E[x3]": (3, 5, 0, 4),
        "E[x4]": (3, 5, 1, -1),
    }
    for lbl, coeffs in identities.items():
        assert R.lattice.solve(R.numerators({lbl: 1})) == coeffs
    t = budget.check()
    report(1, f"4x8 presentation matrix, Cl = Z^4 and all four printed "
              f"identities exact ({t:.2f}s < 1s)")


def test_criterion_2_full_cox_of_trivial_example():
    budget = Budget(5.0)
    res = full_cox_presentation_cyclic(trivial_four_points())
    names = [v.name for v in res.presentation.variables]
    assert names == ["s1", "t1", "s2", "t2", "s3", "t3", "s4", "t4",
                     "r1", "r2", "r3", "r4"]
    order = res.presentation.var_order()
    got = {canonical_key(r, order) for r in res.presentation.relations}
    want = {canonical_key(r, order) for r in PRINTED_TRIVIAL}
    assert got == want and len(res.presentation.relations) == 10
    verify_full_cox(res)
    t = budget.check()
    report(2, f"12 generators and all 10 printed relations exact, including "
              f"the scalar 2 ({t:.2f}s < 5s)")


def test_criterion_3_mu3_table():
    budget = Budget(5.0)
    res = full_cox_presentation_cyclic(mu3_example())
    assert res.class_group.group == FinAbGroup(3)
    order = res.presentation.var_order()
    rows = {}
    for mod in res.modules:
        assert len(mod.rows) == 1
        rows[mod.points] = mod.rows[0]
    assert [(rows[k].iso_m, rows[k].b_weight) for k in
            [("x0", "xinf"), ("x0", "x1"), ("xinf", "x1"), ("x1", "x1"), ("x1",)]] \
        == [(0, 0), (2, 2), (2, 2), (2, 2), (3, 3)]
    for pts, expected in PRINTED_MU3.items():
        assert canonical_key(rows[pts].poly, order) == canonical_key(expected, order)
    verify_full_cox(res)
    t = budget.check()
    report(3, f"class group Z^3 and the five-row relation table with "
              f"B-weights (0,2,2,2,3) exact ({t:.2f}s < 5s)")


def test_criterion_4_affine_sweep():
    budget = Budget(10.0)
    checked = 0
    for n in range(1, 16):
        nb = n if n % 2 else n // 2
        u = 1 if n % 2 else 2
        for h in range(1, 13):
            lo = -Fraction(h, 2) - Fraction(h, 2 * nb)
            l = -Fraction(h, 2)
            while l > lo:
                if (u * l).denominator == 1 and gcd(h, abs(int(u * l))) == 1:
                    E = affine_embedding(n, h, l)
                    assert not E.validate(), (n, h, l)
                    R = cg.class_group(E)
                    if n % 2 or int(h + 2 * l) % 2 == 0:
                        d = gcd(n, h)
                    else:
                        d = gcd(nb + h, nb - h)
                    assert R.group == FinAbGroup(1, (d,) if d > 1 else ()), (n, h, l)
                    b = int(-(h + 2 * l))
                    res = full_cox_presentation_cyclic(E)
                    (poly,) = res.presentation.relations
                    rname = "r0" if n >= 3 else "r1"
                    rmonos = [dict(m) for m in poly.terms
                              if all(v.startswith("r") for v, _ in m)]
                    assert rmonos == [({rname: b} if b else {})], (n, h, l)
                    bh = batyrev_haddad(E)
                    assert bh.b == (bh.q - bh.p) // bh.k == b, (n, h, l)
                    assert gcd(bh.p, bh.q) == 1
                    assert 0 < bh.height <= 1
                    assert (bh.height == 1) == (Fraction(l, h) == Fraction(-1, 2))
                    checked += 1
                l -= Fraction(1, u)
    assert checked >= 60
    t = budget.check()
    report(4, f"{checked} affine instances: d-formula, Cox exponent -(h+2l) "
              f"and Batyrev-Haddad identities exact ({t:.2f}s < 10s)")


def test_criterion_5_special_fiber_shapes():
    budget = Budget(10.0)
    rng = random.Random(20260810)
    verdicts = {"polynomial": 0, "reduced_reducible": 0, "nonreduced": 0}
    for _ in range(120):
        n = rng.randint(3, 9)
        shape = rng.choice(["both", "none1", "none2"])
        extras = []
        divisors = []
        if shape == "both":
            divisors = [GStableDivisorSpec(X0, rng.randint(1, 4), -rng.randint(1, 3)),
                        GStableDivisorSpec(XINF, rng.randint(1, 4), -rng.randint(1, 3))]
            for k in range(rng.randint(0, 2)):
                p = point(k + 1, 1)
                extras.append(p)
                divisors.append(GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3)))
            expected = "polynomial"
        elif shape == "none1":
            p = point(rng.randint(1, 5), 1)
            extras, divisors = [p], [GStableDivisorSpec(p, rng.randint(1, 3), -rng.randint(1, 3))]
            expected = "reduced_reducible"
        else:
            p1, p2 = point(1, 1), point(2, 1)
            extras = [p1, p2]
            divisors = [GStableDivisorSpec(p1, rng.randint(1, 3), -rng.randint(1, 3)),
                        GStableDivisorSpec(p2, rng.randint(1, 3), -rng.randint(1, 3))]
            expected = "nonreduced"
        E = EmbeddingData(cyclic(n), tuple(extras), tuple(divisors))
        if E.validate():
            continue
        P, _ = eliminate(cox_u_presentation(E))
        verdict = classify_fiber_presentation(special_fiber_u(P))
        assert verdict == expected, (E, verdict)
        assert (verdict == "polynomial") == special_fiber_normal(E)
        verdicts[verdict] += 1
    assert all(v > 10 for v in verdicts.values())
    t = budget.check()
    report(5, f"three fiber shapes classified structurally as the printed "
              f"verdicts on {sum(verdicts.values())} instances ({t:.2f}s < 10s)")


def test_criterion_6_platonic_machinery():
    budget = Budget(30.0)
    count = 0
    for length in range(1, 6):
        for t in product(range(1, 9), repeat=length):
            count += 1
            assert is_platonic_tuple(t).is_platonic == brute_force_platonic(t)
    assert count >= 32000
    rng = random.Random(606)
    ring_checked = 0
    while ring_checked < 500:
        nvec = rng.randint(3, 6)
        vectors = []
        size = 1
        for _ in range(nvec):
            ln = rng.randint(1, 6)
            size *= ln
            vectors.append(tuple(rng.randint(1, 6) for _ in range(ln)))
        if size > 10 ** 4:
            continue
        ring_checked += 1
        exhaustive = all(brute_force_platonic(t) for t in product(*vectors))
        assert is_platonic_ring((None, vectors, 0)).is_platonic == exhaustive
    t = budget.check()
    report(6, f"{count} tuples exhaustively vs brute force and {ring_checked} "
              f"random rings vs enumeration, exact ({t:.2f}s < 30s)")


def test_criterion_7_iteration():
    budget = Budget(10.0)
    # bounds table
    assert bound_for(cyclic(1)) == 1 and bound_for(cyclic(2)) == 1
    assert bound_for(cyclic(9)) == 2
    assert bound_for(dihedral(5)) == 3 and bound_for(TETRA) == 3
    assert bound_for(OCTA) == 4 and bound_for(ICOSA) == 1
    # cyclic exact values
    assert cyclic_iteration_exact(EmbeddingData(cyclic(1))).m == 0
    assert cyclic_iteration_exact(EmbeddingData(cyclic(2))).m == 1
    swept = 0
    for n in range(3, 21):
        u = 1 if n % 2 else 2
        for h in range(1, 7):
            for lnum in range(-5 * u, 0):
                l = Fraction(lnum, u)
                E = affine_embedding(n, h, l)
                if E.validate():
                    continue
                rep = cyclic_iteration_exact(E)
                assert rep.determined and rep.m <= 2
                swept += 1
    assert swept > 200
    # polyhedral chains respect the pruning lemmas and the bound
    polyhedral = [
        EmbeddingData(OCTA, (), (GStableDivisorSpec(XV, 1, -2),)),
        EmbeddingData(OCTA, (), (GStableDivisorSpec(XF, 1, -2),)),
        EmbeddingData(TETRA, (), (GStableDivisorSpec(XV, 1, -2),)),
        EmbeddingData(dihedral(2), (), (GStableDivisorSpec(XF, 1, -1),)),
        EmbeddingData(dihedral(3), (), (GStableDivisorSpec(XF, 1, -2),)),
        EmbeddingData(dihedral(4), (), (GStableDivisorSpec(XV, 1, -2),)),
        EmbeddingData(dihedral(6), (), (GStableDivisorSpec(XE, 1, -2),)),
        EmbeddingData(ICOSA, (), (GStableDivisorSpec(XV, 1, -2),)),
    ]
    for E in polyhedral:
        assert not E.validate()
        rep = iterate(E)
        assert rep.m_hi <= rep.bound == bound_for(E.group)
        # pruning soundness is enforced inside the enumeration; re-check the
        # chains only walk the documented lattices
        lattice_labels = {"F_O", "F_T", "F_I", "BD_2", "BD_3", "BD_4", "BD_6"} | {
            f"mu_{k}" for k in range(1, 25)}
        for chain in rep.chains:
            assert set(chain) <= lattice_labels
    t = budget.check()
    report(7, f"bounds table, {swept} exact cyclic lengths <= 2, and all "
              f"polyhedral chains within their bounds ({t:.2f}s < 10s)")


def test_criterion_8_snf_property_suite():
    budget = Budget(30.0)
    rng = random.Random(8128)
    oracle_checked = 0
    for trial in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        M = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)]
                       for _ in range(rows)])
        s = smith_normal_form(M)
        assert (s.U * M * s.V) == s.D
        assert abs(det(s.U)) == 1 and abs(det(s.V)) == 1
        for a, b in zip(s.invariant_factors, s.invariant_factors[1:]):
            assert b % a == 0
        if rows <= 5 and cols <= 5:
            oracle_checked += 1
            prev = 1
            factors = []
            for k in range(1, min(rows, cols) + 1):
                g = gcd_of_minors(M, k)
                if g == 0:
                    break
                factors.append(g // prev)
                prev = g
            assert tuple(factors) == s.invariant_factors
    assert oracle_checked > 200
    t = budget.check()
    report(8, f"1000 random SNFs verified (U M V = D, unimodularity, chain), "
              f"{oracle_checked} against the gcd-of-minors oracle ({t:.2f}s < 30s)")
