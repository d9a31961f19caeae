"""Iteration of Cox rings: torsion descent through the subgroup lattice.

The torsion of Cl(X) restricts injectively into the character group of F;
the next embedding in the iteration sequence is homogeneous under the
intersection of the kernels of those characters.  For cyclic F the length m
of the sequence is computed exactly from the ramification count; for the
binary polyhedral groups only the first descent is determined by the input,
and the continuations are enumerated as the chains admitted by the subgroup
lattices and the two pruning facts: after a dihedral step the torsion is
cyclic of order dividing n, and after a cyclic-torsion step the torsion is
never cyclic of even order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classgroup as cg
from .coxring import NotCyclic
from .embedding import EmbeddingData
from .groups import (
    CYCLIC,
    DIHEDRAL,
    FiniteSubgroup,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    cyclic,
    dihedral,
    dtilde,
)


class UnknownCharacterLattice(Exception):
    """The character subgroup matches no kernel in the subgroup lattice."""


def bound_for(F: FiniteSubgroup) -> int:
    """Upper bound for the iteration length, by subgroup family."""
    if F.kind == CYCLIC:
        return 1 if F.n <= 2 else 2
    return {
        ICOSAHEDRAL: 1,
        DIHEDRAL: 3,
        TETRAHEDRAL: 3,
        OCTAHEDRAL: 4,
    }[F.kind]


def torsion_characters(E: EmbeddingData) -> frozenset:
    """Image in F-hat of the torsion subgroup of Cl(X), as a character set."""
    E.require_valid()
    R = cg.class_group(E)
    return _torsion_image(R)


def _torsion_image(R: cg.ClassGroupResult) -> frozenset:
    """Restriction image of Cl(X)_tor: torsion basis vector e_i lifts to the
    generator combination x with U x = e_i, U the cokernel's unimodular
    change of basis (``ClassGroupResult.torsion_lifts``)."""
    return R.F.char_subgroup([
        cg.restrict_to_Fhat(R, {g.label: c for g, c in zip(R.generators, x) if c})
        for x in R.torsion_lifts])


def descend_subgroup(F: FiniteSubgroup, chars) -> FiniteSubgroup:
    """Intersection of the kernels of the given characters, as a subgroup
    label from the lattice of subgroups containing the derived subgroup."""
    sub = F.char_subgroup(chars)
    order = len(sub)
    if order == 1:
        return F
    if F.kind == CYCLIC:
        return cyclic(F.n // order)
    if F.kind == ICOSAHEDRAL:
        raise UnknownCharacterLattice("the icosahedral character group is trivial")
    if F.kind == OCTAHEDRAL:
        if order == 2:
            return FiniteSubgroup(TETRAHEDRAL)
        raise UnknownCharacterLattice(f"order {order} subgroup of Z/2")
    if F.kind == TETRAHEDRAL:
        if order == 3:
            return dihedral(2)
        raise UnknownCharacterLattice(f"order {order} subgroup of Z/3")
    # binary dihedral
    n = F.n
    if order == 4:
        return cyclic(n)
    if order != 2:
        raise UnknownCharacterLattice(f"order {order} subgroup of the dihedral characters")
    chi = next(c for c in sub if c != F.char_zero())
    s, t = chi
    if (s, t) == (0, 2):
        return cyclic(2 * n)
    if n % 2 == 0 and s == 1:
        return dihedral(n // 2) if n // 2 >= 2 else cyclic(4)
    raise UnknownCharacterLattice(f"character {chi} matches no lattice kernel")


@dataclass(frozen=True)
class IterationStep:
    subgroup: FiniteSubgroup
    torsion_order: int | None  # None when not determined by the input
    determined: bool


@dataclass
class IterationReport:
    steps: list[IterationStep]
    m_lo: int
    m_hi: int
    bound: int
    chains: list[tuple[str, ...]]  # admissible subgroup chains (as labels)
    evidence: dict
    # the iteration of these varieties always terminates in a factorial
    # master Cox ring; recorded for the report payload
    master_factorial: bool = True

    @property
    def determined(self) -> bool:
        return self.m_lo == self.m_hi

    @property
    def m(self) -> int:
        if not self.determined:
            raise ValueError("iteration length is an interval, not a number")
        return self.m_lo


def cyclic_iteration_exact(E: EmbeddingData) -> IterationReport:
    """Exact length for cyclic F: m = 0 iff Cl(X) = 0; otherwise the class
    group of the characteristic space is free of rank (dtilde - 1) N', so
    m = 1 when that rank vanishes and m = 2 otherwise."""
    F = E.group
    if not F.is_cyclic:
        raise NotCyclic(f"{F} is not cyclic")
    E.require_valid()
    R = cg.class_group(E)
    n = F.n
    d = R.group.torsion_order()
    if n % d:
        raise RuntimeError("torsion order does not divide n; restriction broken")
    dt = dtilde(n, d)
    nprime = sum(len(E.divisors_over(p)) for p in E.extra_points)
    evidence = {"d": d, "dtilde": dt, "Nprime": nprime, "class_group": str(R.group)}
    if R.group.is_trivial:
        return IterationReport([IterationStep(F, 1, True)], 0, 0, bound_for(F),
                               [(str(F),)], evidence)
    rank_hat = (dt - 1) * nprime
    evidence["rank_char_space"] = rank_hat
    steps = [IterationStep(F, d, True)]
    if d > 1:
        steps.append(IterationStep(cyclic(n // d), None, True))
    m = 1 if rank_hat == 0 else 2
    chains = [tuple(str(s.subgroup) for s in steps)]
    return IterationReport(steps, m, m, bound_for(F), chains, evidence)


def _continuations(F: FiniteSubgroup, prev_torsion_cyclic: bool,
                   prev_dihedral_n: int | None):
    """Admissible non-trivial torsion subgroups of F-hat for the next step,
    after the two pruning lemmas."""
    out = []
    seen = set()
    for chi in F.char_elements():
        sub = F.char_subgroup([chi])
        if len(sub) == 1 or sub in seen:
            continue
        seen.add(sub)
        out.append(sub)
    full = F.char_subgroup(F.char_elements())
    if full not in seen and len(full) > 1:
        out.append(full)
    admissible = []
    for sub in out:
        order = len(sub)
        is_cyc = F.char_is_cyclic_subgroup(sub)
        if prev_dihedral_n is not None:
            if not is_cyc or prev_dihedral_n % order:
                continue
        if prev_torsion_cyclic and is_cyc and order % 2 == 0:
            continue
        admissible.append(sub)
    return admissible


def iterate(E: EmbeddingData) -> IterationReport:
    """Exact length for cyclic F; for polyhedral F the first step is computed
    and the continuations are enumerated under the lattice constraints."""
    F = E.group
    if F.is_cyclic:
        return cyclic_iteration_exact(E)
    E.require_valid()
    R = cg.class_group(E)
    bound = bound_for(F)
    tor = _torsion_image(R)
    evidence = {"class_group": str(R.group), "torsion_characters": sorted(tor)}
    if R.group.is_trivial:
        return IterationReport([IterationStep(F, 1, True)], 0, 0, bound,
                               [(str(F),)], evidence)
    if len(tor) == 1:
        return IterationReport([IterationStep(F, 1, True)], 1, 1, bound,
                               [(str(F),)], evidence)
    F1 = descend_subgroup(F, tor)
    steps = [IterationStep(F, len(tor), True), IterationStep(F1, None, False)]

    chains: list[tuple[str, ...]] = []
    m_values: set[int] = set()

    def explore(G: FiniteSubgroup, depth: int, prev_cyclic: bool,
                prev_dn: int | None, trail: tuple[str, ...]):
        # ending here: torsion-free at this stage (or a factorial
        # characteristic space right away)
        chains.append(trail)
        m_values.add(depth)
        if G.is_cyclic:
            # at most one more descent, and the characteristic space after a
            # cyclic stage with ramification count 1 is already factorial
            for sub in _continuations(G, prev_cyclic, prev_dn):
                nxt = descend_subgroup(G, sub)
                chains.append(trail + (str(nxt),))
                if dtilde(G.n, len(sub)) > 1:
                    m_values.add(depth + 1)
            return
        for sub in _continuations(G, prev_cyclic, prev_dn):
            nxt = descend_subgroup(G, sub)
            explore(nxt, depth + 1,
                    G.char_is_cyclic_subgroup(sub),
                    G.n if G.kind == DIHEDRAL else None,
                    trail + (str(nxt),))

    explore(F1, 2,
            F.char_is_cyclic_subgroup(tor),
            F.n if F.kind == DIHEDRAL else None,
            (str(F), str(F1)))
    m_lo, m_hi = min(m_values), max(m_values)
    if m_hi > bound:
        raise RuntimeError(f"enumerated m = {m_hi} exceeds the bound {bound}")
    return IterationReport(steps, m_lo, m_hi, bound, chains, evidence)
