"""Finite subgroups of SL2 and their character groups.

A subgroup is cyclic mu_n (n >= 1) or one of the binary polyhedral groups:
binary dihedral of order 4n (n > 1), binary tetrahedral, octahedral,
icosahedral.  The derived data (nbar, u, character group, canonical
exceptional multiplicities) drives the colored equipment, the class-group
restriction map and the Cox-ring iteration.

Character group elements are canonical tuples:
  * cyclic mu_n:        (k,) with k mod n
  * tetrahedral:        (k,) with k mod 3
  * octahedral:         (k,) with k mod 2
  * icosahedral:        (0,)  (trivial group)
  * binary dihedral:    (s, t) meaning the character h -> (-1)^s, r -> i^t,
                        constrained by t = n*s (mod 2); the group is
                        Z/2 x Z/2 for n even and Z/4 for n odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
TETRAHEDRAL = "tetrahedral"
OCTAHEDRAL = "octahedral"
ICOSAHEDRAL = "icosahedral"


@dataclass(frozen=True)
class FiniteSubgroup:
    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind == CYCLIC:
            if self.n < 1:
                raise ValueError("cyclic subgroup needs n >= 1")
        elif self.kind == DIHEDRAL:
            if self.n <= 1:
                raise ValueError("binary dihedral subgroup needs n > 1")
        elif self.kind in (TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL):
            if self.n:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")

    # -- basic invariants ---------------------------------------------------

    @property
    def is_cyclic(self) -> bool:
        return self.kind == CYCLIC

    @property
    def nbar(self) -> int:
        """n for odd n, n/2 for even n (cyclic only)."""
        if not self.is_cyclic:
            raise ValueError("nbar is defined for cyclic subgroups")
        return nbar_of(self.n)

    @property
    def u(self) -> int:
        """Denominator of the l-coordinates: 2 for cyclic F of even order, 1
        otherwise (odd n and the polyhedral groups)."""
        return 2 if self.is_cyclic and not self.n % 2 else 1

    @cache
    def canonical_multiplicities(self) -> MappingProxyType:
        """Multiplicity of the exceptional color in the fiber, per canonical
        tag: one read-only table per group."""
        if self.is_cyclic:
            return MappingProxyType({} if self.n <= 2 else {"x0": self.nbar, "xinf": self.nbar})
        return MappingProxyType(dict(zip(("xv", "xe", "xf"), {
            DIHEDRAL: (2, 2, self.n), TETRAHEDRAL: (3, 2, 3), OCTAHEDRAL: (3, 2, 4),
            ICOSAHEDRAL: (5, 2, 3)}[self.kind])))

    # -- character group -----------------------------------------------------

    @property
    def _char_modulus(self) -> int:
        """Order of the character group when it is cyclic (not dihedral)."""
        return {CYCLIC: self.n, TETRAHEDRAL: 3, OCTAHEDRAL: 2, ICOSAHEDRAL: 1}[self.kind]

    def char_zero(self) -> tuple[int, ...]:
        return (0, 0) if self.kind == DIHEDRAL else (0,)

    def char_reduce(self, chi) -> tuple[int, ...]:
        if self.kind == DIHEDRAL:
            s, t = chi
            s %= 2
            t %= 4
            if (t - self.n * s) % 2:
                raise ValueError(f"{chi} is not a character of {self}")
            return (s, t)
        (k,) = chi
        return (k % self._char_modulus,)

    def char_add(self, a, b) -> tuple[int, ...]:
        return self.char_reduce(tuple(x + y for x, y in zip(a, b)))

    def char_scale(self, k: int, a) -> tuple[int, ...]:
        return self.char_reduce(tuple(k * x for x in a))

    def char_elements(self) -> list[tuple[int, ...]]:
        if self.kind == DIHEDRAL:
            return [(s, t) for s in range(2) for t in range(4) if (t - self.n * s) % 2 == 0]
        return [(k,) for k in range(self._char_modulus)]

    def char_subgroup(self, gens) -> frozenset[tuple[int, ...]]:
        """Closure of the given characters under the group law."""
        elems = {self.char_zero()}
        frontier = [self.char_reduce(g) for g in gens]
        while frontier:
            g = frontier.pop()
            new = {self.char_add(g, e) for e in elems} - elems
            elems |= new
            frontier.extend(new)
        return frozenset(elems)

    def char_order(self, a) -> int:
        k = 1
        acc = self.char_reduce(a)
        zero = self.char_zero()
        while acc != zero:
            acc = self.char_add(acc, a)
            k += 1
        return k

    def char_is_cyclic_subgroup(self, sub) -> bool:
        order = len(sub)
        return any(self.char_order(g) == order for g in sub)

    # -- restriction weights of colors ----------------------------------------

    def color_restriction(self, tag: str | None) -> tuple[int, ...]:
        """F-hat weight of the subregular semi-invariant cutting the color.

        ``tag`` is the color's point tag; a tag that is not canonical (None,
        "xd") gets the weight of the remaining colors, those cut out by the
        linear system of exceptional semi-invariants.
        """
        if self.kind == CYCLIC:
            if tag == "x0":
                return self.char_reduce((1,))
            if tag == "xinf":
                return self.char_reduce((-1,))
            # the remaining colors carry the weight of the degree-nbar linear
            # system (nbar mod n, which is 1 mod 2 for n = 2)
            return self.char_reduce((self.nbar,))
        if self.kind == TETRAHEDRAL:
            return {"xv": (1,), "xe": (0,), "xf": (2,)}.get(tag, (0,))
        if self.kind == OCTAHEDRAL:
            # consistency with the degree-24 system forces the trivial weight
            # on f_v (the printed triple would give f_v^3 a non-trivial one)
            return {"xv": (0,), "xe": (1,), "xf": (1,)}.get(tag, (0,))
        if self.kind == ICOSAHEDRAL:
            return (0,)
        # binary dihedral: weights from f_v, f_e, f_f and the weight of the
        # exceptional semi-invariants for the remaining colors
        n = self.n
        table = {
            "xv": (1, n % 4),
            "xe": (1, (n + 2) % 4),
            "xf": (0, 2),
        }
        return self.char_reduce(table.get(tag, (0, (2 * n) % 4)))

    def __str__(self):
        if self.kind == CYCLIC:
            return f"mu_{self.n}"
        if self.kind == DIHEDRAL:
            return f"BD_{self.n}"
        return {TETRAHEDRAL: "F_T", OCTAHEDRAL: "F_O", ICOSAHEDRAL: "F_I"}[self.kind]


def cyclic(n: int) -> FiniteSubgroup:
    return FiniteSubgroup(CYCLIC, n)


def dihedral(n: int) -> FiniteSubgroup:
    return FiniteSubgroup(DIHEDRAL, n)


TETRA = FiniteSubgroup(TETRAHEDRAL)
OCTA = FiniteSubgroup(OCTAHEDRAL)
ICOSA = FiniteSubgroup(ICOSAHEDRAL)


def nbar_of(n: int) -> int:
    return n if n % 2 else n // 2


def dtilde(n: int, d: int) -> int:
    """Ramification count nbar / overline(n/d) for a torsion order d | n."""
    if n % d:
        raise ValueError("d must divide n")
    return nbar_of(n) // nbar_of(n // d)
