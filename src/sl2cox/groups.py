"""Finite subgroups of SL2 and their character groups.

A subgroup is cyclic mu_n (n >= 1) or one of the binary polyhedral groups:
binary dihedral of order 4n (n > 1), binary tetrahedral, octahedral,
icosahedral.  The derived data (nbar, u, the character group) drives the
colored equipment, the class-group restriction map and the Cox-ring
iteration.

``FiniteSubgroup.canonical`` is the one table of the exceptional points that
F forces on P^1 (``CanonicalTable``), with n0; every other layer reads it
and no other module writes these numbers.

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
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .exactmath import Qi

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
TETRAHEDRAL = "tetrahedral"
OCTAHEDRAL = "octahedral"
ICOSAHEDRAL = "icosahedral"


@dataclass(frozen=True)
class CanonicalPoint:
    """An exceptional point that F forces: its coordinates [alpha:beta]
    (``exactmath.qi`` triples), the multiplicity and l-value of its color,
    the F-hat weight of the subregular semi-invariant s cutting the color,
    and lam in the fiber relation over it, beta*a - alpha*b = lam * s^mult."""

    alpha: Qi
    beta: Qi
    mult: int
    l: Fraction
    weight: tuple[int, ...]
    lam: Qi


@dataclass(frozen=True)
class CanonicalTable:
    """The canonical points of F by tag (x0, xinf for cyclic n >= 3; xv, xe,
    xf for the polyhedral groups), n0 = |F| / |F n {+-1}| (nbar, 2n, 12, 24,
    60: the common weight of a and b), and the F-hat weight of every other
    color, that of the linear system of exceptional semi-invariants."""

    points: MappingProxyType
    n0: int
    rest_weight: tuple[int, ...]


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
    def canonical(self) -> CanonicalTable:
        """The one read-only table of F's canonical points.  Cyclic: x0 =
        [0:1], xinf = [-1:0] for a = g3^nbar, b = g4^nbar.  Polyhedral: xv =
        [0:1], xe = [1:0] for a = fv^nv, b = -fe^ne, and xf where the
        relation between fv, fe and ff is the fiber relation."""
        n, one = self.n, (1, 0, 1)  # a row: tag, alpha, beta, mult, l, weight, lam
        if self.is_cyclic:
            nb, l = self.nbar, Fraction(1 - self.nbar, 2)
            n0, rest = nb, (nb,)  # nbar mod n, which is 1 mod 2 for n = 2
            rows = [] if n <= 2 else [("x0", 0, 1, nb, l, (1,), one),
                                      ("xinf", -1, 0, nb, l, (-1,), one)]
        elif self.kind == DIHEDRAL:
            n0, rest = 2 * n, (0, 2 * n)
            lam = ((4, 0, 1), (0, -4, 1), (-4, 0, 1), (0, 4, 1))[n % 4]  # 4 (-i)^n
            rows = [("xv", 0, 1, 2, 1, (1, n), one), ("xe", 1, 0, 2, 1, (1, n + 2), one),
                    ("xf", -1, 1, n, 1 - n, (0, 2), lam)]
        else:
            # octahedral: consistency with the degree-24 system forces the
            # trivial weight on f_v (the printed triple would give f_v^3 a
            # non-trivial one)
            n0, mv, mf, wv, we, wf = {TETRAHEDRAL: (12, 3, 3, 1, 0, 2),
                                      OCTAHEDRAL: (24, 3, 4, 0, 1, 1),
                                      ICOSAHEDRAL: (60, 5, 3, 0, 0, 0)}[self.kind]
            rest = (0,)
            rows = [("xv", 0, 1, mv, 1, (wv,), one), ("xe", 1, 0, 2, -1, (we,), one),
                    ("xf", -1, -1, mf, 1, (wf,), one)]
        return CanonicalTable(MappingProxyType({
            t: CanonicalPoint((a, 0, 1), (b, 0, 1), m, Fraction(l), self.char_reduce(w), lam)
            for t, a, b, m, l, w, lam in rows}), n0, self.char_reduce(rest))

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
        """F-hat weight of the semi-invariant cutting the color over the
        point with this tag: the ``canonical`` table's weight for a
        canonical tag, its rest weight otherwise (None, "xd")."""
        table = self.canonical()
        c = table.points.get(tag)
        return table.rest_weight if c is None else c.weight

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
