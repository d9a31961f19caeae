"""Divisor class group of an SL2/F-embedding by generators and relations.

One walk over the embedding (``_walk``) reads the divisors by point from
``EmbeddingData.by_point`` and writes the generator table: the
distinguished color D^{x_d} when the section gives it a non-zero l, then
per exceptional point its color and the invariant divisors over it, then
the dominating divisor, each with its label, point, multiplicity in the
fiber over its point and l-value.  The labels ``E[k]``, ``X[k,j]``,
``Xdom`` and ``Dxd`` are formatted here and nowhere else; every consumer
(both Cox-ring constructions, the restriction to the character group of F)
reads the table and the fibers (built once, in ``class_group``) from the
``ClassGroupResult``.  The relations identify all pullback fibers with a
base fiber and add the single relation coming from the divisor of the
weight-lattice generator, with denominators cleared by u.  The cokernel,
adapted-basis images of the generators, non-negative expressions of classes
in the invariant divisors and the restriction to the character group of F
are all computed exactly.

The relation matrix P is r x N for N generators, with at most one row per
exceptional point plus the u * l-row, so r grows with the extra points.  P
is written row by row, each row but the u * l-row from the few generators
of two fibers, and reaches the Smith form of Pᵀ with one copy, the
transpose.  That Smith form works on sparse vectors, so its cost, and the
certificate's, follows the non-zeros of P, U and V (``cokernel`` states
it).  ``exactmath.cokernel`` keeps the change of basis U as sparse rows;
the images are read off its first free rank + torsion rows in one pass over
their non-zeros, and each torsion generator's lift (the column of U⁻¹ that
the restriction to the character group of F reads) comes from
Pᵀ V = U⁻¹ D; no N x N matrix is built.

Cl(X) is Z^generators modulo the few rows of the relation matrix P, one per
exceptional point, so a class is written in the invariant divisors in that
relation lattice (``ClassGroupResult.lattice``), not in the adapted
coordinates: the columns of the other generators fix the relation
coefficients, through a Smith form of those columns, and the divisor
columns then give the exponents.  This lattice is the only integer solver:
``R.lattice.solve(R.numerators(c))`` writes a class c in the invariant
divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .embedding import EmbeddingData
from .exactmath import (
    FinAbGroup,
    IntMatrix,
    RelationLattice,
    cokernel,
    smith_normal_form,
    solve_nonneg,
)
from .groups import FiniteSubgroup
from .hyperspace import BasePoint, XD, color_coordinates
from .presentation import pretty_name


@dataclass(frozen=True)
class Generator:
    """One generator of Cl(X): label is unique, pretty mirrors the notation
    E^{x_i}, X^{x_i}_j, X^inf, D^{x_d}; ``suffix`` is the _j that tells the
    divisors over one point apart, empty when the point carries only one."""

    label: str
    kind: str  # "color" | "divisor" | "dominating" | "distinguished"
    point: BasePoint | None
    pretty: str = ""
    multiplicity: int = 0  # in the fiber over its point
    l: Fraction = Fraction(0)
    suffix: str = ""


_STABLE = ("divisor", "dominating")  # the kinds of the G-stable divisors


@dataclass(frozen=True)
class ClassGroupResult:
    group: FinAbGroup
    generators: tuple[Generator, ...]
    presentation: IntMatrix
    images: dict  # label -> adapted coordinates (free part, then torsion part)
    point_keys: dict  # BasePoint -> short key like "x0", "x1"
    basis_rows: tuple  # the cokernel's U as sparse rows: adapted coordinates lead U x
    torsion_lifts: tuple  # per torsion generator the x with U x = e_i, from ``cokernel``
    F: FiniteSubgroup
    fibers: dict  # ``_fibers`` of the generator table

    def image_of(self, combo: dict) -> tuple[int, ...]:
        """Adapted coordinates of an integer combination {label: coeff}."""
        n = self.group.free_rank + len(self.group.torsion)
        acc = [0] * n
        for label, c in combo.items():
            img = self.images[label]
            acc = [a + c * x for a, x in zip(acc, img)]
        return self.group.reduce(acc)

    def color(self, p: BasePoint) -> str:
        """Label of the color over p, which leads the fiber over p."""
        return next(iter(self.fibers[p]))

    @cached_property
    def divisor_labels(self) -> list[str]:
        """The G-stable divisors: those over the exceptional points, then the
        dominating one."""
        return [g.label for g in self.generators if g.kind in _STABLE]

    @cached_property
    def lattice(self) -> RelationLattice:
        """Cl(X) as the relation lattice of ``presentation``, solved on the
        invariant-divisor columns: one Smith form of the columns of the
        other generators, on first use.  The certificate: the invariant
        divisors are independent in Cl(X)⊗Q iff the other columns have the
        rank of P, and the relation coefficients are unique iff that is the
        number of rows of P; RuntimeError otherwise, with the rank of P
        from the Smith form of P itself."""
        P = self.presentation
        lattice = RelationLattice(P, [j for j, g in enumerate(self.generators)
                                      if g.kind in _STABLE])
        if lattice.rank < P.rows:
            rank = smith_normal_form(P).rank
            if lattice.rank < rank:
                raise RuntimeError(
                    f"invariant divisors dependent in Cl(X)⊗Q: the relations have rank "
                    f"{rank}, but rank {lattice.rank} off the invariant divisors")
            raise RuntimeError(f"internal invariant broken: {P.rows} relations of rank {rank}")
        return lattice

    def numerators(self, combo: dict) -> tuple[int, ...]:
        """``lattice.numerators`` of an integer combination {label: coeff};
        KeyError on a label that names no generator, as in ``image_of``."""
        if unknown := combo.keys() - self.images.keys():
            raise KeyError(", ".join(sorted(unknown)))
        return self.lattice.numerators([combo.get(g.label, 0) for g in self.generators])


def _walk(E: EmbeddingData) -> tuple[list[Generator], dict]:
    """The generator table in its fixed, documented order and the point keys
    (canonical tags, then x1, x2, ... for the extra points): the
    distinguished color first when the section gives it a non-zero l, then
    per exceptional point the color followed by the invariant divisors over
    it, then the dominating divisor, all read from ``E.by_point``."""
    E.require_valid()
    F = E.group
    keys = {p: p.tag for p in E.canonical_points()}
    keys.update((p, f"x{i + 1}") for i, p in enumerate(E.extra_points))
    gens: list[Generator] = []
    if F.is_cyclic and E.section is None:
        gens.append(Generator("Dxd", "distinguished", XD, pretty="D^{x_d}",
                              multiplicity=1, l=Fraction(1)))
    for p in E.exceptional_points():
        k, pk = keys[p], pretty_name(keys[p])
        m, l = color_coordinates(F, p, E.section)
        gens.append(Generator(f"E[{k}]", "color", p, pretty=f"E^{{{pk}}}", multiplicity=m, l=l))
        divs = E.divisors_over(p)
        for j, d in enumerate(divs):
            suffix = "" if len(divs) == 1 else f"_{j + 1}"
            gens.append(Generator(f"X[{k},{j}]", "divisor", p, pretty=f"X^{{{pk}}}{suffix}",
                                  multiplicity=d.h, l=d.l, suffix=suffix))
    if (dom := E.dominating_divisor()) is not None:
        gens.append(Generator("Xdom", "dominating", None, pretty="X^{inf}", l=dom.l))
    return gens, keys


def _fibers(gens) -> dict[BasePoint, dict[str, int]]:
    """The pullback fiber over each exceptional point as {generator label:
    multiplicity}, in point order: the color with its multiplicity, then
    each invariant divisor over the point with its h; led by {"Dxd": 1}
    over x_d when D^{x_d} is a generator."""
    fibers: dict[BasePoint, dict[str, int]] = {}
    for g in gens:
        if g.point is not None:
            fibers.setdefault(g.point, {})[g.label] = g.multiplicity
    return fibers


def _relations(E: EmbeddingData, gens: list[Generator], fibers: dict) -> IntMatrix:
    """Rows: [fiber(x)] - [fiber(base)] per exceptional point, the base being
    x_d when D^{x_d} is a generator and the first point otherwise, then the
    u * l-row; ``fibers`` is ``_fibers(gens)``."""
    column = {g.label: j for j, g in enumerate(gens)}
    base, *others = fibers.values() or [{}]
    minus_base = [0] * len(gens)
    for label, m in base.items():
        minus_base[column[label]] = -m
    rows = []
    for f in others:  # each row writes the few generators of two fibers
        row = minus_base[:]
        for label, m in f.items():
            row[column[label]] += m
        rows.append(row)
    u = E.group.u
    lrow = [divmod(u * g.l.numerator, g.l.denominator) for g in gens]
    if any(rem for _, rem in lrow):  # validation rules out a fractional u * l
        raise RuntimeError("internal invariant broken: l-row not integral after clearing by u")
    rows.append([x for x, _ in lrow])
    return IntMatrix.adopt(rows, len(gens))


def class_group(E: EmbeddingData) -> ClassGroupResult:
    gens, keys = _walk(E)
    fibers = _fibers(gens)
    P = _relations(E, gens, fibers)
    group, basis_rows, lifts = cokernel(P)
    # the images: the first free rank + torsion rows of U, read by column
    k = group.free_rank + len(group.torsion)
    cols = [[0] * k for _ in gens]
    for i, row in enumerate(basis_rows[:k]):
        for j, a in row.items():
            cols[j][i] = a
    images = {g.label: group.reduce(col) for g, col in zip(gens, cols)}
    return ClassGroupResult(group, tuple(gens), P, images, keys, basis_rows, lifts, E.group,
                            fibers)


def express_in_invariant_divisors(
    R: ClassGroupResult, combo: dict
) -> tuple[list[str], list[tuple[int, ...]]]:
    """The non-negative exponent vector over the invariant divisors.

    Solves [combo] = sum m_ij [X^{x_i}_j] + m [X^inf] in Cl(X) for an integer
    combination {label: coeff} (the input of ``R.image_of``) over
    ``R.divisor_labels``, the divisors over the exceptional points and the
    dominating one, in the relation lattice ``R.lattice``, eliminated once
    per R.  These G-stable divisors are independent in Cl(X)⊗Q (a relation
    among them is the divisor of a unit on SL2/F, and such units are
    constant), so the solution is unique: returns (labels, [m]).  Raises
    EmptySolutionSet when m is not a non-negative integer vector, with a
    torsion-obstruction diagnostic when only the torsion part fails, and
    RuntimeError when the lattice's rank certificate breaks the
    independence.
    """
    return R.divisor_labels, solve_nonneg(R.lattice, R.numerators(combo))


def restrict_to_Fhat(R: ClassGroupResult, combo: dict) -> tuple[int, ...]:
    """Image of a class {label: coeff} in the character group of F.

    Invariant divisors restrict to zero; colors restrict to the F-weight of
    the semi-invariant cutting them out.
    """
    F = R.F
    gens = {g.label: g for g in R.generators}
    acc = F.char_zero()
    for label, c in combo.items():
        g = gens[label]
        if g.kind in ("color", "distinguished"):
            acc = F.char_add(acc, F.char_scale(c, F.color_restriction(g.point.tag)))
    return acc
