"""Divisor class group of an SL2/F-embedding by generators and relations.

Generators are the exceptional divisors (exceptional colors and G-stable
divisors) plus the parametric colors with a non-zero coordinate on E; under
the default section the only such color is the distinguished one D^{x_d}.
The relations identify all pullback fibers (``fiber``) with a base fiber
and add the single relation coming from the divisor of the weight-lattice
generator, with denominators cleared by u.  The cokernel, adapted-basis
images of the generators, non-negative expressions of classes in the
invariant divisors and the restriction to the character group of F are all
computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .embedding import EmbeddingData, InvalidEmbedding
from .exactmath import (
    EmptySolutionSet,
    FactoredSystem,
    FinAbGroup,
    IntMatrix,
    cokernel,
    solve_nonneg,
)
from .hyperspace import BasePoint, XD, color_vector
from .presentation import _SUB


@dataclass(frozen=True)
class Generator:
    """One generator of Cl(X): label is unique, pretty mirrors the notation
    E^{x_i}, X^{x_i}_j, X^inf, D^{x_d}."""

    label: str
    kind: str  # "color" | "divisor" | "dominating" | "distinguished"
    point: BasePoint | None
    j: int = 0
    pretty: str = ""


@dataclass(frozen=True)
class ClassGroupResult:
    group: FinAbGroup
    generators: tuple[Generator, ...]
    presentation: IntMatrix
    images: dict  # label -> adapted coordinates (free part, then torsion part)
    point_keys: dict  # BasePoint -> short key like "x0", "x1"
    basis_change: IntMatrix  # the cokernel's U: adapted coordinates lead U x

    def image_of(self, combo: dict) -> tuple[int, ...]:
        """Adapted coordinates of an integer combination {label: coeff}."""
        n = self.group.free_rank + len(self.group.torsion)
        acc = [0] * n
        for label, c in combo.items():
            img = self.images[label]
            acc = [a + c * x for a, x in zip(acc, img)]
        return self.group.reduce(acc)

    def linear_system(self, labels: list[str]) -> tuple[IntMatrix, list[int]]:
        """(A, moduli): the columns of A are the adapted coordinates of the
        labels, and row i is read modulo moduli[i] (0 on the free part)."""
        n = self.group.free_rank + len(self.group.torsion)
        cols = [self.images[lbl] for lbl in labels]
        A = IntMatrix([[col[i] for col in cols] for i in range(n)], cols=len(cols))
        return A, [0] * self.group.free_rank + list(self.group.torsion)

    @cached_property
    def divisor_labels(self) -> list[str]:
        return [g.label for g in self.generators if g.kind == "divisor"]

    @cached_property
    def divisor_system(self) -> FactoredSystem:
        """The invariant-divisor system, factored on first use."""
        return FactoredSystem(*self.linear_system(self.divisor_labels))


def point_keys(E: EmbeddingData) -> dict:
    keys = {}
    for p in E.canonical_points():
        keys[p] = p.tag
    for i, p in enumerate(E.extra_points):
        keys[p] = f"x{i + 1}"
    return keys


def _pretty_point(key: str) -> str:
    if key == "xinf":
        return "x∞"
    if key.startswith("x"):
        return "x" + key[1:].translate(_SUB)
    return key


def divisor_generators(E: EmbeddingData) -> list[Generator]:
    """Fixed, documented generator order: the distinguished color first when
    the section gives it a non-zero l, then per exceptional point the color
    followed by the invariant divisors over it, then the dominating divisor."""
    E.require_valid()
    keys = point_keys(E)
    gens: list[Generator] = []
    if E.group.is_cyclic and E.section.kind == "default":
        gens.append(Generator("Dxd", "distinguished", XD, pretty="D^{x_d}"))
    for p in E.exceptional_points():
        k = keys[p]
        gens.append(Generator(f"E[{k}]", "color", p, pretty=f"E^{{{_pretty_point(k)}}}"))
        divs = E.divisors_over(p)
        for j, _ in enumerate(divs):
            suffix = "" if len(divs) == 1 else f"_{j + 1}"
            gens.append(Generator(
                f"X[{k},{j}]", "divisor", p, j,
                pretty=f"X^{{{_pretty_point(k)}}}{suffix}"))
    if E.dominating_divisor() is not None:
        gens.append(Generator("Xdom", "dominating", None, pretty="X^{inf}"))
    return gens


def fiber(E: EmbeddingData, p: BasePoint) -> dict[str, int]:
    """The pullback fiber over p as {generator label: multiplicity}: the
    color with its multiplicity and each invariant divisor with its h, or
    D^{x_d} once over x_d."""
    if p == XD:
        return {"Dxd": 1}
    k = point_keys(E)[p]
    combo = {f"E[{k}]": E.color_multiplicity(p)}
    for j, d in enumerate(E.divisors_over(p)):
        combo[f"X[{k},{j}]"] = d.h
    return combo


def _l_value(E: EmbeddingData, g: Generator) -> Fraction:
    if g.kind == "distinguished":
        return Fraction(1)
    if g.kind == "color":
        return color_vector(E.group, g.point, E.section).l
    if g.kind == "divisor":
        return E.divisors_over(g.point)[g.j].l
    return E.dominating_divisor().l


def presentation_matrix(E: EmbeddingData) -> tuple[list[Generator], IntMatrix]:
    """Rows: [fiber(x)] - [fiber(base)] per exceptional point, then u * l-row."""
    gens = divisor_generators(E)
    pts = list(E.exceptional_points())
    has_d = any(g.kind == "distinguished" for g in gens)
    rows: list[list[int]] = []
    if has_d:
        base = fiber(E, XD)
        fiber_pts = pts
    else:
        base = fiber(E, pts[0]) if pts else {}
        fiber_pts = pts[1:]
    for p in fiber_pts:
        f = fiber(E, p)
        rows.append([f.get(g.label, 0) - base.get(g.label, 0) for g in gens])
    u = E.group.u if E.group.is_cyclic else 1
    lrow = [u * _l_value(E, g) for g in gens]
    if any(x.denominator != 1 for x in lrow):
        raise InvalidEmbedding(["FractionalL: l-row not integral after clearing by u"])
    rows.append([int(x) for x in lrow])
    return gens, IntMatrix(rows, cols=len(gens))


def class_group(E: EmbeddingData) -> ClassGroupResult:
    gens, P = presentation_matrix(E)
    group, U = cokernel(P)
    k = group.free_rank + len(group.torsion)
    images = {g.label: group.reduce([U.data[i][j] for i in range(k)])
              for j, g in enumerate(gens)}
    return ClassGroupResult(group, tuple(gens), P, images, point_keys(E), U)


def express_in_basis(R: ClassGroupResult, target: dict, basis_labels: list[str]):
    """Integer coefficients writing the target class over the given labels,
    or None; used e.g. to express the exceptional colors in the invariant
    divisors when the latter form a basis.  The labels must be independent
    in Cl(X)⊗Q (ValueError otherwise), so the coefficients are unique."""
    try:
        return FactoredSystem(*R.linear_system(basis_labels)).solve(R.image_of(target))
    except EmptySolutionSet:
        return None


def express_in_invariant_divisors(
    R: ClassGroupResult, target: tuple[int, ...]
) -> tuple[list[str], list[tuple[int, ...]]]:
    """The non-negative exponent vector over the invariant divisors.

    Solves target = sum m_ij [X^{x_i}_j] in Cl(X) for a class in adapted
    coordinates, such as ``R.image_of(combo)`` (torsion part included;
    the dominating divisor never enters a relation and is excluded) on
    ``R.divisor_system``, factored once per R.  The invariant divisors are
    independent in Cl(X)⊗Q (a relation among them is the divisor of a unit
    on SL2/F, and such units are constant), so the solution is unique:
    returns (labels, [m]).  Raises EmptySolutionSet when m is not a
    non-negative integer vector, with a torsion-obstruction diagnostic when
    only the torsion part fails, and RuntimeError when the factored rank
    breaks the independence.
    """
    system = R.divisor_system
    if system.rank < system.A.cols:
        raise RuntimeError(
            f"invariant divisors dependent in Cl(X)⊗Q: rank {system.rank} "
            f"of {system.A.cols} divisors")
    return R.divisor_labels, solve_nonneg(system, target)


def restrict_to_Fhat(E: EmbeddingData, combo: dict) -> tuple[int, ...]:
    """Image of a class {label: coeff} in the character group of F.

    Invariant divisors restrict to zero; colors restrict to the F-weight of
    the semi-invariant cutting them out.
    """
    F = E.group
    gens = {g.label: g for g in divisor_generators(E)}
    acc = F.char_zero()
    for label, c in combo.items():
        g = gens[label]
        if g.kind in ("divisor", "dominating"):
            continue
        if g.kind == "distinguished":
            w = F.color_restriction("parametric")
        else:
            w = F.color_restriction(g.point.tag or "extra")
        acc = F.char_add(acc, F.char_scale(c, w))
    return acc
