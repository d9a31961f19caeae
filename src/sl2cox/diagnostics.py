"""Singularity and fiber-geometry predicates.

Platonic tuples drive all the log-terminality criteria: a decreasingly
sorted tuple is Platonic when its leading triple is (5,3,2), (4,3,2),
(3,3,2), (x,2,2) or (x,y,1) and the remaining entries are 1.  The total
coordinate space is log terminal iff the trinomial model of Cox(X)^U is a
Platonic ring; X itself is log terminal iff it has no fixed point and its
orbit of type A_l (if any) carries a Platonic multiplicity tuple.  The
special-fiber normality criteria and the constant-functions certificate are
the cyclic/polyhedral case analyses, evaluated combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .embedding import EmbeddingData, derive_ap0_input
from .hyperspace import (
    BasePoint,
    ColoredHypercone,
    X0,
    XD,
    XINF,
    color_vector,
    epsilon,
)


class HypothesesNotMet(Exception):
    """The predicate's preconditions fail; no verdict is implied."""


@dataclass(frozen=True)
class PlatonicVerdict:
    is_platonic: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self):
        return self.is_platonic


_EXACT_TRIPLES = {(5, 3, 2), (4, 3, 2), (3, 3, 2)}


def is_platonic_tuple(t) -> PlatonicVerdict:
    """Sorted decreasingly, the leading triple must match a Platonic pattern
    and everything after it must equal one; tuples of length <= 2 pass."""
    s = tuple(sorted(t, reverse=True))
    if any(x < 1 for x in s):
        raise ValueError("tuples must have positive entries")
    if len(s) <= 2:
        return PlatonicVerdict(True)
    if any(x != 1 for x in s[3:]):
        return PlatonicVerdict(False, s)
    triple = s[:3]
    if triple[2] == 1:
        return PlatonicVerdict(True)  # (x, y, 1)
    if triple[1] == 2 and triple[2] == 2:
        return PlatonicVerdict(True)  # (x, 2, 2), including x = 2
    if triple in _EXACT_TRIPLES:
        return PlatonicVerdict(True)
    return PlatonicVerdict(False, s)


def is_platonic_ring(ap0) -> PlatonicVerdict:
    """Platonic-ring test on the trinomial input data (A, exponent vectors, m).

    True when r <= 1 or every cross-tuple (one entry per exponent vector) is
    Platonic.  The tuple of per-vector maxima is itself a cross-tuple and
    dominates every other one entrywise after sorting, and Platonicity is
    closed downward under that dominance, so testing the maxima alone is
    exact (Arzhantsev-Braun-Hausen-Wrobel, Eur. J. Math. 2018).  A failing
    verdict carries the sorted maxima tuple as its witness.
    """
    _, vectors, _ = ap0
    if len(vectors) <= 2:
        return PlatonicVerdict(True)
    return is_platonic_tuple(tuple(max(v) for v in vectors))


def log_terminal_total_space(E: EmbeddingData) -> PlatonicVerdict:
    """Log terminality of the total coordinate space: the Platonic-ring test
    on the derived trinomial data."""
    return is_platonic_ring(derive_ap0_input(E))


# -- special fiber -----------------------------------------------------------


def special_fiber_normal(E: EmbeddingData) -> bool:
    """Normality of the zero fiber of the invariant-theory quotient.

    Cyclic n <= 2: always normal.  Cyclic n >= 3: both canonical families
    non-empty, or no extra points.  Polyhedral: all three canonical families
    non-empty, or (no extra points and all three empty).
    """
    E.require_valid()
    F = E.group
    if F.is_cyclic:
        if F.n <= 2:
            return True
        both = bool(E.divisors_over(X0)) and bool(E.divisors_over(XINF))
        return both or not E.extra_points
    fams = [bool(E.divisors_over(p)) for p in E.canonical_points()]
    if all(fams):
        return True
    return not E.extra_points and not any(fams)


def constant_functions_only(E: EmbeddingData):
    """Only constant regular functions: certificate sum of slopes l/h over
    three divisors at pairwise distinct exceptional points, plus one.

    Requires cyclic F, a normal special fiber and at least three exceptional
    points with such divisors.  Returns (certificate < 0, certificate): the
    theorem says the certificate is negative on every valid input, and the
    first entry reports whether this one is.
    """
    F = E.group
    if not F.is_cyclic:
        raise HypothesesNotMet("cyclic F required")
    if len(E.exceptional_points()) < 3:
        raise HypothesesNotMet("at least three exceptional points required")
    if not special_fiber_normal(E):
        raise HypothesesNotMet("the special fiber must be normal")
    picked = []
    for p in E.exceptional_points():
        divs = E.divisors_over(p)
        if divs:
            picked.append(divs[0])
        if len(picked) == 3:
            break
    if len(picked) < 3:
        raise HypothesesNotMet(
            "need G-stable divisors over three pairwise distinct points")
    cert = sum((Fraction(d.l, d.h) for d in picked), Fraction(1))
    return cert < 0, cert


# -- orbits and log terminality of X ------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    kind: str  # "fixed_point" | "A_l" | "other"
    tuple: tuple[int, ...] = ()


def classify_hypercone_orbit(c: ColoredHypercone, E: EmbeddingData) -> OrbitClass:
    """Fixed point iff the hypercone contains every color (cyclic F only);
    type A_l iff it is generated by one G-valuation over each of l distinct
    exceptional points together with the colors of all the other points."""
    F = E.group
    section = E.section
    if c.omitted:
        return OrbitClass("other")

    colors: dict[BasePoint, object] = {
        p: color_vector(F, p, section) for p in E.exceptional_points()
    }
    if F.is_cyclic and section.kind == "default":
        colors[XD] = color_vector(F, XD, section)
    listed = {p: set(vecs) for p, vecs in c.slices}

    def color_of(p):
        return colors.get(p, epsilon(p))

    def carries_color(p) -> bool:
        col = color_of(p)
        vecs = listed.get(p)
        if vecs is None:
            return col.h == 1 and col.l == 0  # implied epsilon generator
        return col in vecs

    if F.is_cyclic and all(carries_color(p) for p in set(colors) | set(listed)):
        return OrbitClass("fixed_point")

    # type A_l: the listed slices are either exactly the point's color, or a
    # single divisor vector of the embedding replacing the color
    tuple_h: list[int] = []
    exceptional = set(E.exceptional_points())
    for p, vecs in c.slices:
        vset = set(vecs)
        if vset == {color_of(p)}:
            continue
        if p in exceptional:
            divs = {d.vector() for d in E.divisors_over(p)}
            if len(vset) == 1 and vset <= divs:
                tuple_h.append(int(next(iter(vset)).h))
                continue
        return OrbitClass("other")
    # colors of the complementary points must all be present
    for p, col in colors.items():
        if p not in listed and not (col.h == 1 and col.l == 0):
            return OrbitClass("other")
    if c.kind == "B" and tuple_h:
        return OrbitClass("A_l", tuple(tuple_h))
    return OrbitClass("other")


def log_terminal_X(E: EmbeddingData, hypercones) -> PlatonicVerdict:
    """No G-fixed point, and the A_l orbit (if present) is Platonic; A_l
    tuples of length <= 2 are Platonic by convention."""
    E.require_valid()
    for c in hypercones:
        orbit = classify_hypercone_orbit(c, E)
        if orbit.kind == "fixed_point":
            return PlatonicVerdict(False, ())
        if orbit.kind == "A_l" and len(orbit.tuple) > 2:
            verdict = is_platonic_tuple(orbit.tuple)
            if not verdict:
                return PlatonicVerdict(False, orbit.tuple)
    return PlatonicVerdict(True)
