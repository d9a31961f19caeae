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

from .embedding import EmbeddingData
from .hyperspace import ColoredHypercone, X0, XD, XINF, color_coordinates


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
    # every exceptional point carries a divisor here: validation gives each
    # extra point one, and for n >= 3 normality with an extra point needs
    # divisors over x0 and xinf (for n <= 2 there are only extra points)
    picked = [E.divisors_over(p)[0] for p in E.exceptional_points()[:3]]
    cert = sum((Fraction(d.l, d.h) for d in picked), Fraction(1))
    return cert < 0, cert


# -- orbits and log terminality of X ------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    kind: str  # "fixed_point" | "A_l" | "other"
    tuple: tuple[int, ...] = ()


def classify_hypercone_orbit(c: ColoredHypercone, E: EmbeddingData) -> OrbitClass:
    """The orbit class of a hypercone, read on rays: a generator counts only
    as its slope.  Fixed point iff the hypercone contains every color
    (cyclic F only); type A_l iff it is generated by the ray of one G-stable
    divisor over each of l distinct exceptional points together with the
    colors of all the other points.  An A_l entry is the h of the
    embedding's divisor on the listed ray."""
    if c.omitted:
        return OrbitClass("other")
    F, section = E.group, E.section

    def color(p):  # the slope of the color over p
        h, l = color_coordinates(F, p, section)
        return l / h

    colored = set(E.exceptional_points())  # the colors elsewhere are epsilon
    if F.is_cyclic and section is None:
        colored.add(XD)
    listed = [p for p, _ in c.slices]
    if F.is_cyclic and all(color(p) in c.slopes_at(p) for p in colored.union(listed)):
        return OrbitClass("fixed_point")

    # type A_l: each listed slice is the ray of its color or of one divisor,
    # and every unlisted point carries its color, so that color is epsilon
    tuple_h: list[int] = []
    for p, slopes in c.slices:
        if slopes == (color(p),):
            continue
        hs = [d.h for d in E.divisors_over(p) if slopes == (d.l / d.h,)]
        if not hs:
            return OrbitClass("other")
        tuple_h.append(hs[0])
    if not tuple_h or any(color(p) for p in colored.difference(listed)):
        return OrbitClass("other")
    return OrbitClass("A_l", tuple(tuple_h))


def log_terminal_X(orbits) -> PlatonicVerdict:
    """Log terminality of X from the orbit classes of its hypercones: no
    G-fixed point, and the A_l orbit (if present) Platonic; A_l tuples of
    length <= 2 are Platonic by convention."""
    for orbit in orbits:
        if orbit.kind == "fixed_point":
            return PlatonicVerdict(False, ())
        if orbit.kind == "A_l" and not is_platonic_tuple(orbit.tuple):
            return PlatonicVerdict(False, orbit.tuple)
    return PlatonicVerdict(True)
