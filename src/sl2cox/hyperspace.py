"""The rank-one hyperspace for SL2/F and its colored equipment.

G-valuations and colors of k(SL2/F) live as triples (x, h, l) in a union of
half-planes E_x = Q_+ x E glued along E, and E is one-dimensional here, so
every cone computation reduces to exact interval and sector arithmetic over
Q.  Cones are generated by rays: a colored hypercone keeps each generator
(x, h, l) with h > 0 as its slope l/h alone.  The valuation cone is cut out
by integer forms, a canonical color's (m, l) is read from the group's table
(``FiniteSubgroup.canonical``), and the l-coordinates depend on the chosen
section of the weight lattice inside k(X)^(B).

The section is given by its point, and two conventions are supported:

  * ``section=None``, the default: the generator built from a regular
    semi-invariant (cyclic case: a distinguished parametric point x_d carries
    the color with l = 1 and the valuation cone has its special slice there),
    respectively from the three subregular semi-invariants in the polyhedral
    cases.
  * ``section=p`` (cyclic only): the weight generator has divisor the color
    over the exceptional point p on the open orbit; that color gets l = 1,
    the special slice moves to p, and the parametric colors all sit at
    epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .exactmath import Qi, qi, qi_div, qi_str, rat
from .groups import DIHEDRAL, FiniteSubgroup

_TAGS = ("x0", "xinf", "xv", "xe", "xf", "xd")


class MalformedGenerators(Exception):
    """Hypercone generators must have non-negative h."""


class WrongKind(Exception):
    """Operation requires a hypercone of the other type."""


@dataclass(frozen=True)
class BasePoint:
    """A point of P^1: a symbolic canonical tag or homogeneous coordinates.

    Coordinates are triples (``exactmath.qi``).  Coordinate points are
    compared projectively; symbolic tags compare by tag and never equal a
    coordinate point.  The comparison key and its hash are computed once:
    the tag, or the quotient alpha/beta (``qi_div``, None at beta = 0).
    """

    tag: str | None = None
    alpha: Qi | None = None
    beta: Qi | None = None
    _key: object = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tag is not None:
            if self.tag not in _TAGS:
                raise ValueError(f"unknown point tag {self.tag!r}")
            if self.alpha is not None or self.beta is not None:
                raise ValueError("a point is a tag or coordinates, not both")
        else:
            if self.alpha is None or self.beta is None:
                raise ValueError("coordinate point needs alpha and beta")
            if not any(self.alpha[:2]) and not any(self.beta[:2]):
                raise ValueError("[0:0] is not a point of P^1")
        key = self.tag if self.tag is not None else qi_div(self.alpha, self.beta)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if not isinstance(other, BasePoint):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt on unpickling: a str hash differs across processes
        return BasePoint, (self.tag, self.alpha, self.beta)

    def __str__(self):
        if self.tag is not None:
            return self.tag
        return f"[{qi_str(*self.alpha)}:{qi_str(*self.beta)}]"


def point(alpha, beta) -> BasePoint:
    return BasePoint(alpha=qi(alpha), beta=qi(beta))


X0 = BasePoint(tag="x0")
XINF = BasePoint(tag="xinf")
XV = BasePoint(tag="xv")
XE = BasePoint(tag="xe")
XF = BasePoint(tag="xf")
XD = BasePoint(tag="xd")


@dataclass(frozen=True)
class HyperspaceVector:
    base: BasePoint
    h: Fraction
    l: Fraction

    def __post_init__(self):
        object.__setattr__(self, "h", rat(self.h))
        object.__setattr__(self, "l", rat(self.l))
        if self.h < 0:
            raise MalformedGenerators(f"h = {self.h} < 0 in hyperspace vector")

    def __str__(self):
        return f"({self.base},{self.h},{self.l})"


def epsilon(base: BasePoint) -> HyperspaceVector:
    return HyperspaceVector(base, Fraction(1), Fraction(0))


def _special_points(F: FiniteSubgroup, section: BasePoint | None) -> tuple[BasePoint, ...]:
    """Slices of the valuation cone carrying the non-generic inequality."""
    if F.is_cyclic:
        return (XD,) if section is None else (section,)
    if F.kind == DIHEDRAL:
        return (XV, XE)
    return (XV, XF)


def valuation_cone_contains(F: FiniteSubgroup, base: BasePoint, h, l,
                            section: BasePoint | None = None) -> bool:
    """Membership of (base, h, l) in the valuation cone: f(h,l) <= 0 for the
    Appendix-table form f = ``valuation_cone_form`` at base, tested on the
    integer numerator and denominator of l."""
    a, b = valuation_cone_form(F, base, section)
    return a * h * l.denominator + b * l.numerator <= 0


def valuation_cone_form(F: FiniteSubgroup, base: BasePoint | None,
                        section: BasePoint | None = None):
    """Linear form f(h,l) with V_x = {f <= 0} at the given base point, as
    integer coefficients: 2l - h on the special slices of a cyclic F and
    2l + h elsewhere; l, respectively l + h, for the polyhedral ones.  A
    base of None is a generic point."""
    special = base in _special_points(F, section)
    if F.is_cyclic:
        return (-1, 2) if special else (1, 2)
    return (0, 1) if special else (1, 1)


_ONE_ONE, _EPSILON = (1, Fraction(1)), (1, Fraction(0))


def color_coordinates(F: FiniteSubgroup, p: BasePoint, section: BasePoint | None = None):
    """(h, l) of the color over p for the chosen section: (1, 1) over the
    special point of a cyclic section (``_special_points``), (m, l) from
    ``F.canonical()`` over a canonical point, (1, 0) elsewhere."""
    if F.is_cyclic and p in _special_points(F, section):
        return _ONE_ONE
    c = F.canonical().points.get(p.tag)
    return _EPSILON if c is None else (c.mult, c.l)


def color_vector(F: FiniteSubgroup, p: BasePoint, section: BasePoint | None = None):
    """The color over p as a hyperspace vector (``color_coordinates``)."""
    return HyperspaceVector(p, *color_coordinates(F, p, section))


# -- hypercones as rays ---------------------------------------------------------
#
# A direction in E_x is an E-ray, (0,-1) or (0,+1), or the ray of slope l/h
# with h > 0.  Angular order is E-neg < slopes (increasing) < E-pos, encoded
# as the sortable keys (-1, 0) < (0, slope) < (1, 0).

_ENEG, _EPOS = (-1, 0), (1, 0)


def _form_at(key, form) -> Fraction:
    """The form a*h + b*l on a direction: a + b*slope on a slope ray, -b and
    +b on the two E-rays."""
    side, slope = key
    a, b = form
    return a + b * slope if side == 0 else side * b


@dataclass(frozen=True)
class Sector:
    """Closed 2D cone in a half-plane, as the angular interval [lo, hi] of
    direction keys; lo == hi is a single ray."""

    lo: tuple
    hi: tuple

    def open_meets_halfplane(self, form: tuple[int, int]) -> bool:
        """Does the 2D interior meet {form . (h,l) <= 0}?  It does iff the
        form is negative on a boundary ray, unless the form vanishes on both;
        that needs b = 0, and every ``valuation_cone_form`` has b in {1, 2}."""
        return self.lo != self.hi and (_form_at(self.lo, form) < 0 or _form_at(self.hi, form) < 0)

    def open_intersection(self, other: "Sector") -> "Sector | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Sector(lo, hi) if lo < hi else None


@dataclass(frozen=True)
class ColoredHypercone:
    """Finitely generated hypercone, read as rays.

    A generator (x, h, l) with h > 0 counts only as its slope l/h in the
    half-plane E_x.  ``slices`` maps each listed base point to the sorted
    distinct slopes of its generators; every unlisted point that is not in
    ``omitted`` carries the single generator epsilon_x, of slope 0.
    ``e_generators`` are generators on the shared boundary E (h = 0), e.g.
    the valuation of a divisor dominating P^1; only their signs count.  The
    slopes fix ``K``, the type and strict convexity on construction,
    following the generated-hypercone recipe: the slice over an unlisted
    point at height one is K shifted by epsilon, and B is K plus the sum of
    the slope intervals [min, max] of the slices, [p_lo, p_hi].
    """

    slices: tuple[tuple[BasePoint, tuple[Fraction, ...]], ...]
    e_generators: tuple[Fraction, ...] = ()
    omitted: tuple[BasePoint, ...] = ()

    # derived, filled by __post_init__
    kind: str = field(default="", compare=False)  # "A" (some point omitted) | "B"
    K: str = field(default="", compare=False)  # "zero" | "neg" | "pos" | "line"
    strictly_convex: bool = field(default=True, compare=False)

    def __post_init__(self):
        omitted = set(self.omitted) | {p for p, slopes in self.slices if not slopes}
        p_lo = sum((slopes[0] for _, slopes in self.slices if slopes), Fraction(0))
        p_hi = sum((slopes[-1] for _, slopes in self.slices if slopes), Fraction(0))
        has_neg = p_lo < 0 or any(e < 0 for e in self.e_generators)
        has_pos = p_hi > 0 or any(e > 0 for e in self.e_generators)
        k = "line" if has_neg and has_pos else "neg" if has_neg else "pos" if has_pos else "zero"
        kind = "A" if omitted else "B"
        if kind == "A":
            convex = k != "line"
        else:  # 0 must lie outside B
            convex = (k == "neg" and p_hi < 0) or (k == "pos" and p_lo > 0)
        object.__setattr__(self, "omitted", tuple(sorted(omitted, key=str)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "strictly_convex", convex)

    def slopes_at(self, p: BasePoint | None) -> tuple[Fraction, ...]:
        """The slopes of the generators over p: the listed ones, none at an
        omitted point, and epsilon's slope 0 elsewhere (at p = None, a
        generic point, too)."""
        for q, slopes in self.slices:
            if q == p:
                return slopes
        return () if p in self.omitted else (Fraction(0),)

    def slice_sector(self, p: BasePoint | None) -> Sector | None:
        """The cone C_p, K plus the rays over p, as an angular sector; None
        when C_p = K (an omitted point)."""
        slopes = self.slopes_at(p)
        if not slopes:
            return None
        lo = _ENEG if self.K in ("neg", "line") else (0, slopes[0])
        hi = _EPOS if self.K in ("pos", "line") else (0, slopes[-1])
        return Sector(lo, hi)


def hypercone_from_generators(
    vectors: Iterable[HyperspaceVector],
    e_parts: Iterable = (),
    omitted: Iterable[BasePoint] = (),
) -> ColoredHypercone:
    """Group the generators by base point, each as its slope; epsilon is
    implied elsewhere."""
    by_point: dict[BasePoint, set[Fraction]] = {}
    for v in vectors:
        if v.h == 0:
            raise MalformedGenerators(
                "generators in E (h = 0) are shared and belong in e_generators")
        by_point.setdefault(v.base, set()).add(v.l / v.h)
    return ColoredHypercone(
        slices=tuple((p, tuple(sorted(slopes))) for p, slopes in by_point.items()),
        e_generators=tuple(rat(e) for e in e_parts),
        omitted=tuple(omitted),
    )


def _probe_points(cones: Sequence[ColoredHypercone], F: FiniteSubgroup,
                  section: BasePoint | None) -> list[BasePoint | None]:
    """The points where the slices can differ: each point a cone lists or
    omits and each special slice of the valuation cone, then None for all
    the others, a generic point (epsilon plus K, under the generic form)."""
    pts = [p for c in cones for p, _ in c.slices]
    pts += [p for c in cones for p in c.omitted] + list(_special_points(F, section))
    return [*dict.fromkeys(pts), None]


def is_supported(
    c: ColoredHypercone, F: FiniteSubgroup, section: BasePoint | None = None
) -> bool:
    """Interior of a type-B hypercone meets the valuation cone.

    The interior is the union of the 2D interiors of the slices C_x together
    with the interior of K inside E; supportedness asks it to meet V.
    """
    if c.kind != "B":
        raise WrongKind("supportedness is defined for type-B hypercones")
    if c.K in ("neg", "line"):
        return True  # int K contains negative E-directions, inside V's E-part
    for p in _probe_points([c], F, section):
        sector = c.slice_sector(p)
        if sector is not None and sector.open_meets_halfplane(
            valuation_cone_form(F, p, section)
        ):
            return True
    return False


def interiors_disjoint(
    c1: ColoredHypercone,
    c2: ColoredHypercone,
    F: FiniteSubgroup,
    section: BasePoint | None = None,
) -> bool:
    """No common interior point inside the valuation cone, slice by slice.

    Type-A hypercones contribute only their per-point 2D interiors; type-B
    hypercones also contribute the interior of K inside E.
    """
    if (c1.kind == "B" and c2.kind == "B"
            and c1.K in ("neg", "line") and c2.K in ("neg", "line")):
        return False  # both K-interiors contain negative E-directions, inside V
    for p in _probe_points([c1, c2], F, section):
        s1 = c1.slice_sector(p)
        s2 = c2.slice_sector(p)
        if s1 is None or s2 is None:
            continue
        common = s1.open_intersection(s2)
        if common is not None and common.open_meets_halfplane(
            valuation_cone_form(F, p, section)
        ):
            return False
    return True
