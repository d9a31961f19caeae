"""The rank-one hyperspace for SL2/F and its colored equipment.

G-valuations and colors of k(SL2/F) live as triples (x, h, l) in a union of
half-planes E_x = Q_+ x E glued along E, and E is one-dimensional here, so
every cone computation reduces to exact interval and sector arithmetic over
Q.  The per-subgroup inequalities cutting out the valuation cone and the
coordinates of the colors are hard-wired tables; the l-coordinates depend on
the chosen section of the weight lattice inside k(X)^(B).

Two conventions for the section are supported:

  * ``Section.default()``: the generator built from a regular semi-invariant
    (cyclic case: a distinguished parametric point x_d carries the color with
    l = 1 and the valuation cone has its special slice there), respectively
    from the three subregular semi-invariants in the polyhedral cases.
  * ``Section.at(p)`` (cyclic only): the weight generator has divisor the
    color over the exceptional point p on the open orbit; that color gets
    l = 1, the special slice moves to p, and the parametric colors all sit
    at epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable, Sequence

from .exactmath import GaussianRational, gauss, rat
from .groups import DIHEDRAL, FiniteSubgroup
from .ogpoly import _split

_TAGS = ("x0", "xinf", "xv", "xe", "xf", "xd")


class MalformedGenerators(Exception):
    """Hypercone generators must have non-negative h."""


class WrongKind(Exception):
    """Operation requires a hypercone of the other type."""


@dataclass(frozen=True)
class BasePoint:
    """A point of P^1: a symbolic canonical tag or homogeneous coordinates.

    Coordinate points are compared projectively; symbolic tags compare by
    tag and never equal a coordinate point.  The comparison key and its hash
    are computed once: the tag, or ``ratio_key(alpha, beta)``.
    """

    tag: str | None = None
    alpha: GaussianRational | None = None
    beta: GaussianRational | None = None
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
            if not self.alpha and not self.beta:
                raise ValueError("[0:0] is not a point of P^1")
        key = self.tag if self.tag is not None else ratio_key(self.alpha, self.beta)
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
        return f"[{self.alpha}:{self.beta}]"


def ratio_key(alpha, beta) -> tuple[int, int, int] | None:
    """alpha/beta as the integer triple (x, y, d) with alpha/beta = (x + y*i)/d,
    d > 0 and gcd(x, y, d) = 1, found by one gcd pass; None for beta = 0."""
    (p, q, r), (s, t, w) = _split(alpha), _split(beta)
    x, y, d = w * (p * s + q * t), w * (q * s - p * t), r * (s * s + t * t)
    g = gcd(x, y, d)
    return (x // g, y // g, d // g) if d else None


def point(alpha, beta) -> BasePoint:
    return BasePoint(alpha=gauss(alpha), beta=gauss(beta))


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


@dataclass(frozen=True)
class Section:
    """Choice of the weight-lattice generator inside k(X)^(B)."""

    kind: str = "default"
    at_point: BasePoint | None = None

    @staticmethod
    def default() -> "Section":
        return Section("default", None)

    @staticmethod
    def at(p: BasePoint) -> "Section":
        return Section("color_at", p)


def _special_points(F: FiniteSubgroup, section: Section) -> tuple[BasePoint, ...]:
    """Slices of the valuation cone carrying the non-generic inequality."""
    if F.is_cyclic:
        if section.kind == "color_at":
            return (section.at_point,)
        return (XD,)
    if F.kind == DIHEDRAL:
        return (XV, XE)
    return (XV, XF)


def valuation_cone_contains(F: FiniteSubgroup, base: BasePoint, h, l,
                            section: Section = Section.default()) -> bool:
    """Membership of (base, h, l) in the valuation cone: f(h,l) <= 0 for the
    Appendix-table form f = ``valuation_cone_form`` at base, tested on the
    integer numerator and denominator of l."""
    a, b = valuation_cone_form(F, base, section)
    return a * h * l.denominator + b * l.numerator <= 0


def valuation_cone_form(F: FiniteSubgroup, base: BasePoint, section: Section = Section.default()):
    """Linear form f(h,l) with V_x = {f <= 0} at the given base point, as
    integer coefficients: 2l - h on the special slices of a cyclic F and
    2l + h elsewhere; l, respectively l + h, for the polyhedral ones."""
    special = base in _special_points(F, section)
    if F.is_cyclic:
        return (-1, 2) if special else (1, 2)
    return (0, 1) if special else (1, 1)


_ONE_ONE, _EPSILON = (1, Fraction(1)), (1, Fraction(0))


@cache
def _canonical_colors(F: FiniteSubgroup) -> dict[str, tuple[int, Fraction]]:
    """(m, l) of the color over each canonical point of multiplicity m
    (``F.canonical_multiplicities()``): one table per group."""
    mults = F.canonical_multiplicities()
    if F.is_cyclic:
        return {t: (m, Fraction(1 - m, 2)) for t, m in mults.items()}
    ls = {"xv": 1, "xe": 1, "xf": 1 - F.n} if F.kind == DIHEDRAL else {"xv": 1, "xe": -1, "xf": 1}
    return {t: (m, Fraction(ls[t])) for t, m in mults.items()}


def color_coordinates(F: FiniteSubgroup, p: BasePoint, section: Section = Section.default()):
    """(h, l) of the color over p for the chosen section: (1, 1) over the
    special point of a cyclic section (``_special_points``), the
    ``_canonical_colors`` entry over a canonical point, (1, 0) elsewhere."""
    if F.is_cyclic and p in _special_points(F, section):
        return _ONE_ONE
    return _canonical_colors(F).get(p.tag, _EPSILON)


def color_vector(F: FiniteSubgroup, p: BasePoint, section: Section = Section.default()):
    """The color over p as a hyperspace vector (``color_coordinates``)."""
    return HyperspaceVector(p, *color_coordinates(F, p, section))


# -- sectors in a half-plane E_x ---------------------------------------------
#
# A direction in E_x is an E-ray (0,-1) or (0,+1), or a ray of slope l/h with
# h > 0.  Angular order is E-neg < slopes (increasing) < E-pos, encoded as
# sortable keys.

_ENEG = (-1, Fraction(0))
_EPOS = (1, Fraction(0))


def _dir_key(h: Fraction, l: Fraction):
    if h == 0:
        if l < 0:
            return _ENEG
        if l > 0:
            return _EPOS
        raise ValueError("zero vector has no direction")
    return (0, Fraction(l, h))


def _dir_vec(key) -> tuple[Fraction, Fraction]:
    side, slope = key
    if side == -1:
        return (Fraction(0), Fraction(-1))
    if side == 1:
        return (Fraction(0), Fraction(1))
    return (Fraction(1), slope)


@dataclass(frozen=True)
class Sector:
    """Closed 2D cone in a half-plane, as an angular interval of directions."""

    lo: tuple  # direction keys; lo == hi means a single ray, None means {0}
    hi: tuple

    @staticmethod
    def from_directions(keys) -> "Sector | None":
        keys = sorted(set(keys))
        if not keys:
            return None
        return Sector(keys[0], keys[-1])

    @property
    def is_two_dimensional(self) -> bool:
        return self.lo != self.hi

    def open_meets_halfplane(self, form: tuple[Fraction, Fraction]) -> bool:
        """Does the 2D interior meet {form . (h,l) <= 0}?"""
        if not self.is_two_dimensional:
            return False
        a, b = form
        vlo, vhi = _dir_vec(self.lo), _dir_vec(self.hi)
        flo = a * vlo[0] + b * vlo[1]
        fhi = a * vhi[0] + b * vhi[1]
        if flo < 0 or fhi < 0:
            return True
        if flo or fhi:
            return False
        # form vanishes on both boundary rays: decide on an interior direction
        mid = (vlo[0] + vhi[0], vlo[1] + vhi[1])
        if mid == (0, 0):  # full half-plane
            mid = (Fraction(1), Fraction(0))
        return a * mid[0] + b * mid[1] <= 0

    def open_intersection(self, other: "Sector") -> "Sector | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Sector(lo, hi)


@dataclass(frozen=True)
class ColoredHypercone:
    """Finitely generated hypercone: explicit slices plus epsilon elsewhere.

    ``slices`` maps each listed base point to its generators in that
    half-plane; every unlisted point that is not in ``omitted`` carries the
    single generator epsilon_x.  ``e_generators`` are generators lying in the
    shared boundary E (h = 0), e.g. the valuation of a divisor dominating
    P^1.  ``K``, ``B`` and the type classification are computed on
    construction, following the generated-hypercone recipe: the slice of the
    cone over an unlisted point at height one is K shifted by epsilon.
    """

    slices: tuple[tuple[BasePoint, tuple[HyperspaceVector, ...]], ...]
    e_generators: tuple[Fraction, ...] = ()
    omitted: tuple[BasePoint, ...] = ()

    # derived, filled by __post_init__
    kind: str = field(default="", compare=False)
    K: str = field(default="", compare=False)  # "zero" | "neg" | "pos" | "line"
    B_lo: object = field(default=None, compare=False)  # Fraction | "-inf"
    B_hi: object = field(default=None, compare=False)  # Fraction | "+inf"
    strictly_convex: bool = field(default=True, compare=False)

    def __post_init__(self):
        for p, vecs in self.slices:
            for v in vecs:
                if v.base != p:
                    raise MalformedGenerators(f"generator {v} listed under {p}")
                if v.h == 0:
                    raise MalformedGenerators(
                        "generators in E (h = 0) are shared and belong in e_generators")
        p_lo = Fraction(0)
        p_hi = Fraction(0)
        omitted = set(self.omitted)
        for p, vecs in self.slices:
            slopes = [Fraction(v.l, v.h) for v in vecs if v.h > 0]
            if not slopes:
                omitted.add(p)
                continue
            p_lo += min(slopes)
            p_hi += max(slopes)
        has_neg = p_lo < 0 or any(e < 0 for e in self.e_generators)
        has_pos = p_hi > 0 or any(e > 0 for e in self.e_generators)
        if has_neg and has_pos:
            k = "line"
        elif has_neg:
            k = "neg"
        elif has_pos:
            k = "pos"
        else:
            k = "zero"
        kind = "A" if omitted else "B"
        b_lo = "-inf" if k in ("neg", "line") else p_lo
        b_hi = "+inf" if k in ("pos", "line") else p_hi
        convex = k != "line"
        if kind == "B" and convex:
            lo_ok = (b_lo != "-inf" and b_lo > 0)
            hi_ok = (b_hi != "+inf" and b_hi < 0)
            if not (lo_ok or hi_ok):
                convex = False  # 0 lies in B
        object.__setattr__(self, "omitted", tuple(sorted(omitted, key=str)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "B_lo", b_lo)
        object.__setattr__(self, "B_hi", b_hi)
        object.__setattr__(self, "strictly_convex", convex)

    # -- slice access ---------------------------------------------------------

    def listed_points(self) -> list[BasePoint]:
        return [p for p, _ in self.slices]

    def generators_at(self, p: BasePoint) -> tuple[HyperspaceVector, ...] | None:
        """Explicit generators over p; None when p only carries epsilon."""
        for q, vecs in self.slices:
            if q == p:
                return vecs
        if p in self.omitted:
            return ()
        return None

    def _k_directions(self):
        if self.K == "neg":
            return [_ENEG]
        if self.K == "pos":
            return [_EPOS]
        if self.K == "line":
            return [_ENEG, _EPOS]
        return []

    def slice_sector(self, p: BasePoint) -> Sector | None:
        """The cone C_p as an angular sector, None when C_p = K (omitted point)."""
        vecs = self.generators_at(p)
        if vecs == ():
            return None
        keys = list(self._k_directions())
        if vecs is None:
            keys.append(_dir_key(Fraction(1), Fraction(0)))
        else:
            for v in vecs:
                if v.h > 0:
                    keys.append(_dir_key(v.h, v.l))
        return Sector.from_directions(keys)


def hypercone_from_generators(
    vectors: Iterable[HyperspaceVector],
    e_parts: Iterable = (),
    omitted: Iterable[BasePoint] = (),
) -> ColoredHypercone:
    """Group the generators by base point; epsilon is implied elsewhere."""
    by_point: dict[BasePoint, list[HyperspaceVector]] = {}
    order: list[BasePoint] = []
    for v in vectors:
        if v.base not in by_point:
            by_point[v.base] = []
            order.append(v.base)
        by_point[v.base].append(v)
    return ColoredHypercone(
        slices=tuple((p, tuple(by_point[p])) for p in order),
        e_generators=tuple(rat(e) for e in e_parts),
        omitted=tuple(omitted),
    )


def _probe_points(cones: Sequence[ColoredHypercone], F: FiniteSubgroup,
                  section: Section) -> list[BasePoint]:
    pts: list[BasePoint] = []
    seen = set()

    def add(p):
        if p not in seen:
            seen.add(p)
            pts.append(p)

    for c in cones:
        for p in c.listed_points():
            add(p)
        for p in c.omitted:
            add(p)
    for p in _special_points(F, section):
        add(p)
    # one representative for the generic (epsilon-only, generic slice) points
    add(BasePoint(alpha=gauss("777919"), beta=gauss(1)))
    return pts


def is_supported(
    c: ColoredHypercone, F: FiniteSubgroup, section: Section = Section.default()
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
    section: Section = Section.default(),
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
