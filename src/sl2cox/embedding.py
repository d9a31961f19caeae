"""Combinatorial input data of a normal SL2/F-embedding.

An embedding is described by the finite subgroup F, the exceptional points of
the rational quotient to P^1 (the canonical ones are forced by F and read
from ``F.canonical()``, the others are user-supplied coordinates), the
G-stable prime divisors as hyperspace vectors (x, h, l), an optional divisor
dominating P^1, and the section convention fixing the l-coordinates of the
colors (the point whose color is the section's divisor, or None).  ``EmbeddingData.by_point`` groups the
divisors by point once; every lookup by point reads it.

Validation checks exactly the structural invariants of this data: the
valuation-cone inequalities per divisor, distinctness of points, integrality
of u*l, at most one dominating divisor.  It does not attempt to reconstruct
a hyperfan.  It runs on integers and on tables built once per group or
embedding, and builds no point and no hyperspace vector.

Every input file is read here: embedding files (``load_embedding``, or
``read_input`` for the bytes and their digest, parsed by ``load_embedding``)
and the hypercones files of ``diagnose --hypercones`` (``load_hypercones``).
An unreadable file, invalid JSON or a document outside the schema raises
``SchemaError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .exactmath import Qi, frac_str, qi, qi_div, rat
from .groups import FiniteSubgroup, cyclic, dihedral, ICOSA, OCTA, TETRA
from .hyperspace import (
    BasePoint,
    ColoredHypercone,
    HyperspaceVector,
    MalformedGenerators,
    X0,
    XD,
    XE,
    XF,
    XINF,
    XV,
    color_coordinates,
    color_vector,
    epsilon,
    hypercone_from_generators,
    interiors_disjoint,
    is_supported,
    point,
    valuation_cone_contains,
)


class InvalidEmbedding(Exception):
    """Raised by operations that require a valid embedding."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class GStableDivisorSpec:
    """G-stable prime divisor: its point (or dominating), h and l."""

    over: BasePoint | None  # None = dominating P^1
    h: int
    l: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l", rat(self.l))

    @property
    def dominating(self) -> bool:
        return self.over is None


@dataclass(frozen=True)
class EmbeddingData:
    group: FiniteSubgroup
    extra_points: tuple[BasePoint, ...] = ()
    divisors: tuple[GStableDivisorSpec, ...] = ()
    section: BasePoint | None = None  # the color of the section's divisor; None: default

    # -- point bookkeeping ----------------------------------------------------

    def canonical_points(self) -> tuple[BasePoint, ...]:
        return tuple(_canonical_points(self.group).values())

    def exceptional_points(self) -> tuple[BasePoint, ...]:
        return self.canonical_points() + tuple(self.extra_points)

    @cached_property
    def by_point(self) -> dict[BasePoint | None, tuple[GStableDivisorSpec, ...]]:
        """The divisors by point, in input order: each exceptional point
        (canonical, then extra; a repeated one once), None with the
        dominating ones, then any unlisted point a divisor lies over."""
        table: dict = {p: [] for p in self.exceptional_points()}
        table[None] = []
        for d in self.divisors:
            table.setdefault(d.over, []).append(d)
        return {p: tuple(divs) for p, divs in table.items()}

    def divisors_over(self, p: BasePoint) -> tuple[GStableDivisorSpec, ...]:
        return self.by_point.get(p, ())

    def dominating_divisor(self) -> GStableDivisorSpec | None:
        return next(iter(self.by_point[None]), None)

    # -- validation -----------------------------------------------------------

    def validate(self) -> list[Violation]:
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """The structural violations, computed once per (immutable) embedding
        from the table of divisors by point."""
        v: list[Violation] = []
        F, section, u = self.group, self.section, self.group.u
        canon = _canonical_points(F)  # ratio key -> canonical point

        listed = set(canon.values())
        for p in self.extra_points:
            if p.tag is not None:
                v.append(Violation("ExtraPointIsTag", f"extra point {p} must be coordinates"))
            else:
                if p in listed:
                    v.append(Violation("DuplicatePoint", f"extra point {p} repeated"))
                if p._key in canon:
                    v.append(Violation("PointClashesCanonical",
                                       f"extra point {p} equals canonical {canon[p._key]}"))
            listed.add(p)

        for p, divs in self.by_point.items():
            for d in divs:
                if p is None:
                    if d.h != 0:
                        v.append(Violation("DominatingH", "a dominating divisor has h = 0"))
                    if d.l.numerator >= 0:
                        v.append(Violation("DominatingL", "a dominating divisor has l < 0"))
                elif p not in listed:
                    v.append(Violation(
                        "DivisorOverUnknownPoint", f"divisor over {d.over} which is not listed"))
                    continue
                elif d.h < 1:
                    v.append(Violation("NonpositiveH", f"divisor over {d.over} has h = {d.h}"))
                    continue
                elif not valuation_cone_contains(F, d.over, d.h, d.l, section):
                    v.append(Violation(
                        "ValuationOutsideCone",
                        f"({d.over},{d.h},{d.l}) violates the valuation-cone inequality"))
                if u % d.l.denominator:
                    where = "on the dominating divisor" if p is None else f"over {d.over}"
                    rule = f"in (1/{u})Z" if u != 1 else "integral"
                    v.append(Violation("FractionalL", f"l = {d.l} {where} not {rule}"))
        if len(self.by_point[None]) > 1:
            v.append(Violation("TooManyDominating", "at most one divisor dominates P^1"))

        for p in self.extra_points:
            if p.tag is None and not self.by_point[p]:
                v.append(Violation(
                    "ExtraPointWithoutDivisor",
                    f"extra point {p} carries no G-stable divisor, so its "
                    f"fiber is parametric and the point is not exceptional"))

        if section is not None:
            if not F.is_cyclic:
                v.append(Violation("SectionNotCyclic",
                                   "the color-at section is only defined for cyclic F"))
            elif section not in listed:
                v.append(Violation("SectionPointUnknown",
                                   f"section point {section} is not exceptional"))
            elif section in canon.values():
                v.append(Violation("SectionAtCanonical",
                                   "the section divisor cannot sit at a canonical color"))

        return tuple(sorted(v, key=lambda x: (x.code, x.detail)))

    def require_valid(self) -> "EmbeddingData":
        violations = self.validate()
        if violations:
            raise InvalidEmbedding(violations)
        return self


# The points that play x0 and xinf for cyclic F with n <= 2, which has no
# canonical point; a listed point equal to one of them plays its role with
# its own coordinates.
ROLE_POINTS = MappingProxyType({"x0": point(0, 1), "xinf": point(1, 0)})


@cache
def _canonical_points(F: FiniteSubgroup) -> dict:
    """The canonical points of F (``F.canonical()``) by the key alpha/beta
    of their coordinates (``qi_div``): built once per group."""
    return {qi_div(c.alpha, c.beta): _POINT_REFS[t] for t, c in F.canonical().points.items()}


def point_coordinates(F: FiniteSubgroup, p: BasePoint) -> tuple[Qi, Qi]:
    """Homogeneous coordinates (alpha, beta) of an exceptional point: from
    ``F.canonical()`` for a canonical tag, as given otherwise."""
    c = F.canonical().points.get(p.tag)
    return (p.alpha, p.beta) if c is None else (c.alpha, c.beta)


def derive_ap0_input(E: EmbeddingData):
    """Coefficient matrix and exponent vectors of the trinomial model of Cox^U.

    Returns (A, exponent_vectors, m): A is the 2 x (r+1) matrix whose columns
    are the homogeneous coordinates of the exceptional points, the i-th
    exponent vector is (n_i, h_i1, h_i2, ...) over that point, and m flags a
    divisor dominating P^1.
    """
    E.require_valid()
    cols: list[tuple[Qi, Qi]] = []
    exponents: list[tuple[int, ...]] = []
    for p in E.exceptional_points():
        cols.append(point_coordinates(E.group, p))
        exponents.append((color_coordinates(E.group, p, E.section)[0],)
                         + tuple(d.h for d in E.divisors_over(p)))
    m = 1 if E.dominating_divisor() is not None else 0
    return cols, exponents, m


def affine_embedding(n: int, h: int, l) -> EmbeddingData:
    """The affine shape: cyclic F, a single divisor (x0, h, l), no extras.

    For n <= 2 the role of x0 is played by its point in ``ROLE_POINTS``.
    """
    F = cyclic(n)
    lq = rat(l)
    if n >= 3:
        return EmbeddingData(F, (), (GStableDivisorSpec(X0, h, lq),))
    p0 = ROLE_POINTS["x0"]
    return EmbeddingData(F, (p0,), (GStableDivisorSpec(p0, h, lq),))


# -- JSON input ----------------------------------------------------------------

_GROUPS = {
    "cyclic": lambda n: cyclic(n),
    "dihedral": lambda n: dihedral(n),
    "tetrahedral": lambda n: TETRA,
    "octahedral": lambda n: OCTA,
    "icosahedral": lambda n: ICOSA,
}

_POINT_REFS = {"x0": X0, "xinf": XINF, "xv": XV, "xe": XE, "xf": XF}


class SchemaError(Exception):
    """Malformed embedding file."""


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)} in {where}")


def _list(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} in {where} must be a list")
    return value


def _rat(x, where: str) -> Fraction:
    try:
        return rat(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_coord(x, where: str) -> Qi:
    if isinstance(x, dict):
        _check_keys(x, {"re", "im"}, where)
    try:
        return qi(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad coordinate in {where}: {exc}") from exc


def _parse_point(p: dict, where: str) -> BasePoint:
    _check_keys(p, {"alpha", "beta"}, where)
    alpha = _parse_coord(p.get("alpha", 0), f"{where}.alpha")
    beta = _parse_coord(p.get("beta", 0), f"{where}.beta")
    if not any(alpha[:2]) and not any(beta[:2]):
        raise SchemaError(f"{where} is [0:0]")
    return BasePoint(alpha=alpha, beta=beta)


def _point_ref(ref, extras: list[BasePoint], where: str) -> BasePoint:
    if isinstance(ref, str) and ref in _POINT_REFS:
        return _POINT_REFS[ref]
    if isinstance(ref, str) and ref.startswith("extra:"):
        idx = ref[len("extra:"):]
        if not idx.isdecimal() or int(idx) >= len(extras):
            raise SchemaError(f"bad extra-point reference {ref!r} in {where}")
        return extras[int(idx)]
    raise SchemaError(f"bad point reference {ref!r} in {where}")


def embedding_from_dict(doc: dict) -> EmbeddingData:
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _check_keys(doc, {"group", "extra_points", "divisors", "section"}, "top level")
    gspec = doc.get("group")
    if not isinstance(gspec, dict):
        raise SchemaError("missing or malformed 'group'")
    _check_keys(gspec, {"type", "n"}, "group")
    gtype = gspec.get("type")
    if not isinstance(gtype, str) or gtype not in _GROUPS:
        raise SchemaError(f"unknown group type {gtype!r}")
    if gtype in ("cyclic", "dihedral") and type(gspec.get("n")) is not int:
        raise SchemaError(f"group type {gtype!r} needs an integer 'n'")
    try:
        group = _GROUPS[gtype](gspec.get("n", 0))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    extras: list[BasePoint] = []
    for i, p in enumerate(_list(doc, "extra_points", "top level")):
        if not isinstance(p, dict):
            raise SchemaError(f"extra_points[{i}] must be an object")
        extras.append(_parse_point(p, f"extra_points[{i}]"))

    divisors: list[GStableDivisorSpec] = []
    for i, d in enumerate(_list(doc, "divisors", "top level")):
        if not isinstance(d, dict):
            raise SchemaError(f"divisors[{i}] must be an object")
        _check_keys(d, {"over", "h", "l"}, f"divisors[{i}]")
        over = d.get("over")
        if not isinstance(over, str):
            raise SchemaError(f"divisors[{i}].over must be a string reference")
        if type(d.get("h")) is not int:
            raise SchemaError(f"divisors[{i}].h must be an integer")
        l = _rat(d.get("l", 0), f"divisors[{i}].l")
        if over == "dominating":
            divisors.append(GStableDivisorSpec(None, d["h"], l))
        else:
            divisors.append(GStableDivisorSpec(
                _point_ref(over, extras, f"divisors[{i}]"), d["h"], l))

    section = None
    if "section" in doc:
        s = doc["section"]
        if not isinstance(s, dict):
            raise SchemaError("'section' must be an object")
        _check_keys(s, {"at"}, "section")
        if "at" in s:
            section = _point_ref(s["at"], extras, "section")

    return EmbeddingData(group, tuple(extras), tuple(divisors), section)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path!r}: {exc.strerror}") from exc


def _parse_json(data: bytes, what: str = ""):
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise SchemaError(f"{what}not valid JSON: {exc}") from exc


def read_input(path: str) -> tuple[bytes, dict]:
    """An input file's bytes, and the file as reports cite it: its path and
    the SHA-256 of exactly these bytes."""
    import hashlib  # lazy: 5 ms of start-up that only reading an input file needs

    data = _read(path)
    return data, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def load_embedding(path: str, data: bytes | None = None) -> EmbeddingData:
    """The embedding in the file at path, parsed from data when the caller
    has read the file already (``read_input``)."""
    return embedding_from_dict(_parse_json(_read(path) if data is None else data))


def load_hypercones(path: str, E: EmbeddingData) -> list[ColoredHypercone]:
    """JSON list of hypercones: slices with explicit vectors {"h", "l"},
    "color" or "epsilon", omitted points (a slice with no vectors omits its
    point), generators on E; epsilon is implied elsewhere.  Point references
    extend the embedding ones by "xd" (the distinguished point) and inline
    coordinates {"alpha", "beta"}.  The
    list must describe a colored fan: every type-B cone supported, and no
    two cones with a common interior point in the valuation cone, and every
    cone strictly convex."""
    doc = _parse_json(_read(path), "hypercones file: ")
    if not isinstance(doc, list):
        raise SchemaError("hypercones file must be a JSON list")
    extras = list(E.extra_points)

    def ref(r, where):
        if isinstance(r, dict):
            return _parse_point(r, where)
        return XD if r == "xd" else _point_ref(r, extras, where)

    cones = []
    for i, c in enumerate(doc):
        where = f"hypercones[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(f"{where} must be an object")
        _check_keys(c, {"slices", "omitted", "e_generators"}, where)
        e_parts = [_rat(x, f"{where}.e_generators") for x in _list(c, "e_generators", where)]
        omitted = [ref(r, f"{where}.omitted") for r in _list(c, "omitted", where)]
        gens: list[HyperspaceVector] = []
        try:
            for s in _list(c, "slices", where):
                if not isinstance(s, dict) or "point" not in s:
                    raise SchemaError(f"a slice in {where} is not an object with a 'point'")
                _check_keys(s, {"point", "vectors"}, f"a slice in {where}")
                p = ref(s["point"], where)
                if not (vectors := _list(s, "vectors", where)):
                    omitted.append(p)  # a point with no generator
                for v in vectors:
                    if v == "color":
                        gens.append(color_vector(E.group, p, E.section))
                    elif v == "epsilon":
                        gens.append(epsilon(p))
                    elif isinstance(v, dict):
                        _check_keys(v, {"h", "l"}, f"a vector in {where}")
                        gens.append(HyperspaceVector(p, _rat(v.get("h"), f"{where}.h"),
                                                     _rat(v.get("l"), f"{where}.l")))
                    else:
                        raise SchemaError(f"bad vector {v!r} in {where}")
            cones.append(hypercone_from_generators(gens, e_parts, omitted))
        except MalformedGenerators as exc:  # h < 0, or h = 0 in a slice
            raise SchemaError(f"{where}: {exc}") from exc
    F, section = E.group, E.section
    for i, c in enumerate(cones):
        if not c.strictly_convex:
            raise SchemaError(f"invalid cone list: hypercones[{i}] is not strictly convex")
        if c.kind == "B" and not is_supported(c, F, section):
            raise SchemaError(f"invalid cone list: hypercones[{i}] is type B and unsupported")
    for (i, a), (j, b) in combinations(enumerate(cones), 2):
        if not interiors_disjoint(a, b, F, section):
            raise SchemaError(f"invalid cone list: hypercones[{i}] and [{j}] share interior points")
    return cones


def _coord_json(c: Qi):
    x, y, d = c
    return {"re": frac_str(x, d), "im": frac_str(y, d)} if y else frac_str(x, d)


def embedding_to_dict(E: EmbeddingData) -> dict:
    """Inverse of embedding_from_dict, for round-trips and generators."""
    g = E.group
    doc: dict = {"group": {"type": g.kind}}
    if g.kind in ("cyclic", "dihedral"):
        doc["group"]["n"] = g.n
    if E.extra_points:
        doc["extra_points"] = [
            {"alpha": _coord_json(p.alpha), "beta": _coord_json(p.beta)}
            for p in E.extra_points
        ]
    refs = {p: t for t, p in _POINT_REFS.items()}
    for i, p in enumerate(E.extra_points):
        refs[p] = f"extra:{i}"
    if E.divisors:
        doc["divisors"] = [
            {"over": "dominating" if d.dominating else refs[d.over],
             "h": d.h, "l": str(d.l)}
            for d in E.divisors
        ]
    if E.section is not None:
        doc["section"] = {"at": refs[E.section]}
    return doc
