"""Colored hypercones read as rays, against the former vector-based code.

A generator (x, h, l) with h > 0 counts only as its ray, the slope l/h.  The
former code kept each generator's vector: it is kept here as the oracle,
with its angular sectors, its generic probe point and its orbit classifier
that matched vectors exactly.  On lists that name every ray by one vector
the two must agree; scaling every generator must change nothing.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from sl2cox.diagnostics import (
    OrbitClass,
    classify_hypercone_orbit,
    is_platonic_tuple,
    log_terminal_X,
    PlatonicVerdict,
)
from sl2cox.embedding import EmbeddingData, GStableDivisorSpec
from sl2cox.groups import cyclic
from sl2cox.hyperspace import (
    HyperspaceVector,
    X0,
    XD,
    XE,
    XF,
    XINF,
    XV,
    color_vector,
    epsilon,
    hypercone_from_generators,
    interiors_disjoint,
    is_supported,
    point,
    valuation_cone_form,
)

from test_classgroup import FAMILIES, _valid_embedding


# -- the former vector-based hypercone code, kept as the oracle ----------------

_ENEG = (-1, Fraction(0))
_EPOS = (1, Fraction(0))


def _dir_key(h, l):
    if h == 0:
        return _ENEG if l < 0 else _EPOS
    return (0, Fraction(l, h))


def _dir_vec(key):
    side, slope = key
    if side:
        return (Fraction(0), Fraction(side))
    return (Fraction(1), slope)


def oracle_open_meets_halfplane(lo, hi, form) -> bool:
    if lo == hi:
        return False
    a, b = form
    vlo, vhi = _dir_vec(lo), _dir_vec(hi)
    flo = a * vlo[0] + b * vlo[1]
    fhi = a * vhi[0] + b * vhi[1]
    if flo < 0 or fhi < 0:
        return True
    if flo or fhi:
        return False
    mid = (vlo[0] + vhi[0], vlo[1] + vhi[1])  # the form vanishes on both rays
    if mid == (0, 0):
        mid = (Fraction(1), Fraction(0))
    return a * mid[0] + b * mid[1] <= 0


class OracleCone:
    """The former ColoredHypercone: each slice keeps its generator vectors,
    and B is the interval [B_lo, B_hi] with "-inf" / "+inf" ends."""

    def __init__(self, vectors, e_parts=(), omitted=()):
        self.slices = {}
        for v in vectors:
            self.slices.setdefault(v.base, []).append(v)
        self.e_generators = [Fraction(e) for e in e_parts]
        omitted = set(omitted)
        p_lo = p_hi = Fraction(0)
        for p, vecs in self.slices.items():
            slopes = [Fraction(v.l, v.h) for v in vecs if v.h > 0]
            if not slopes:
                omitted.add(p)
                continue
            p_lo += min(slopes)
            p_hi += max(slopes)
        has_neg = p_lo < 0 or any(e < 0 for e in self.e_generators)
        has_pos = p_hi > 0 or any(e > 0 for e in self.e_generators)
        self.K = ("line" if has_neg and has_pos else "neg" if has_neg
                  else "pos" if has_pos else "zero")
        self.kind = "A" if omitted else "B"
        self.B_lo = "-inf" if self.K in ("neg", "line") else p_lo
        self.B_hi = "+inf" if self.K in ("pos", "line") else p_hi
        convex = self.K != "line"
        if self.kind == "B" and convex:
            lo_ok = self.B_lo != "-inf" and self.B_lo > 0
            hi_ok = self.B_hi != "+inf" and self.B_hi < 0
            convex = lo_ok or hi_ok  # 0 must lie outside B
        self.strictly_convex = convex
        self.omitted = sorted(omitted, key=str)

    def generators_at(self, p):
        if p in self.slices:
            return self.slices[p]
        return () if p in self.omitted else None

    def slice_sector(self, p):
        vecs = self.generators_at(p)
        if vecs == ():
            return None
        keys = {"neg": [_ENEG], "pos": [_EPOS], "line": [_ENEG, _EPOS]}.get(self.K, [])
        if vecs is None:
            keys.append(_dir_key(1, 0))
        else:
            keys += [_dir_key(v.h, v.l) for v in vecs]
        keys = sorted(set(keys))
        return keys[0], keys[-1]


def oracle_probe_points(cones, F, section):
    pts = []
    for c in cones:
        pts += list(c.slices) + list(c.omitted)
    if F.is_cyclic:
        pts += [XD] if section is None else [section]
    else:
        pts += [XV, XE] if F.kind == "dihedral" else [XV, XF]
    pts.append(point(777919, 1))  # the former stand-in for a generic point
    return list(dict.fromkeys(pts))


def oracle_is_supported(c, F, section) -> bool:
    if c.K in ("neg", "line"):
        return True
    for p in oracle_probe_points([c], F, section):
        s = c.slice_sector(p)
        if s is not None and oracle_open_meets_halfplane(*s, valuation_cone_form(F, p, section)):
            return True
    return False


def oracle_interiors_disjoint(c1, c2, F, section) -> bool:
    if (c1.kind == "B" and c2.kind == "B"
            and c1.K in ("neg", "line") and c2.K in ("neg", "line")):
        return False
    for p in oracle_probe_points([c1, c2], F, section):
        s1, s2 = c1.slice_sector(p), c2.slice_sector(p)
        if s1 is None or s2 is None:
            continue
        lo, hi = max(s1[0], s2[0]), min(s1[1], s2[1])
        if lo < hi and oracle_open_meets_halfplane(lo, hi, valuation_cone_form(F, p, section)):
            return False
    return True


def oracle_classify(c, E) -> OrbitClass:
    """The former classifier: generators matched to colors and divisors by
    vector equality, an A_l entry read off the listed vector's h."""
    F, section = E.group, E.section
    if c.omitted:
        return OrbitClass("other")
    colors = {p: color_vector(F, p, section) for p in E.exceptional_points()}
    if F.is_cyclic and section is None:
        colors[XD] = color_vector(F, XD, section)
    listed = {p: set(vecs) for p, vecs in c.slices.items()}

    def color_of(p):
        return colors.get(p, epsilon(p))

    def carries_color(p):
        col = color_of(p)
        if p not in listed:
            return col.h == 1 and col.l == 0
        return col in listed[p]

    if F.is_cyclic and all(carries_color(p) for p in set(colors) | set(listed)):
        return OrbitClass("fixed_point")
    tuple_h = []
    exceptional = set(E.exceptional_points())
    for p, vset in listed.items():
        if vset == {color_of(p)}:
            continue
        if p in exceptional:
            divs = {HyperspaceVector(d.over, d.h, d.l) for d in E.divisors_over(p)}
            if len(vset) == 1 and vset <= divs:
                tuple_h.append(int(next(iter(vset)).h))
                continue
        return OrbitClass("other")
    for p, col in colors.items():
        if p not in listed and not (col.h == 1 and col.l == 0):
            return OrbitClass("other")
    if c.kind == "B" and tuple_h:
        return OrbitClass("A_l", tuple(tuple_h))
    return OrbitClass("other")


def oracle_log_terminal_X(E, cones) -> PlatonicVerdict:
    for c in cones:
        orbit = oracle_classify(c, E)
        if orbit.kind == "fixed_point":
            return PlatonicVerdict(False, ())
        if orbit.kind == "A_l" and len(orbit.tuple) > 2 and not is_platonic_tuple(orbit.tuple):
            return PlatonicVerdict(False, orbit.tuple)
    return PlatonicVerdict(True)


# -- random cone lists ---------------------------------------------------------

GENERIC = (point(4, 9), point(9, 4))  # never an exceptional point of _valid_embedding


def _embedding(rng, family) -> EmbeddingData:
    """A valid embedding with at most one divisor on each ray over a point,
    as the divisors of an embedding are; a cyclic one sometimes takes the
    color-at section at an extra point when that keeps it valid."""
    while True:
        E = _valid_embedding(rng, family)
        rays = [(d.over, d.l / d.h) for d in E.divisors if not d.dominating]
        if len(set(rays)) < len(rays):
            continue
        if E.group.is_cyclic and E.extra_points and rng.random() < 0.5:
            moved = EmbeddingData(E.group, E.extra_points, E.divisors,
                                  rng.choice(E.extra_points))
            if not moved.validate():
                return moved
        return E


def _named_rays(E, p) -> dict:
    """slope -> the one vector that names the ray over p in an unscaled list:
    the divisors' vectors, the color and epsilon."""
    named = {Fraction(0): epsilon(p)}
    for v in [HyperspaceVector(d.over, d.h, d.l) for d in E.divisors_over(p)]:
        named[v.l / v.h] = v
    col = color_vector(E.group, p, E.section)
    named[col.l / col.h] = col
    return named


def _random_cone(rng, E):
    """(vectors, e_parts, omitted) of a cone: an A_l chart, a chart through
    every color, or random rays over random points."""
    F, section = E.group, E.section
    colored = list(E.exceptional_points())
    if F.is_cyclic and section is None:
        colored.append(XD)
    shape = rng.choice(["A_l", "colors", "random", "random"])
    vectors, e_parts, omitted = [], [], []
    if shape in ("A_l", "colors"):
        for p in colored:
            divs = E.divisors_over(p)
            with_divisor = bool(divs) and (shape == "colors" or rng.random() < 0.7)
            if with_divisor:
                d = rng.choice(divs)
                vectors.append(HyperspaceVector(p, d.h, d.l))
            if shape == "colors" or not with_divisor:
                vectors.append(color_vector(F, p, section))
        rng.shuffle(vectors)
        return vectors, e_parts, omitted
    pool = colored + list(GENERIC)
    for p in rng.sample(pool, rng.randint(0, min(4, len(pool)))):
        if rng.random() < 0.1:
            omitted.append(p)
            continue
        named = _named_rays(E, p)
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.6:
                vectors.append(rng.choice(list(named.values())))
            else:
                slope = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                vectors.append(named.get(slope, HyperspaceVector(p, 1, slope)))
    if rng.random() < 0.3:
        e_parts = [rng.choice([Fraction(-1), Fraction(1), Fraction(-2, 3)])]
    return vectors, e_parts, omitted


def _scaled(rng, cone):
    """Every generator times its own random positive rational."""
    vectors, e_parts, omitted = cone

    def q():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    out = []
    for v in vectors:
        s = q()
        out.append(HyperspaceVector(v.base, s * v.h, s * v.l))
    return out, [q() * e for e in e_parts], omitted


def _facts(cones, E):
    """Everything the fan checks and the classifier say about a list."""
    F, section = E.group, E.section
    shape = [(c.kind, c.K, c.strictly_convex) for c in cones]
    supported = [is_supported(c, F, section) if c.kind == "B" else None for c in cones]
    disjoint = [interiors_disjoint(a, b, F, section) for a, b in combinations(cones, 2)]
    orbits = [classify_hypercone_orbit(c, E) for c in cones]
    return shape, supported, disjoint, orbits, bool(log_terminal_X(orbits))


def _oracle_facts(cones, E):
    F, section = E.group, E.section
    shape = [(c.kind, c.K, c.strictly_convex) for c in cones]
    supported = [oracle_is_supported(c, F, section) if c.kind == "B" else None for c in cones]
    disjoint = [oracle_interiors_disjoint(a, b, F, section) for a, b in combinations(cones, 2)]
    orbits = [oracle_classify(c, E) for c in cones]
    return shape, supported, disjoint, orbits, bool(oracle_log_terminal_X(E, cones))


@pytest.mark.parametrize("family", FAMILIES)
def test_rays_agree_with_the_vector_oracle_and_ignore_scale(family):
    rng = random.Random(f"hyperfan-{family}")
    seen = set()
    for _ in range(60):
        E = _embedding(rng, family)
        for _ in range(3):
            raw = [_random_cone(rng, E) for _ in range(rng.randint(1, 3))]
            facts = _facts([hypercone_from_generators(*c) for c in raw], E)
            assert facts == _oracle_facts([OracleCone(*c) for c in raw], E), (E, raw)
            for _ in range(2):
                scaled = [_scaled(rng, c) for c in raw]
                assert _facts([hypercone_from_generators(*c) for c in scaled], E) == facts, (
                    E, scaled)
            shape, supported, disjoint, orbits, verdict = facts
            seen |= {o.kind for o in orbits} | {("convex", s[2]) for s in shape}
            seen |= {("supported", s) for s in supported} | {("disjoint", d) for d in disjoint}
            seen.add(("X", verdict))
    # the sweep reaches every verdict of every check
    assert seen >= {"A_l", "other", ("convex", True), ("convex", False),
                    ("supported", True), ("supported", False),
                    ("disjoint", True), ("disjoint", False), ("X", True), ("X", False)}
    if family in ("cyclic", "n<=2"):
        assert "fixed_point" in seen


def test_the_oracle_takes_a_scaled_divisor_for_another_ray():
    # what the sweep's scaled lists would show against the former code: the
    # divisor (2, -1) given as (4, -2) is no A_l generator there
    x1 = point(1, 1)
    E = EmbeddingData(cyclic(3), (x1,), (GStableDivisorSpec(X0, 2, -1),
                                         GStableDivisorSpec(XINF, 3, -2),
                                         GStableDivisorSpec(x1, 7, -4)))
    F = E.group
    vecs = [HyperspaceVector(d.over, d.h, d.l) for d in E.divisors] + [color_vector(F, XD)]
    scaled = [HyperspaceVector(vecs[0].base, 4, -2)] + vecs[1:]
    assert oracle_classify(OracleCone(vecs), E) == OrbitClass("A_l", (2, 3, 7))
    assert oracle_classify(OracleCone(scaled), E).kind == "other"
    for c in (vecs, scaled):
        assert classify_hypercone_orbit(hypercone_from_generators(c), E) == OrbitClass(
            "A_l", (2, 3, 7))

