"""The table of divisors by point (``EmbeddingData.by_point``) against the
linear scans it replaced: every lookup by point, the dominating divisor,
validation and N' equal what one scan of the divisors per question gives,
on valid embeddings of every family and on invalid ones."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from sl2cox.embedding import EmbeddingData, GStableDivisorSpec, Violation, _canonical_points
from sl2cox.hyperspace import X0, XD, XE, XF, XINF, XV, point, valuation_cone_contains
from sl2cox.iteration import cyclic_iteration_exact

from gaussian_oracle import gr, qpoint
from test_classgroup import COORDS, FAMILIES, _valid_embedding


def oracle_divisors_over(E, p):
    return tuple(d for d in E.divisors if not d.dominating and d.over == p)


def oracle_dominating_divisor(E):
    return next((d for d in E.divisors if d.dominating), None)


def oracle_violations(E) -> list[Violation]:
    """The former validation: one scan of the divisors that marks the points
    they lie over, in a dict of the listed points."""
    v = []
    F, section = E.group, E.section
    canon = _canonical_points(F)
    u = F.u if F.is_cyclic else 1
    over = dict.fromkeys(canon.values(), False)
    for p in E.extra_points:
        if p.tag is not None:
            v.append(Violation("ExtraPointIsTag", f"extra point {p} must be coordinates"))
        else:
            if p in over:
                v.append(Violation("DuplicatePoint", f"extra point {p} repeated"))
            if p._key in canon:
                v.append(Violation("PointClashesCanonical",
                                   f"extra point {p} equals canonical {canon[p._key]}"))
        over.setdefault(p, False)
    dominating = 0
    for d in E.divisors:
        if d.dominating:
            dominating += 1
            if d.h != 0:
                v.append(Violation("DominatingH", "a dominating divisor has h = 0"))
            if d.l.numerator >= 0:
                v.append(Violation("DominatingL", "a dominating divisor has l < 0"))
        elif d.over not in over:
            v.append(Violation(
                "DivisorOverUnknownPoint", f"divisor over {d.over} which is not listed"))
            continue
        else:
            over[d.over] = True
            if d.h < 1:
                v.append(Violation("NonpositiveH", f"divisor over {d.over} has h = {d.h}"))
                continue
            if not valuation_cone_contains(F, d.over, d.h, d.l, section):
                v.append(Violation(
                    "ValuationOutsideCone",
                    f"({d.over},{d.h},{d.l}) violates the valuation-cone inequality"))
        if u % d.l.denominator:
            where = "on the dominating divisor" if d.dominating else f"over {d.over}"
            rule = f"in (1/{u})Z" if u != 1 else "integral"
            v.append(Violation("FractionalL", f"l = {d.l} {where} not {rule}"))
    if dominating > 1:
        v.append(Violation("TooManyDominating", "at most one divisor dominates P^1"))
    for p in E.extra_points:
        if p.tag is None and not over[p]:
            v.append(Violation(
                "ExtraPointWithoutDivisor",
                f"extra point {p} carries no G-stable divisor, so its "
                f"fiber is parametric and the point is not exceptional"))
    if section is not None:
        if not F.is_cyclic:
            v.append(Violation("SectionNotCyclic",
                               "the color-at section is only defined for cyclic F"))
        elif section not in over:
            v.append(Violation("SectionPointUnknown",
                               f"section point {section} is not exceptional"))
        elif section in canon.values():
            v.append(Violation("SectionAtCanonical",
                               "the section divisor cannot sit at a canonical color"))
    return sorted(v, key=lambda x: (x.code, x.detail))


def _copy(p):
    """Another representative of a coordinate point, written differently."""
    return p if p.tag is not None else qpoint(3 * gr(p.alpha), 3 * gr(p.beta))


def _divisor(rng, p):
    l = -Fraction(rng.randint(-1, 9), rng.choice([1, 2]))
    return GStableDivisorSpec(p, rng.randint(-1, 4), l)


def _mutate(rng, E: EmbeddingData) -> tuple[EmbeddingData, set[str]]:
    """E with some of these changes, and their names: a divisor over an
    unlisted point, a divisor of any h and l over a listed point, an extra
    point left bare, a repeated extra point, a tag given as an extra point,
    two dominating divisors, divisors over other representatives of their
    points, divisors in any position, a section at any point in play."""
    extras, divisors, done = list(E.extra_points), list(E.divisors), set()
    if extras and rng.random() < 0.2:
        bare = rng.choice(extras)
        divisors = [d for d in divisors if d.over != bare]
        done.add("bare")
    if rng.random() < 0.2:
        unlisted = rng.choice([XD, XV, X0, *(point(*c) for c in COORDS)])
        divisors.insert(rng.randint(0, len(divisors)), _divisor(rng, unlisted))
        done.add("unlisted")
    if E.exceptional_points() and rng.random() < 0.2:
        divisors.append(_divisor(rng, rng.choice(E.exceptional_points())))
        done.add("any h, l")
    if extras and rng.random() < 0.2:
        extras.append(_copy(rng.choice(extras)))
        done.add("repeated")
    if rng.random() < 0.15:
        extras.insert(rng.randint(0, len(extras)), rng.choice([X0, XINF, XV, XE, XF, XD]))
        done.add("tag")
    if rng.random() < 0.2:
        divisors += [GStableDivisorSpec(None, rng.randint(0, 1), rng.randint(-2, 0))
                     for _ in range(2)]
        done.add("dominating")
    if rng.random() < 0.3:
        divisors = [GStableDivisorSpec(_copy(d.over), d.h, d.l) if d.over is not None else d
                    for d in divisors]
        done.add("copies")
    if rng.random() < 0.3:
        rng.shuffle(divisors)
    section = None
    if rng.random() < 0.3:
        section = rng.choice([*extras, X0, XINF, XV, XD, point(7, 11)])
        done.add("section")
    return EmbeddingData(E.group, tuple(extras), tuple(divisors), section), done


@pytest.mark.parametrize("family", FAMILIES)
def test_the_table_answers_as_the_scans_do(family):
    rng = random.Random(f"by-point-{family}")
    seen, codes, valid = Counter(), Counter(), 0
    for _ in range(150):
        E, done = _mutate(rng, _valid_embedding(rng, family))
        seen.update(done)
        in_play = {X0, XINF, XV, XE, XF, XD, *E.extra_points,
                   *(d.over for d in E.divisors if d.over is not None),
                   *(_copy(p) for p in E.extra_points)}
        for p in in_play:
            assert E.divisors_over(p) == oracle_divisors_over(E, p), (E, p)
        assert E.dominating_divisor() is oracle_dominating_divisor(E)
        violations = oracle_violations(E)
        assert E.validate() == violations, E
        codes.update(v.code for v in violations)
        if violations:
            continue
        valid += 1
        if E.group.is_cyclic:
            nprime = sum(len(oracle_divisors_over(E, p)) for p in E.extra_points)
            assert cyclic_iteration_exact(E).evidence["Nprime"] == nprime
    assert set(seen) == {"unlisted", "any h, l", "bare", "repeated", "tag", "dominating",
                         "copies", "section"}
    assert valid >= 20
    assert {"DivisorOverUnknownPoint", "ExtraPointIsTag", "TooManyDominating",
            "ExtraPointWithoutDivisor"} <= set(codes)
    if family in ("cyclic", "n<=2"):
        assert {"DuplicatePoint", "SectionPointUnknown"} <= set(codes)
    else:
        assert "SectionNotCyclic" in codes
