"""The Q(i) triples (x, y, d) against the ``GaussianRational`` oracle: the
coercion and the parser, the printed text, the quotient that keys points,
every ``QiPoly`` operation, the fraction-free ``gr_rref`` and the special
fiber labels read from it, on seeded sweeps."""

import importlib.util
import json
import pathlib
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from sl2cox.coxring import classify_fiber_presentation, cox_u_presentation, eliminate, \
    special_fiber_u
from sl2cox.embedding import EmbeddingData, SchemaError, _coord_json, embedding_from_dict, \
    embedding_to_dict, load_embedding
from sl2cox.exactmath import qi, qi_div, qi_str
from sl2cox.groups import ICOSA, OCTA, TETRA, dihedral
from sl2cox.hyperspace import BasePoint, point
from sl2cox.ogpoly import gr_nullspace, gr_rref
from sl2cox.presentation import SparsePoly

from gaussian_oracle import GAUSS_ZERO, gauss, gr, gr_rref as oracle_rref, gr_terms, to_qi
from test_ogpoly import RINGS

ROOT = pathlib.Path(__file__).resolve().parent.parent
INPUTS = sorted([*ROOT.glob("fixtures/*.json"), *ROOT.glob("tests/golden/inputs/*.json")])


def canonical(t) -> bool:
    x, y, d = t
    return d > 0 and gcd(x, y, d) == 1


def random_part(rng):
    """A rational as JSON writes one: an int or a string, reduced or not."""
    k = rng.choice([1, 1, 2, 3])
    p, q = k * rng.randint(-9, 9), k * rng.randint(1, 6)
    return rng.choice([p // k, f"{p}/{q}", f" {p}/{q} ", str(p // k), Fraction(p, q)])


def random_coordinate(rng):
    """Every form the parser accepts: an int, a 'p/q' string, a dict with
    one or both parts, a pair."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_part(rng)
    if kind == 1:
        return {k: random_part(rng) for k in rng.sample(("re", "im"), rng.randint(0, 2))}
    if kind == 2:
        return [random_part(rng), random_part(rng)]
    return rng.choice(["3/2", "-7/14", "0", "1.5", "-2e1", "+4"])


def oracle_coord_json(c):
    """The former ``_coord_json`` on ``GaussianRational``."""
    return str(c.re) if c.im == 0 else {"re": str(c.re), "im": str(c.im)}


@pytest.mark.parametrize("seed", range(5))
def test_parse_and_print_match_the_oracle(seed):
    rng = random.Random(f"qi-parse-{seed}")
    for _ in range(200):
        x = random_coordinate(rng)
        got, want = qi(x), gauss(x)
        assert canonical(got) and gr(got) == want and got == to_qi(x), x
        assert qi_str(*got) == str(want)
        assert _coord_json(got) == oracle_coord_json(want)
        y = random_coordinate(rng)
        if want or gauss(y):
            assert str(point(x, y)) == f"[{want}:{gauss(y)}]"


@pytest.mark.parametrize("seed", range(5))
def test_the_quotient_is_the_canonical_oracle_quotient(seed):
    rng = random.Random(f"qi-div-{seed}")
    for _ in range(300):
        a, b = qi(random_coordinate(rng)), qi(random_coordinate(rng))
        got = qi_div(a, b)
        if not gr(b):
            assert got is None
            continue
        assert canonical(got) and gr(got) == gr(a) / gr(b)
        assert BasePoint(alpha=a, beta=b)._key == got


@pytest.mark.parametrize("ring", list(RINGS), ids=lambda r: r.__name__)
def test_every_qipoly_operation_matches_the_oracle(ring):
    random_poly, unit, ref_mul, ref_add = RINGS[ring]
    rng = random.Random(f"qi-poly-{ring.__name__}")
    for _ in range(60):
        p, q = random_poly(rng), random_poly(rng)
        P, Q = gr_terms(p), gr_terms(q)
        assert gr_terms(p + q) == ref_add(P, Q)
        assert gr_terms(p - q) == ref_add(P, {m: -c for m, c in Q.items()})
        assert gr_terms(p * q) == ref_mul(P, Q)
        c = qi(random_coordinate(rng))
        assert gr_terms(p.scale(c)) == ref_add({}, {m: x * gr(c) for m, x in P.items()})
        k = rng.randint(0, 3)
        want = {unit: gauss(1)}
        for _ in range(k):
            want = ref_mul(want, P)
        assert gr_terms(p.pow(k)) == want
        for m in list(P) + [unit]:
            assert canonical(p.coeff(m)) and gr(p.coeff(m)) == P.get(m, GAUSS_ZERO)
        assert all(canonical(t) for t in p.terms.values()) and type(p.terms) is dict
        assert ring({m: to_qi(x) for m, x in P.items()}) == p


# -- parser parity on malformed coordinates ----------------------------------------

MALFORMED = [True, False, None, 1.5, [], [1], [1, 2, 3], ["1", "2", "3"], "1/0", "abc", "",
             "1/2i", {"re": "1", "x": 2}, {"imag": 1}, {"re": [1]}, {"im": "1/0"},
             ["1", "1/0"], [True, 1], [None, 0], {"re": 1.5}, {"re": None}]


def oracle_parse_error(x, where: str) -> str:
    """The message the former parser gave for a malformed coordinate."""
    if isinstance(x, dict) and set(x) - {"re", "im"}:
        return f"unknown keys {sorted(set(x) - {'re', 'im'})} in {where}"
    try:
        gauss(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return f"bad coordinate in {where}: {exc}"
    raise AssertionError(f"the oracle accepts {x!r}")


@pytest.mark.parametrize("x", MALFORMED, ids=repr)
def test_malformed_coordinates_raise_the_former_message(x):
    for key in ("alpha", "beta"):
        doc = {"group": {"type": "cyclic", "n": 3},
               "extra_points": [{"alpha": "1", "beta": "2", key: x}]}
        with pytest.raises(SchemaError) as info:
            embedding_from_dict(json.loads(json.dumps(doc)))
        assert str(info.value) == oracle_parse_error(x, f"extra_points[0].{key}")


@pytest.mark.parametrize("alpha, beta", [(0, "0/5"), ({"re": "0"}, [0, "0/3"]), ({}, 0)],
                         ids=["int-string", "dict-pair", "empty-dict"])
def test_zero_point_is_rejected(alpha, beta):
    doc = {"group": {"type": "cyclic", "n": 3}, "extra_points": [{"alpha": alpha, "beta": beta}]}
    with pytest.raises(SchemaError, match=r"^extra_points\[0\] is \[0:0\]$"):
        embedding_from_dict(doc)


def _load_workloads():
    """perfbench/workloads.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_embedding_to_dict_writes_the_oracle_text():
    workloads = _load_workloads()
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in INPUTS]
    docs += [inp.doc for w in workloads.WORKLOADS for inp in workloads.generate(w, 0)]
    checked = 0
    for doc in docs:
        try:
            E = embedding_from_dict(doc)
        except SchemaError:
            continue
        out = embedding_to_dict(E)
        assert out["extra_points"] if E.extra_points else "extra_points" not in out
        for p, written in zip(E.extra_points, out.get("extra_points", [])):
            assert written == {"alpha": oracle_coord_json(gr(p.alpha)),
                               "beta": oracle_coord_json(gr(p.beta))}
            checked += 1
        assert embedding_to_dict(embedding_from_dict(json.loads(json.dumps(out)))) == out
    assert checked > 100


# -- the fraction-free gr_rref against the GaussianRational one ------------------------


def random_matrix(rng):
    """Q(i) rows with zero rows, rows dependent on earlier ones, non-real
    pivots and mixed denominators."""
    ncols = rng.randint(1, 6)

    def entry():
        if rng.random() < 0.35:
            return GAUSS_ZERO
        return gauss((Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7])),
                      Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4, 9]))))

    rows = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([GAUSS_ZERO] * ncols)
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = entry(), entry()
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(ncols)])
    return rows


def integer_row(row):
    """A row of ``GaussianRational`` times the lcm of its denominators, as pairs."""
    ts = [to_qi(c) for c in row]
    d = 1
    for _, _, e in ts:
        d = d * e // gcd(d, e)
    return [(x * (d // e), y * (d // e)) for x, y, e in ts]


@pytest.mark.parametrize("seed", range(5))
def test_gr_rref_matches_the_oracle(seed):
    rng = random.Random(f"gr-rref-{seed}")
    seen = {"zero": 0, "dependent": 0}
    for _ in range(80):
        rows = random_matrix(rng)
        got, pivots = gr_rref([integer_row(r) for r in rows])
        want, want_pivots = oracle_rref(rows)
        assert pivots == want_pivots
        assert [[gr(c) for c in r] for r in got] == want
        assert all(canonical(c) for r in got for c in r)
        seen["zero"] += any(not any(r) for r in rows)
        seen["dependent"] += len(pivots) < len(rows)
        ncols = len(rows[0])
        for v in gr_nullspace([[to_qi(c) for c in r] for r in rows], ncols):
            assert all(sum((c * gr(x) for c, x in zip(r, v)), GAUSS_ZERO) == GAUSS_ZERO
                       for r in rows)
    assert min(seen.values()) > 5


def oracle_classify(P) -> str:
    """The former ``classify_fiber_presentation``, on ``GaussianRational`` rows."""
    nontrivial = [rel for rel in P.relations if any(sum(e for _, e in m) > 1 for m in rel.num)]
    if not nontrivial:
        return "polynomial"
    support = sorted({m for rel in nontrivial for m in rel.num})
    if any(len(m) != 1 or m[0][1] < 2 for m in support):
        return "other"
    rows = [[gr(rel.coeff(m)) for m in support] for rel in nontrivial]
    reduced, _ = oracle_rref(rows)
    supports = [[support[i][0][0] for i, c in enumerate(row) if c] for row in reduced]
    supports = [vs for vs in supports if vs]
    if any(len(vs) == 1 for vs in supports):
        return "nonreduced"
    if all(len(vs) == 2 for vs in supports):
        return "reduced_reducible"
    if len(supports) == 1 and len(set(supports[0])) == len(supports[0]):
        return "brieskorn_pham"
    return "other"


def test_special_fiber_labels_match_the_oracle():
    embeddings = [load_embedding(str(p)) for p in INPUTS]
    embeddings += [EmbeddingData(F, (), ()) for F in (TETRA, OCTA, ICOSA, dihedral(2),
                                                       dihedral(3), dihedral(4))]
    embeddings += [EmbeddingData(TETRA, (point(2, 3),), ())]
    labels = set()
    for E in embeddings:
        if E.validate():
            continue
        fib = special_fiber_u(eliminate(cox_u_presentation(E))[0])
        label = classify_fiber_presentation(fib)
        assert label == oracle_classify(fib), E
        labels.add(label)
    # every relation set the labels tell apart, on hand-made fibers too
    s, t, u = (SparsePoly.variable(v) for v in ("s", "t", "u"))
    for rels in ([s.pow(2) - t.pow(3)], [s.pow(2), t.pow(2)],
                 [s.pow(2) + t.pow(2), s.pow(2) - t.pow(2)],
                 [s.pow(3) + t.pow(2).scale((0, 1, 2)) + u.pow(5)],
                 [s.pow(2) + t.pow(2) + u.pow(2), s.pow(2) - u.pow(2)], [s * t]):
        fib = eliminate(cox_u_presentation(EmbeddingData(TETRA, (), ())))[0]
        fib.relations = rels
        labels.add(classify_fiber_presentation(fib))
        assert classify_fiber_presentation(fib) == oracle_classify(fib)
    assert labels >= {"reduced_reducible", "brieskorn_pham", "nonreduced", "other"}

