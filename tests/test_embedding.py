import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from sl2cox.embedding import (
    EmbeddingData,
    GStableDivisorSpec,
    SchemaError,
    affine_embedding,
    derive_ap0_input,
    embedding_from_dict,
    embedding_to_dict,
    load_embedding,
)
from sl2cox.classgroup import class_group
from sl2cox.exactmath import GaussianRational, gauss
from sl2cox.groups import ICOSA, TETRA, cyclic, dihedral
from sl2cox.hyperspace import BasePoint, HyperspaceVector, X0, XE, XF, XINF, XV, point


def trivial_four_points() -> EmbeddingData:
    pts = (point(1, 0), point(0, 1), point(1, 1), point(2, 1))
    divs = tuple(GStableDivisorSpec(p, h, l) for p, h, l in [
        (pts[0], 2, -1), (pts[1], 3, -5), (pts[2], 1, -1), (pts[3], 5, -4)])
    return EmbeddingData(cyclic(1), pts, divs, pts[0])


def mu3_example(alpha=2, beta=3) -> EmbeddingData:
    x1 = point(alpha, beta)
    return EmbeddingData(cyclic(3), (x1,), (
        GStableDivisorSpec(X0, 1, -1),
        GStableDivisorSpec(XINF, 1, -1),
        GStableDivisorSpec(x1, 1, -1),
    ))


class TestValidate:
    def test_examples_valid(self):
        assert trivial_four_points().validate() == []
        assert mu3_example().validate() == []

    def test_valuation_outside_cone(self):
        E = EmbeddingData(cyclic(5), (), (GStableDivisorSpec(X0, 1, 1),))
        codes = [v.code for v in E.validate()]
        assert "ValuationOutsideCone" in codes

    def test_two_dominating(self):
        E = EmbeddingData(cyclic(3), (), (
            GStableDivisorSpec(None, 0, Fraction(-1)),
            GStableDivisorSpec(None, 0, Fraction(-2))))
        codes = [v.code for v in E.validate()]
        assert "TooManyDominating" in codes

    def test_half_integer_l_needs_even_n(self):
        E = EmbeddingData(cyclic(5), (), (GStableDivisorSpec(X0, 1, Fraction(-1, 2)),))
        assert "FractionalL" in [v.code for v in E.validate()]
        E = EmbeddingData(cyclic(4), (), (GStableDivisorSpec(X0, 1, Fraction(-1, 2)),))
        assert E.validate() == []

    def test_dominating_l_follows_the_same_rule(self):
        for F, l, valid in ((cyclic(3), Fraction(-1, 3), False), (cyclic(4), Fraction(-1, 2), True),
                            (cyclic(5), Fraction(-1, 2), False), (TETRA, Fraction(-1, 2), False)):
            E = EmbeddingData(F, (), (GStableDivisorSpec(None, 0, l),))
            assert [v.code for v in E.validate()] == ([] if valid else ["FractionalL"])

    def test_extra_point_needs_divisor(self):
        E = EmbeddingData(cyclic(3), (point(1, 1),), (
            GStableDivisorSpec(X0, 1, -1),))
        assert "ExtraPointWithoutDivisor" in [v.code for v in E.validate()]

    def test_clash_with_canonical(self):
        p = point(0, 1)  # the coordinates of x0 for n >= 3
        E = EmbeddingData(cyclic(3), (p,), (GStableDivisorSpec(p, 1, -1),))
        assert "PointClashesCanonical" in [v.code for v in E.validate()]

    def test_idempotent_and_sorted(self):
        E = EmbeddingData(cyclic(5), (), (
            GStableDivisorSpec(X0, 1, 1), GStableDivisorSpec(None, 1, Fraction(1))))
        v1 = E.validate()
        v2 = E.validate()
        assert v1 == v2 == sorted(v1, key=lambda x: (x.code, x.detail))

    def test_returned_list_is_a_copy(self):
        E = EmbeddingData(cyclic(5), (), (GStableDivisorSpec(X0, 1, 1),))
        first = E.validate()
        expected = list(first)
        first.clear()
        assert E.validate() == expected != []


class TestDeriveAP0:
    def test_trivial_example(self):
        A, vectors, m = derive_ap0_input(trivial_four_points())
        assert [(c[0], c[1]) for c in A] == [
            (gauss(1), gauss(0)), (gauss(0), gauss(1)),
            (gauss(1), gauss(1)), (gauss(2), gauss(1))]
        assert vectors == [(1, 2), (1, 3), (1, 1), (1, 5)]
        assert m == 0

    def test_mu3_example(self):
        A, vectors, m = derive_ap0_input(mu3_example())
        assert vectors == [(3, 1), (3, 1), (1, 1)]
        assert A[0] == (gauss(0), gauss(1))    # x0 = [0:1]
        assert A[1] == (gauss(-1), gauss(0))   # xinf = [-1:0]

    def test_tetrahedral_coordinates(self):
        E = EmbeddingData(TETRA, (), ())
        A, vectors, m = derive_ap0_input(E)
        assert A == [(gauss(0), gauss(1)), (gauss(1), gauss(0)), (gauss(-1), gauss(-1))]
        assert vectors == [(3,), (2,), (3,)]

    def test_degenerate_no_points(self):
        A, vectors, m = derive_ap0_input(EmbeddingData(cyclic(2)))
        assert A == [] and vectors == [] and m == 0

    def test_columns_pairwise_independent(self):
        A, _, _ = derive_ap0_input(trivial_four_points())
        for i in range(len(A)):
            for j in range(i + 1, len(A)):
                det = A[i][0] * A[j][1] - A[i][1] * A[j][0]
                assert det

    def test_dominating_flag(self):
        E = EmbeddingData(cyclic(3), (), (GStableDivisorSpec(None, 0, Fraction(-1)),))
        assert derive_ap0_input(E)[2] == 1


class TestJson:
    def test_roundtrip(self):
        for E in (trivial_four_points(), mu3_example(), affine_embedding(4, 6, Fraction(-7, 2))):
            doc = embedding_to_dict(E)
            E2 = embedding_from_dict(json.loads(json.dumps(doc)))
            assert E2 == E

    def test_a_section_round_trips_as_its_point(self):
        doc = {"group": {"type": "cyclic", "n": 3},
               "extra_points": [{"alpha": {"re": "1", "im": "1/2"}, "beta": "2"}],
               "divisors": [{"over": "x0", "h": 1, "l": "-1"},
                            {"over": "extra:0", "h": 2, "l": "-1"}],
               "section": {"at": "extra:0"}}
        E = embedding_from_dict(doc)
        assert E.section is E.extra_points[0] and E.validate() == []
        assert embedding_to_dict(E) == doc

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            embedding_from_dict({"group": {"type": "cyclic", "n": 3}, "bogus": 1})
        with pytest.raises(SchemaError):
            embedding_from_dict({"group": {"type": "cyclic", "n": 3, "x": 0}})

    def test_bad_group(self):
        with pytest.raises(SchemaError):
            embedding_from_dict({"group": {"type": "quaternionic"}})
        with pytest.raises(SchemaError):
            embedding_from_dict({"group": {"type": "cyclic"}})

    def test_gaussian_point(self):
        E = embedding_from_dict({
            "group": {"type": "cyclic", "n": 1},
            "extra_points": [{"alpha": {"re": "0", "im": "1"}, "beta": "1"}],
            "divisors": [{"over": "extra:0", "h": 1, "l": "-1"}],
        })
        assert E.extra_points[0].alpha == gauss({"re": 0, "im": 1})

    def test_bad_reference(self):
        with pytest.raises(SchemaError):
            embedding_from_dict({
                "group": {"type": "cyclic", "n": 3},
                "divisors": [{"over": "extra:0", "h": 1, "l": "-1"}],
            })


def _mu3_doc(**changes) -> dict:
    doc = embedding_to_dict(mu3_example())
    doc.update(changes)
    return doc


class TestSchemaErrors:
    """Malformed documents raise SchemaError, never another exception and
    never a silently reinterpreted embedding."""

    @pytest.mark.parametrize("changes", [
        {"divisors": [{"over": "extra:-1", "h": 1, "l": "-1"}]},
        {"extra_points": 5},
        {"divisors": 7},
        {"section": {"at": 5}},
        {"divisors": [{"over": "x0", "h": True, "l": "-1"}]},
        {"group": {"type": "cyclic", "n": True}},
        {"divisors": [{"over": "x0", "h": 1, "l": True}]},
        {"extra_points": [{"alpha": True, "beta": "1"}]},
    ], ids=["negative-extra-index", "extra-points-not-list", "divisors-not-list",
            "section-point-not-string", "bool-h", "bool-n", "bool-l", "bool-coordinate"])
    def test_rejected(self, changes):
        with pytest.raises(SchemaError):
            embedding_from_dict(_mu3_doc(**changes))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_embedding(str(tmp_path / "missing.json"))


ROOT = pathlib.Path(__file__).resolve().parent.parent
INPUTS = sorted([*ROOT.glob("fixtures/*.json"), *ROOT.glob("tests/golden/inputs/*.json")])


class TestInputWork:
    """Loading and validating an input runs on integer keys and per-group
    tables: the only points built are the file's own extra points."""

    @staticmethod
    def counted(monkeypatch) -> Counter:
        counts = Counter()
        for cls, name in ((BasePoint, "__post_init__"), (HyperspaceVector, "__post_init__"),
                          (GaussianRational, "__truediv__"), (GaussianRational, "inverse")):
            def wrapper(*args, _fn=getattr(cls, name), _key=f"{cls.__name__}.{name}"):
                counts[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(cls, name, wrapper)
        return counts

    @pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
    def test_load_validate_and_class_group_build_nothing_else(self, path, monkeypatch):
        extras = len(json.loads(path.read_text(encoding="utf-8")).get("extra_points", []))
        counts = self.counted(monkeypatch)
        E = load_embedding(str(path))
        assert E.validate() == []
        assert counts == Counter({"BasePoint.__post_init__": extras})
        counts.clear()
        class_group(E)
        assert counts["HyperspaceVector.__post_init__"] == 0

    def test_inputs_cover_extra_points_and_every_family(self):
        kinds = {load_embedding(str(p)).group.kind for p in INPUTS}
        assert len(INPUTS) >= 11 and len(kinds) == 5
        assert any(load_embedding(str(p)).extra_points for p in INPUTS)
