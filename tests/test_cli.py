import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from sl2cox import cli, coxring, presentation
from sl2cox.cli import build_parser, main
from sl2cox.embedding import load_embedding
from sl2cox.exactmath import FinAbGroup, IntMatrix
from sl2cox.presentation import SparsePoly, poly_to_json

import test_golden as golden
from gaussian_oracle import to_qi

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def poly_from_json(doc: list[dict]) -> SparsePoly:
    """The relation a report's term list describes (inverse of ``poly_to_json``)."""
    acc = SparsePoly()
    for t in doc:
        exps = {k: int(v) for k, v in t["monomial"].items()}
        acc = acc + SparsePoly.term(to_qi(t["coeff"]), exps)
    return acc


def child_env() -> dict:
    """The environment of a ``python -m sl2cox.cli`` child, with src/ on its path."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


# one colored hypercone on mu3.json, of A_l type (1, 1, 1)
MU3 = {"type": "cyclic", "n": 3}

MU3_CONES = [{
    "slices": [
        {"point": "x0", "vectors": [{"h": "1", "l": "-1"}]},
        {"point": "xinf", "vectors": [{"h": "1", "l": "-1"}]},
        {"point": "extra:0", "vectors": [{"h": "1", "l": "-1"}]},
        {"point": "xd", "vectors": ["color"]},
    ],
}]


# mu_32 with three extra points and (1, -1), (1, -2), (1, -3) over every point:
# its cox-full JSON report has about 370 kB, several times a pipe's buffer
# and the writer's bound
MU32_DOC = {
    "group": {"type": "cyclic", "n": 32},
    "extra_points": [{"alpha": a, "beta": b} for a, b in (("2", "7"), ("5", "11"), ("3", "13"))],
    "divisors": [{"over": p, "h": 1, "l": str(-j)}
                 for p in ("x0", "xinf", "extra:0", "extra:1", "extra:2") for j in (1, 2, 3)],
}


# one valid divisor each, so the section is the only fault
SECTION_VIOLATIONS = {
    "not-cyclic": ({"group": {"type": "tetrahedral"}, "extra_points": [{"alpha": "1", "beta": "2"}],
                    "divisors": [{"over": "extra:0", "h": 1, "l": "-1"}],
                    "section": {"at": "extra:0"}},
                   "SectionNotCyclic", "the color-at section is only defined for cyclic F"),
    "unknown-point": ({"group": {"type": "cyclic", "n": 3},
                       "divisors": [{"over": "x0", "h": 1, "l": "-1"}], "section": {"at": "xv"}},
                      "SectionPointUnknown", "section point xv is not exceptional"),
    "canonical": ({"group": {"type": "cyclic", "n": 3},
                   "divisors": [{"over": "x0", "h": 1, "l": "-1"}], "section": {"at": "x0"}},
                  "SectionAtCanonical", "the section divisor cannot sit at a canonical color"),
}


class TestValidate:
    def test_valid_file(self, capsys):
        rc, out, _ = run(capsys, "validate", fixture("mu3.json"))
        assert rc == 0 and "valid" in out

    def test_garbage_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("{]")
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"group": {"type": "cyclic", "n": 3}, "oops": []}))
        rc, out, err = run(capsys, "validate", str(bad))
        assert rc == 1

    def test_invalid_embedding(self, tmp_path, capsys):
        doc = {"group": {"type": "cyclic", "n": 5},
               "divisors": [{"over": "x0", "h": 1, "l": "1"}]}
        f = tmp_path / "invalid.json"
        f.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "validate", str(f))
        assert rc == 1 and "ValuationOutsideCone" in out

    def test_usage_error(self, capsys):
        rc, out, err = run(capsys)
        assert rc == 3

    @pytest.mark.parametrize("name", SECTION_VIOLATIONS)
    def test_section_violations(self, name, tmp_path, capsys):
        doc, code, detail = SECTION_VIOLATIONS[name]
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "validate", str(f))
        assert (rc, out) == (1, f"invalid:\n  {code}: {detail}\n")
        rc, out, _ = run(capsys, "validate", str(f), "--format", "json")
        doc = json.loads(out)
        assert (rc, doc["valid"], doc["violations"]) == (1, False, [{"code": code, "detail": detail}])


FRACTIONAL_DOMINATING = {
    "mu3": ({"group": {"type": "cyclic", "n": 3},
             "divisors": [{"over": "x0", "h": 1, "l": "-1"},
                          {"over": "dominating", "h": 0, "l": "-1/3"}]},
            "FractionalL: l = -1/3 on the dominating divisor not integral"),
    "tetrahedral": ({"group": {"type": "tetrahedral"},
                     "divisors": [{"over": "dominating", "h": 0, "l": "-1/2"}]},
                    "FractionalL: l = -1/2 on the dominating divisor not integral"),
}


@pytest.mark.parametrize("name", FRACTIONAL_DOMINATING)
class TestFractionalDominatingL:
    """The l-value of the dominating divisor is held to the same rule as
    every other divisor's: u * l in Z for cyclic F, l in Z otherwise."""

    @pytest.fixture
    def path(self, name, tmp_path):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(FRACTIONAL_DOMINATING[name][0]))
        return str(f)

    def test_validate_reports_it(self, name, path, capsys):
        rc, out, _ = run(capsys, "validate", path)
        assert rc == 1
        assert out.splitlines() == ["invalid:", "  " + FRACTIONAL_DOMINATING[name][1]]

    @pytest.mark.parametrize("command", ["diagnose", "classgroup"])
    def test_commands_refuse_it(self, name, path, command, capsys):
        rc, out, err = run(capsys, command, path)
        assert rc == 1 and out == ""
        assert err.splitlines() == ["invalid embedding:", "  " + FRACTIONAL_DOMINATING[name][1]]


class TestClassgroup:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "classgroup", fixture("sl2_trivial_4pts.json"),
                         "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["group"] == {"rank": 4, "torsion": []}
        assert doc["presentation_matrix"] == [
            [-1, -2, 1, 3, 0, 0, 0, 0],
            [-1, -2, 0, 0, 1, 1, 0, 0],
            [-1, -2, 0, 0, 0, 0, 1, 5],
            [1, -1, 0, -5, 0, -1, 0, -4],
        ]

    def test_json_roundtrip_to_memory(self, capsys):
        from sl2cox import classgroup as cg
        from sl2cox.embedding import load_embedding

        rc, out, _ = run(capsys, "classgroup", fixture("mu3.json"), "--format", "json")
        doc = json.loads(out)
        E = load_embedding(fixture("mu3.json"))
        R = cg.class_group(E)
        assert FinAbGroup(doc["group"]["rank"], tuple(doc["group"]["torsion"])) == R.group
        assert IntMatrix(doc["presentation_matrix"], cols=len(doc["generators"])) \
            == R.presentation
        assert {k: tuple(v) for k, v in doc["images"].items()} == R.images


class TestCoxCommands:
    def test_cox_full_pretty(self, capsys):
        rc, out, _ = run(capsys, "cox-full", fixture("mu3.json"))
        assert rc == 0
        assert "N_{x1}" in out and "V_3" in out

    def test_cox_full_verify_and_roundtrip(self, capsys):
        rc, out, _ = run(capsys, "cox-full", fixture("sl2_trivial_4pts.json"),
                         "--format", "json", "--verify")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["presentation"]["variables"]) == 12
        assert len(doc["presentation"]["relations"]) == 10
        # relations survive a JSON round trip exactly
        from sl2cox.coxring import full_cox_presentation_cyclic
        from sl2cox.embedding import load_embedding

        res = full_cox_presentation_cyclic(load_embedding(fixture("sl2_trivial_4pts.json")))
        expected = res.presentation.canonical_relations()
        got = [poly_from_json(r) for r in doc["presentation"]["relations"]]
        assert [p.terms for p in got] == [p.terms for p in expected]

    def test_cox_full_not_cyclic_exit_code(self, capsys):
        rc, out, err = run(capsys, "cox-full", fixture("tetrahedral.json"))
        assert rc == 2 and "NotCyclic" in err

    def test_cox_full_verify_inhomogeneous_exit_code(self, capsys, monkeypatch):
        # a homogeneity failure under --verify is a computation error, like a
        # non-vanishing relation, and prints no traceback
        from dataclasses import replace

        import sl2cox.coxring as cx
        from test_coxring import _with_inhomogeneous

        build = cx.full_cox_presentation_cyclic

        def inhomogeneous(E):
            res = build(E)
            return replace(res, presentation=_with_inhomogeneous(res.presentation))

        monkeypatch.setattr(cx, "full_cox_presentation_cyclic", inhomogeneous)
        rc, out, err = run(capsys, "cox-full", fixture("mu3.json"), "--verify")
        assert rc == 2 and out == ""
        assert "computation error" in err and "homogeneous" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [False, True])
    def test_cox_full_with_a_dominating_divisor_verifies(self, capsys, tmp_path, extra):
        # the dominating section rdom enters the section monomials: mu3 with
        # (1, -1) over x0 and (h, l) = (0, -1), with and without [2:3]
        doc = {"group": {"type": "cyclic", "n": 3},
               "extra_points": [{"alpha": "2", "beta": "3"}] if extra else [],
               "divisors": [{"over": "x0", "h": 1, "l": "-1"},
                            {"over": "dominating", "h": 0, "l": "-1"}]
               + [{"over": "extra:0", "h": 1, "l": "-1"}] * extra}
        path = tmp_path / "dominating.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(path))[0] == 0
        rc, out, err = run(capsys, "cox-full", str(path), "--verify", "--format", "json")
        assert rc == 0 and err == ""
        relations = json.loads(out)["presentation"]["relations"]
        assert any("rdom" in json.dumps(r) for r in relations)

    @pytest.mark.parametrize("verify", [False, True])
    def test_cox_full_checks_homogeneity_only_under_verify(self, capsys, monkeypatch, verify):
        # cox-full computes; --verify is the one place that checks
        import sl2cox.coxring as cx

        calls = []
        check = cx._check_homogeneous
        monkeypatch.setattr(cx, "_check_homogeneous", lambda P: calls.append(check(P)))
        rc, _, _ = run(capsys, "cox-full", fixture("mu3.json"), *["--verify"] * verify)
        assert rc == 0 and len(calls) == int(verify)

    def test_corrupted_smith_form_exit_code(self, capsys, corrupted_smith_form):
        # the cokernel certifies its Smith form on the presentation matrix
        rc, out, err = run(capsys, "classgroup", fixture("mu3.json"))
        assert rc == 2 and out == ""
        assert err.startswith("computation error: RuntimeError: internal invariant broken")

    def test_cox_u_special_fiber(self, capsys):
        rc, out, _ = run(capsys, "cox-u", fixture("tetrahedral.json"),
                         "--special-fiber", "--verify", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["special_fiber"]["classification"] == "polynomial"
        assert doc["special_fiber"]["normal"] is True


class TestOtherCommands:
    def test_batyrev_haddad(self, capsys):
        rc, out, _ = run(capsys, "batyrev-haddad", fixture("affine_mu5.json"),
                         "--format", "json")
        doc = json.loads(out)
        assert rc == 0
        assert (doc["p"], doc["q"], doc["k"], doc["a"], doc["b"]) == (1, 6, 5, 1, 1)

    def test_batyrev_haddad_wrong_shape(self, capsys):
        rc, out, err = run(capsys, "batyrev-haddad", fixture("mu3.json"))
        assert rc == 2

    def test_iterate(self, capsys):
        rc, out, _ = run(capsys, "iterate", fixture("affine_mu5.json"),
                         "--format", "json")
        doc = json.loads(out)
        assert rc == 0
        assert doc["m_lo"] == doc["m_hi"] <= doc["bound"] == 2

    def test_diagnose(self, capsys):
        rc, out, _ = run(capsys, "diagnose", fixture("mu3.json"), "--format", "json")
        doc = json.loads(out)
        assert rc == 0
        assert doc["special_fiber_normal"] is True
        assert doc["total_space_log_terminal"] is True
        assert doc["constant_functions"]["holds"] is True

    def test_a_skipped_test_leaves_no_reference_cycle(self, capsys):
        # diagnose keeps the reason as text: the exception would hold the
        # handler's frame, and with it the whole call, through its traceback
        # until the next full garbage collection (the first call builds the
        # parser and the per-group tables)
        argv = ("diagnose", fixture("tetrahedral.json"), "--format", "json")
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            rc, out, _ = run(capsys, *argv)
            found = gc.collect()
        finally:
            gc.enable()
        assert rc == 0
        assert json.loads(out)["constant_functions"] == {"holds": None,
                                                         "reason": "cyclic F required"}
        assert found == 0

    def test_diagnose_with_hypercones(self, tmp_path, capsys):
        f = tmp_path / "cones.json"
        f.write_text(json.dumps(MU3_CONES))
        rc, out, _ = run(capsys, "diagnose", fixture("mu3.json"),
                         "--hypercones", str(f), "--format", "json")
        doc = json.loads(out)
        assert rc == 0
        assert doc["orbits"] == [{"kind": "A_l", "tuple": [1, 1, 1]}]
        assert doc["X_log_terminal"] is True

    def test_verify_seed_free(self, capsys):
        rc, out, _ = run(capsys, "classgroup", fixture("mu3.json"),
                         "--verify", "--seed-free")
        assert rc == 0

    def test_cox_u_verify_validates_once(self, capsys, monkeypatch):
        # the validation body tests the valuation cone once per divisor; every
        # layer's require_valid() after the first reuses the stored result
        import sl2cox.embedding as emb

        calls = []
        inner = emb.valuation_cone_contains

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(emb, "valuation_cone_contains", counting)
        rc, _, _ = run(capsys, "cox-u", "--verify", fixture("mu3.json"))
        assert rc == 0 and len(calls) == 3  # mu3.json has three divisors

    def test_require_valid_reads_validate(self, capsys, monkeypatch):
        # every check of validity goes through EmbeddingData.validate, so a
        # tracer that wraps it sees each one
        import sl2cox.embedding as emb

        calls = []
        inner = emb.EmbeddingData.validate

        def counting(self):
            calls.append(self)
            return inner(self)

        monkeypatch.setattr(emb.EmbeddingData, "validate", counting)
        rc, _, _ = run(capsys, "classgroup", fixture("mu3.json"))
        assert rc == 0 and calls

    def test_verify_only_changes_warnings(self, capsys):
        rc1, out1, _ = run(capsys, "cox-full", fixture("mu3.json"), "--format", "json")
        rc2, out2, _ = run(capsys, "cox-full", fixture("mu3.json"), "--format", "json",
                           "--verify")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("warnings")
        d2.pop("warnings")
        assert rc1 == rc2 == 0 and d1 == d2


class TestPolyJson:
    def test_roundtrip_gaussian(self):
        p = (SparsePoly.term(to_qi({"re": "1/2", "im": "-3"}), {"x": 2, "y": 1})
             + SparsePoly.term(5, {}))
        assert poly_from_json(poly_to_json(p)).terms == p.terms


def dumps(doc) -> str:
    """The reference for the JSON writer: the text ``print(json.dumps(...))`` writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Writes:
    """A stdout that records each write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)

    def flush(self) -> None:
        pass


def written(monkeypatch, doc) -> list[str]:
    out = Writes()
    monkeypatch.setattr(sys, "stdout", out)
    cli._write_json(doc)
    return out.writes


# strings that need escaping: quotes, backslashes, every control character,
# DEL, the line separators U+2028/U+2029, non-ASCII and astral characters
# (written as surrogate pairs)
HARD_STRINGS = ["", '"', "\\", 'a"b\\c"', "".join(map(chr, range(32))), "\x7f",
                "\u2028\u2029", "caf\u00e9 \u4e2d", "\U0001d53d\U0001f600", "/", "plain"]
HARD_INTS = [0, 1, -1, 2**63, 2**64, 2**64 + 1, -(2**64) - 7, 3**90, -(10**40)]


def random_doc(rng: random.Random, depth: int):
    """A document of the report types, nested up to ``depth`` levels."""
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return "".join(rng.choice(HARD_STRINGS) for _ in range(rng.randrange(3)))
    if kind == 1:
        return rng.choice(HARD_INTS + [rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice([True, False, 0, 1, None])
    if kind < 5:
        return rng.choice([{}, [], (), [[]], [{}], {"": []}, {"a": {}}])
    items = [random_doc(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {rng.choice(HARD_STRINGS) + rng.choice("abc"): v for v in items}


class TestJsonWriter:
    """``cli._write_json`` writes what ``print(json.dumps(doc, indent=2,
    sort_keys=True))`` writes, byte for byte, in bounded pieces."""

    @pytest.mark.parametrize("command,fx", golden.CASES)
    def test_every_golden_report(self, command, fx, monkeypatch, capsys):
        monkeypatch.chdir(golden.ROOT)
        docs = []

        def spy(doc, _real=cli._write_json):
            docs.append(doc)
            _real(doc)

        monkeypatch.setattr(cli, "_write_json", spy)
        main(golden._argv(command, fx))
        out = capsys.readouterr().out
        assert len(docs) == (1 if out else 0)
        assert out == "".join(map(dumps, docs))

    def test_a_seeded_sweep_of_documents(self, monkeypatch):
        rng = random.Random(30)
        for _ in range(400):
            doc = random_doc(rng, 4)
            assert "".join(written(monkeypatch, doc)) == dumps(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", [[]], [{}], {"a": [], "b": {}, "c": [[], {}]},
        [True, False, 0, 1, None], {"t": True, "one": 1, "f": False, "zero": 0},
        HARD_INTS, HARD_STRINGS, {s: s for s in HARD_STRINGS}, ("x", ("y", ())),
    ], ids=repr)
    def test_edge_cases(self, doc, monkeypatch):
        assert written(monkeypatch, doc) == [dumps(doc)]

    @pytest.mark.parametrize("doc", [1.5, {"a": [0.0]}, {"a": {1, 2}}, {1: "a"}, {"b": {2: 3}}],
                             ids=repr)
    def test_other_types_raise(self, doc, monkeypatch):
        with pytest.raises(TypeError):
            written(monkeypatch, doc)

    def test_a_large_report_arrives_in_bounded_writes(self, tmp_path, monkeypatch):
        path = tmp_path / "mu32.json"
        path.write_text(json.dumps(MU32_DOC), encoding="utf-8")
        bound = cli._WRITE_BOUND

        def writes(at: int) -> list[str]:
            monkeypatch.setattr(cli, "_WRITE_BOUND", at)
            out = Writes()
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["cox-full", str(path), "--format", "json"]) == 0
            return out.writes

        # at bound 0 every write is one part, the last one with the final newline
        parts = writes(0)
        text = "".join(parts)
        assert len(text) > 1 << 18  # TestBrokenPipe relies on it
        assert text == dumps(json.loads(text))
        # at the bound, every write but the last is the next bound + 1 parts
        got = writes(bound)
        n = bound + 1
        full = (len(parts) - 1) // n * n
        assert len(got) > 1
        assert got == ["".join(parts[i:i + n]) for i in range(0, full, n)] + ["".join(parts[full:])]

    def test_a_report_below_the_bound_is_one_write(self, monkeypatch):
        # about 40 kB, as large as the largest reports of the benchmark's cli_mix
        out = Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["cox-full", os.path.join(golden.GOLDEN, "inputs", "cyclic12.json"),
                     "--format", "json"]) == 0
        assert len(out.writes) == 1 and len(out.writes[0]) > 40_000


class TestInputErrors:
    """Unreadable or malformed input files exit 1 with a one-line message."""

    def test_missing_file(self, tmp_path, capsys):
        rc, out, err = run(capsys, "classgroup", str(tmp_path / "missing.json"))
        assert rc == 1 and err.startswith("input error: ") and out == ""

    def test_missing_file_validate(self, tmp_path, capsys):
        rc, out, err = run(capsys, "validate", str(tmp_path / "missing.json"),
                           "--format", "json")
        doc = json.loads(out)
        assert rc == 1 and doc["valid"] is False and "schema_error" in doc

    @pytest.mark.parametrize("text", [
        "[{]",
        json.dumps([5]),
        json.dumps([{"slices": [{"vectors": ["color"]}]}]),
        json.dumps([{"slices": [{"point": "x0", "vectors": [{"h": "x", "l": "-1"}]}]}]),
        json.dumps([{"slices": [{"point": {"alpha": "0", "beta": "0"}, "vectors": []}]}]),
        json.dumps([{"slices": [{"point": "x0", "vector": ["color"]}]}]),
        json.dumps([{"slices": [{"point": "x0", "vectors": [{"h": -1, "l": 0}]}]}]),
        json.dumps([{"slices": [{"point": "x0", "vectors": [{"h": 0, "l": 1}]}]}]),
    ], ids=["invalid-json", "entry-not-object", "slice-without-point", "bad-h",
            "point-zero-zero", "unknown-key", "negative-h", "zero-h-in-slice"])
    def test_bad_hypercones(self, text, tmp_path, capsys):
        f = tmp_path / "cones.json"
        f.write_text(text)
        rc, out, err = run(capsys, "diagnose", fixture("mu3.json"), "--hypercones", str(f))
        assert rc == 1 and err.startswith("input error: ")

    # well-formed cones that are no colored fan: the type-B cone over x0 listed
    # twice (its interior meets itself), a type-B cone with K positive whose
    # slices all lie above the valuation cone (not supported), and a cone
    # whose K is the line E (not strictly convex)
    @pytest.mark.parametrize("cones, message", [
        ([{"slices": [{"point": "x0", "vectors": [{"h": 1, "l": "-1"}]}]}] * 2,
         "hypercones[0] and [1] share interior points"),
        ([{"slices": [{"point": "x0", "vectors": [{"h": 1, "l": "1"}]},
                      {"point": "xd", "vectors": [{"h": 1, "l": "1"}]}],
           "e_generators": ["1"]}],
         "hypercones[0] is type B and unsupported"),
        ([{"slices": [], "e_generators": ["1", "-1"]}], "hypercones[0] is not strictly convex"),
    ], ids=["interiors-meet", "unsupported", "line"])
    def test_cone_list_that_is_no_colored_fan(self, cones, message, tmp_path, capsys):
        f = tmp_path / "cones.json"
        f.write_text(json.dumps(cones))
        rc, out, err = run(capsys, "diagnose", fixture("mu3.json"), "--hypercones", str(f))
        assert (rc, out, err) == (1, "", f"input error: invalid cone list: {message}\n")
        f.write_text(json.dumps(MU3_CONES))
        rc, out, _ = run(capsys, "diagnose", fixture("mu3.json"), "--hypercones", str(f))
        assert rc == 0 and "X log terminal: True" in out

    def test_a_generator_counts_as_its_ray(self, tmp_path, capsys):
        # the same cone twice, its x0 generator given as (2, -1) and as
        # (4, -2): one ray, so one orbit class, with the divisors' h as A_l
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({
            "group": {"type": "cyclic", "n": 3},
            "extra_points": [{"alpha": "1", "beta": "1"}],
            "divisors": [{"over": "x0", "h": 2, "l": "-1"}, {"over": "xinf", "h": 3, "l": "-2"},
                         {"over": "extra:0", "h": 7, "l": "-4"}]}))
        outs = []
        for h, l in ((2, "-1"), (4, "-2")):
            f = tmp_path / f"cones{h}.json"
            f.write_text(json.dumps([{"slices": [
                {"point": "x0", "vectors": [{"h": h, "l": l}]},
                {"point": "xinf", "vectors": [{"h": 3, "l": "-2"}]},
                {"point": "extra:0", "vectors": [{"h": 7, "l": "-4"}]},
                {"point": "xd", "vectors": ["color"]}]}]))
            rc, out, err = run(capsys, "diagnose", str(emb), "--hypercones", str(f))
            assert (rc, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].endswith("orbit classes: A_l(2, 3, 7)\nX log terminal: False\n")

    def test_an_empty_slice_omits_its_point(self, tmp_path, capsys):
        # a point listed with no vectors is omitted, as if under "omitted"
        outs = []
        for name, cone in (("empty", {"slices": [{"point": "x0", "vectors": []}]}),
                           ("omitted", {"omitted": ["x0"]})):
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps([{**cone, "e_generators": ["1"]}]))
            rc, out, err = run(capsys, "diagnose", fixture("mu3.json"), "--hypercones", str(f))
            assert (rc, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].endswith("orbit classes: other\nX log terminal: True\n")

    @pytest.mark.parametrize("gtype", [[1], {}], ids=["list", "object"])
    def test_non_string_group_type(self, gtype, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"group": {"type": gtype, "n": 3}}))
        rc, out, err = run(capsys, "classgroup", str(f))
        assert rc == 1 and err.startswith("input error: unknown group type") and out == ""
        rc, out, _ = run(capsys, "validate", str(f), "--format", "json")
        doc = json.loads(out)
        assert rc == 1 and doc["valid"] is False and "group type" in doc["schema_error"]

    @pytest.mark.parametrize("doc, cones, message", [
        ([], None, "top level must be an object"),
        ({}, None, "missing or malformed 'group'"),
        ({"group": "cyclic"}, None, "missing or malformed 'group'"),
        ({"group": {"type": "cyclic", "n": 0}}, None, "cyclic subgroup needs n >= 1"),
        ({"group": {"type": "dihedral", "n": 1}}, None,
         "binary dihedral subgroup needs n > 1"),
        ({"group": MU3, "extra_points": [5]}, None, "extra_points[0] must be an object"),
        ({"group": MU3, "divisors": ["x0"]}, None, "divisors[0] must be an object"),
        ({"group": MU3, "section": "x0"}, None, "'section' must be an object"),
        ({"group": MU3, "divisors": [{"over": 0, "h": 1}]}, None,
         "divisors[0].over must be a string reference"),
        (None, {"slices": []}, "hypercones file must be a JSON list"),
        (None, [{"slices": [{"point": "x0", "vectors": [5]}]}],
         "bad vector 5 in hypercones[0]"),
    ], ids=["top-level-list", "no-group", "group-string", "cyclic-0", "dihedral-1",
            "extra-point-number", "divisor-string", "section-string", "over-number",
            "cones-object", "cone-bad-vector"])
    def test_malformed_input_names_its_cause(self, doc, cones, message, tmp_path, capsys):
        # an embedding is run through classgroup, a cone list through
        # diagnose on mu3.json
        f = tmp_path / "input.json"
        f.write_text(json.dumps(doc if cones is None else cones))
        argv = ("classgroup", str(f)) if cones is None else (
            "diagnose", fixture("mu3.json"), "--hypercones", str(f))
        assert run(capsys, *argv) == (1, "", f"input error: {message}\n")

    def test_an_epsilon_slice_is_the_implied_one(self, tmp_path, capsys):
        # "epsilon" over xinf gives the slope 0 every unlisted point carries
        outs = []
        for name, cone in (("epsilon", {"slices": [{"point": "xinf", "vectors": ["epsilon"]}]}),
                           ("implied", {})):
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps([{**cone, "omitted": ["x0"], "e_generators": ["1"]}]))
            rc, out, err = run(capsys, "diagnose", fixture("mu3.json"), "--hypercones", str(f))
            assert (rc, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].endswith("orbit classes: other\nX log terminal: True\n")


MU2_TWO_POINTS = {"group": {"type": "cyclic", "n": 2},
                  "extra_points": [{"alpha": "1", "beta": "1"}, {"alpha": "2", "beta": "1"}],
                  "divisors": [{"over": "extra:0", "h": 1, "l": "-1"},
                               {"over": "extra:1", "h": 1, "l": "-1"}]}
MU2_ONE_POINT = {"group": {"type": "cyclic", "n": 2},
                 "extra_points": [{"alpha": "1", "beta": "1"}],
                 "divisors": [{"over": "extra:0", "h": 1, "l": "-1"}]}


class TestRegimeErrors:
    """Valid embeddings outside a method's regime exit 2 and name the cause."""

    @pytest.mark.parametrize("command, doc, message", [
        ("cox-full", MU2_TWO_POINTS,
         "NotAffineShape: with two exceptional points they must sit at [0:1] and [1:0]"),
        ("cox-full", MU2_ONE_POINT, "NotAffineShape: a single exceptional point must sit at [0:1]"),
        ("batyrev-haddad", {"group": {"type": "cyclic", "n": 5},
                            "divisors": [{"over": "xinf", "h": 1, "l": "-1"}]},
         "NotAffineShape: the divisor must lie over x0 with no extra points"),
        ("batyrev-haddad", MU2_ONE_POINT,
         "NotAffineShape: for n <= 2 the divisor must lie over the point [0:1]"),
        ("batyrev-haddad", {"group": MU3, "divisors": [{"over": "x0", "h": 4, "l": "-2"}]},
         "NotAffineShape: h and u*l must be coprime, got (4, -2)"),
        ("batyrev-haddad", {"group": {"type": "cyclic", "n": 2},
                            "extra_points": [{"alpha": "0", "beta": "1"}],
                            "section": {"at": "extra:0"},
                            "divisors": [{"over": "extra:0", "h": 1, "l": "0"}]},
         "HeightOutOfRange: height undefined (denominator vanishes)"),
    ], ids=["cox-full-mu2-two-points", "cox-full-mu2-one-point", "bh-over-xinf",
            "bh-mu2-off-zero", "bh-not-coprime", "bh-height-undefined"])
    def test_outside_the_regime(self, command, doc, message, tmp_path, capsys):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(doc))
        assert run(capsys, command, str(f)) == (2, "", f"computation error: {message}\n")

    def test_constant_functions_need_a_normal_special_fiber(self, tmp_path, capsys):
        # mu5 with [1:1] and [2:1] and nothing over x0: diagnose reports
        # why the constant-function test is skipped, and exits 0
        f = tmp_path / "input.json"
        f.write_text(json.dumps({**MU2_TWO_POINTS, "group": {"type": "cyclic", "n": 5}}))
        rc, out, err = run(capsys, "diagnose", str(f), "--format", "json")
        doc = json.loads(out)
        assert (rc, err) == (0, "") and doc["special_fiber_normal"] is False
        assert doc["constant_functions"] == {"holds": None,
                                             "reason": "the special fiber must be normal"}


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ("cox-full", "--verify"), ("cox-full", "--format", "json"),
        ("cox-u", "--special-fiber", "--format", "json"), ("classgroup", "--format", "json"),
        ("validate",)])
    def test_closed_stdout_exits_quietly(self, argv):
        # the read end is closed before the child starts, so its first write
        # to stdout fails with EPIPE, as when `| head -1` has exited
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "sl2cox.cli", *argv, fixture("mu3.json")],
                                  stdout=w, stderr=subprocess.PIPE, env=child_env(),
                                  timeout=120)
        finally:
            os.close(w)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_reader_leaves_in_the_middle_of_a_report(self, tmp_path):
        # the report is larger than the pipe's buffer, so the child has
        # written its first lines and is still writing when the reader,
        # like `| head -1`, takes the first line and closes the pipe
        path = tmp_path / "mu32.json"
        path.write_text(json.dumps(MU32_DOC), encoding="utf-8")
        proc = subprocess.Popen([sys.executable, "-m", "sl2cox.cli", "cox-full", str(path),
                                 "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 141
        assert err == b""

    def test_reader_leaves_in_the_middle_of_a_pretty_report(self, tmp_path):
        # the pretty report is printed line by line, so when the reader
        # leaves, the lines after the failed write are still to be printed
        # and the last ones may sit in stdout's buffer: the exit must still
        # be quiet, with no failed flush at interpreter shutdown
        path = tmp_path / "mu32.json"
        path.write_text(json.dumps(MU32_DOC), encoding="utf-8")
        proc = subprocess.Popen([sys.executable, "-m", "sl2cox.cli", "cox-full", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            assert proc.stdout.readline() == b"Cox(X) by generators and relations\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 141
        assert err == b""


class TestRenderOnce:
    """A run renders only the format it asks for, and canonicalizes each
    presentation once: counted calls through every binding of the render
    helpers (``cli`` and ``coxring`` hold their own ``pretty_poly``)."""

    BINDINGS = [(cli, "pretty_poly"), (coxring, "pretty_poly"), (cli, "poly_to_json"),
                (presentation, "pretty_name"), (presentation, "canonicalize")]

    @staticmethod
    def counted(monkeypatch, capsys, *argv) -> dict:
        counts = {}
        for mod, name in TestRenderOnce.BINDINGS:
            key = f"{mod.__name__.split('.')[-1]}.{name}"
            counts[key] = 0

            def wrapper(*a, _fn=getattr(mod, name), _key=key, **kw):
                counts[_key] += 1
                return _fn(*a, **kw)
            monkeypatch.setattr(mod, name, wrapper)
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out
        return counts

    def test_cox_full(self, monkeypatch, capsys):
        path = fixture("sl2_trivial_4pts.json")
        res = coxring.full_cox_presentation_cyclic(load_embedding(path))
        P = res.presentation
        rows = sum(len(mod.rows) for mod in res.modules)
        assert self.counted(monkeypatch, capsys, "cox-full", path, "--format", "json") == {
            "cli.pretty_poly": 0, "coxring.pretty_poly": 0, "presentation.pretty_name": 0,
            "cli.poly_to_json": len(P.relations) + rows,
            "presentation.canonicalize": len(P.relations)}
        assert self.counted(monkeypatch, capsys, "cox-full", path) == {
            "cli.pretty_poly": len(P.relations) + rows, "coxring.pretty_poly": 0,
            "presentation.pretty_name": len(P.variables), "cli.poly_to_json": 0,
            "presentation.canonicalize": len(P.relations)}

    @pytest.mark.parametrize("name", ["sl2_trivial_4pts.json", "tetrahedral.json"])
    def test_cox_u_special_fiber(self, name, monkeypatch, capsys):
        # the elimination log is report content in both formats: eliminate
        # renders each substituted value, over the names of the presentation
        # it starts from
        path = fixture(name)
        P = coxring.cox_u_presentation(load_embedding(path))
        Q, log = coxring.eliminate(P)
        fib = coxring.special_fiber_u(Q)
        assert log and Q.relations
        relations = len(Q.relations) + len(fib.relations)
        argv = ("cox-u", path, "--special-fiber", "--verify")
        assert self.counted(monkeypatch, capsys, *argv, "--format", "json") == {
            "cli.pretty_poly": 0, "coxring.pretty_poly": len(log),
            "presentation.pretty_name": len(P.variables),
            "cli.poly_to_json": relations, "presentation.canonicalize": relations}
        assert self.counted(monkeypatch, capsys, *argv) == {
            "cli.pretty_poly": relations, "coxring.pretty_poly": len(log),
            "presentation.pretty_name": len(P.variables) + len(Q.variables) + len(fib.variables),
            "cli.poly_to_json": 0, "presentation.canonicalize": relations}


class TestUsageErrors:
    """Argparse's own errors are usage errors too: exit 3, not argparse's 2,
    which would read as a computation error."""

    USAGE_ERRORS = [("classgroup",), ("classgroup", fixture("mu3.json"), "--format", "xml"),
                    ("bogus",), ("cox-u", fixture("mu3.json"), "--nope")]

    @pytest.mark.parametrize("argv", USAGE_ERRORS,
                             ids=["no-file", "bad-format", "bad-command", "bad-flag"])
    def test_usage_error_exits_3(self, argv, capsys):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == "" and err.startswith("usage: sl2cox")

    @pytest.mark.parametrize("argv", [("--help",), ("cox-u", "--help")])
    def test_help_exits_0(self, argv, capsys):
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and out.startswith("usage: sl2cox") and err == ""

    def test_exit_code_of_the_process(self):
        proc = subprocess.run([sys.executable, "-m", "sl2cox.cli", "bogus"],
                              capture_output=True, env=child_env(), timeout=120)
        assert proc.returncode == 3
        assert proc.stdout == b"" and proc.stderr.startswith(b"usage: sl2cox")


class TestOneRead:
    """Each call reads its input file once: the cited sha256 is the hash of
    the bytes that were parsed."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import sl2cox.embedding as emb

        paths = []
        inner = emb._read

        def counting(path):
            paths.append(path)
            return inner(path)

        monkeypatch.setattr(emb, "_read", counting)
        return paths

    @pytest.mark.parametrize("command", ["validate", "classgroup", "cox-u", "cox-full",
                                         "diagnose", "iterate", "batyrev-haddad"])
    def test_one_read_per_call(self, command, reads, capsys):
        path = fixture("affine_mu5.json")
        rc, out, _ = run(capsys, command, path, "--format", "json")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert rc == 0 and reads == [path]
        assert json.loads(out)["input"] == {"path": path, "sha256": digest}

    def test_hypercones_file_is_one_more_read(self, reads, tmp_path, capsys):
        f = tmp_path / "cones.json"
        f.write_text(json.dumps(MU3_CONES))
        rc, _, _ = run(capsys, "diagnose", fixture("mu3.json"), "--hypercones", str(f))
        assert rc == 0 and reads == [fixture("mu3.json"), str(f)]


class TestSharedParser:
    """One parser per process: built on the first call, reused by every
    later one, and no call changes what a later call prints."""

    def test_parsers_are_built_only_by_the_first_call(self, monkeypatch, capsys):
        built = []
        inner = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            inner(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        calls = [("classgroup", fixture("mu3.json")), ("bogus",), ("cox-u", "--help"),
                 ("iterate", fixture("affine_mu5.json"), "--format", "json"), ()]
        counts = []
        for argv in calls:
            run(capsys, *argv)
            counts.append(len(built))
        # the top-level parser, the common flags and one parser per subcommand
        assert counts == [9] * len(calls)
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("before", [
        ("cox-u", fixture("mu3.json"), "--nope"),
        ("cox-u", "--help"),
        ("cox-u", "--special-fiber", fixture("mu3.json")),
    ], ids=["after-usage-error", "after-help", "after-special-fiber"])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_no_state_carries_over(self, before, fmt, capsys):
        argv = ("cox-u", fixture("mu3.json"), "--format", fmt)
        build_parser.cache_clear()
        first = run(capsys, *argv)
        run(capsys, *before)
        assert run(capsys, *argv) == first
        assert first[0] == 0 and "special" not in first[1]
