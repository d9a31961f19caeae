"""Tests of the benchmark itself: generators, tracing wrappers, reference.

    python3 -m pytest perfbench/tests -q

The traced passes below run each workload once (about half a minute in
all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import child  # noqa: E402  (puts the repository's src on sys.path)
import content  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import sl2cox  # noqa: E402
from sl2cox import class_group  # noqa: E402
from sl2cox.embedding import embedding_from_dict  # noqa: E402
from sl2cox.presentation import poly_to_json  # noqa: E402


def one_pass(workload: str, seed: int, workdir: str, tracer=None):
    """Run every input of a workload once, as the measured child does."""
    inputs = workloads.generate(workload, seed)
    workloads.check_inputs(inputs)
    bench.write_workdir(workdir, workload, inputs)
    manifest, loaded = child.set_up(workdir)
    ops = child.make_ops(manifest, workdir, loaded)
    if tracer is not None:
        tracer.install()
    try:
        digests, failures = child.run_passes(ops, 0, tracer)[4:6]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {name: ds[0] for name, ds in digests.items()}, failures


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass of every workload on the default seed."""
    out = {}
    for w in workloads.WORKLOADS:
        tracer = spans.Tracer()
        digests, failures = one_pass(w, bench.DEFAULT_SEED,
                                     str(tmp_path_factory.mktemp(w) / "work"), tracer)
        out[w] = (tracer, digests, failures)
    return out


def test_generators_are_deterministic():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 5), workloads.generate(w, 5)
        assert a == b
        other = workloads.generate(w, 6)
        assert [i.name for i in other] == [i.name for i in a]  # same sizes
        assert [i.doc for i in other] != [i.doc for i in a]  # other data


def test_generated_inputs_validate_and_stay_torsion_free():
    for w in workloads.WORKLOADS:
        for seed in range(30):
            inputs = workloads.generate(w, seed)
            workloads.check_inputs(inputs)
            for inp in inputs:
                if inp.argv[:1] not in ((), ("cox-full",)):
                    continue
                E = embedding_from_dict(inp.doc)
                if len(E.exceptional_points()) >= 3:
                    assert not class_group(E).group.torsion, (w, seed, inp.name)


def test_cli_mix_shape():
    inputs = workloads.generate("cli_mix", 0)
    assert len(inputs) >= 100  # enough for a 90th percentile with ten beyond it
    commands = {inp.argv[0] for inp in inputs}
    assert commands == {"validate", "classgroup", "cox-u", "cox-full", "diagnose",
                        "iterate", "batyrev-haddad"}
    groups = {inp.doc["group"]["type"] for inp in inputs}
    assert groups == {"cyclic", "dihedral", "tetrahedral", "octahedral", "icosahedral"}
    assert any(not inp.expect_valid for inp in inputs)


def test_every_table_function_is_called_on_its_workloads(traced):
    for name, names_workloads in spans.TABLE.items():
        for w in names_workloads:
            tracer = traced[w][0]
            assert tracer.stats[name]["calls"] > 0, (name, w)


def test_default_seed_matches_reference(traced):
    with open(bench.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    assert reference["seed"] == bench.DEFAULT_SEED
    for w, (_, digests, failures) in traced.items():
        assert not failures, (w, failures)
        assert digests == reference["workloads"][w], w


def test_layer_shares_match_the_workload_design(traced):
    fc = traced["full_cyclic_sweep"][0].module_self_s()
    assert max(fc, key=fc.get) == "ogpoly"
    md = traced["many_divisors"][0].stats
    assert max(md, key=lambda n: md[n]["self_s"]) == "exactmath.solve_nonneg"
    cli = traced["cli_mix"][0].module_self_s()
    assert max(cli.values()) < 0.5 * sum(cli.values())


def test_every_pass_is_checked():
    calls = []

    def drifting():  # the same content on the first two calls only
        calls.append(1)
        return min(len(calls), 3)

    def check(result):
        if result == 3:
            raise content.Mismatch("wrong on a repeated call")
        return "same"

    digests, failures = child.run_passes([("drift", drifting, check)], 0.5)[4:6]
    n = len(digests["drift"])
    assert n >= 3
    assert digests["drift"] == ["same", "same"] + [None] * (n - 2)
    assert failures == {"drift": "wrong on a repeated call"}
    assert bench.count_failed(digests, {"drift": "same"}, {}, "first pass") == n - 2

    reasons = {}
    assert bench.count_failed({"a": ["x", "y", "x"]}, {"a": "x"}, reasons, "first pass") == 1
    assert reasons == {"a": "content differs from the first pass"}


def test_paused_tracer_records_nothing():
    E = embedding_from_dict(workloads.generate("many_divisors", 0)[0].doc)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.paused():
            sl2cox.class_group(E)
        assert tracer.stats["classgroup.class_group"]["calls"] == 0
        sl2cox.class_group(E)
        assert tracer.stats["classgroup.class_group"]["calls"] == 1
    finally:
        tracer.uninstall()


def test_wrappers_replace_every_binding_and_restore_it():
    originals = {name: spans._resolve(name)[2] for name in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sl2cox" or mod_name.startswith("sl2cox."):
                for key, val in vars(mod).items():
                    assert all(val is not fn for fn in originals.values()), (mod_name, key)
    finally:
        tracer.uninstall()
    assert sl2cox.classgroup.solve_nonneg is originals["exactmath.solve_nonneg"]
    assert sl2cox.coxring.gr_nullspace is originals["ogpoly.gr_nullspace"]
    assert sl2cox.ogpoly.GPoly.__mul__ is originals["ogpoly.GPoly.__mul__"]


def _full_cox_json(res) -> str:
    return json.dumps({
        "relations": [poly_to_json(r) for r in res.presentation.relations],
        "rows": [[m.kind, list(m.points), r.iso_m, r.b_weight, r.in_kernel,
                  poly_to_json(r.poly), [list(x) for x in r.monomials]]
                 for m in res.modules for r in m.rows],
        "images": {k: list(v) for k, v in res.class_group.images.items()},
        "warnings": res.warnings,
    }, sort_keys=True)


def test_wrappers_leave_results_bit_identical(tmp_path):
    full = workloads.generate("full_cyclic_sweep", 0)[0]
    E = embedding_from_dict(full.doc)
    cli_input = next(i for i in workloads.generate("cli_mix", 0) if i.argv[0] == "cox-full")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(cli_input.doc))
    argv = list(cli_input.argv) + [str(path), "--format", "json"]

    plain = (_full_cox_json(child._full_cox(E)), child._cli(argv))
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = (_full_cox_json(child._full_cox(E)), child._cli(argv))
    finally:
        tracer.uninstall()
    assert tracer.stats["ogpoly.GPoly.__mul__"]["calls"] > 0
    assert wrapped == plain


def test_content_ignores_wording_but_not_verdicts():
    report = {"command": "diagnose", "special_fiber_normal": True,
              "total_space_log_terminal": True, "platonic_witness": None,
              "exponent_vectors": [[3, 1]], "constant_functions": {"holds": True,
                                                                   "certificate": "-1"}}
    reworded = dict(report, platonic_witness=[3, 3, 1],
                    constant_functions={"holds": True, "certificate": "-1/2"})
    flipped = dict(report, special_fiber_normal=False)
    digest = content.cli_digest("diagnose", 0, (0, json.dumps(report)))
    assert content.cli_digest("diagnose", 0, (0, json.dumps(reworded))) == digest
    assert content.cli_digest("diagnose", 0, (0, json.dumps(flipped))) != digest
    with pytest.raises(content.Mismatch):
        content.cli_digest("diagnose", 0, (2, ""))


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
