"""Mathematical content of a result, reduced to a digest for the reference.

Only content that a correct program must reproduce enters a digest: class
group invariants and generator images, the set of canonical relations, the
generator degrees and B-weights, module iso/B-weight rows, boolean
verdicts, iteration lengths and chains, Batyrev-Haddad parameters and the
exit code.  Platonic witnesses and the wording of warnings, preprocessing
logs and errors are left out, so rewording them is not a failure.
"""

from __future__ import annotations

import hashlib
import json

from sl2cox.presentation import poly_to_json


class Mismatch(Exception):
    """A result contradicts what its input must give."""


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _relation_set(relations: list) -> list:
    return sorted(relations, key=lambda r: json.dumps(r, sort_keys=True))


def full_cox_digest(res) -> str:
    """Digest of a verified FullCoxResult (verify_full_cox already ran)."""
    R = res.class_group
    pres = res.presentation
    return _digest({
        "class_group": {"rank": R.group.free_rank, "torsion": list(R.group.torsion)},
        "images": {lbl: list(img) for lbl, img in R.images.items()},
        "variables": [[v.name, list(v.degree), v.b_weight] for v in pres.variables],
        "relations": _relation_set([poly_to_json(r) for r in pres.canonical_relations()]),
        "modules": sorted([mod.kind, list(mod.points), row.iso_m, row.b_weight, row.in_kernel]
                          for mod in res.modules for row in mod.rows),
    })


def _presentation(doc: dict) -> dict:
    return {
        "variables": [[v["name"], v["degree"], v["b_weight"]] for v in doc["variables"]],
        "relations": _relation_set(doc["relations"]),
        "grading": doc["grading"],
    }


def _cli_content(command: str, report: dict) -> dict:
    if command == "validate":
        return {"valid": report["valid"]}
    if command == "classgroup":
        return {"group": report["group"], "images": report["images"]}
    if command == "cox-u":
        out = {"presentation": _presentation(report["presentation"])}
        fib = report.get("special_fiber")
        if fib is not None:
            out["special_fiber"] = {"presentation": _presentation(fib["presentation"]),
                                    "classification": fib["classification"],
                                    "normal": fib["normal"]}
        return out
    if command == "cox-full":
        return {
            "presentation": _presentation(report["presentation"]),
            "modules": sorted([m["kind"], m["points"], r["iso"], r["b_weight"], r["in_kernel"]]
                              for m in report["modules"] for r in m["rows"]),
        }
    if command == "diagnose":
        return {
            "special_fiber_normal": report["special_fiber_normal"],
            "total_space_log_terminal": report["total_space_log_terminal"],
            "constant_functions": report["constant_functions"]["holds"],
            "exponent_vectors": report["exponent_vectors"],
        }
    if command == "iterate":
        return {key: report[key] for key in ("m_lo", "m_hi", "determined", "bound", "chains")}
    if command == "batyrev-haddad":
        return {key: report[key] for key in ("p", "q", "k", "a", "b")}
    raise Mismatch(f"unknown subcommand {command!r}")


def cli_digest(command: str, expect_exit: int, result) -> str:
    """Digest of one ``sl2cox.cli.main`` call: (exit code, captured stdout)."""
    code, stdout = result
    if code != expect_exit:
        raise Mismatch(f"exit code {code}, expected {expect_exit}")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not one JSON document: {exc}") from exc
    return _digest({"exit": code, "content": _cli_content(command, report)})
