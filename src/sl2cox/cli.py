"""Command-line front end.

Subcommands: validate, classgroup, cox-u, cox-full, diagnose, iterate,
batyrev-haddad.  Input is an embedding file (JSON, see README); output is a
pretty report or a JSON document (--format json).  Exit codes: 0 success,
1 invalid input, 2 computation error, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classgroup as cg
from . import coxring as cx
from . import diagnostics as dg
from . import iteration as it
from .embedding import (
    EmbeddingData,
    InvalidEmbedding,
    SchemaError,
    derive_ap0_input,
    load_embedding,
)
from .exactmath import EmptySolutionSet
from .hyperspace import (
    BasePoint,
    HyperspaceVector,
    MalformedGenerators,
    WrongKind,
    epsilon,
    color_vector,
    hypercone_from_generators,
)
from .presentation import (
    GradedPresentation,
    poly_to_json,
    pretty_poly,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COMPUTE = 2
EXIT_USAGE = 3


def _emit(report: dict, fmt: str, pretty_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in pretty_lines:
            print(line)


def _input_digest(path: str) -> dict:
    import hashlib

    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"path": path, "sha256": digest}


def _group_json(g) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def _presentation_json(P: GradedPresentation) -> dict:
    return {
        "variables": [
            {"name": v.name, "degree": list(v.degree), "b_weight": v.b_weight,
             "module": v.module_tag}
            for v in P.variables
        ],
        "relations": [poly_to_json(r) for r in P.canonical_relations()],
        "grading": _group_json(P.grading),
    }


def _presentation_pretty(P: GradedPresentation, title: str) -> list[str]:
    order = P.var_order()
    lines = [title, f"  grading group: {P.grading}"]
    lines.append("  generators: " + ", ".join(
        f"{vn.name}(deg {list(vn.degree)}, wt {vn.b_weight})" for vn in P.variables))
    if P.relations:
        lines.append("  relations:")
        for r in P.canonical_relations():
            lines.append("    " + pretty_poly(r, order))
    else:
        lines.append("  relations: none (polynomial algebra)")
    return lines


def _load(path: str) -> EmbeddingData:
    return load_embedding(path).require_valid()


def cmd_validate(args) -> int:
    try:
        E = load_embedding(args.file)
    except SchemaError as exc:
        _emit({"command": "validate", "valid": False, "schema_error": str(exc)},
              args.format, [f"schema error: {exc}"])
        return EXIT_INVALID
    violations = E.validate()
    report = {
        "command": "validate",
        "input": _input_digest(args.file),
        "valid": not violations,
        "violations": [{"code": v.code, "detail": v.detail} for v in violations],
    }
    lines = ["valid" if not violations else "invalid:"]
    lines += [f"  {v}" for v in violations]
    _emit(report, args.format, lines)
    return EXIT_OK if not violations else EXIT_INVALID


def cmd_classgroup(args) -> int:
    E = _load(args.file)
    R = cg.class_group(E)
    report = {
        "command": "classgroup",
        "input": _input_digest(args.file),
        "group": _group_json(R.group),
        "generators": [g.label for g in R.generators],
        "presentation_matrix": R.presentation.data,
        "images": {lbl: list(img) for lbl, img in R.images.items()},
    }
    lines = [f"Cl(X) = {R.group}",
             "generators: " + ", ".join(g.pretty for g in R.generators),
             "presentation matrix (rows = relations):"]
    lines += ["  " + " ".join(f"{x:4d}" for x in row) for row in R.presentation.data]
    lines.append("adapted-basis images (free part, then torsion part):")
    lines += [f"  {g.pretty}: {list(R.images[g.label])}" for g in R.generators]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_cox_u(args) -> int:
    E = _load(args.file)
    P = cx.cox_u_presentation(E)
    Q, log = cx.eliminate(P)
    warnings: list[str] = []
    if args.verify:
        cx.verify_cox_u(E, P)
        warnings.append("verify: raw relations are exactly homogeneous and vanish on the orbit")
    shown = Q
    title = "Cox(X)^U after eliminating a, b"
    lines = _presentation_pretty(shown, title)
    if log:
        lines += ["  eliminations:"] + [f"    {s}" for s in log]
    report = {
        "command": "cox-u",
        "input": _input_digest(args.file),
        "presentation": _presentation_json(shown),
        "eliminations": log,
        "warnings": warnings,
    }
    if args.special_fiber:
        fib = cx.special_fiber_u(Q, E)
        verdict = cx.classify_fiber_presentation(fib)
        normal = dg.special_fiber_normal(E)
        report["special_fiber"] = {
            "presentation": _presentation_json(fib),
            "classification": verdict,
            "normal": normal,
        }
        lines += _presentation_pretty(fib, "special fiber (all r = 0)")
        lines.append(f"  classification: {verdict}; normal per criterion: {normal}")
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_cox_full(args) -> int:
    E = _load(args.file)
    res = cx.full_cox_presentation_cyclic(E)
    if args.verify:
        cx.verify_full_cox(res)
        res.warnings.append("verify: all relations vanish identically on the orbit")
    order = res.presentation.var_order()
    lines = _presentation_pretty(res.presentation, "Cox(X) by generators and relations")
    lines.append("  relation modules:")
    for mod in res.modules:
        pts = ",".join(mod.points)
        for row in mod.rows:
            tagk = "kernel, " if row.in_kernel else ""
            lines.append(f"    {mod.kind}_{{{pts}}} = V_{row.iso_m} "
                         f"({tagk}B-weight {row.b_weight}w): "
                         + pretty_poly(row.poly, order))
    for s in res.preprocessing_log:
        lines.append(f"  preprocessing: {s}")
    for s in res.warnings:
        lines.append(f"  warning: {s}")
    report = {
        "command": "cox-full",
        "input": _input_digest(args.file),
        "presentation": _presentation_json(res.presentation),
        "modules": [
            {"kind": mod.kind, "points": list(mod.points),
             "rows": [{"iso": row.iso_m, "b_weight": row.b_weight,
                       "in_kernel": row.in_kernel,
                       "poly": poly_to_json(row.poly)} for row in mod.rows]}
            for mod in res.modules
        ],
        "preprocessing": res.preprocessing_log,
        "warnings": res.warnings,
    }
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    E = _load(args.file)
    ap0 = derive_ap0_input(E)
    total = dg.log_terminal_total_space(E)
    fiber = dg.special_fiber_normal(E)
    report = {
        "command": "diagnose",
        "input": _input_digest(args.file),
        "special_fiber_normal": fiber,
        "total_space_log_terminal": total.is_platonic,
        "platonic_witness": list(total.witness) if total.witness else None,
        "exponent_vectors": [list(v) for v in ap0[1]],
    }
    lines = [
        f"special fiber normal: {fiber}",
        f"total coordinate space log terminal (Platonic ring): {total.is_platonic}"
        + (f" (witness {total.witness})" if total.witness else ""),
    ]
    try:
        ok, cert = dg.constant_functions_only(E)
        report["constant_functions"] = {"holds": ok, "certificate": str(cert)}
        lines.append(f"only constant global functions: {ok} "
                     f"(certificate {cert} {'<' if ok else '>='} 0)")
    except dg.HypothesesNotMet as exc:
        report["constant_functions"] = {"holds": None, "reason": str(exc)}
        lines.append(f"constant-function test not applicable: {exc}")
    if args.hypercones:
        cones = load_hypercones(args.hypercones, E)
        verdict = dg.log_terminal_X(E, cones)
        orbits = [dg.classify_hypercone_orbit(c, E) for c in cones]
        report["orbits"] = [{"kind": o.kind, "tuple": list(o.tuple)} for o in orbits]
        report["X_log_terminal"] = verdict.is_platonic
        lines.append("orbit classes: " + ", ".join(
            o.kind + (str(o.tuple) if o.tuple else "") for o in orbits))
        lines.append(f"X log terminal: {verdict.is_platonic}")
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_iterate(args) -> int:
    E = _load(args.file)
    rep = it.iterate(E)
    report = {
        "command": "iterate",
        "input": _input_digest(args.file),
        "m_lo": rep.m_lo,
        "m_hi": rep.m_hi,
        "determined": rep.determined,
        "bound": rep.bound,
        "master_factorial": rep.master_factorial,
        "steps": [{"subgroup": str(s.subgroup),
                   "torsion_order": s.torsion_order,
                   "determined": s.determined} for s in rep.steps],
        "chains": [list(c) for c in rep.chains],
        "evidence": {k: (v if isinstance(v, (int, str)) else str(v))
                     for k, v in rep.evidence.items()},
    }
    mtxt = str(rep.m_lo) if rep.determined else f"[{rep.m_lo}, {rep.m_hi}]"
    lines = [f"iteration length m = {mtxt} (bound {rep.bound})",
             "steps: " + " > ".join(str(s.subgroup) for s in rep.steps),
             "admissible chains:"]
    lines += ["  " + " > ".join(cseq) for cseq in rep.chains]
    _emit(report, args.format, lines)
    return EXIT_OK


def cmd_batyrev_haddad(args) -> int:
    E = _load(args.file)
    bh = cx.batyrev_haddad(E)
    report = {
        "command": "batyrev-haddad",
        "input": _input_digest(args.file),
        "p": bh.p, "q": bh.q, "k": bh.k, "a": bh.a, "b": bh.b,
        "height": str(bh.height),
    }
    lines = [f"height h_P = {bh.height} = {bh.p}/{bh.q}",
             f"k = {bh.k}, a = {bh.a}, b = {bh.b}",
             f"total coordinate space: y^{bh.b} = t1 t4 - t2 t3"]
    _emit(report, args.format, lines)
    return EXIT_OK


# -- hypercone files ---------------------------------------------------------


def load_hypercones(path: str, E: EmbeddingData):
    """JSON list of hypercones: slices with explicit vectors or "color",
    omitted points, epsilon implied elsewhere.  Point references extend the
    embedding ones by "xd" (the distinguished point) and inline coordinates
    {"alpha": .., "beta": ..}."""
    from .embedding import SchemaError, _parse_coord, _point_ref
    from .exactmath import rat
    from .hyperspace import XD, BasePoint

    def ref(r, where):
        if isinstance(r, dict):
            alpha = _parse_coord(r.get("alpha", 0), where)
            beta = _parse_coord(r.get("beta", 0), where)
            return BasePoint(alpha=alpha, beta=beta)
        if r == "xd":
            return XD
        return _point_ref(r, extras, where)

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise SchemaError("hypercones file must be a JSON list")
    extras = list(E.extra_points)
    cones = []
    for i, c in enumerate(doc):
        gens: list[HyperspaceVector] = []
        e_parts = [rat(x) for x in c.get("e_generators", [])]
        omitted = [ref(r, f"hypercones[{i}].omitted") for r in c.get("omitted", [])]
        for s in c.get("slices", []):
            p = ref(s["point"], f"hypercones[{i}]")
            for v in s.get("vectors", []):
                if v == "color":
                    gens.append(color_vector(E.group, p, E.section))
                elif v == "epsilon":
                    gens.append(epsilon(p))
                else:
                    gens.append(HyperspaceVector(p, rat(v["h"]), rat(v["l"])))
        cones.append(hypercone_from_generators(gens, e_parts, omitted))
    return cones


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sl2cox",
        description="class groups, Cox rings and singularity diagnostics of "
                    "almost homogeneous SL2-threefolds, in exact arithmetic")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json"), default="pretty")
    common.add_argument("--seed-free", action="store_true",
                        help="skip the randomized self-checks run under --verify")
    common.add_argument("--verify", action="store_true",
                        help="re-run substitution checks on every emitted relation")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("validate", parents=[common], help="check an embedding file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classgroup", parents=[common],
                       help="divisor class group by generators and relations")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classgroup)

    p = sub.add_parser("cox-u", parents=[common],
                       help="presentation of the U-invariant Cox ring")
    p.add_argument("file")
    p.add_argument("--special-fiber", action="store_true")
    p.set_defaults(fn=cmd_cox_u)

    p = sub.add_parser("cox-full", parents=[common],
                       help="full Cox-ring presentation (cyclic F)")
    p.add_argument("file")
    p.set_defaults(fn=cmd_cox_full)

    p = sub.add_parser("diagnose", parents=[common],
                       help="singularity and fiber diagnostics")
    p.add_argument("file")
    p.add_argument("--hypercones", help="JSON file of colored hypercones")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("iterate", parents=[common], help="Cox ring iteration sequence")
    p.add_argument("file")
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("batyrev-haddad", parents=[common],
                       help="affine-case hypersurface parameters")
    p.add_argument("file")
    p.set_defaults(fn=cmd_batyrev_haddad)
    return ap


def _self_check(seed_free: bool) -> None:
    """Randomized Smith-normal-form spot check (skipped under --seed-free)."""
    if seed_free:
        return
    import random

    from .exactmath import IntMatrix, smith_normal_form

    rng = random.Random(20240817)
    for _ in range(5):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        s = smith_normal_form(M)
        assert (s.U * M * s.V) == s.D


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.verify:
            _self_check(args.seed_free)
        return args.fn(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidEmbedding as exc:
        print("invalid embedding:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_INVALID
    except (EmptySolutionSet, cx.NotCyclic, cx.NotAffineShape, cx.HeightOutOfRange,
            cx.TorsionAfterAugmentation, cx.NotLinearInTarget, WrongKind,
            MalformedGenerators, dg.HypothesesNotMet, it.UnknownCharacterLattice,
            RuntimeError) as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
