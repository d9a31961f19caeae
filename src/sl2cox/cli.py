"""Command-line front end.

``COMMANDS`` holds one row per subcommand (validate, classgroup, cox-u,
cox-full, diagnose, iterate, batyrev-haddad): its handler, help text and own
flags.  ``build_parser`` turns the table into the argument parser, once per
process: every ``main`` call in one process parses with the same parser.
``main`` reads the embedding file once (JSON, see README; ``embedding``
reads every input file), parses and validates those bytes and calls the
handler.  The handler computes once and renders only the format asked for:
the pretty lines, or (--format json) the report dict, to which ``main`` adds
the command name and the input digest (the SHA-256 of the bytes it parsed)
before writing it as a JSON document.  ``_write_json`` writes the text of
``json.dumps(report, indent=2, sort_keys=True)`` and a newline, byte for byte,
with the C string escape and in pieces of a bounded number of characters, so
a large report is never held as one string.  A report holds its relations as
``SparsePoly``: each is written as the text of its ``poly_to_json`` term
list straight from its integer numerators, and ``cox-full``'s module rows
are built one at a time as they are written (``_Lazy``).  Exit codes: 0 success
(``--help`` included), 1 invalid, unreadable or malformed input, 2
computation error, 3 usage error (argparse's own errors included), 141
(128 + SIGPIPE) when stdout is closed before the report is written, as in
``sl2cox cox-full file | head -1``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from . import classgroup as cg
from . import coxring as cx
from . import diagnostics as dg
from . import iteration as it
from .embedding import (
    InvalidEmbedding,
    SchemaError,
    derive_ap0_input,
    load_embedding,
    load_hypercones,
    read_input,
)
from .exactmath import EmptySolutionSet, frac_str
from .hyperspace import WrongKind
from .presentation import (
    GradedPresentation,
    SparsePoly,
    pretty_negated,
    pretty_poly,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COMPUTE = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141


# The JSON writer hands its text to stdout whenever it holds more than this
# many characters, so a large report is never held as one string; a smaller
# report (every report of the benchmark's cli_mix) is one write.  It is the
# size of a Linux pipe's buffer: a report the pipe cannot hold is written in
# two pieces or more, and on CPython 3.11 only a later piece, not one large
# write, fails with BrokenPipeError when the reader has left.
_WRITE_BOUND = 1 << 16


class _Lazy:
    """A list the JSON writer builds as it writes it: ``make(x)`` for each
    ``x`` of ``items``, one item at a time.  It can be read more than once,
    and is empty when ``items`` is."""

    __slots__ = ("make", "items")

    def __init__(self, make, items):
        self.make, self.items = make, items

    def __iter__(self):
        return map(self.make, self.items)

    def __len__(self) -> int:
        return len(self.items)


def _write_json(doc) -> None:
    """Write ``doc`` and a newline to stdout, byte for byte as
    ``print(json.dumps(doc, indent=2, sort_keys=True))`` would, with each
    ``_Lazy`` as its list and each ``SparsePoly`` as its ``poly_to_json``
    list.  ``_encode`` checks the characters it holds after each element,
    and each element adds one part since the last check, so every write but
    the last holds more than ``_WRITE_BOUND`` characters and at most one
    part more; a smaller report is one write."""
    parts: list[str] = []
    _encode(doc, parts, "\n", "", 0)
    parts.append("\n")
    sys.stdout.write("".join(parts))


def _encode(x, parts: list[str], nl: str, head: str, size: int) -> int:
    """Append ``head`` and ``x`` to ``parts``, the inner lines of ``x``
    indented by ``nl`` (a newline and spaces) plus two spaces, and return
    ``size`` (the characters held since the last write) plus the characters
    appended since.  A scalar is one part with its head, so is an empty
    container and so is a polynomial; a container's head goes into its first
    element's part, and its closing bracket is one part.  Only the types of
    a report are written: dicts with ``str`` keys (in sorted order), lists,
    tuples, ``_Lazy``, ``SparsePoly``, ``str``, ``int``, ``bool`` and
    ``None``; anything else, a float or a non-``str`` key included, raises
    ``TypeError``."""
    t = type(x)
    if t is str:
        s = head + encode_basestring_ascii(x)
    elif t is int:
        s = head + int.__repr__(x)
    elif t is SparsePoly:
        s = head + _poly_text(x, nl)
    elif x is None or t is bool:
        s = head + ("null" if x is None else "true" if x else "false")
    elif t is dict or t is list or t is tuple or t is _Lazy:
        if not x:
            s = head + ("{}" if t is dict else "[]")
        else:
            inner = nl + "  "
            sep, comma = head + ("{" if t is dict else "[") + inner, "," + inner
            if t is dict:
                # a key that is no str raises TypeError, in sorted() or the escape
                for k in sorted(x):
                    size = _encode(x[k], parts, inner, sep + encode_basestring_ascii(k) + ": ",
                                   size)
                    sep = comma
                    if size > _WRITE_BOUND:
                        size = _flush(parts)
            else:
                for v in x:
                    size = _encode(v, parts, inner, sep, size)
                    sep = comma
                    if size > _WRITE_BOUND:
                        size = _flush(parts)
            s = nl + ("}" if t is dict else "]")
    else:
        raise TypeError(f"{t.__name__} is not a report type")
    parts.append(s)
    return size + len(s)


def _flush(parts: list[str]) -> int:
    """Write the parts held and drop them: none are held now."""
    sys.stdout.write("".join(parts))
    parts.clear()
    return 0


def _poly_text(poly: SparsePoly, nl: str) -> str:
    """The JSON text of ``poly_to_json(poly)`` on a line indented by ``nl``,
    as ``_encode`` would write that list, straight from the integer
    numerators: the terms in ``sorted(num)`` order, the real and imaginary
    parts of each coefficient as ``frac_str`` over ``den``."""
    if not poly.num:
        return "[]"
    n1 = nl + "  "
    n2 = n1 + "  "
    n3 = n2 + "  "
    im, re, mono, sep = ("{" + n2 + '"coeff": {' + n3 + '"im": "', '",' + n3 + '"re": "',
                         '"' + n2 + "}," + n2 + '"monomial": ', "," + n3)
    opening, closing, end, den = "{" + n3, n2 + "}", n1 + "}", poly.den
    terms = [im + frac_str(y, den) + re + frac_str(x, den) + mono
             + (opening + sep.join([f"{encode_basestring_ascii(v)}: {e}" for v, e in m])
                + closing if m else "{}") + end
             for m, (x, y) in sorted(poly.num.items())]
    return "[" + n1 + ("," + n1).join(terms) + nl + "]"


def _emit(out, fmt: str) -> None:
    """Print a report: a JSON document, or pretty lines."""
    if fmt == "json":
        _write_json(out)
    else:
        for line in out:
            print(line)
    sys.stdout.flush()  # a closed pipe raises here, inside main


def _group_json(g) -> dict:
    return {"rank": g.free_rank, "torsion": list(g.torsion)}


def _presentation_json(P: GradedPresentation) -> dict:
    return {
        "variables": [
            {"name": v.name, "degree": list(v.degree), "b_weight": v.b_weight,
             "module": v.module_tag}
            for v in P.variables
        ],
        "relations": P.canonical_relations(),
        "grading": _group_json(P.grading),
    }


def _presentation_pretty(P: GradedPresentation, title: str, relations: list[str]) -> list[str]:
    """The presentation as pretty lines, with its relations' pretty text."""
    lines = [title, f"  grading group: {P.grading}"]
    lines.append("  generators: " + ", ".join(
        f"{vn.name}(deg {list(vn.degree)}, wt {vn.b_weight})" for vn in P.variables))
    if relations:
        lines.append("  relations:")
        lines += ["    " + r for r in relations]
    else:
        lines.append("  relations: none (polynomial algebra)")
    return lines


def _relations_pretty(P: GradedPresentation) -> list[str]:
    """The pretty text of each canonical relation of ``P``."""
    order, names = P.var_index(), P.pretty_names()
    return [_canonical_text(pretty_poly(r, order, names)) for r in P.relations]


def _canonical_text(text: str) -> str:
    """The pretty text of the canonical form of a polynomial, from
    its ``pretty_poly`` text: ``canonicalize`` flips the sign of a polynomial
    exactly when its leading term, the first one printed, is negative."""
    return pretty_negated(text) if text[0] == "-" else text


def _load(path: str):
    """The embedding in the file and the file's digest, from one read."""
    data, cited = read_input(path)
    return load_embedding(path, data), cited


def validate(args) -> int:
    """The one handler that reads the file itself: its result is the file's
    validity, a schema error included."""
    json_out = args.format == "json"
    try:
        E, cited = _load(args.file)
        violations = E.validate()
    except SchemaError as exc:
        _emit({"command": "validate", "valid": False, "schema_error": str(exc)} if json_out
              else [f"schema error: {exc}"], args.format)
        return EXIT_INVALID
    if json_out:
        _emit({"command": "validate", "input": cited, "valid": not violations,
               "violations": [{"code": v.code, "detail": v.detail} for v in violations]},
              args.format)
    else:
        _emit(["valid" if not violations else "invalid:"] + [f"  {v}" for v in violations],
              args.format)
    return EXIT_OK if not violations else EXIT_INVALID


def classgroup(E, args):
    R = cg.class_group(E)
    if args.format == "json":
        return {
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
    return lines


def cox_u(E, args):
    P = cx.cox_u_presentation(E)
    Q, log = cx.eliminate(P)
    warnings: list[str] = []
    if args.verify:
        cx.verify_cox_u(E, P)
        warnings.append("verify: raw relations are exactly homogeneous and vanish on the orbit")
    if args.special_fiber:
        fib = cx.special_fiber_u(Q)
        verdict = cx.classify_fiber_presentation(fib)
        normal = dg.special_fiber_normal(E)
    if args.format == "json":
        report = {"presentation": _presentation_json(Q), "eliminations": log,
                  "warnings": warnings}
        if args.special_fiber:
            report["special_fiber"] = {"presentation": _presentation_json(fib),
                                       "classification": verdict, "normal": normal}
        return report
    lines = _presentation_pretty(Q, "Cox(X)^U after eliminating a, b", _relations_pretty(Q))
    if log:
        lines += ["  eliminations:"] + [f"    {s}" for s in log]
    if args.special_fiber:
        lines += _presentation_pretty(fib, "special fiber (all r = 0)", _relations_pretty(fib))
        lines.append(f"  classification: {verdict}; normal per criterion: {normal}")
    return lines


def cox_full(E, args):
    res = cx.full_cox_presentation_cyclic(E)
    warnings: list[str] = []
    if args.verify:
        cx.verify_full_cox(res)
        warnings.append("verify: all relations vanish identically on the orbit")
    if args.format == "json":
        # the module rows are built one at a time, as they are written
        return {
            "presentation": _presentation_json(res.presentation),
            "modules": _Lazy(_module_json, res.modules),
            "preprocessing": res.preprocessing_log,
            "warnings": warnings,
        }
    # the relations are the rows' polynomials, each rendered once for its
    # row line and its relation line
    P = res.presentation
    order, names = P.var_index(), P.pretty_names()
    rows = [(mod, row, pretty_poly(row.poly, order, names))
            for mod in res.modules for row in mod.rows]
    lines = _presentation_pretty(P, "Cox(X) by generators and relations", [
        _canonical_text(text) for _, _, text in rows])
    lines.append("  relation modules:")
    for mod, row, text in rows:
        tagk = "kernel, " if row.in_kernel else ""
        lines.append(f"    {mod.kind}_{{{','.join(mod.points)}}} = V_{row.iso_m} "
                     f"({tagk}B-weight {row.b_weight}w): " + text)
    lines += [f"  preprocessing: {s}" for s in res.preprocessing_log]
    lines += [f"  warning: {s}" for s in warnings]
    return lines


def _module_json(mod) -> dict:
    return {"kind": mod.kind, "points": mod.points, "rows": _Lazy(_row_json, mod.rows)}


def _row_json(row) -> dict:
    return {"iso": row.iso_m, "b_weight": row.b_weight, "in_kernel": row.in_kernel,
            "poly": row.poly}


def diagnose(E, args):
    ap0 = derive_ap0_input(E)
    total = dg.is_platonic_ring(ap0)
    fiber = dg.special_fiber_normal(E)
    try:
        ok, cert = dg.constant_functions_only(E)
        skipped = None
    except dg.HypothesesNotMet as exc:
        skipped = str(exc)  # the exception would hold this frame through its traceback
    if args.hypercones:
        orbits = [dg.classify_hypercone_orbit(c, E) for c in load_hypercones(args.hypercones, E)]
        verdict = dg.log_terminal_X(orbits)
    if args.format == "json":
        report = {
            "special_fiber_normal": fiber,
            "total_space_log_terminal": total.is_platonic,
            "platonic_witness": list(total.witness) if total.witness else None,
            "exponent_vectors": [list(v) for v in ap0[1]],
            "constant_functions": ({"holds": None, "reason": skipped} if skipped is not None
                                   else {"holds": ok, "certificate": str(cert)}),
        }
        if args.hypercones:
            report["orbits"] = [{"kind": o.kind, "tuple": list(o.tuple)} for o in orbits]
            report["X_log_terminal"] = verdict.is_platonic
        return report
    lines = [
        f"special fiber normal: {fiber}",
        f"total coordinate space log terminal (Platonic ring): {total.is_platonic}"
        + (f" (witness {total.witness})" if total.witness else ""),
        f"constant-function test not applicable: {skipped}" if skipped is not None
        else f"only constant global functions: {ok} (certificate {cert} {'<' if ok else '>='} 0)",
    ]
    if args.hypercones:
        lines.append("orbit classes: " + ", ".join(
            o.kind + (str(o.tuple) if o.tuple else "") for o in orbits))
        lines.append(f"X log terminal: {verdict.is_platonic}")
    return lines


def iterate(E, args):
    rep = it.iterate(E)
    if args.format == "json":
        return {
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
    return lines


def batyrev_haddad(E, args):
    bh = cx.batyrev_haddad(E)
    if args.format == "json":
        return {"p": bh.p, "q": bh.q, "k": bh.k, "a": bh.a, "b": bh.b, "height": str(bh.height)}
    return [f"height h_P = {bh.height} = {bh.p}/{bh.q}",
            f"k = {bh.k}, a = {bh.a}, b = {bh.b}",
            f"total coordinate space: y^{bh.b} = t1 t4 - t2 t3"]


# name -> (handler, help, own flags as (flag, add_argument keywords)); every
# handler but validate maps (valid embedding, args) to the report in the
# requested format: the JSON report dict, or the pretty lines
COMMANDS = {
    "validate": (validate, "check an embedding file", ()),
    "classgroup": (classgroup, "divisor class group by generators and relations", ()),
    "cox-u": (cox_u, "presentation of the U-invariant Cox ring",
              (("--special-fiber", {"action": "store_true"}),)),
    "cox-full": (cox_full, "full Cox-ring presentation (cyclic F)", ()),
    "diagnose": (diagnose, "singularity and fiber diagnostics",
                 (("--hypercones", {"help": "JSON file of colored hypercones"}),)),
    "iterate": (iterate, "Cox ring iteration sequence", ()),
    "batyrev-haddad": (batyrev_haddad, "affine-case hypersurface parameters", ()),
}


# -- entry point ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sl2cox",
        description="class groups, Cox rings and singularity diagnostics of "
                    "almost homogeneous SL2-threefolds, in exact arithmetic")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json"), default="pretty")
    common.add_argument("--seed-free", action="store_true",
                        help="accepted for compatibility; has no effect (every "
                             "check is deterministic)")
    common.add_argument("--verify", action="store_true",
                        help="check every emitted relation for homogeneity and "
                             "exact vanishing on the orbit")
    sub = ap.add_subparsers(dest="command")
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    handler = COMMANDS[args.command][0]
    try:
        if handler is validate:
            return validate(args)
        E, cited = _load(args.file)
        out = handler(E.require_valid(), args)
        if args.format == "json":
            out = {"command": args.command, "input": cited, **out}
        _emit(out, args.format)
        return EXIT_OK
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
            dg.HypothesesNotMet, it.UnknownCharacterLattice, RuntimeError) as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's last flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
