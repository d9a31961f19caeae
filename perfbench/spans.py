"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the functions named in ``TRACED`` and rebinds
every reference to each of them across the loaded ``sl2cox.*`` modules (for
example ``classgroup`` holds its own ``solve_nonneg`` and ``coxring`` its own
``gr_nullspace``), so no call slips past a wrapper.  Each wrapped call is a
span; its self time is its duration minus the time covered by wrapped child
spans, so time in unwrapped helpers counts toward the nearest wrapped caller.
Spans are aggregated in memory per function (calls, self time, extra counts
computed from arguments and results); ``paused()`` stops recording for a
block, and ``uninstall()`` restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("exactmath", "groups", "hyperspace", "embedding", "classgroup", "ogpoly",
           "presentation", "coxring", "diagnostics", "iteration", "cli")

# Functions of the per-layer table, as module.qualname, with the workloads
# on which each must be called (the ones whose end-to-end metrics it should
# move).
FC, MD, CLI = "full_cyclic_sweep", "many_divisors", "cli_mix"
TABLE = {
    "ogpoly.GPoly.__mul__": (FC,),
    "ogpoly.GPoly.__add__": (FC,),
    "ogpoly.GPoly.pow": (FC,),
    "ogpoly.express_in_span": (FC,),
    "ogpoly.gr_nullspace": (FC,),
    "ogpoly.combination_nullspace": (FC,),
    "coxring.full_cox_presentation_cyclic": (FC, MD),
    "coxring.verify_full_cox": (FC, MD),
    "exactmath.solve_nonneg": (MD,),
    "classgroup.express_in_invariant_divisors": (MD,),
    "exactmath.smith_normal_form": (CLI, MD),
    "classgroup.class_group": (CLI, MD),
    "coxring.cox_u_presentation": (CLI,),
    "coxring.eliminate": (CLI,),
    "coxring.special_fiber_u": (CLI,),
    "coxring.verify_cox_u": (CLI,),
    "coxring.batyrev_haddad": (CLI,),
    "diagnostics.is_platonic_ring": (CLI,),
    "diagnostics.special_fiber_normal": (CLI,),
    "diagnostics.constant_functions_only": (CLI,),
    "iteration.iterate": (CLI,),
    "presentation.canonicalize": (CLI,),
    "presentation.relation_degree": (CLI,),
    "embedding.load_embedding": (CLI,),
    "embedding.EmbeddingData.validate": (CLI,),
    "cli.main": (CLI,),
}

# groups and hyperspace have no row of their own in the table; their public
# functions are wrapped so that those layers' self time is visible too.
# groups.gcd_pos is a scalar helper called per arithmetic step and is left
# unwrapped.
COARSE = (
    "groups.cyclic", "groups.dihedral", "groups.nbar_of", "groups.dtilde",
    "hyperspace.point", "hyperspace.epsilon", "hyperspace.valuation_cone_contains",
    "hyperspace.valuation_cone_form", "hyperspace.color_vector",
    "hyperspace.hypercone_from_generators", "hyperspace.is_supported",
    "hyperspace.interiors_disjoint",
)

TRACED = tuple(TABLE) + COARSE


def _mul_counts(args, kwargs, result, exc):
    out = {"term_pairs": len(args[0].terms) * len(args[1].terms)}
    if exc is None:
        out["terms_out"] = len(result.terms)
    return out


def _solve_counts(args, kwargs, result, exc):
    if exc is None:
        return {"solutions": len(result)}
    if type(exc).__name__ == "EmptySolutionSet":
        return {"empty": 1}
    return {}


def _snf_counts(args, kwargs, result, exc):
    M = args[0] if args else kwargs["M"]
    return {"cells": M.rows * M.cols}


def _platonic_counts(args, kwargs, result, exc):
    ap0 = args[0] if args else kwargs["ap0"]
    size = 1
    for v in ap0[1]:
        size *= len(v)
    return {"cross_tuples": size}


# Extra counts per wrapped function: their names, and the function that
# computes them from (args, kwargs, result, exception).
EXTRAS = {
    "ogpoly.GPoly.__mul__": (("term_pairs", "terms_out"), _mul_counts),
    "exactmath.solve_nonneg": (("solutions", "empty"), _solve_counts),
    "exactmath.smith_normal_form": (("cells",), _snf_counts),
    "diagnostics.is_platonic_ring": (("cross_tuples",), _platonic_counts),
}
EXTRA_NAMES = {name: names for name, (names, _) in EXTRAS.items()}


def _resolve(name: str):
    """(owner, attribute, function) for 'module.func' or 'module.Class.meth'."""
    mod_name, *path = name.split(".")
    owner = importlib.import_module(f"sl2cox.{mod_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    fn = inspect.getattr_static(owner, path[-1])
    return owner, path[-1], fn


class Tracer:
    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._on = [True]  # False while paused: wrappers call straight through
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        extra_names, extras = EXTRAS.get(name, ((), None))
        for extra in extra_names:
            stats[extra] = 0
        stack, on = self._stack, self._on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by wrapped children
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats["calls"] += 1
                stats["self_s"] += dt - frame[0]
                if extras is not None:
                    for key, val in extras(args, kwargs, result, exc).items():
                        stats[key] += val

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for m in MODULES:  # load every module before rebinding
            importlib.import_module(f"sl2cox.{m}")
        loaded = [mod for key, mod in sys.modules.items()
                  if key == "sl2cox" or key.startswith("sl2cox.")]
        for name in self.names:
            owner, attr, fn = _resolve(name)
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are not recorded."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st["self_s"]
        return out
