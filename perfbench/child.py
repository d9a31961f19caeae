"""Benchmark child process: one cold start, or one measured run.

    child.py setup   WORKDIR
    child.py measure WORKDIR SECONDS TRACE

WORKDIR holds ``manifest.json`` (written by run.py: the workload and its
inputs) and one embedding file per distinct input document.  ``setup``
imports sl2cox, loads and validates every file, prints ``ready`` and exits;
run.py times it from spawn to that line.  ``measure`` does the same set-up,
then runs the workload in passes over all inputs until SECONDS would be
exceeded, and writes ``result.json`` to WORKDIR: per-input times, the
content digest of every input's result on every pass, failures, peak RSS
and, with TRACE = 1, the per-layer span table.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sl2cox  # noqa: E402,F401
import sl2cox.cli  # noqa: E402
from sl2cox import coxring  # noqa: E402
from sl2cox.embedding import SchemaError, load_embedding  # noqa: E402

import content  # noqa: E402
import speed  # noqa: E402


def set_up(workdir: str) -> tuple[dict, dict]:
    """Load and validate every embedding file.  Returns the manifest and the
    embeddings by file name (None for a file that does not parse)."""
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    loaded = {}
    for inp in manifest["inputs"]:
        fname = inp["file"]
        if fname in loaded:
            continue
        try:
            E = load_embedding(os.path.join(workdir, fname))
        except SchemaError:
            loaded[fname] = None
            continue
        E.validate()
        loaded[fname] = E
    return manifest, loaded


def _full_cox(E):
    res = coxring.full_cox_presentation_cyclic(E)
    coxring.verify_full_cox(res)
    return res


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sl2cox.cli.main(argv)
    return code, out.getvalue()


def make_ops(manifest: dict, workdir: str, loaded: dict):
    """(name, op, check) per input: op() runs the timed call, check(result)
    returns the content digest or raises content.Mismatch."""
    ops = []
    for inp in manifest["inputs"]:
        if manifest["workload"] == "cli_mix":
            argv = list(inp["argv"]) + [os.path.join(workdir, inp["file"]), "--format", "json"]
            ops.append((inp["name"], functools.partial(_cli, argv),
                        functools.partial(content.cli_digest, inp["argv"][0],
                                          inp["expect_exit"])))
        else:
            ops.append((inp["name"], functools.partial(_full_cox, loaded[inp["file"]]),
                        content.full_cox_digest))
    return ops


RAISED = object()  # stands for the result of a call that raised


def run_passes(ops, seconds: float, tracer=None):
    """Closed loop, one input at a time, with a speed.sample() before every
    input that comes more than speed.EVERY_S after the last sample.  After
    each call's end time is taken, its result is checked and reduced to its
    content digest (with the tracer paused); a call that raises or whose
    result contradicts its input gets the digest None and its first reason
    goes into ``failures``.  A further pass starts only when the median
    pass so far still fits into the time left.  Returns (pass times,
    measured pass times, per-input times, measured per-input times,
    digests per input and pass, failures, kernel samples); the plain times
    are rescaled to the reference speed."""
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    digests: dict[str, list] = {name: [] for name, _, _ in ops}
    failures: dict[str, str] = {}
    samples = [speed.sample()]
    runs: list[list[tuple[str, float, float]]] = []  # per pass: (name, start, end)
    elapsed: list[float] = []
    start = perf_counter()
    while True:
        this_pass = []
        p0 = perf_counter()
        for name, op, check in ops:
            if perf_counter() - samples[-1][0] >= speed.EVERY_S:
                samples.append(speed.sample())
            t0 = perf_counter()
            try:
                result = op()
            except Exception as exc:  # an input that raises counts as failed
                failures.setdefault(name, f"{type(exc).__name__}: {exc}")
                result = RAISED
            this_pass.append((name, t0, perf_counter()))
            digest = None
            if result is not RAISED:
                with paused():
                    try:
                        digest = check(result)
                    except content.Mismatch as exc:
                        failures.setdefault(name, str(exc))
            digests[name].append(digest)
            del result
        runs.append(this_pass)
        samples.append(speed.sample())
        elapsed.append(perf_counter() - p0)
        if perf_counter() - start + statistics.median(elapsed) > seconds:
            break
    times: dict[str, list[float]] = {name: [] for name, _, _ in ops}
    raw_times: dict[str, list[float]] = {name: [] for name, _, _ in ops}
    passes, raw_passes = [], []
    for this_pass in runs:
        raw = [(name, t1 - t0) for name, t0, t1 in this_pass]
        scaled = [(name, speed.rescale(t1 - t0, speed.local_speed(samples, t0, t1)))
                  for name, t0, t1 in this_pass]
        for (name, dt), (_, raw_dt) in zip(scaled, raw):
            times[name].append(dt)
            raw_times[name].append(raw_dt)
        passes.append(sum(dt for _, dt in scaled))
        raw_passes.append(sum(dt for _, dt in raw))
    return passes, raw_passes, times, raw_times, digests, failures, samples


def measure(workdir: str, seconds: float, trace: bool) -> None:
    manifest, loaded = set_up(workdir)
    ops = make_ops(manifest, workdir, loaded)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        passes, raw_passes, times, raw_times, digests, failures, samples = \
            run_passes(ops, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "passes": passes,
        "raw_passes": raw_passes,
        "times": times,
        "raw_times": raw_times,
        "kernel_s": [d for _, d in samples],
        "digests": digests,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.stats
        result["module_self_s"] = tracer.module_self_s()
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    mode, workdir = argv[0], argv[1]
    if mode == "setup":
        set_up(workdir)
        print("ready", flush=True)
        return 0
    if mode == "measure":
        measure(workdir, float(argv[2]), argv[3] == "1")
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
