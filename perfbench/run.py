"""sl2cox benchmark: time to a verified answer per input family.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads (see workloads.py):
full_cyclic_sweep, many_divisors, cli_mix.  The seed picks point
coordinates and divisor data, never problem sizes.

Each run spawns fresh child interpreters with ``sys.executable``: with
``--trace 0`` first SETUP_STARTS cold starts (timed from spawn until sl2cox
is imported and the workload's files are loaded and validated), then one
measured child that runs the workload in a closed loop, one input at a time,
for S seconds.  ``--trace 1`` instead runs the measured child with every
function of spans.TRACED wrapped and reports per-layer counts and self
times.  Every call's result, on every pass, is checked outside the timed
region: by the program's own verify_* re-checks and expected exit codes,
and its content digest against reference.json on the default seed or
against the input's first pass on any other seed.

Every end-to-end metric is printed by name, unit and sample count, rescaled
to the reference speed (speed.py) and as measured.  The second-last line of
stdout is a JSON object with the input and pass counts and the measured
values; the last line is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 1 when an input failed, 2 when the sources are
missing and 3 on a usage or generator error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import speed
from spans import EXTRA_NAMES, TABLE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 0
SETUP_STARTS = 9
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "input_p50_s": "s",
    "input_p90_s": "s",
    "input_max_s": "s",
    "peak_rss_mb": "MB",
}


def write_workdir(workdir: str, workload: str, inputs) -> None:
    """One embedding file per distinct document, plus the manifest."""
    os.makedirs(workdir)
    entries = []
    for inp in inputs:
        text = json.dumps(inp.doc, indent=2, sort_keys=True)
        fname = hashlib.sha256(text.encode()).hexdigest()[:16] + ".json"
        path = os.path.join(workdir, fname)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        entries.append({"name": inp.name, "file": fname, "argv": list(inp.argv),
                        "expect_exit": inp.expect_exit})
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "inputs": entries}, fh)


def _child(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), *args]


def cold_start(workdir: str) -> tuple[float, float]:
    """Seconds from spawning a child until it has imported sl2cox and
    loaded and validated every file of the workload: rescaled to the
    reference speed by kernel samples just before and after, and as
    measured."""
    kernel_s = [speed.sample()[1]]
    t0 = perf_counter()
    proc = subprocess.Popen(_child("setup", workdir), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed (exit {code})")
    kernel_s.append(speed.sample()[1])
    return speed.rescale(elapsed, statistics.mean(kernel_s)), elapsed


def measured_run(workdir: str, seconds: int, trace: bool) -> dict:
    subprocess.run(_child("measure", workdir, str(seconds), "1" if trace else "0"),
                   check=True, timeout=seconds + CHILD_TIMEOUT_S)
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def expected_digests(workload: str, seed: int, digests: dict, failures: dict) -> dict:
    """The digest each input must give on every pass: the stored reference
    on the default seed, the input's first pass on any other seed.  An
    input the reference does not have, or has but the run lacks, is added
    to ``failures``."""
    if seed != DEFAULT_SEED:
        return {name: ds[0] for name, ds in digests.items()}
    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)["workloads"].get(workload)
    if expected is None:
        raise RuntimeError(f"reference.json has no entry for {workload}")
    for name in sorted(set(expected) ^ set(digests)):
        failures.setdefault(name, "input missing from the run" if name in expected
                            else "input missing from the reference")
    return expected


def count_failed(digests: dict, expected: dict, failures: dict, first_seen: str) -> int:
    """Failed attempts: one that raised or whose result contradicts its
    input (digest None), or whose digest differs from the expected one.
    The first reason per input goes into ``failures``."""
    failed = 0
    for name, ds in digests.items():
        for d in ds:
            if d is None:
                failed += 1
            elif d != expected.get(name):
                failed += 1
                failures.setdefault(name, f"content differs from the {first_seen}")
    return failed


def input_times(times: dict) -> list[float]:
    """Each input's time: the median of its repetitions in the run."""
    return [statistics.median(ts) for ts in times.values()]


def end_to_end(passes: list, times: dict, setup: list, peak_rss_kb: int) -> dict:
    """Metric values of one run."""
    per_input = input_times(times)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "input_p50_s": statistics.median(per_input),
        "input_p90_s": statistics.quantiles(per_input, n=10, method="inclusive")[8],
        "input_max_s": max(per_input),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def sample_counts(n_inputs: int, n_passes: int, n_setup: int) -> dict:
    return {
        "setup_s": f"{n_setup} cold starts",
        "wall_s": f"{n_passes} passes",
        "input_p50_s": f"{n_inputs} inputs x {n_passes} passes",
        "input_p90_s": f"{n_inputs} inputs x {n_passes} passes",
        "input_max_s": f"{n_inputs} inputs x {n_passes} passes",
        "peak_rss_mb": "1 child",
    }


def per_pass(result: dict) -> tuple[dict, dict]:
    """Span counts and self times, and module self times, per pass over the
    workload: every pass does the same work, so counts repeat exactly.
    Self times are rescaled by the run's median kernel time."""
    n = len(result["passes"])
    scale = speed.REF_S / statistics.median(result["kernel_s"])
    spans = {name: {k: v * (scale if k == "self_s" else 1) / n for k, v in st.items()}
             for name, st in result["spans"].items()}
    modules = {mod: secs * scale / n for mod, secs in result["module_self_s"].items()}
    return spans, modules


def per_layer(result: dict) -> dict:
    """Per-layer metrics of a traced run, per pass: the table's span counts
    and self times, each module's self time and share, and the traced
    counterpart of wall_s."""
    spans, modules = per_pass(result)
    metrics = {}
    for name in TABLE:
        st = spans[name]
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.self_s"] = (st["self_s"], "s")
        for extra in EXTRA_NAMES.get(name, ()):
            metrics[f"{name}.{extra}"] = (st[extra], "count")
    total = sum(modules.values())
    for mod, secs in modules.items():
        metrics[f"module.{mod}.self_s"] = (secs, "s")
        metrics[f"module.{mod}.share"] = (100.0 * secs / total if total else 0.0, "%")
    metrics["traced_wall_s"] = (statistics.median(result["passes"]), "s")
    return metrics


def print_layers(workload: str, result: dict, n_inputs: int) -> None:
    spans, modules = per_pass(result)
    print(f"# {workload}: {n_inputs} inputs; per pass, mean of "
          f"{len(result['passes'])} traced passes")
    total = sum(modules.values()) or 1.0
    for mod, secs in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  module {mod:<13} self {secs:10.4f} s  {100 * secs / total:5.1f} %")
    for name, st in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        extras = "  ".join(f"{k}={v:g}" for k, v in st.items() if k not in ("calls", "self_s"))
        print(f"  {name:<45} calls {st['calls']:>10g}  self {st['self_s']:10.4f} s  {extras}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's content digests as the reference "
                         "(default seed only)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sl2cox", "__init__.py")):
        print(f"sl2cox sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 3
    if args.write_reference and args.seed != DEFAULT_SEED:
        print("--write-reference needs the default seed", file=sys.stderr)
        return 3
    inputs = workloads.generate(args.workload, args.seed)
    try:
        workloads.check_inputs(inputs)
    except workloads.GeneratorError as exc:
        print(f"generator error, benchmark aborted: {exc}", file=sys.stderr)
        return 3

    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    try:
        write_workdir(workdir, args.workload, inputs)
        starts = [] if args.trace else [cold_start(workdir) for _ in range(SETUP_STARTS)]
        result = measured_run(workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    failures, digests = result["failures"], result["digests"]
    if args.write_reference:
        if failures:
            print(f"not writing a reference: {len(failures)} inputs failed", file=sys.stderr)
            return 1
        store = {"seed": DEFAULT_SEED, "workloads": {}}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as fh:
                store = json.load(fh)
        store["workloads"][args.workload] = {name: ds[0] for name, ds in digests.items()}
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
            fh.write("\n")
    expected = expected_digests(args.workload, args.seed, digests, failures)
    n_passes = len(result["passes"])
    attempted = len(inputs) * n_passes
    failed = count_failed(digests, expected, failures,
                          "reference" if args.seed == DEFAULT_SEED else "first pass")
    failed += len(set(expected) - set(digests))
    for name, why in sorted(failures.items()):
        print(f"FAILED {name}: {why}")
    print(f"{args.workload} seed {args.seed}: {len(inputs)} inputs, {n_passes} passes, "
          f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f}")

    detail = {"inputs": len(inputs), "passes": n_passes}
    if args.trace:
        print_layers(args.workload, result, len(inputs))
        metrics = per_layer(result)
        detail["measured"] = {"traced_wall_s": statistics.median(result["raw_passes"])}
    else:
        values = end_to_end(result["passes"], result["times"], [s for s, _ in starts],
                            result["peak_rss_kb"])
        measured = end_to_end(result["raw_passes"], result["raw_times"],
                              [m for _, m in starts], result["peak_rss_kb"])
        samples = sample_counts(len(inputs), n_passes, len(starts))
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        for k, (v, unit) in metrics.items():
            print(f"{args.workload} {k:<12} = {v:.6g} {unit}  ({samples[k]}; "
                  f"measured {measured[k]:.6g} {unit})")
        print(f"{args.workload} times at the reference speed (kernel {speed.REF_S * 1e3:g} ms); "
              f"measured kernel median {statistics.median(result['kernel_s']) * 1e3:.3f} ms")
        detail["measured"] = measured
    # Machine-readable details for report.py; the last line below carries
    # only the keys of the benchmark's result format.
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
