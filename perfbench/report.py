"""Baseline report: every workload untraced and traced, as Markdown.

    python3 perfbench/report.py > baseline.md

Runs run.py once per workload with --trace 0 and once with --trace 1, on
the default seed for BENCHMARK.json's run_seconds, and prints the end-to-end
table, each module's share of self time, the per-layer table of spans.TABLE
and the tracing overhead (traced wall_s minus untraced wall_s).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from run import DEFAULT_SEED  # noqa: E402
from spans import EXTRA_NAMES, MODULES, TABLE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    plain = {w: bench(w, seconds, 0) for w in WORKLOADS}
    traced = {w: bench(w, seconds, 1) for w in WORKLOADS}

    print(f"Machine: {os.cpu_count()} CPUs (nproc), Python {platform.python_version()}, "
          f"{platform.machine()}; seed {DEFAULT_SEED}, {seconds} s per run.\n")
    print("## End to end (tracing off)\n")
    print("Each cell: the value at the reference speed, then as measured.\n")
    names = [m["name"] for m in spec["end_to_end"]]
    print("| workload | " + " | ".join(names) + " | fail_frac | samples |")
    print("| --- " * (len(names) + 3) + "|")
    for w in WORKLOADS:
        r = plain[w]
        measured = r["detail"]["measured"]
        vals = [f"{r['metrics'][n]['value']:.4g} ({measured[n]:.4g}) {r['metrics'][n]['unit']}"
                for n in names]
        shape = f"{r['detail']['inputs']} inputs, {r['detail']['passes']} passes"
        print(f"| `{w}` | " + " | ".join(vals) + f" | {r['failed']}/{r['attempted']} | {shape} |")

    print("\n## Share of self time per module (traced run, per pass)\n")
    print("| module | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |")
    print("| --- " * (len(WORKLOADS) + 1) + "|")
    for mod in MODULES:
        cells = [f"{traced[w]['metrics'][f'module.{mod}.share']['value']:.1f} %" for w in WORKLOADS]
        print(f"| `{mod}` | " + " | ".join(cells) + " |")

    print("\n## Per-layer table (traced run, per pass: calls / self seconds)\n")
    print("| function | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |")
    print("| --- " * (len(WORKLOADS) + 1) + "|")
    for name in TABLE:
        cells = []
        for w in WORKLOADS:
            m = traced[w]["metrics"]
            cell = f"{m[name + '.calls']['value']:g} / {m[name + '.self_s']['value']:.4f}"
            extras = [f"{e} {m[f'{name}.{e}']['value']:g}" for e in EXTRA_NAMES.get(name, ())]
            cells.append(cell + ("<br>" + ", ".join(extras) if extras else ""))
        print(f"| `{name}` | " + " | ".join(cells) + " |")

    print("\n## Tracing overhead\n")
    print("| workload | wall_s untraced | wall_s traced | overhead |")
    print("| --- | --- | --- | --- |")
    for w in WORKLOADS:
        a = plain[w]["metrics"]["wall_s"]["value"]
        b = traced[w]["metrics"]["traced_wall_s"]["value"]
        print(f"| `{w}` | {a:.3f} s | {b:.3f} s | {b - a:+.3f} s ({100 * (b - a) / a:+.0f} %) |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
