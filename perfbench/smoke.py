"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 perfbench/smoke.py

Runs each workload with ``--seconds 1`` untraced and traced (those of
``BENCHMARK.json`` and ``recognize``, which is run by hand only), and
checks that every run exits 0, passes its outcome checks
(``correct``), prints the workload's named metrics with units, and ends
with a JSON line whose metrics are exactly the ``end_to_end``
(untraced) or ``per_layer`` (traced) set of ``BENCHMARK.json``, with
the units listed there. Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The metrics each workload prints by name on its ``metric`` lines.
#: ``recognize`` is not in BENCHMARK.json but prints the same set.
NAMED = {
    "mint": ("mint_copies_per_s",),
    "recognize": ("recognize_suspects_per_s", "attacked_recovered_ratio"),
    "native": ("native_embeds_per_s", "native_extracts_per_s"),
    "serve": ("serve_low_p50_s", "serve_low_p95_s", "serve_high_p50_s",
              "serve_high_p95_s", "serve_max_rps"),
}
COMMON = ("setup_s", "ops_failed_ratio", "misreport_count", "peak_rss_mb")


def check(workload: str, trace: int, spec: dict) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: outcome checks failed")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: nothing attempted")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        units = [k for k in got if k in expected and got[k] != expected[k]]
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"units {units}")
    printed = {ln.split()[1]: ln.split()[3:] for ln in lines
               if ln.startswith("metric ")}
    for name in COMMON + NAMED[workload]:
        if not printed.get(name):
            errors.append(f"{where}: no '{name}' line with a unit")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    for workload in NAMED:
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
