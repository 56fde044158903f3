"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mint --seed 1 --seconds 26 --trace 0

Workloads: ``mint`` (vendor-side copy minting), ``recognize`` (forensic
recognition of marked, attacked and unmarked suspects), ``native`` (N32
branch-function embed and extract) and ``serve`` (the HTTP daemon under
an open-loop request schedule). ``--seed`` draws every input: marks,
secrets, copy seeds, attack streams and the request mix.

The script prints human-readable ``metric``/``problem`` lines, then as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end set of ``BENCHMARK.json``; with ``--trace 1`` the entry
points of each layer are wrapped (see ``tracer.py``), spans are written
to ``.perfbench/`` and the metrics are the per-layer set.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: How many times each workload's set-up runs; ``setup_s`` is the
#: median. Mint's sub-second set-up runs five times to steady it; the
#: two heavy set-ups run twice to keep the runs within their budget.
SETUP_REPS = {"mint": 5, "recognize": 2, "native": 2, "serve": 3}

LAYERS = ("pipeline", "bytecode_wm", "codec", "core", "vm", "native",
          "native_wm", "serve")

#: Per-layer span metrics: metric name -> (span name, column).
#: Column 0 is inclusive seconds, 1 self seconds, 2 calls; each is
#: divided by the operations the run completed.
SPAN_METRICS = {
    "pipeline.embed_copy.s": ("pipeline.embed_copy", 0),
    "bytecode_wm.embed.self_s": ("bytecode_wm.embed", 1),
    "bytecode_wm.codegen.s": ("bytecode_wm.codegen", 0),
    "vm.site_snapshots.s": ("vm.site_snapshots", 0),
    "vm.site_snapshots.calls": ("vm.site_snapshots", 2),
    "vm.insert_at_site.s": ("vm.insert_at_site", 0),
    "vm.verify_module.s": ("vm.verify_module", 0),
    "vm.run_module.s": ("vm.run_module", 0),
    "vm.disassemble.s": ("vm.disassemble", 0),
    "codec.encode.s": ("codec.encode", 0),
    "codec.decode.s": ("codec.decode", 0),
    "codec.decode.s.gcrt": ("codec.decode.gcrt", 0),
    "codec.decode.s.rs-8": ("codec.decode.rs-8", 0),
    "codec.decode.s.hybrid-4": ("codec.decode.hybrid-4", 0),
    "core.decode_bits.s": ("core.decode_bits", 0),
    "core.extract_candidates.s": ("core.extract_candidates", 0),
    "native.profile_image.s": ("native.profile_image", 0),
    "native.lift.s": ("native.lift", 0),
    "native.build_native_cfg.s": ("native.build_native_cfg", 0),
    "native.run_image.s": ("native.run_image", 0),
    "native_wm.embed_native.self_s": ("native_wm.embed_native", 1),
    "native_wm.identify_branch_function.s":
        ("native_wm.identify_branch_function", 0),
    "native_wm.tracer_run.s": ("native_wm.tracer_run", 0),
}

#: Per-layer metrics the serve workload measures from its responses.
SERVE_METRICS = ("serve.rtt_s.embed", "serve.rtt_s.recognize",
                 "serve.worker_s", "serve.outside_worker_s",
                 "serve.gen_late_s", "serve.status_200", "serve.status_422",
                 "serve.status_429", "serve.status_5xx", "serve.status_error")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mint", "recognize", "native", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_workload(name):
    """(setup, measure, close) for ``name``; imports the program lazily."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if name == "serve":
        import serve_load
        return serve_load.setup, serve_load.measure, serve_load.close
    import workloads
    return (getattr(workloads, f"{name}_setup"),
            getattr(workloads, f"{name}_measure"), lambda state: None)


def per_layer(tracer, m):
    """Every per-layer metric, 0 where the workload skips the layer."""
    n = max(m.ops, 1)
    totals = tracer.totals()
    sums, counts = tracer.sums, tracer.counts
    out = {}
    for metric, (span, column) in SPAN_METRICS.items():
        row = totals.get(span)
        out[metric] = (row[column] / n if row else 0.0,
                       "calls/op" if column == 2 else "s/op")
    windows, distinct = counts["core.windows"], counts["core.distinct_windows"]
    decodes = max(counts["codec.decodes"], 1)
    out.update({
        "vm.run_module.steps": (sums["vm.run_module.steps"] / n, "steps/op"),
        "vm.branch_events": (sums["vm.branch_events"]
                             / max(counts["vm.traces"], 1), "events/trace"),
        "core.decrypt_block.calls": (counts["core.decrypt_block.calls"] / n,
                                     "calls/op"),
        "core.windows": (windows / n, "windows/op"),
        "core.distinct_windows": (distinct / n, "windows/op"),
        "core.window_repeat": (windows / distinct if distinct else 0.0,
                               "ratio"),
        "codec.window_hit_ratio": (
            sums["codec.window_hits"] / sums["codec.windows_inspected"]
            if sums["codec.windows_inspected"] else 0.0, "ratio"),
        "codec.candidates_after_voting": (
            sums["codec.candidates_after_voting"] / decodes, "count/decode"),
        "codec.statements_accepted": (
            sums["codec.statements_accepted"] / decodes, "count/decode"),
        "native.run_image.steps": (sums["native.run_image.steps"] / n,
                                   "steps/op"),
        "native_wm.events_observed": (
            sums["native_wm.events_observed"]
            / max(counts["native_wm.extracts"], 1), "events/extract"),
        "pipeline.self_check_ok_ratio": (
            m.layer.get("pipeline.self_check_ok_ratio", 0.0), "ratio"),
    })
    for metric in SERVE_METRICS:
        unit = "count" if ".status_" in metric else "s"
        out[metric] = (m.layer.get(metric, 0.0), unit)
    layer_self = tracer.layer_self_seconds()
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = (
            layer_self.get(layer, 0.0) / m.elapsed, "ratio")
    out["trace.op_time_s"] = (m.op_time_s, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    setup, measure, close = load_workload(args.workload)
    from tracer import Tracer, install, now

    # A SIGTERM unwinds like an error, so the serve daemon is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    setup_times = []
    state = None
    tracer = Tracer() if args.trace else None
    try:
        for _ in range(SETUP_REPS[args.workload]):
            if state is not None:
                close(state)
            state = None
            gc.collect()
            t = now()
            state = setup(args.seed)
            setup_times.append(now() - t)
        if tracer:
            install(tracer)
        m = measure(state, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        if state is not None:
            close(state)

    tally = m.tally
    peak_rss_mb = m.named.pop("peak_rss_mb", (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"))[0]
    named = {
        "setup_s": (statistics.median(setup_times), "s"),
        **m.named,
        "op_time_s": (m.op_time_s, "s"),
        "ops_failed_ratio": (tally.failed / max(tally.attempted, 1), "ratio"),
        "misreport_count": (tally.misreports, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in named.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"ops attempted {tally.attempted} failed {tally.failed} "
          f"in {m.elapsed:.2f} s")
    for cell, times in sorted(m.samples.items()):
        print(f"cell {'/'.join(cell)} median {statistics.median(times):.6g} s "
              f"over {len(times)} operations")
    for problem in tally.problems:
        print(f"problem {problem}")

    if tracer:
        metrics = per_layer(tracer, m)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": named["setup_s"],
            "op_time_s": (m.op_time_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
