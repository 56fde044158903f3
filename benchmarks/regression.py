#!/usr/bin/env python
"""CI-gated benchmark regression harness for the WVM and N32 engines.

Runs the interpreter micro-benchmarks (fast engine vs the seed
reference engine, interleaved in the same process, for both the WVM
and the N32 machine) plus, with
``--figures``, the ``benchmarks/test_*`` figure reproductions under
pytest-benchmark, and writes a schema-versioned ``BENCH_<date>.json``
report with per-benchmark median, IQR and steps/sec.

Gating philosophy
-----------------

Absolute wall-clock numbers swing by ±20% or more between runner
machines (and between runs on the *same* machine), so comparing a
fresh timing against a committed absolute number would flake
constantly. Every gated metric is therefore a **ratio measured inside
one process with the two sides interleaved** — fast-engine throughput
over reference-engine throughput, binary trace size over JSON trace
size — which cancels the machine out. Raw seconds and steps/sec are
still recorded (they are what humans read) but never gated.

Deterministic work counts are gated **exactly** (``"gate": "exact"``):
the ``decrypt_block`` calls and distinct 64-bit trace windows of one
fixed-key CaffeineMark recognize under each codec, and the total and
fused dispatch counts of the profiled jess and CaffeineMark runs, and
the instruction counts of the N32 bzip2 and gzip kernels. They
depend on the algorithm, not the machine, so any change to them is a
change in what recognition or the engine does — e.g. a codec going
back to decrypting every window, the hybrid codec scanning its trace
twice, or a fusion-table edit that changes which superinstructions
executed code dispatches.

Usage::

    PYTHONPATH=src python benchmarks/regression.py              # run + gate
    PYTHONPATH=src python benchmarks/regression.py --figures    # + figures
    PYTHONPATH=src python benchmarks/regression.py --rebaseline # refresh
    PYTHONPATH=src python benchmarks/regression.py --no-check   # report only

Exit status is non-zero when any gated ratio regresses more than
``--tolerance`` (default 0.20) below/above its committed baseline in
``benchmarks/baseline.json``, when a work count differs from it, or
when the fast engine's trace is not byte-identical to the reference
engine's.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

from repro import faults  # noqa: E402
from repro.bytecode_wm import WatermarkKey, embed  # noqa: E402
from repro.bytecode_wm.recognizer import (  # noqa: E402
    recognize_bits,
    trace_bitstring,
)
from repro.core.bitstring import sliding_windows  # noqa: E402
from repro.core.cipher import BlockCipher  # noqa: E402
from repro.native._reference import (  # noqa: E402
    OracleMachine,
    run_image_reference,
)
from repro.native.machine import run_image  # noqa: E402
import repro.native_wm.extractor as native_extractor  # noqa: E402
from repro.native_wm import embed_native  # noqa: E402
from repro.obs.vmprofile import profile_run  # noqa: E402
from repro.vm._reference import run_module_reference  # noqa: E402
from repro.vm.interpreter import run_module  # noqa: E402
from repro.vm.trace_io import dump_trace, dump_trace_binary  # noqa: E402
from repro.workloads.caffeinemark import (  # noqa: E402
    DEFAULT_INPUT as CAFFEINE_INPUT,
    caffeinemark_module,
)
from repro.workloads.jesslike import (  # noqa: E402
    DEFAULT_INPUT as JESS_INPUT,
    jess_module,
)
from repro.workloads.spec import TRAIN_INPUT, spec_native  # noqa: E402

SCHEMA = "wvm-bench/1"
DEFAULT_BASELINE = os.path.join(HERE, "baseline.json")
DEFAULT_TOLERANCE = 0.20
WORK_MARK = 0xC0FFEE0DDBA11


# -- measurement -------------------------------------------------------------


def _median_iqr(values: List[float]) -> Tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 4:
        return med, max(values) - min(values)
    qs = statistics.quantiles(values, n=4)
    return med, qs[2] - qs[0]


def _time_run(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _seconds(times: List[float], repeats: int, steps: int) -> dict:
    """An ungated wall-time entry with its steps/sec."""
    med, iqr = _median_iqr(times)
    return {
        "unit": "seconds",
        "median": med,
        "iqr": iqr,
        "repeats": repeats,
        "steps": steps,
        "steps_per_sec": steps / med,
        "gate": None,
    }


def _engine_pair(
    name: str,
    module_factory: Callable[[], object],
    inputs: List[int],
    trace_mode: Optional[str],
    repeats: int,
    results: Dict[str, dict],
) -> None:
    """Benchmark fast vs reference on one workload/mode, interleaved.

    Interleaving matters: CPU frequency drifts over seconds, so
    alternating ref/fast runs exposes both engines to the same drift
    and keeps the per-repeat ratio honest.
    """
    module = module_factory()
    ref_times: List[float] = []
    fast_times: List[float] = []
    steps = 0
    for _ in range(repeats):
        t_ref, res_ref = _time_run(
            lambda: run_module_reference(module, inputs, trace_mode=trace_mode)
        )
        t_fast, res_fast = _time_run(
            lambda: run_module(module, inputs, trace_mode=trace_mode)
        )
        assert res_ref.steps == res_fast.steps, "engines disagree on steps"
        assert res_ref.output == res_fast.output, "engines disagree on output"
        steps = res_fast.steps
        ref_times.append(t_ref)
        fast_times.append(t_fast)

    mode = trace_mode or "untraced"
    for engine, times in (("reference", ref_times), ("fast", fast_times)):
        results[f"vm.{name}.{mode}.{engine}"] = _seconds(
            times, repeats, steps)
    ratios = [r / f for r, f in zip(ref_times, fast_times)]
    med, iqr = _median_iqr(ratios)
    results[f"vm.{name}.{mode}.speedup"] = {
        "unit": "ratio",
        "median": med,
        "iqr": iqr,
        "repeats": repeats,
        "gate": "min",
    }


def _identify_on_seed(image, inputs):
    with mock.patch.object(native_extractor, "Machine", OracleMachine):
        return native_extractor.identify_branch_function(image, inputs)


def _native_pair(
    kernel: str, mode: str, repeats: int, results: Dict[str, dict]
) -> None:
    """Seed vs fast N32 engine on one SPEC kernel, interleaved.

    ``untraced`` times ``run_image`` on both engines and requires equal
    output and steps. ``watched`` times ``identify_branch_function`` on
    a marked copy: on the seed engine its hook runs at every step, on
    the fast engine only at the calls and rets it watches; both must
    identify the copy's branch function.
    """
    image = spec_native(kernel)
    if mode == "watched":
        marked = embed_native(image, WORK_MARK & 0xFFFFFFFF, 32, TRAIN_INPUT,
                              rng_seed=1)
        image = marked.image
    steps = run_image(image, TRAIN_INPUT).steps
    ref_times: List[float] = []
    fast_times: List[float] = []
    for _ in range(repeats):
        if mode == "untraced":
            t_ref, res_ref = _time_run(
                lambda: run_image_reference(image, TRAIN_INPUT))
            t_fast, res_fast = _time_run(
                lambda: run_image(image, TRAIN_INPUT))
            assert res_ref.steps == res_fast.steps, "engines disagree on steps"
            assert res_ref.output == res_fast.output, \
                "engines disagree on output"
        else:
            t_ref, res_ref = _time_run(
                lambda: _identify_on_seed(image, TRAIN_INPUT))
            t_fast, res_fast = _time_run(
                lambda: native_extractor.identify_branch_function(
                    image, TRAIN_INPUT))
            assert res_ref == res_fast == marked.bf_entry, \
                "engines identify different routines"
        ref_times.append(t_ref)
        fast_times.append(t_fast)
    for engine, times in (("reference", ref_times), ("fast", fast_times)):
        results[f"native.{kernel}.{mode}.{engine}"] = _seconds(
            times, repeats, steps)
    med, iqr = _median_iqr([r / f for r, f in zip(ref_times, fast_times)])
    results[f"native.{kernel}.{mode}.speedup"] = {
        "unit": "ratio",
        "median": med,
        "iqr": iqr,
        "repeats": repeats,
        "gate": "min",
    }


def _native_steps(results: Dict[str, dict]) -> None:
    """Instruction counts of two N32 kernels on the training input."""
    for kernel in ("bzip2", "gzip"):
        results[f"native.{kernel}.steps"] = {
            "unit": "steps",
            "median": run_image(spec_native(kernel), TRAIN_INPUT).steps,
            "iqr": 0.0,
            "repeats": 1,
            "gate": "exact",
        }


def _trace_identity_check() -> bool:
    """The fast engine must produce byte-identical trace dumps."""
    module = jess_module()
    ok = True
    for mode in ("branch", "full"):
        ref = run_module_reference(module, JESS_INPUT, trace_mode=mode)
        fast = run_module(module, JESS_INPUT, trace_mode=mode)
        ref_buf, fast_buf = io.StringIO(), io.StringIO()
        dump_trace(ref.trace, module, ref_buf)
        dump_trace(fast.trace, module, fast_buf)
        ok = ok and ref_buf.getvalue() == fast_buf.getvalue()
    return ok


def _trace_size_ratio(results: Dict[str, dict]) -> None:
    """Binary-vs-JSON trace size: deterministic, so gated tightly."""
    module = jess_module()
    run = run_module(module, JESS_INPUT, trace_mode="full")
    jbuf = io.StringIO()
    dump_trace(run.trace, module, jbuf)
    bbuf = io.BytesIO()
    dump_trace_binary(run.trace, module, bbuf)
    json_size = len(jbuf.getvalue().encode("utf-8"))
    binary_size = len(bbuf.getvalue())
    results["trace.jess.binary_compression"] = {
        "unit": "ratio",
        "median": json_size / binary_size,
        "iqr": 0.0,
        "repeats": 1,
        "json_bytes": json_size,
        "binary_bytes": binary_size,
        "gate": "min",
    }


def _fault_hook_inertness_check() -> dict:
    """Disarmed fault hooks must be free.

    The injection sites sit on production paths (pipeline workers,
    store writes, daemon jobs), which is only acceptable if a process
    with no plan armed pays nothing for them: ``filter_bytes`` must
    hand back the identical object (no copy), and both hooks must
    amortize to a single ``is None`` test. The nanosecond ceilings are
    ~40x what the test machines measure — they catch someone adding
    real work to the disarmed path, not scheduler noise.
    """
    faults.clear()
    payload = b"x" * 4096
    identity = faults.filter_bytes("bench.site", payload) is payload
    calls = 200_000
    t0 = time.perf_counter()
    for _ in range(calls):
        faults.check("bench.site")
    check_ns = (time.perf_counter() - t0) / calls * 1e9
    t0 = time.perf_counter()
    for _ in range(calls):
        faults.filter_bytes("bench.site", payload)
    filter_ns = (time.perf_counter() - t0) / calls * 1e9
    return {
        "inert": identity and check_ns < 2000.0 and filter_ns < 2000.0,
        "identity_preserved": identity,
        "check_ns_per_call": round(check_ns, 1),
        "filter_ns_per_call": round(filter_ns, 1),
    }


def _window_work_counts(results: Dict[str, dict]) -> None:
    """Decrypt calls and distinct windows of one recognize per codec.

    CaffeineMark is marked once per codec with a fixed key, mark and
    salt, then recognized from its key-input trace with
    ``BlockCipher.decrypt_block`` counted. Each distinct window is
    decrypted once, so the two counts are equal.
    """
    key = WatermarkKey(secret=b"bench-window-work", inputs=CAFFEINE_INPUT)
    original = BlockCipher.decrypt_block
    for spec in ("gcrt", "rs-8", "hybrid-4"):
        marked = embed(caffeinemark_module(), WORK_MARK, key,
                       watermark_bits=64, rng_salt="bench", codec=spec)
        bits = trace_bitstring(marked.module, key)
        calls = 0

        def counting(cipher, block):
            nonlocal calls
            calls += 1
            return original(cipher, block)

        with mock.patch.object(BlockCipher, "decrypt_block", counting):
            found = recognize_bits(bits, key, 64, codec=spec)
        if found.value != WORK_MARK:
            raise SystemExit(f"work-count recognize under {spec} failed")
        distinct = len({packed for _, packed in sliding_windows(bits, 64)})
        for name, unit, value in (
            ("decrypt_calls", "calls", calls),
            ("distinct_windows", "windows", distinct),
        ):
            results[f"recognize.caffeinemark.{spec}.{name}"] = {
                "unit": unit,
                "median": value,
                "iqr": 0.0,
                "repeats": 1,
                "windows": found.windows_inspected,
                "gate": "exact",
            }


def _dispatch_profiles(results: Dict[str, dict]) -> Dict[str, dict]:
    """Per-opcode dispatch profiles of the gated workloads.

    Separate, *untimed-for-gating* runs on the interpreter's profiled
    loop specializations — the counting twin never touches the timed
    loops above, so profiling here cannot perturb the gated ratios.
    Each run's total and fused dispatch counts are gated exactly; the
    rest of the profile (per-opcode rows, hit rate, dispatch reduction,
    throughput context) is recorded for trend-watching.
    """
    profiles: Dict[str, dict] = {}
    for name, factory, inputs, mode in (
        ("jess.untraced", jess_module, JESS_INPUT, None),
        ("jess.full", jess_module, JESS_INPUT, "full"),
        ("caffeinemark.untraced", caffeinemark_module, CAFFEINE_INPUT, None),
    ):
        _, profile = profile_run(factory(), inputs, trace_mode=mode)
        profiles[name] = profile.to_dict()
        for count in ("total_dispatches", "fused_dispatches"):
            results[f"dispatch.{name}.{count}"] = {
                "unit": "dispatches",
                "median": getattr(profile, count),
                "iqr": 0.0,
                "repeats": 1,
                "gate": "exact",
            }
    return profiles


def _figure_benchmarks(results: Dict[str, dict]) -> None:
    """Run the ``benchmarks/test_*`` figure suite under pytest-benchmark.

    Each figure experiment records one honest round; their medians are
    reported for trend-watching but not gated (single rounds on shared
    runners are too noisy for a hard threshold).
    """
    out = os.path.join(HERE, "_figures_bench.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            HERE,
            "-q",
            "--benchmark-only",
            f"--benchmark-json={out}",
        ],
        cwd=REPO,
        env=env,
    )
    if proc.returncode != 0:
        raise SystemExit("figure benchmark suite failed")
    try:
        with open(out) as fp:
            doc = json.load(fp)
    finally:
        if os.path.exists(out):
            os.remove(out)
    for bench in doc.get("benchmarks", []):
        stats = bench["stats"]
        results[f"figures.{bench['name']}"] = {
            "unit": "seconds",
            "median": stats["median"],
            "iqr": stats["iqr"],
            "repeats": stats["rounds"],
            "gate": None,
        }


# -- reporting / gating ------------------------------------------------------


def run_benchmarks(repeats: int, figures: bool) -> dict:
    results: Dict[str, dict] = {}
    print("== interpreter micro-benchmarks ==", flush=True)
    _engine_pair("jess", jess_module, JESS_INPUT, None, repeats, results)
    _engine_pair("jess", jess_module, JESS_INPUT, "branch", repeats, results)
    _engine_pair("jess", jess_module, JESS_INPUT, "full", repeats, results)
    _engine_pair(
        "caffeinemark",
        caffeinemark_module,
        CAFFEINE_INPUT,
        None,
        repeats,
        results,
    )
    _trace_size_ratio(results)
    print("== N32 engine micro-benchmarks ==", flush=True)
    _native_pair("bzip2", "untraced", repeats, results)
    _native_pair("bzip2", "watched", repeats, results)
    _native_steps(results)
    print("== recognize work counts ==", flush=True)
    _window_work_counts(results)
    trace_identical = _trace_identity_check()
    fault_hooks = _fault_hook_inertness_check()
    print("== dispatch profiles ==", flush=True)
    dispatch = _dispatch_profiles(results)
    if figures:
        print("== figure reproduction benchmarks ==", flush=True)
        _figure_benchmarks(results)
    return {
        "schema": SCHEMA,
        "generated": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": results,
        "dispatch": dispatch,
        "checks": {
            "trace_byte_identical": trace_identical,
            "fault_hooks": fault_hooks,
        },
    }


def print_report(report: dict) -> None:
    rows = sorted(report["benchmarks"].items())
    width = max(len(name) for name, _ in rows)
    print()
    print(f"{'benchmark'.ljust(width)}  {'median':>12}  {'iqr':>10}  gated")
    for name, entry in rows:
        if entry["unit"] == "ratio":
            med = f"{entry['median']:.2f}x"
        elif entry["gate"] == "exact":
            med = f"{entry['median']} {entry['unit']}"
        else:
            med = f"{entry['median'] * 1000:.1f}ms"
            if "steps_per_sec" in entry:
                med += f" ({entry['steps_per_sec'] / 1e6:.2f}M st/s)"
        gated = entry["gate"] or "-"
        print(
            f"{name.ljust(width)}  {med:>12}  {entry['iqr']:>10.4f}  {gated}"
        )
    print()
    for name, profile in sorted(report.get("dispatch", {}).items()):
        print(
            f"dispatch {name}: {profile['total_dispatches']} dispatches / "
            f"{profile['total_steps']} steps, "
            f"superinstruction hit rate "
            f"{profile['superinstruction_hit_rate']:.1%}, "
            f"dispatch reduction {profile['dispatch_reduction']:.1%}"
        )
    ident = report["checks"]["trace_byte_identical"]
    print(f"trace byte-identical vs reference engine: {ident}")
    hooks = report["checks"].get("fault_hooks")
    if hooks:
        print(
            f"fault hooks inert when disarmed: {hooks['inert']} "
            f"(check {hooks['check_ns_per_call']}ns, "
            f"filter {hooks['filter_ns_per_call']}ns per call)"
        )


def compare_to_baseline(
    report: dict, baseline: dict, tolerance: float
) -> List[str]:
    failures: List[str] = []
    if not report["checks"]["trace_byte_identical"]:
        failures.append(
            "fast engine's trace is not byte-identical to the reference"
        )
    hooks = report["checks"].get("fault_hooks", {})
    if not hooks.get("inert", True):
        failures.append(
            "disarmed fault hooks are no longer free: "
            f"identity={hooks.get('identity_preserved')}, "
            f"check={hooks.get('check_ns_per_call')}ns, "
            f"filter={hooks.get('filter_ns_per_call')}ns per call"
        )
    for name, base in baseline.get("benchmarks", {}).items():
        gate = base.get("gate")
        if not gate:
            continue
        current = report["benchmarks"].get(name)
        if current is None:
            failures.append(f"{name}: benchmark missing from this run")
            continue
        base_med, cur_med = base["median"], current["median"]
        if gate == "exact" and cur_med != base_med:
            failures.append(
                f"{name}: {cur_med} {base['unit']} differs from the exact "
                f"baseline {base_med}"
            )
        elif gate == "min" and cur_med < base_med * (1.0 - tolerance):
            failures.append(
                f"{name}: {cur_med:.3f} regressed more than "
                f"{tolerance:.0%} below baseline {base_med:.3f}"
            )
        elif gate == "max" and cur_med > base_med * (1.0 + tolerance):
            failures.append(
                f"{name}: {cur_med:.3f} regressed more than "
                f"{tolerance:.0%} above baseline {base_med:.3f}"
            )
    return failures


def write_baseline(report: dict, path: str) -> None:
    """Commit only the gated, machine-independent metrics."""
    gated = {
        name: {
            "unit": entry["unit"],
            "median": round(entry["median"], 4),
            "gate": entry["gate"],
        }
        for name, entry in report["benchmarks"].items()
        if entry["gate"]
    }
    doc = {
        "schema": SCHEMA,
        "generated": report["generated"],
        "note": (
            "Gated ratio metrics and exact work counts only; absolute "
            "timings are machine-dependent and deliberately excluded. "
            "Refresh with `python benchmarks/regression.py --rebaseline`."
        ),
        "benchmarks": gated,
    }
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5, help="measurement repeats per engine"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression of gated medians (default 0.20)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, help="committed baseline path"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="report path (default BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--figures",
        action="store_true",
        help="also run the benchmarks/test_* figure suite (slow)",
    )
    parser.add_argument(
        "--dispatch-out",
        default=None,
        metavar="FILE",
        help="also write the dispatch-profile section alone to FILE "
             "(CI uploads it as its own artifact)",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="write the report without gating against the baseline",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="rewrite the committed baseline from this run's medians",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.repeats, args.figures)
    print_report(report)

    out_path = args.output or os.path.join(
        REPO, f"BENCH_{_dt.date.today().isoformat()}.json"
    )
    with open(out_path, "w") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"report written to {out_path}")

    if args.dispatch_out:
        with open(args.dispatch_out, "w") as fp:
            json.dump(
                {
                    "schema": SCHEMA,
                    "generated": report["generated"],
                    "dispatch": report["dispatch"],
                },
                fp,
                indent=2,
                sort_keys=True,
            )
            fp.write("\n")
        print(f"dispatch profiles written to {args.dispatch_out}")

    if args.rebaseline:
        write_baseline(report, args.baseline)
        print(f"baseline rewritten at {args.baseline}")
        return 0
    if args.no_check:
        return 0

    try:
        with open(args.baseline) as fp:
            baseline = json.load(fp)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --rebaseline first")
        return 1
    failures = compare_to_baseline(report, baseline, args.tolerance)
    if failures:
        print("\nREGRESSIONS DETECTED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall gated metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
