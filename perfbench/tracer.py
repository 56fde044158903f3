"""In-memory span recorder that times calls into the repro layers.

Nothing inside ``src/`` is instrumented. Instead :func:`install`
replaces a public function or method with a timing wrapper at the
place its callers look it up (``repro.pipeline.batch.run_module``,
``repro.vm.tracing.Trace.site_snapshots``, ...), and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, op, tag]``: ``parent`` indexes
the enclosing span (-1 at the root), ``op`` is the workload operation
it belongs to, and ``tag`` carries one detail such as the codec spec.
Counters (steps, windows, decrypt calls, ...) are kept beside the
spans. Both stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.sums: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable,
                     after: Optional[Callable] = None,
                     tag: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   tag(args) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def window_wrapper(self, fn: Callable) -> Callable:
        """Count the windows a scan yields and how many are distinct."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            seen = set()
            n = 0
            for item in fn(*args, **kwargs):
                n += 1
                seen.add(item[1])
                yield item
            counts["core.windows"] += n
            counts["core.distinct_windows"] += len(seen)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr``; an inherited method is shadowed, not replaced."""
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def _child_time(self) -> List[float]:
        """Seconds each span spent inside its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _tag in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def totals(self) -> Dict[str, List[float]]:
        """``[inclusive seconds, self seconds, calls]`` per span name.

        A tagged span is also totalled under ``name.tag``.
        """
        child_time = self._child_time()
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _parent, _op, tag) in enumerate(self.spans):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                row = out[key]
                row[0] += end - start
                row[1] += end - start - child_time[i]
                row[2] += 1
        return out

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        out: Dict[str, float] = defaultdict(float)
        child_time = self._child_time()
        for i, rec in enumerate(self.spans):
            out[rec[0].split(".", 1)[0]] += rec[2] - rec[1] - child_time[i]
        return out

    def dump(self, path: str) -> None:
        """Write spans (one JSON object per line) and counters to ``path``."""
        with open(path, "w") as fh:
            for rec in self.spans:
                name, start, end, parent, op, tag = rec
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "tag": tag,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "sums": dict(self.sums)}) + "\n")


def _steps(tracer: Tracer, result: Any) -> None:
    tracer.sums["vm.run_module.steps"] += result.steps
    if result.trace is not None:
        tracer.sums["vm.branch_events"] += len(result.trace.branches)
        tracer.counts["vm.traces"] += 1


def _native_steps(tracer: Tracer, result: Any) -> None:
    tracer.sums["native.run_image.steps"] += result.steps


def _decoded(tracer: Tracer, result: Any) -> None:
    tracer.sums["codec.windows_inspected"] += result.windows_inspected
    tracer.sums["codec.window_hits"] += result.candidates_found
    tracer.sums["codec.candidates_after_voting"] += (
        result.candidates_after_voting
    )
    tracer.sums["codec.statements_accepted"] += len(result.accepted)
    tracer.counts["codec.decodes"] += 1


def _extracted(tracer: Tracer, result: Any) -> None:
    tracer.sums["native_wm.events_observed"] += result.events_observed
    tracer.counts["native_wm.extracts"] += 1


def _spec(args: tuple) -> str:
    return args[0].spec


#: (module, attribute path, span name, after-hook, tag) for every span.
SPANS = (
    ("repro.pipeline.batch", "embed_copy", "pipeline.embed_copy", None, None),
    ("repro.pipeline.batch", "embed", "bytecode_wm.embed", None, None),
    ("repro.pipeline.batch", "recognize", "bytecode_wm.recognize", None, None),
    ("repro.pipeline.batch", "run_module", "vm.run_module", _steps, None),
    ("repro.pipeline.batch", "disassemble", "vm.disassemble", None, None),
    ("repro.bytecode_wm.recognizer", "recognize", "bytecode_wm.recognize",
     None, None),
    ("repro.bytecode_wm.recognizer", "run_module", "vm.run_module", _steps,
     None),
    ("repro.bytecode_wm.recognizer", "decode_bits", "core.decode_bits",
     None, None),
    ("repro.bytecode_wm.embedder", "insert_at_site", "vm.insert_at_site",
     None, None),
    ("repro.bytecode_wm.embedder", "verify_module", "vm.verify_module",
     None, None),
    ("repro.bytecode_wm.embedder", "generate_condition_piece",
     "bytecode_wm.codegen", None, None),
    ("repro.bytecode_wm.embedder", "generate_loop_piece",
     "bytecode_wm.codegen", None, None),
    ("repro.vm.tracing", "Trace.site_snapshots", "vm.site_snapshots",
     None, None),
    ("repro.codec.gcrt", "GcrtCodec.encode", "codec.encode", None, None),
    ("repro.codec.rs", "ReedSolomonCodec.encode", "codec.encode", None, None),
    ("repro.codec.hybrid", "HybridCodec.encode", "codec.encode", None, None),
    ("repro.codec.gcrt", "GcrtCodec.decode", "codec.decode", _decoded, _spec),
    ("repro.codec.rs", "ReedSolomonCodec.decode", "codec.decode", _decoded,
     _spec),
    ("repro.codec.hybrid", "HybridCodec.decode", "codec.decode", _decoded,
     _spec),
    ("repro.core.recovery", "extract_candidates", "core.extract_candidates",
     None, None),
    ("repro.native_wm.embedder", "embed_native", "native_wm.embed_native",
     None, None),
    ("repro.native_wm.embedder", "profile_image", "native.profile_image",
     None, None),
    ("repro.native_wm.embedder", "lift", "native.lift", None, None),
    ("repro.native_wm.embedder", "build_native_cfg",
     "native.build_native_cfg", None, None),
    ("repro.native_wm.extractor", "extract_native",
     "native_wm.extract_native", _extracted, None),
    ("repro.native_wm.extractor", "identify_branch_function",
     "native_wm.identify_branch_function", None, None),
    ("repro.native_wm.extractor", "SmartTracer.run", "native_wm.tracer_run",
     None, None),
    ("repro.native.machine", "Machine.run", "native.run_image",
     _native_steps, None),
)

#: Counter-only wrappers: (module, attribute path, counter name).
COUNTERS = (
    ("repro.core.cipher", "BlockCipher.decrypt_block",
     "core.decrypt_block.calls"),
)

#: Window scans whose yields are counted (module, attribute).
WINDOW_SCANS = (
    ("repro.core.recovery", "sliding_windows"),
    ("repro.codec.rs", "sliding_windows"),
)


def _resolve(module: str, path: str) -> Tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point listed above."""
    for module, path, name, after, tag in SPANS:
        owner, attr, fn = _resolve(module, path)
        tracer.patch(owner, attr, tracer.span_wrapper(name, fn, after, tag))
    for module, path, name in COUNTERS:
        owner, attr, fn = _resolve(module, path)
        tracer.patch(owner, attr, tracer.count_wrapper(name, fn))
    for module, path in WINDOW_SCANS:
        owner, attr, fn = _resolve(module, path)
        tracer.patch(owner, attr, tracer.window_wrapper(fn))
