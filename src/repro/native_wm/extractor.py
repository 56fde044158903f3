"""Native watermark extraction (paper Section 4.2.3).

    "We use a tracer tool that uses hardware single-stepping to obtain
    a dynamic trace of the instructions executed between the time
    control reaches `begin` and when it subsequently reaches `end`.
    This trace is then analyzed to identify the branch function f_w,
    by observing functions that do not return to the instruction
    following the call instruction."

Two tracers are provided, mirroring the discussion of attack 5
(Section 5.2.2):

* :class:`SimpleTracer` — identifies each ``a_i`` as the address of
  the instruction that transferred control *into* the branch
  function's entry. Defeated by the rerouting attack (a trampoline
  ``Y: jmp bf`` makes every transfer-in come from ``Y``).
* :class:`SmartTracer` — reads the branch function's *hash input*
  (the return address at the top of the stack on entry) instead:
  ``a_i = k - 5``. "By constructing a tracer that tracks the value of
  the hash input to the branch function each time it executes [...]
  the original mapping can be easily retrieved."

Both then pair each entry with the address control resumes at when
the branch function's own frame unwinds (``b_i``), and decode bits by
comparing consecutive chain addresses: forward = 1, backward = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..obs.recognition import RecognitionReport

from ..native.image import BinaryImage
from ..native.machine import Machine, MachineFault
from .embedder import CALL_LENGTH


@dataclass
class BranchFunctionEvent:
    """One observed pass through the branch function."""

    source: int          # a_i as deduced by the tracer
    resumed_at: int      # b_i: where control resumed after the return


@dataclass
class ExtractionResult:
    """Outcome of one extraction attempt.

    ``events`` holds the *selected chain* (not the full event stream);
    the diagnostic counters describe the stream it was selected from:
    ``events_observed`` passes through the branch function overall,
    split into ``runs_found`` maximal linked runs of the recorded
    ``run_lengths``. A healthy watermark shows one run of length
    ``width + 1`` towering over length-1 obfuscation noise.
    """

    watermark: Optional[int]
    width: int
    events: List[BranchFunctionEvent] = field(default_factory=list)
    bf_entry: Optional[int] = None
    events_observed: int = 0
    runs_found: int = 0
    run_lengths: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.watermark is not None


class _TracerBase:
    """Single-steps a machine, watching entries into a target routine."""

    def __init__(self, image: BinaryImage, bf_entry: int):
        self.image = image
        self.bf_entry = bf_entry
        self.events: List[BranchFunctionEvent] = []
        self._entry_stack: List[Tuple[int, int]] = []  # (esp at entry, source)

    def _source_of_entry(self, machine: Machine) -> int:
        raise NotImplementedError

    def run(self, inputs: Sequence[int], max_steps: Optional[int] = None):
        machine = Machine(self.image) if max_steps is None else Machine(
            self.image, max_steps
        )
        bf_entry = self.bf_entry

        def hook(m: Machine, addr: int, instr) -> None:
            if addr == bf_entry:
                source = self._source_of_entry(m)
                self._entry_stack.append((m.regs[4], source))
            elif instr.mnemonic == "ret" and self._entry_stack:
                esp_entry, source = self._entry_stack[-1]
                if m.regs[4] == esp_entry:
                    # The branch function's own ret: control resumes at
                    # the (possibly rewritten) word at [esp].
                    resumed = m.read32(m.regs[4])
                    self._entry_stack.pop()
                    self.events.append(BranchFunctionEvent(source, resumed))

        def watch(addr: int, instr) -> bool:
            return addr == bf_entry or instr.mnemonic == "ret"

        machine.run(inputs, hook, watch)
        return machine


class SimpleTracer(_TracerBase):
    """a_i := address of the instruction that jumped/called into bf."""

    def _source_of_entry(self, machine: Machine) -> int:
        prev = machine.prev_eip
        return prev if prev is not None else 0


class SmartTracer(_TracerBase):
    """a_i := hash input - 5 (the return address the bf will consume)."""

    def _source_of_entry(self, machine: Machine) -> int:
        return machine.read32(machine.regs[4]) - CALL_LENGTH


def identify_branch_function(
    image: BinaryImage,
    inputs: Sequence[int],
    max_steps: Optional[int] = None,
) -> Optional[int]:
    """First pass: find the routine whose calls do not return normally.

    Maintains a shadow stack of (expected return, call target); a ret
    that pops a *different* address exposes its callee as a branch
    function. Returns the most frequently exposed call target. Only
    calls and rets are watched; a matched ret asks to see the next
    step too, which is where control actually went.
    """
    machine = Machine(image) if max_steps is None else Machine(
        image, max_steps
    )
    shadow: List[Tuple[int, int, int]] = []  # (esp_after_call, expected, target)
    exposed: Dict[int, int] = {}
    state = {"pending_ret": None}

    def hook(m: Machine, addr: int, instr) -> bool:
        pending = state["pending_ret"]
        if pending is not None:
            expected, target = pending
            if addr != expected:
                exposed[target] = exposed.get(target, 0) + 1
            state["pending_ret"] = None
        mn = instr.mnemonic
        if mn == "call":
            shadow.append(
                (m.regs[4] - 4, addr + instr.length, instr.operands[0].value)
            )
        elif mn == "call_a":
            dest = m.read32(instr.operands[0].disp)
            shadow.append((m.regs[4] - 4, addr + instr.length, dest))
        elif mn == "ret" and shadow:
            esp_after_call, expected, target = shadow[-1]
            if m.regs[4] == esp_after_call:
                shadow.pop()
                # Verify on the *next* step where control actually went.
                state["pending_ret"] = (expected, target)
                return True
        return False

    def watch(addr: int, instr) -> bool:
        return instr.mnemonic in ("call", "call_a", "ret")

    try:
        machine.run(inputs, hook, watch)
    except MachineFault:
        pass
    if not exposed:
        return None
    return max(exposed.items(), key=lambda kv: kv[1])[0]


def _linked_runs(
    events: List[BranchFunctionEvent],
) -> List[List[BranchFunctionEvent]]:
    """Split events into maximal chains where each pass resumes exactly
    at the next pass's source — the linkage property of a watermark
    chain (``b_i = a_{i+1}``). Obfuscated non-watermark transfers
    through the branch function resume at ordinary code, so they fall
    into runs of length 1."""
    runs: List[List[BranchFunctionEvent]] = []
    current: List[BranchFunctionEvent] = []
    for ev in events:
        if current and current[-1].resumed_at != ev.source:
            runs.append(current)
            current = []
        current.append(ev)
    if current:
        runs.append(current)
    return runs


def extract_native_auto(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    width: Optional[int] = None,
    tracer: str = "smart",
    bf_entry: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> ExtractionResult:
    """Extraction with automatic framing (the paper's future work).

    Section 4.2.3 notes the begin/end bracket is "currently supplied
    manually; however, we expect to augment the implementation in the
    near future to use a framing scheme that would allow these
    addresses to be identified automatically". The watermark chain
    identifies *itself*: it is the unique maximal run of branch-
    function passes in which every pass resumes exactly at the next
    pass's call site. We trace, split the event stream into such
    linked runs, and decode the longest (or the one of the expected
    ``width + 1`` length when ``width`` is given).
    """
    if tracer not in ("simple", "smart"):
        raise ValueError(f"unknown tracer {tracer!r}")
    if bf_entry is None:
        bf_entry = identify_branch_function(image, inputs, max_steps)
        if bf_entry is None:
            return ExtractionResult(None, width or 0)
    cls = SimpleTracer if tracer == "simple" else SmartTracer
    t = cls(image, bf_entry)
    try:
        t.run(inputs, max_steps)
    except MachineFault:
        pass
    runs = _linked_runs(t.events)
    if not runs:
        return ExtractionResult(
            None, width or 0, [], bf_entry,
            events_observed=len(t.events),
        )
    if width is not None:
        candidates = [r for r in runs if len(r) == width + 1]
        chain = candidates[0] if candidates else max(runs, key=len)
    else:
        chain = max(runs, key=len)
    found_width = len(chain) - 1
    result = ExtractionResult(
        None, width or found_width, chain, bf_entry,
        events_observed=len(t.events),
        runs_found=len(runs),
        run_lengths=[len(r) for r in runs],
    )
    if found_width < 1 or (width is not None and found_width != width):
        return result
    bits = [1 if chain[i + 1].source > chain[i].source else 0
            for i in range(found_width)]
    result.watermark = sum(b << k for k, b in enumerate(bits))
    return result


def extract_native(
    image: BinaryImage,
    width: int,
    begin: int,
    end: int,
    inputs: Sequence[int] = (),
    tracer: str = "smart",
    bf_entry: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> ExtractionResult:
    """Extract a ``width``-bit watermark.

    ``begin``/``end`` bracket the watermark region ("currently, these
    are supplied manually" — Section 4.2.3). ``bf_entry`` may be given
    or is discovered with :func:`identify_branch_function`.
    """
    if tracer not in ("simple", "smart"):
        raise ValueError(f"unknown tracer {tracer!r}")
    if bf_entry is None:
        bf_entry = identify_branch_function(image, inputs, max_steps)
        if bf_entry is None:
            return ExtractionResult(None, width)
    cls = SimpleTracer if tracer == "simple" else SmartTracer
    t = cls(image, bf_entry)
    try:
        t.run(inputs, max_steps)
    except MachineFault:
        # A broken (attacked) program may still have yielded events.
        pass

    # Select the chain: events from the one starting at `begin` until
    # control resumes at `end`.
    chain: List[BranchFunctionEvent] = []
    collecting = False
    for ev in t.events:
        if not collecting and ev.source == begin:
            collecting = True
        if collecting:
            chain.append(ev)
            if ev.resumed_at == end:
                break
    runs = _linked_runs(t.events)
    result = ExtractionResult(
        None, width, chain, bf_entry,
        events_observed=len(t.events),
        runs_found=len(runs),
        run_lengths=[len(r) for r in runs],
    )
    if len(chain) != width + 1 or not chain or chain[-1].resumed_at != end:
        return result
    bits = []
    for i in range(width):
        bits.append(1 if chain[i + 1].source > chain[i].source else 0)
    # Consistency: each event must resume at the next call site.
    for i in range(width):
        if chain[i].resumed_at != chain[i + 1].source:
            return result
    result.watermark = sum(b << k for k, b in enumerate(bits))
    return result


def native_recognition_report(result: ExtractionResult) -> "RecognitionReport":
    """Structured diagnostics for a native extraction attempt."""
    from ..obs.recognition import RecognitionReport

    report = RecognitionReport(
        scheme="native",
        complete=result.complete,
        value=result.watermark,
        events_observed=result.events_observed,
        runs_found=result.runs_found,
        run_lengths=list(result.run_lengths),
        chain_length=len(result.events),
        bf_entry=result.bf_entry,
        width=result.width,
    )
    if result.bf_entry is None:
        report.notes.append(
            "branch function not identified - no call was observed "
            "returning somewhere other than its fall-through"
        )
    elif not result.events_observed:
        report.notes.append(
            "branch function identified but never passed through on "
            "this input"
        )
    elif not result.complete and result.events:
        want = result.width + 1
        report.notes.append(
            f"selected chain has {len(result.events)} passes but "
            f"{want} are needed for a {result.width}-bit watermark"
        )
    return report
