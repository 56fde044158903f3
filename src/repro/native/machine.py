"""The N32 machine simulator, with single-step tracing hooks.

Faithful to the properties Section 4 uses:

* ``call`` pushes the return address; ``ret`` pops the word at
  ``[esp]`` into ``eip`` *whatever it is* — a branch function that
  xors the stack slot redirects control, exactly like on IA-32;
* execution faults (bad opcode, out-of-range eip, wild memory access,
  division by zero) raise :class:`MachineFault` — the simulator's
  SIGSEGV/SIGILL. The attack harness equates a faulting program with
  a broken one;
* the ``step_hook`` callback observes an instruction with full machine
  state before it executes — the "tracer tool that uses hardware
  single-stepping" of Section 4.2.3.

Time is measured in executed instructions (see DESIGN.md).

Execution design (measurements in ``docs/performance.md``, "N32
engine"):

* Each eip is decoded once, lazily, into a dense tuple: an integer
  opcode, register indices, immediates, the base/displacement of a
  memory operand and the fall-through address. The cache is keyed by
  eip, not swept ahead of time, because a branch function returns to
  computed addresses. Text is immutable, so an entry never goes stale;
  the cache lives for one run and holds only executed addresses.
* The run loop exists in three specializations generated from one
  template (:func:`_gen_loop`): *untraced* (no observer), *counting*
  (per-address execution counts and first-execution steps, which
  :func:`repro.native.profiler.profile_image` reads) and *watched*
  (calls the step hook at the addresses a static ``watch`` predicate
  selects). They differ only in the lines tagged for their mode.
* Stack and data words of the hot forms (push, pop, pushi, call, ret,
  ``mov`` to and from memory) are read and written in the loop;
  anything else goes through the checked :meth:`Machine.read32` /
  :meth:`Machine.write32` path, which raises the faults.

Observable behaviour is identical to the seed machine, kept as
:mod:`repro.native._reference` for differential testing: same output,
step counts, faults (reason and eip, checked in the same order: exit
address, eip in text, decode, budget, hook, execute) and hook
observations. ``flags_val`` holds the unwrapped signed result of the
last flag-setting instruction.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence

from .encoding import EncodingError
from .image import BinaryImage, STACK_SIZE, STACK_TOP
from .isa import INSTRUCTION_FORMS, REG_INDEX, NInstruction, signed32

DEFAULT_MAX_STEPS = 80_000_000

#: Sentinel return address for the entry frame; `ret` to it ends the run.
EXIT_ADDRESS = 0x0000DEAD


class MachineFault(Exception):
    """A hardware-level fault (the program is broken)."""

    def __init__(self, reason: str, eip: int = 0):
        super().__init__(f"fault at {eip:#x}: {reason}")
        self.reason = reason
        self.eip = eip


class NRunResult:
    """Output and instruction count of a completed run.

    A counting run (``Machine.run(count=True)``) also carries
    ``counts`` (address -> executions) and ``first_seen`` (address ->
    0-based step of its first execution), both in first-execution
    order.
    """

    def __init__(
        self,
        output: List[int],
        steps: int,
        counts: Optional[Dict[int, int]] = None,
        first_seen: Optional[Dict[int, int]] = None,
    ):
        self.output = output
        self.steps = steps
        self.counts = counts
        self.first_seen = first_seen

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"NRunResult(steps={self.steps}, output={self.output!r})"


#: ``hook(machine, eip, instr)``, called before ``instr`` executes. A
#: hook that returns a true value is also called on the next step,
#: whatever its address (how a hook sees where a ``ret`` landed).
StepHook = Callable[["Machine", int, NInstruction], Optional[bool]]

#: ``watch(eip, instr)``: whether the step hook observes this address.
#: Evaluated once per address, when it is first decoded.
Watch = Callable[[int, NInstruction], bool]

_U32 = struct.Struct("<I")
_M32 = 0xFFFFFFFF

# -- dense form -------------------------------------------------------------

#: Opcodes in the order the run loop tests them: the hottest forms on
#: the SPEC kernels first (pop, push and mov_rm are ~70% of dynamic
#: instructions on bzip2 and gzip), then the rest.
_DISPATCH_ORDER = (
    "pop", "push", "mov_rm", "add_rr", "cmp_rr", "pushi", "mov_mr",
    "shl_ri", "jmp", "jg", "jge", "sub_rr", "jne", "jle", "mov_rr",
    "xor_rr", "and_rr", "je", "shl_rr", "ret", "call", "idiv", "sub_ri",
    "mov_ar", "mov_ra", "sar_rr", "add_ri", "imul_rr", "jl", "mov_ri",
    "cmp_ri", "sys_out", "sys_in", "or_rr", "test_rr", "and_ri", "or_ri",
    "xor_ri", "shr_ri", "sar_ri", "shr_rr", "neg", "not", "imul_rri",
    "lea", "mov_mi", "mov_rx", "xchg_rm", "xchg_rr", "pushf", "popf",
    "add_mr", "sub_mr", "xor_mr", "add_rm", "xor_rm", "cmp_rm", "cmp_mi",
    "jmp_a", "call_a", "jmp_r", "nop", "halt",
)
assert sorted(_DISPATCH_ORDER) == sorted(INSTRUCTION_FORMS)
OPCODE: Dict[str, int] = {m: i for i, m in enumerate(_DISPATCH_ORDER)}


def _lower(instr: NInstruction, eip: int, length: int) -> tuple:
    """``(opcode, a, b, c, next_eip)`` of a decoded instruction.

    ``a`` is the first register operand (the source of a store) or the
    sole operand; ``b`` the second register, a register-form immediate
    or a memory operand's base (-1 when absolute); ``c`` a memory
    displacement or ``imul_rri``'s immediate. Immediates that enter
    arithmetic signed are stored signed. ``mov_rm``/``mov_mr`` with an
    absolute operand become ``mov_ra``/``mov_ar``, whose semantics they
    share.
    """
    m = instr.mnemonic
    sig = INSTRUCTION_FORMS[m][0]
    ops = instr.operands
    a = b = c = 0
    if sig in (("r", "m"), ("m", "r"), ("r", "a"), ("a", "r")):
        reg, mem = ops if sig[0] == "r" else ops[::-1]
        a, c = reg.code, mem.disp
        if mem.base is not None:
            b = REG_INDEX[mem.base]
        else:
            b = -1
            m = {"mov_rm": "mov_ra", "mov_mr": "mov_ar"}.get(m, m)
    elif sig == ("m", "i"):
        mem, imm = ops
        a, c = signed32(imm.value) if m == "cmp_mi" else imm.value, mem.disp
        b = -1 if mem.base is None else REG_INDEX[mem.base]
    elif sig == ("r", "x"):
        a, b, c = ops[0].code, REG_INDEX[ops[1].index], ops[1].disp
    elif sig == ("a",):
        a = ops[0].disp
    elif sig == ("r", "r", "i"):
        a, b, c = ops[0].code, ops[1].code, signed32(ops[2].value)
    elif sig:
        a = ops[0].code if sig[0] == "r" else ops[0].value
        if len(sig) == 2:
            b = ops[1].code if sig[1] == "r" else ops[1].value
            if sig[1] == "s8":
                b &= 31
            elif sig[1] == "i" and m != "mov_ri":
                b = signed32(b)
    return OPCODE[m], a, b, c, (eip + length) & _M32


# -- run-loop template --------------------------------------------------------
#
# One source, three specializations: ``counting`` adds the per-address
# counters, ``watched`` the hook call and the previous-eip register.
# Every arm leaves with ``eip = <next>; continue``.

_SIGN = 0x80000000


def _sx(expr: str) -> str:
    """Signed view of a wrapped 32-bit expression."""
    return f"(({expr} ^ {_SIGN}) - {_SIGN})"


def _gen_loop(kind: str) -> str:
    C = kind == "counting"
    W = kind == "watched"
    L: List[str] = []
    emit = L.append
    IND = " " * 12  # an arm's indentation inside the loop

    def arm(mnemonic: str, *body: str, nxt: str = "nxt") -> None:
        emit(f"{IND}if op == {OPCODE[mnemonic]}:  # {mnemonic}")
        for line in body:
            emit(f"{IND}    {line}")
        if nxt:
            emit(f"{IND}    eip = {nxt}")
        emit(f"{IND}    continue")

    def load(dst: str, addr: str) -> List[str]:
        """``dst = word at addr``: stack, then data, then checked path."""
        return [
            f"o = {addr} - sbase",
            "if 0 <= o <= slim:",
            f"    {dst} = unpack(stack, o)[0]",
            "else:",
            "    o += sdelta",
            "    if 0 <= o <= dlim:",
            f"        {dst} = unpack(data, o)[0]",
            "    else:",
            f"        {dst} = rd({addr}, eip)",
        ]

    def store(addr: str, value: str) -> List[str]:
        return [
            f"o = {addr} - sbase",
            "if 0 <= o <= slim:",
            f"    pack(stack, o, {value})",
            "else:",
            "    o += sdelta",
            "    if 0 <= o <= dlim:",
            f"        pack(data, o, {value})",
            "    else:",
            f"        wr({addr}, {value}, eip)",
        ]

    # In the stack, esp -/+ 4 cannot wrap; elsewhere it is wrapped.
    def push(value: str) -> List[str]:
        return [
            f"v = {value}",  # before esp moves: `push esp` pushes the old esp
            "sp = regs[4] - 4",
            "o = sp - sbase",
            "if 0 <= o <= pslim:",
            "    regs[4] = sp",
            "    pack(stack, o, v)",
            "else:",
            "    regs[4] = sp = sp & 0xFFFFFFFF",
            "    wr(sp, v, eip)",
        ]

    def pop(dst: str) -> List[str]:
        return [
            "sp = regs[4]",
            "o = sp - sbase",
            "if 0 <= o <= pslim:",
            f"    {dst} = unpack(stack, o)[0]",
            "    regs[4] = sp + 4",
            "else:",
            f"    {dst} = rd(sp, eip)",
            "    regs[4] = (sp + 4) & 0xFFFFFFFF",
        ]

    maddr = "(c if b < 0 else (regs[b] + c) & 0xFFFFFFFF)"

    def alu(m: str, expr: str, keep: bool = True) -> None:
        body = [f"flags = {expr}"]
        if keep:
            body.append("regs[a] = flags & 0xFFFFFFFF")
        arm(m, *body)

    emit(f"def _run_{kind}(m, inputs, hook):")
    emit("    regs = m.regs")
    emit("    stack = m._stack; data = m._data")
    emit("    sbase = m._stack_base; slim = len(stack) - 4")
    emit("    sdelta = sbase - m._data_base; dlim = len(data) - 4")
    emit("    pslim = slim")
    emit("    if -len(stack) < sdelta < len(data):")
    emit("        slim = pslim = -1  # data overlaps the stack: data first")
    emit("    unpack = _U32.unpack_from; pack = _U32.pack_into")
    emit("    rd = m._read; wr = m._write")
    emit("    out_append = m.output.append")
    emit("    n_inputs = len(inputs); input_pos = m._input_pos")
    emit("    max_steps = m.max_steps; steps = m.steps")
    emit("    flags = m.flags_val; eip = m.eip")
    emit("    cache = m._decode_cache = {}")
    emit("    get = cache.get; decode = m._decode")
    if C:
        emit("    cnt = []; first = []")
    if W:
        emit("    prev = m.prev_eip; follow = False")
    emit("    try:")
    emit("        while True:")
    emit("            e = get(eip)")
    emit("            if e is None:")
    emit("                if eip == EXIT_ADDRESS:")
    emit("                    break")
    emit("                e = decode(eip)")
    if C:
        emit("                cnt.append(0); first.append(steps)")
    emit("            op, a, b, c, nxt, k, w, instr = e")
    emit("            steps += 1")
    emit("            if steps > max_steps:")
    emit("                raise MachineFault('instruction budget exceeded', eip)")
    if C:
        emit("            cnt[k] += 1")
    if W:
        emit("            if w or follow:")
        emit("                m.eip = eip; m.steps = steps; m.flags_val = flags")
        emit("                m.prev_eip = prev")
        emit("                follow = hook(m, eip, instr)")
        emit("                flags = m.flags_val")
        emit("            prev = eip")

    # ---- the hot forms, inlined ------------------------------------------
    arm("pop", *pop("v"), "regs[a] = v")
    arm("push", *push("regs[a]"))
    arm("mov_rm", *load("regs[a]", "((regs[b] + c) & 0xFFFFFFFF)"))
    alu("add_rr", f"{_sx('regs[a]')} + {_sx('regs[b]')}")
    alu("cmp_rr", f"{_sx('regs[a]')} - {_sx('regs[b]')}", keep=False)
    arm("pushi", *push("a"))
    arm("mov_mr", "t = (regs[b] + c) & 0xFFFFFFFF", *store("t", "regs[a]"))
    arm("shl_ri", "v = (regs[a] << b) & 0xFFFFFFFF", "regs[a] = v",
        f"flags = {_sx('v')}")
    arm("jmp", nxt="a")
    arm("jg", nxt="a if flags > 0 else nxt")
    arm("jge", nxt="a if flags >= 0 else nxt")
    alu("sub_rr", f"{_sx('regs[a]')} - {_sx('regs[b]')}")
    arm("jne", nxt="a if flags != 0 else nxt")
    arm("jle", nxt="a if flags <= 0 else nxt")
    arm("mov_rr", "regs[a] = regs[b]")
    alu("xor_rr", f"{_sx('regs[a]')} ^ {_sx('regs[b]')}")
    alu("and_rr", f"{_sx('regs[a]')} & {_sx('regs[b]')}")
    arm("je", nxt="a if flags == 0 else nxt")
    arm("shl_rr", "v = (regs[a] << (regs[b] & 31)) & 0xFFFFFFFF",
        "regs[a] = v", f"flags = {_sx('v')}")
    arm("ret", *pop("v"), nxt="v")
    arm("call", *push("nxt"), nxt="a")
    arm("idiv",
        f"divisor = {_sx('regs[a]')}",
        "if divisor == 0:",
        "    raise MachineFault('division by zero', eip)",
        f"dividend = {_sx('regs[0]')}",
        "q = abs(dividend) // abs(divisor)",
        "if (dividend < 0) != (divisor < 0):",
        "    q = -q",
        "regs[2] = (dividend - q * divisor) & 0xFFFFFFFF",
        "regs[0] = q & 0xFFFFFFFF")
    alu("sub_ri", f"{_sx('regs[a]')} - b")
    arm("mov_ar", *store("c", "regs[a]"))
    arm("mov_ra", *load("regs[a]", "c"))
    arm("sar_rr", f"flags = {_sx('regs[a]')} >> (regs[b] & 31)",
        "regs[a] = flags & 0xFFFFFFFF")
    alu("add_ri", f"{_sx('regs[a]')} + b")
    arm("imul_rr",
        f"v = ({_sx('regs[a]')} * {_sx('regs[b]')}) & 0xFFFFFFFF",
        "regs[a] = v", f"flags = {_sx('v')}")
    arm("jl", nxt="a if flags < 0 else nxt")

    # ---- the rest ----------------------------------------------------------
    arm("mov_ri", "regs[a] = b")
    alu("cmp_ri", f"{_sx('regs[a]')} - b", keep=False)
    arm("sys_out", f"out_append({_sx('regs[0]')})")
    arm("sys_in",
        "if input_pos >= n_inputs:",
        "    raise MachineFault('input exhausted', eip)",
        "regs[0] = inputs[input_pos] & 0xFFFFFFFF",
        "input_pos += 1")
    alu("or_rr", f"{_sx('regs[a]')} | {_sx('regs[b]')}")
    alu("test_rr", f"{_sx('regs[a]')} & {_sx('regs[b]')}", keep=False)
    alu("and_ri", f"{_sx('regs[a]')} & b")
    alu("or_ri", f"{_sx('regs[a]')} | b")
    alu("xor_ri", f"{_sx('regs[a]')} ^ b")
    arm("shr_ri", "flags = regs[a] = regs[a] >> b")
    arm("sar_ri", f"flags = {_sx('regs[a]')} >> b",
        "regs[a] = flags & 0xFFFFFFFF")
    arm("shr_rr", "flags = regs[a] = regs[a] >> (regs[b] & 31)")
    arm("neg", f"flags = -{_sx('regs[a]')}", "regs[a] = flags & 0xFFFFFFFF")
    arm("not", "regs[a] = ~regs[a] & 0xFFFFFFFF")
    arm("imul_rri", f"v = ({_sx('regs[b]')} * c) & 0xFFFFFFFF",
        "regs[a] = v", f"flags = {_sx('v')}")
    arm("lea", f"regs[a] = {maddr}")
    arm("mov_mi", f"wr({maddr}, a, eip)")
    arm("mov_rx", "regs[a] = rd((c + regs[b] * 4) & 0xFFFFFFFF, eip)")
    arm("xchg_rm", f"t = {maddr}", "v = rd(t, eip)", "wr(t, regs[a], eip)",
        "regs[a] = v")
    arm("xchg_rr", "regs[a], regs[b] = regs[b], regs[a]")
    arm("pushf", *push("(flags == 0) | ((flags < 0) << 1)"))
    arm("popf", *pop("v"), "flags = 0 if v & 1 else (-1 if v & 2 else 1)")
    for m, op in (("add_mr", "+"), ("sub_mr", "-"), ("xor_mr", "^")):
        arm(m, f"t = {maddr}",
            f"flags = {_sx('rd(t, eip)')} {op} {_sx('regs[a]')}",
            "wr(t, flags & 0xFFFFFFFF, eip)")
    for m, op, keep in (("add_rm", "+", True), ("xor_rm", "^", True),
                        ("cmp_rm", "-", False)):
        body = [f"flags = {_sx('regs[a]')} {op} {_sx(f'rd({maddr}, eip)')}"]
        if keep:
            body.append("regs[a] = flags & 0xFFFFFFFF")
        arm(m, *body)
    arm("cmp_mi", f"flags = {_sx(f'rd({maddr}, eip)')} - a")
    arm("jmp_a", nxt="rd(a, eip)")
    arm("call_a", *push("nxt"), nxt="rd(a, eip)")
    arm("jmp_r", nxt="regs[a]")
    arm("nop")
    emit(f"{IND}break  # halt: the run ends with eip on the halt")
    emit("    finally:")
    emit("        m.eip = eip; m.steps = steps; m.flags_val = flags")
    emit("        m._input_pos = input_pos")
    if W:
        emit("        m.prev_eip = prev")
    if C:
        emit("    return cnt, first")
    return "\n".join(L) + "\n"


#: Generated loops by kind, built on first use so that processes which
#: never run N32 code do not pay for compiling them.
_LOOPS: Dict[str, Callable] = {}


def _loop(kind: str) -> Callable:
    loop = _LOOPS.get(kind)
    if loop is None:
        namespace: Dict = {
            "MachineFault": MachineFault,
            "EXIT_ADDRESS": EXIT_ADDRESS,
            "_U32": _U32,
        }
        code = compile(_gen_loop(kind), f"<n32-loop:{kind}>", "exec")
        exec(code, namespace)  # noqa: S102 - internal template, no user input
        loop = _LOOPS[kind] = namespace[f"_run_{kind}"]
    return loop


def _every(eip: int, instr: NInstruction) -> bool:
    return True


class Machine:
    """One execution context over a binary image."""

    def __init__(
        self,
        image: BinaryImage,
        max_steps: int = DEFAULT_MAX_STEPS,
    ):
        self.image = image
        self.max_steps = max_steps
        self.regs: List[int] = [0] * 8
        self.flags_val = 0
        self.eip = image.entry
        #: eip of the step before the current one (None on the first);
        #: kept by watched runs for hooks that ask where control came from.
        self.prev_eip: Optional[int] = None
        self.output: List[int] = []
        self.steps = 0
        self._stack = bytearray(STACK_SIZE)
        self._stack_base = STACK_TOP - STACK_SIZE
        # Private copy of the data section: running a program must not
        # mutate the image (heap pointers, lockdown records) - each run
        # is a fresh process.
        self._data = bytearray(image.data)
        self._data_base = image.data_base
        self._text = image.text
        self._text_base = image.text_base
        self._input_pos = 0
        self._watch: Optional[Watch] = None
        self._decode_cache: Dict[int, tuple] = {}
        self.regs[4] = STACK_TOP - 64  # esp

    # -- memory -----------------------------------------------------------

    def _read(self, addr: int, eip: int) -> int:
        addr &= _M32
        off = addr - self._data_base
        if 0 <= off <= len(self._data) - 4:
            return _U32.unpack_from(self._data, off)[0]
        off = addr - self._stack_base
        if 0 <= off <= STACK_SIZE - 4:
            return _U32.unpack_from(self._stack, off)[0]
        off = addr - self._text_base
        if 0 <= off <= len(self._text) - 4:
            return _U32.unpack_from(self._text, off)[0]
        raise MachineFault(f"bad read at {addr:#x}", eip)

    def _write(self, addr: int, value: int, eip: int) -> None:
        addr &= _M32
        value &= _M32
        off = addr - self._data_base
        if 0 <= off <= len(self._data) - 4:
            _U32.pack_into(self._data, off, value)
            return
        off = addr - self._stack_base
        if 0 <= off <= STACK_SIZE - 4:
            _U32.pack_into(self._stack, off, value)
            return
        if 0 <= addr - self._text_base < len(self._text):
            raise MachineFault(f"write to text at {addr:#x}", eip)
        raise MachineFault(f"bad write at {addr:#x}", eip)

    def read32(self, addr: int) -> int:
        """The word at ``addr``; a 4-byte read must lie in one section."""
        return self._read(addr, self.eip)

    def write32(self, addr: int, value: int) -> None:
        self._write(addr, value, self.eip)

    # -- execution ---------------------------------------------------------

    def _decode(self, eip: int) -> tuple:
        """Decode ``eip`` into the run's cache, or fault."""
        if not 0 <= eip - self._text_base < len(self._text):
            raise MachineFault(f"eip outside text: {eip:#x}", eip)
        try:
            instr, length = self.image.decode_at(eip)
        except EncodingError as exc:
            raise MachineFault(f"undecodable instruction: {exc}", eip)
        watch = self._watch
        cache = self._decode_cache
        entry = cache[eip] = _lower(instr, eip, length) + (
            len(cache), watch is not None and bool(watch(eip, instr)), instr,
        )
        return entry

    def run(
        self,
        inputs: Sequence[int] = (),
        step_hook: Optional[StepHook] = None,
        watch: Optional[Watch] = None,
        count: bool = False,
    ) -> NRunResult:
        """Execute until halt/exit; returns output + instruction count.

        ``step_hook`` observes the steps at addresses ``watch`` selects
        (every step when ``watch`` is None). ``count=True`` fills the
        result's ``counts`` and ``first_seen``; it takes no hook.
        """
        if count and step_hook is not None:
            raise ValueError("a counting run takes no step hook")
        self._input_pos = 0
        self.regs[4] = sp = (self.regs[4] - 4) & _M32
        self._write(sp, EXIT_ADDRESS, self.eip)
        self._watch = None
        if step_hook is not None:
            self._watch = _every if watch is None else watch
            _loop("watched")(self, inputs, step_hook)
        elif count:
            cnt, first = _loop("counting")(self, inputs, None)
            order = list(self._decode_cache)
            return NRunResult(
                self.output, self.steps,
                {eip: n for eip, n in zip(order, cnt) if n},
                {eip: f for eip, f, n in zip(order, first, cnt) if n},
            )
        else:
            _loop("untraced")(self, inputs, None)
        return NRunResult(self.output, self.steps)


def run_image(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    step_hook: Optional[StepHook] = None,
) -> NRunResult:
    """Convenience: fresh machine, run to completion."""
    return Machine(image, max_steps).run(inputs, step_hook)
