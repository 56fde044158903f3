"""The seed N32 machine, kept as the reference engine.

This is the string-dispatch single-stepper the repository started
with: every step re-reads the instruction's mnemonic and operand
objects and calls the step hook, if any. The fast engine in
:mod:`repro.native.machine` must be observably indistinguishable from
it -- same outputs, step counts, faults (reason and eip) and hook
observations -- so it survives here as (a) the differential-testing
oracle and (b) the "seed engine" baseline that
``benchmarks/regression.py`` measures speedups against. Only tests and
the benchmark harness import it.

One deliberate change from the seed: a 4-byte read must lie wholly
inside the text section, as data and stack reads already had to, so a
read at ``text_end - 3 .. text_end - 1`` faults instead of returning a
truncated word. The fast engine does the same.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .encoding import EncodingError
from .image import BinaryImage, STACK_SIZE, STACK_TOP
from .isa import Mem, NInstruction, Reg, signed32, wrap32
from .machine import (
    DEFAULT_MAX_STEPS,
    EXIT_ADDRESS,
    MachineFault,
    NRunResult,
    StepHook,
    Watch,
)


class ReferenceMachine:
    """One execution context over a binary image (seed engine)."""

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
        self.output: List[int] = []
        self.steps = 0
        self._stack = bytearray(STACK_SIZE)
        self._stack_base = STACK_TOP - STACK_SIZE
        # Private copy of the data section: running a program must not
        # mutate the image (heap pointers, lockdown records) - each run
        # is a fresh process.
        self._data = bytearray(image.data)
        self._data_base = image.data_base
        self._inputs: Sequence[int] = ()
        self._input_pos = 0
        self._decode_cache: Dict[int, Tuple[NInstruction, int]] = {}
        self.regs[4] = STACK_TOP - 64  # esp

    # -- memory -----------------------------------------------------------

    def read32(self, addr: int) -> int:
        addr = wrap32(addr)
        image = self.image
        off = addr - self._data_base
        if 0 <= off <= len(self._data) - 4:
            return int.from_bytes(self._data[off:off + 4], "little")
        if self._stack_base <= addr <= STACK_TOP - 4:
            off = addr - self._stack_base
            return int.from_bytes(self._stack[off:off + 4], "little")
        if image.text_base <= addr <= image.text_end - 4:
            off = addr - image.text_base
            return int.from_bytes(image.text[off:off + 4], "little")
        raise MachineFault(f"bad read at {addr:#x}", self.eip)

    def write32(self, addr: int, value: int) -> None:
        addr = wrap32(addr)
        image = self.image
        off = addr - self._data_base
        if 0 <= off <= len(self._data) - 4:
            self._data[off:off + 4] = wrap32(value).to_bytes(4, "little")
            return
        if self._stack_base <= addr <= STACK_TOP - 4:
            off = addr - self._stack_base
            self._stack[off:off + 4] = wrap32(value).to_bytes(4, "little")
            return
        if image.in_text(addr):
            raise MachineFault(f"write to text at {addr:#x}", self.eip)
        raise MachineFault(f"bad write at {addr:#x}", self.eip)

    def push(self, value: int) -> None:
        self.regs[4] = wrap32(self.regs[4] - 4)
        self.write32(self.regs[4], value)

    def pop(self) -> int:
        value = self.read32(self.regs[4])
        self.regs[4] = wrap32(self.regs[4] + 4)
        return value

    # -- operand helpers ----------------------------------------------------

    def _mem_addr(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.regs[Reg(mem.base).code]
        if mem.index is not None:
            addr += self.regs[Reg(mem.index).code] * 4
        return wrap32(addr)

    def _set_flags(self, result: int) -> None:
        self.flags_val = result

    # -- execution ---------------------------------------------------------

    def run(
        self,
        inputs: Sequence[int] = (),
        step_hook: Optional[StepHook] = None,
    ) -> NRunResult:
        """Execute until halt/exit; returns output + instruction count."""
        self._inputs = inputs
        self._input_pos = 0
        self.push(EXIT_ADDRESS)
        running = True
        while running:
            running = self.step(step_hook)
        return NRunResult(self.output, self.steps)

    def step(self, step_hook: Optional[StepHook] = None) -> bool:
        """Execute one instruction; False when the program has ended."""
        eip = self.eip
        image = self.image
        if eip == EXIT_ADDRESS:
            return False
        if not image.in_text(eip):
            raise MachineFault(f"eip outside text: {eip:#x}", eip)
        cached = self._decode_cache.get(eip)
        if cached is None:
            try:
                cached = image.decode_at(eip)
            except EncodingError as exc:
                raise MachineFault(f"undecodable instruction: {exc}", eip)
            self._decode_cache[eip] = cached
        instr, length = cached

        self.steps += 1
        if self.steps > self.max_steps:
            raise MachineFault("instruction budget exceeded", eip)
        if step_hook is not None:
            step_hook(self, eip, instr)

        regs = self.regs
        m = instr.mnemonic
        ops = instr.operands
        next_eip = eip + length

        if m == "mov_ri":
            regs[ops[0].code] = wrap32(ops[1].value)
        elif m == "mov_rr":
            regs[ops[0].code] = regs[ops[1].code]
        elif m == "mov_rm":
            regs[ops[0].code] = self.read32(self._mem_addr(ops[1]))
        elif m == "mov_mr":
            self.write32(self._mem_addr(ops[0]), regs[ops[1].code])
        elif m == "mov_ra":
            regs[ops[0].code] = self.read32(ops[1].disp)
        elif m == "mov_ar":
            self.write32(ops[0].disp, regs[ops[1].code])
        elif m == "mov_mi":
            self.write32(self._mem_addr(ops[0]), ops[1].value)
        elif m == "mov_rx":
            regs[ops[0].code] = self.read32(self._mem_addr(ops[1]))
        elif m == "lea":
            regs[ops[0].code] = self._mem_addr(ops[1])
        elif m == "xchg_rm":
            addr = self._mem_addr(ops[1])
            tmp = self.read32(addr)
            self.write32(addr, regs[ops[0].code])
            regs[ops[0].code] = tmp
        elif m == "xchg_rr":
            a, b = ops[0].code, ops[1].code
            regs[a], regs[b] = regs[b], regs[a]
        elif m == "push":
            self.push(regs[ops[0].code])
        elif m == "pop":
            regs[ops[0].code] = self.pop()
        elif m == "pushi":
            self.push(ops[0].value)
        elif m == "pushf":
            zf = 1 if self.flags_val == 0 else 0
            sf = 1 if self.flags_val < 0 else 0
            self.push(zf | (sf << 1))
        elif m == "popf":
            packed = self.pop()
            if packed & 1:
                self.flags_val = 0
            else:
                self.flags_val = -1 if packed & 2 else 1
        elif m in _ALU_RR:
            a = regs[ops[0].code]
            b = regs[ops[1].code]
            result = _ALU_RR[m](signed32(a), signed32(b))
            if m not in ("cmp_rr", "test_rr"):
                regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m in _ALU_RI:
            a = regs[ops[0].code]
            b = ops[1].value
            result = _ALU_RI[m](signed32(a), signed32(wrap32(b)))
            if m != "cmp_ri":
                regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m in ("add_mr", "sub_mr", "xor_mr"):
            addr = self._mem_addr(ops[0])
            a = signed32(self.read32(addr))
            b = signed32(regs[ops[1].code])
            result = {"add_mr": a + b, "sub_mr": a - b,
                      "xor_mr": a ^ b}[m]
            self.write32(addr, result)
            self._set_flags(result)
        elif m in ("add_rm", "xor_rm", "cmp_rm"):
            a = signed32(regs[ops[0].code])
            b = signed32(self.read32(self._mem_addr(ops[1])))
            result = {"add_rm": a + b, "xor_rm": a ^ b,
                      "cmp_rm": a - b}[m]
            if m != "cmp_rm":
                regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m == "cmp_mi":
            a = signed32(self.read32(self._mem_addr(ops[0])))
            self._set_flags(a - signed32(wrap32(ops[1].value)))
        elif m == "shl_ri":
            result = regs[ops[0].code] << (ops[1].value & 31)
            regs[ops[0].code] = wrap32(result)
            self._set_flags(signed32(result))
        elif m == "shr_ri":
            result = regs[ops[0].code] >> (ops[1].value & 31)
            regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m == "sar_ri":
            result = signed32(regs[ops[0].code]) >> (ops[1].value & 31)
            regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m == "shl_rr":
            result = regs[ops[0].code] << (regs[ops[1].code] & 31)
            regs[ops[0].code] = wrap32(result)
            self._set_flags(signed32(result))
        elif m == "shr_rr":
            result = regs[ops[0].code] >> (regs[ops[1].code] & 31)
            regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m == "sar_rr":
            result = signed32(regs[ops[0].code]) >> (regs[ops[1].code] & 31)
            regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m == "neg":
            result = -signed32(regs[ops[0].code])
            regs[ops[0].code] = wrap32(result)
            self._set_flags(result)
        elif m == "not":
            regs[ops[0].code] = wrap32(~regs[ops[0].code])
        elif m == "imul_rr":
            result = signed32(regs[ops[0].code]) * signed32(regs[ops[1].code])
            regs[ops[0].code] = wrap32(result)
            self._set_flags(signed32(wrap32(result)))
        elif m == "imul_rri":
            result = signed32(regs[ops[1].code]) * signed32(wrap32(ops[2].value))
            regs[ops[0].code] = wrap32(result)
            self._set_flags(signed32(wrap32(result)))
        elif m == "idiv":
            divisor = signed32(regs[ops[0].code])
            if divisor == 0:
                raise MachineFault("division by zero", eip)
            dividend = signed32(regs[0])
            q = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                q = -q
            r = dividend - q * divisor
            regs[0] = wrap32(q)
            regs[2] = wrap32(r)
        elif m == "jmp":
            next_eip = ops[0].value
        elif m == "call":
            self.push(next_eip)
            next_eip = ops[0].value
        elif m == "jmp_a":
            next_eip = self.read32(ops[0].disp)
        elif m == "call_a":
            self.push(next_eip)
            next_eip = self.read32(ops[0].disp)
        elif m == "jmp_r":
            next_eip = regs[ops[0].code]
        elif m == "ret":
            next_eip = self.pop()
        elif m in _JCC:
            if _JCC[m](self.flags_val):
                next_eip = ops[0].value
        elif m == "sys_out":
            self.output.append(signed32(regs[0]))
        elif m == "sys_in":
            if self._input_pos >= len(self._inputs):
                raise MachineFault("input exhausted", eip)
            regs[0] = wrap32(self._inputs[self._input_pos])
            self._input_pos += 1
        elif m == "nop":
            pass
        elif m == "halt":
            return False
        else:  # pragma: no cover - forms table is closed
            raise MachineFault(f"unimplemented {m}", eip)

        self.eip = wrap32(next_eip)
        if self.eip == EXIT_ADDRESS:
            return False
        return True


_ALU_RR = {
    "add_rr": lambda a, b: a + b,
    "sub_rr": lambda a, b: a - b,
    "and_rr": lambda a, b: a & b,
    "or_rr": lambda a, b: a | b,
    "xor_rr": lambda a, b: a ^ b,
    "cmp_rr": lambda a, b: a - b,
    "test_rr": lambda a, b: a & b,
}
_ALU_RI = {
    "add_ri": lambda a, b: a + b,
    "sub_ri": lambda a, b: a - b,
    "and_ri": lambda a, b: a & b,
    "or_ri": lambda a, b: a | b,
    "xor_ri": lambda a, b: a ^ b,
    "cmp_ri": lambda a, b: a - b,
}
_JCC = {
    "je": lambda f: f == 0,
    "jne": lambda f: f != 0,
    "jl": lambda f: f < 0,
    "jle": lambda f: f <= 0,
    "jg": lambda f: f > 0,
    "jge": lambda f: f >= 0,
}


class OracleMachine(ReferenceMachine):
    """The seed engine behind the fast engine's ``run`` signature.

    The step hook is called at *every* step, whatever ``watch`` says:
    that was the seed contract, and a hook must give the same result
    when called at steps its predicate does not select. ``prev_eip``
    is kept the way the fast engine keeps it, and ``count=True``
    collects per-address counts with the seed profiler's per-step
    hook. Swapping this class in for ``Machine`` runs the production
    hook consumers (profiler, extractor, attack reconnaissance) on the
    oracle.
    """

    prev_eip: Optional[int] = None

    def run(
        self,
        inputs: Sequence[int] = (),
        step_hook: Optional[StepHook] = None,
        watch: Optional[Watch] = None,
        count: bool = False,
    ) -> NRunResult:
        if count:
            counts: Dict[int, int] = {}
            first_seen: Dict[int, int] = {}
            seq = [0]

            def counter(machine, addr: int, instr) -> None:
                c = counts.get(addr, 0)
                counts[addr] = c + 1
                if c == 0:
                    first_seen[addr] = seq[0]
                seq[0] += 1

            result = super().run(inputs, counter)
            result.counts = counts
            result.first_seen = first_seen
            return result
        if step_hook is None:
            return super().run(inputs)

        def every_step(machine, addr: int, instr) -> None:
            step_hook(machine, addr, instr)
            machine.prev_eip = addr

        return super().run(inputs, every_step)


def run_image_reference(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
    step_hook: Optional[StepHook] = None,
) -> NRunResult:
    """The seed ``run_image``: fresh reference machine, run to completion."""
    return ReferenceMachine(image, max_steps).run(inputs, step_hook)
