"""The five native-code attacks of Section 5.2.2.

1. **No-op insertion** — distortive: inject code, shifting text
   addresses. The branch function's tables hold stale addresses; the
   program breaks ("Every one of our test programs breaks when even a
   single no-op is added").
2. **Branch sense inversion** — invert conditional jumps and
   rearrange so semantics are preserved *for an unwatermarked
   binary*; the relayout again shifts addresses and breaks the
   watermarked one.
3. **Double watermarking** — run the embedder again over a
   watermarked binary (an additive attack); the relayout breaks the
   first watermark's lock-down.
4. **Branch-function bypass** — overwrite each ``call bf`` with a
   same-size direct ``jmp b_i`` learned from a trace (a subtractive
   attack, no address shifts). The control flow is right, but the
   lockdown cells are never initialized.
5. **Rerouting** — patch each ``call bf`` into ``call Y`` where a
   trampoline ``Y: jmp bf`` is appended at the end of the text (no
   relocation needed). The program *works*; only the simple tracer is
   fooled.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ...native.encoding import encode_instruction
from ...native.image import BinaryImage
from ...native.isa import Imm, JCC_INVERSES, Label, ni
from ...native.machine import Machine, MachineFault
from ...native.rewriter import lift, lower, patch_bytes
from ...native_wm.embedder import embed_native


def insert_noops(
    image: BinaryImage,
    count: int,
    rng: Optional[random.Random] = None,
    at_start: bool = False,
) -> BinaryImage:
    """Insert ``count`` nops at random instruction boundaries.

    ``at_start`` pins the first nop to the top of the text section,
    which shifts *every* downstream address — the paper's "even a
    single no-op" case made deterministic.
    """
    rng = rng or random.Random(0)
    prog = lift(image)
    for n in range(count):
        idx = 0 if (at_start and n == 0) else rng.randrange(len(prog.items) + 1)
        prog.insert(idx, [ni("nop")])
    return lower(prog)


def invert_branch_senses(
    image: BinaryImage,
    probability: float = 1.0,
    rng: Optional[random.Random] = None,
) -> BinaryImage:
    """jcc L; fall  ==>  jcc' F; jmp L; F: fall."""
    rng = rng or random.Random(0)
    prog = lift(image)
    idx = 0
    counter = 0
    while idx < len(prog.items):
        item = prog.items[idx]
        if (
            not isinstance(item, tuple)
            and item.is_conditional
            and isinstance(item.operands[0], Label)
            and rng.random() < probability
        ):
            fall = f"inv_{counter}"
            counter += 1
            replacement = [
                ni(JCC_INVERSES[item.mnemonic], Label(fall)),
                ni("jmp", item.operands[0]),
            ]
            prog.items[idx:idx + 1] = replacement
            prog.items.insert(idx + 2, ("label", fall))
            # Manual index fixups: replaced 1 item with 3.
            for addr, i in prog.index_of_addr.items():
                if i > idx:
                    prog.index_of_addr[addr] = i + 2
            idx += 3
        else:
            idx += 1
    return lower(prog)


def double_watermark(
    image: BinaryImage,
    second_watermark: int,
    width: int,
    inputs: Sequence[int],
    rng_seed: int = 777,
) -> BinaryImage:
    """Embed a second watermark on top of an existing one."""
    return embed_native(
        image, second_watermark, width, inputs, rng_seed=rng_seed
    ).image


def observe_call_targets(
    image: BinaryImage,
    bf_entry: int,
    inputs: Sequence[int],
    max_steps: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Trace once and learn where each ``call bf`` actually goes.

    This is the attacker's reconnaissance for the bypass attack: the
    (call address, realized target) pairs.
    """
    pairs: List[Tuple[int, int]] = []
    machine = Machine(image) if max_steps is None else Machine(image, max_steps)
    state: dict = {}

    def hook(m: Machine, addr: int, instr) -> None:
        if instr.mnemonic == "call" and instr.operands[0].value == bf_entry:
            state.setdefault("stack", []).append((addr, m.regs[4] - 4))
        elif instr.mnemonic == "ret" and state.get("stack"):
            call_addr, esp_after = state["stack"][-1]
            if m.regs[4] == esp_after:
                state["stack"].pop()
                pairs.append((call_addr, m.read32(m.regs[4])))

    def watch(addr: int, instr) -> bool:
        return instr.mnemonic == "ret" or (
            instr.mnemonic == "call" and instr.operands[0].value == bf_entry
        )

    try:
        machine.run(inputs, hook, watch)
    except MachineFault:
        pass
    return pairs


def bypass_branch_function(
    image: BinaryImage,
    bf_entry: int,
    inputs: Sequence[int],
) -> BinaryImage:
    """Overwrite every observed ``call bf`` with ``jmp <target>``.

    Both are 5 bytes, so no relayout is needed — "there is no net
    change to any addresses".
    """
    attacked = image
    for call_addr, target in observe_call_targets(image, bf_entry, inputs):
        jmp = ni("jmp", Imm(target))
        attacked = patch_bytes(
            attacked, call_addr, encode_instruction(jmp, call_addr)
        )
    return attacked


def reroute_branch_function(
    image: BinaryImage,
    bf_entry: int,
    inputs: Sequence[int],
) -> BinaryImage:
    """Append ``Y: jmp bf`` after the text and retarget calls to Y.

    Appending past the old text end changes no existing address, and
    the 5-byte calls are patched in place, so the hash inputs (return
    addresses) are untouched and the program keeps working.
    """
    trampoline_addr = image.text_end
    jmp = ni("jmp", Imm(bf_entry))
    new_text = bytes(image.text) + encode_instruction(jmp, trampoline_addr)
    if image.text_base + len(new_text) > image.data_base:
        raise ValueError("no room for the trampoline")
    attacked = BinaryImage(
        new_text,
        bytearray(image.data),
        image.data_base,
        image.entry,
        image.text_base,
        dict(image.symbols),
        image.bss_bytes,
    )
    for call_addr, _target in observe_call_targets(image, bf_entry, inputs):
        call = ni("call", Imm(trampoline_addr))
        attacked = patch_bytes(
            attacked, call_addr, encode_instruction(call, call_addr)
        )
    return attacked
