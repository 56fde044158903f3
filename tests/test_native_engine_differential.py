"""Differential tests for the fast N32 engine.

The fast engine (:mod:`repro.native.machine`) must be observably
indistinguishable from the seed machine kept in
:mod:`repro.native._reference`. Every consumer of the machine runs
twice — once as shipped, once with ``Machine`` swapped for
:class:`OracleMachine` (the seed engine, which calls every hook at
every step) — and the two observations are compared field for field:
output or fault (reason and eip), steps and final machine state, the
profile, the identified branch function, both tracers' events and the
bypass attack's call targets.

The fast tier covers hand-built programs that pin the flag rules and
the fault-check order, the first eight generated programs, and a small
marked host under the five Section 5.2.2 attacks (broken and faulting
images included). The slow tier adds the ten SPEC kernels, the whole
50-program corpus, and marked bzip2 and gcc under the same attacks.
"""

import contextlib
import importlib
from unittest import mock

import pytest

import repro.native.machine as machine_mod
from repro.attacks.native import observe_call_targets
from repro.attacks.native.harness import native_attack_images
from repro.campaign.generator import generate_program
from repro.lang.codegen_native import compile_source_native
from repro.native import (
    STACK_TOP,
    BinaryImage,
    DataBlock,
    Imm,
    Label,
    MachineFault,
    Mem,
    Reg,
    SymMem,
    assemble_text,
    build_image,
    ni,
    profile_image,
)
from repro.native.image import STACK_SIZE
from repro.native._reference import OracleMachine
from repro.native_wm import embed_native
from repro.native_wm.extractor import (
    SimpleTracer,
    SmartTracer,
    identify_branch_function,
)
from repro.workloads.spec import SPEC_SOURCES, TRAIN_INPUT, spec_native

#: Modules whose ``Machine`` global the oracle replaces.
ENGINE_USERS = (
    "repro.native.machine",
    "repro.native.profiler",
    "repro.native_wm.extractor",
    "repro.attacks.native.transforms",
)
MAX_STEPS = 20_000_000


@contextlib.contextmanager
def oracle_engine():
    with contextlib.ExitStack() as stack:
        for name in ENGINE_USERS:
            stack.enter_context(mock.patch.object(
                importlib.import_module(name), "Machine", OracleMachine))
        yield


def _fault(exc: MachineFault):
    return ("fault", exc.reason, exc.eip)


def _run(image, inputs, max_steps, hook=None):
    """Output or fault, then the final machine state."""
    m = machine_mod.Machine(image, max_steps)
    try:
        end = ("ok", m.run(inputs, hook).output)
    except MachineFault as exc:
        end = _fault(exc)
    return end, (m.steps, m.eip, list(m.regs), m.flags_val)


def observe(image, inputs, bf_entry=None, max_steps=MAX_STEPS):
    """Everything the machine's consumers see of one image and input."""
    obs = {"run": _run(image, inputs, max_steps)}
    try:
        p = profile_image(image, inputs, max_steps)
        obs["profile"] = (list(p.counts.items()), list(p.first_seen.items()),
                          p.total_steps, p.output)
    except MachineFault as exc:
        obs["profile"] = _fault(exc)
    obs["identify"] = identify_branch_function(image, inputs, max_steps)
    bf = obs["identify"] if bf_entry is None else bf_entry
    if bf is None and obs["profile"][0] != "fault":
        # No branch function: trace the hottest call target instead, so
        # the tracers still see entries and matching rets.
        counts = dict(obs["profile"][0])
        targets = [i.operands[0].value for _a, i in image.disassemble()
                   if i.mnemonic == "call"]
        bf = max(targets, key=lambda t: counts.get(t, 0), default=None)
    if bf is not None:
        for cls in (SimpleTracer, SmartTracer):
            tracer = cls(image, bf)
            try:
                tracer.run(inputs, max_steps)
                end = "ok"
            except MachineFault as exc:
                end = _fault(exc)
            obs[cls.__name__] = (
                [(e.source, e.resumed_at) for e in tracer.events], end)
        obs["call_targets"] = observe_call_targets(
            image, bf, inputs, max_steps)
    return obs


def assert_engines_agree(image, inputs, bf_entry=None, max_steps=MAX_STEPS):
    fast = observe(image, inputs, bf_entry, max_steps)
    with oracle_engine():
        ref = observe(image, inputs, bf_entry, max_steps)
    assert fast.keys() == ref.keys()
    for field in ref:
        assert fast[field] == ref[field], field
    return fast


# -- flag rules and operand forms ---------------------------------------------

VALUES = (0, 1, 2, 5, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
          0xFFFFFFFE, 0x12345678, 0xFFFFFFF9)
EAX, EBX, ECX, EDX, ESP, ESI = (
    Reg(r) for r in ("eax", "ebx", "ecx", "edx", "esp", "esi"))
TOP = Mem(base="esp", disp=0)


def _alu_program():
    """Every instruction form over a grid of boundary operands."""
    items = [("label", "main")]
    emit = items.extend
    k = 0
    for x in VALUES:
        for y in VALUES:
            emit([ni("mov_ri", EAX, Imm(x)), ni("mov_ri", EBX, Imm(y))])
            for form in ("add_rr", "sub_rr", "and_rr", "or_rr", "xor_rr",
                         "cmp_rr", "test_rr", "imul_rr", "shl_rr", "shr_rr",
                         "sar_rr", "xchg_rr"):
                emit([ni("mov_rr", EDX, EAX), ni(form, EDX, EBX),
                      ni("mov_ri", EBX, Imm(y))])
            for form in ("add_ri", "sub_ri", "and_ri", "or_ri", "xor_ri",
                         "cmp_ri", "mov_ri"):
                emit([ni("mov_rr", EDX, EAX), ni(form, EDX, Imm(y))])
            for form in ("shl_ri", "shr_ri", "sar_ri"):
                emit([ni("mov_rr", EDX, EAX), ni(form, EDX, Imm(y & 0xFF))])
            for form in ("neg", "not"):
                emit([ni("mov_rr", EDX, EAX), ni(form, EDX)])
            emit([ni("imul_rri", EDX, EAX, Imm(y)),
                  ni("lea", EDX, Mem(base="ebx", disp=-8)),
                  ni("push", EAX), ni("add_mr", TOP, EBX),
                  ni("sub_mr", TOP, EBX), ni("xor_mr", TOP, EBX),
                  ni("add_rm", EDX, TOP), ni("xor_rm", EDX, TOP),
                  ni("cmp_rm", EDX, TOP), ni("cmp_mi", TOP, Imm(y)),
                  ni("mov_mi", TOP, Imm(y)), ni("xchg_rm", EDX, TOP),
                  ni("pop", ESI),
                  ni("cmp_rr", EAX, EBX), ni("pushf"), ni("pop", ESI),
                  ni("pushi", Imm(y)), ni("popf"), ni("pushf"),
                  ni("pop", ESI), ni("push", ESP), ni("pop", ESI),
                  ni("push", ESP), ni("pop", ESP)])
            for jcc in ("je", "jne", "jl", "jle", "jg", "jge"):
                k += 1
                emit([ni("cmp_rr", EAX, EBX), ni(jcc, Label(f"t{k}")),
                      ni("nop"), ("label", f"t{k}")])
            if y:
                emit([ni("mov_rr", ESI, EAX), ni("idiv", EBX),
                      ni("mov_rr", EAX, ESI)])
            emit([ni("mov_ar", SymMem("cells"), EAX),
                  ni("mov_ri", ECX, Imm(y & 3)),
                  ni("mov_rx", EDX, SymMem("cells", index="ecx")),
                  ni("mov_ra", EDX, SymMem("cells", offset=4)),
                  ni("mov_mr", Mem(base="esp", disp=-16), EBX),
                  ni("mov_rm", EDX, Mem(base="esp", disp=-16)),
                  ni("sys_out")])
    emit([ni("mov_ri", EAX, Label("via_r")), ni("jmp_r", EAX),
          ("label", "via_r"), ni("jmp_a", SymMem("cells", offset=12)),
          ("label", "via_a"), ni("call_a", SymMem("cells", offset=16)),
          ni("call", Label("sub")), ni("halt"),
          ("label", "sub"), ni("ret")])
    image = build_image(items, [DataBlock("cells", [0] * 8)])
    image.write_data_word(image.symbols["cells"] + 12, image.symbols["via_a"])
    image.write_data_word(image.symbols["cells"] + 16, image.symbols["sub"])
    return image


def _step_log(image, inputs, max_steps):
    """Run with an every-step hook recording the state each step sees."""
    log = []

    def hook(m, addr, instr):
        log.append((addr, instr.mnemonic, m.steps, tuple(m.regs),
                    m.flags_val, m.prev_eip))

    return _run(image, inputs, max_steps, hook), log


def _both(fn, *args):
    fast = fn(*args)
    with oracle_engine():
        ref = fn(*args)
    return fast, ref


def test_every_form_and_flag_rule_matches_the_seed():
    image = _alu_program()
    fast, ref = _both(_step_log, image, (), MAX_STEPS)
    assert fast[0][0][0] == "ok"
    assert len(fast[1]) > 15_000
    assert fast == ref


# -- the fault-check order ----------------------------------------------------

#: name -> (source, inputs, fault reason at an ample budget or None).
FAULTS = {
    "exit": (".entry main\nmain:\n    call f\n    ret\nf:\n    ret\n", (),
             None),
    "halt": (".entry main\nmain:\n    nop\n    halt\n", (), None),
    "eip-outside-text": (
        ".entry main\nmain:\n    mov eax, 0x100\n    jmp eax\n", (),
        "eip outside text: 0x100"),
    "undecodable": (
        ".entry main\nmain:\n    mov eax, bad\n    add eax, 1\n"
        "    jmp eax\nbad:\n    mov ebx, 0xFFFFFFFF\n    halt\n", (),
        "undecodable instruction: bad opcode 0xff at 0x804800e"),
    "ret-into-data": (
        ".entry main\n.word cell 0\nmain:\n    pushi cell\n    ret\n", (),
        "eip outside text: 0x8069000"),
    "division-by-zero": (
        ".entry main\nmain:\n    mov eax, 5\n    mov ebx, 0\n"
        "    idiv ebx\n    halt\n", (), "division by zero"),
    "input-exhausted": (
        ".entry main\nmain:\n    sys_in\n    sys_in\n    halt\n", (7,),
        "input exhausted"),
    "write-to-text": (
        ".entry main\nmain:\n    mov ebx, 7\n    mov eax, main\n"
        "    mov [eax+0], ebx\n    halt\n", (), "write to text at 0x8048000"),
    "bad-write": (
        ".entry main\nmain:\n    mov eax, 0x100\n    mov [eax+0], eax\n", (),
        "bad write at 0x100"),
    "bad-pop": (".entry main\nmain:\n    mov esp, 0x100\n    pop eax\n", (),
                "bad read at 0x100"),
    "bad-push": (".entry main\nmain:\n    mov esp, 0x100\n    push eax\n",
                 (), "bad write at 0xfc"),
    "text-straddle": (
        ".entry main\nmain:\n    mov eax, end\n    sub eax, 2\n"
        "    mov ebx, [eax+0]\n    halt\nend:\n", (),
        "bad read at 0x8048010"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_reason_eip_and_check_order_match_the_seed(name):
    """Every budget from 0 to past the end: the same check must win."""
    src, inputs, reason = FAULTS[name]
    image = assemble_text(src)
    (end, state), _log = _step_log(image, inputs, MAX_STEPS)
    assert (end[1] if end[0] == "fault" else None) == reason
    for budget in range(state[0] + 2):
        fast, ref = _both(_step_log, image, inputs, budget)
        assert fast == ref, budget
        assert_engines_agree(image, inputs, max_steps=budget)


def test_data_overlapping_the_stack_is_read_data_first():
    """Where sections overlap, data wins, as in the seed's checks."""
    low = STACK_TOP - STACK_SIZE
    src = (".entry main\nmain:\n"
           f"    mov eax, {low + 4}\n    mov [eax+0], 77\n"
           "    mov esp, eax\n    pop eax\n    sys_out\n"
           "    push eax\n    pop ebx\n    mov eax, ebx\n    sys_out\n"
           "    halt\n")
    text = assemble_text(src)
    image = BinaryImage(text.text, bytearray(16), low - 8, text.entry)
    obs = assert_engines_agree(image, ())
    assert obs["run"][0] == ("ok", [77, 77])


# -- corpus, host under attack, SPEC -------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_generated_programs_match_the_seed(seed):
    program = generate_program(seed)
    obs = assert_engines_agree(
        compile_source_native(program.source), program.inputs)
    assert obs["run"][0][0] == "ok"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 50))
def test_generated_corpus_matches_the_seed(seed):
    program = generate_program(seed)
    assert_engines_agree(compile_source_native(program.source),
                         program.inputs)


HOST_SRC = """
fn hot(n) {
    var acc = 0;
    for (var i = 0; i < n; i = i + 1) { acc = acc + i * i; }
    return acc;
}
fn late_a(x) {
    var y = 0;
    if (x % 2 == 0) { y = x + 1; } else { y = x - 1; }
    return y;
}
fn late_b(x) {
    var y = 0;
    if (x > 10) { y = x * 3; } else { y = x * 5; }
    return y;
}
fn main() {
    var n = input();
    print(hot(n));
    if (n > 2) { print(n * 2); } else { print(n); }
    print(late_a(n));
    print(late_b(n));
    return 0;
}
"""


def _attacked(image, inputs, watermark, width):
    emb = embed_native(image, watermark, width, inputs)
    return emb, {"0-marked": emb.image,
                 **native_attack_images(emb, inputs)}


@pytest.fixture(scope="module")
def attacked_host():
    return _attacked(compile_source_native(HOST_SRC), [50], 0xACE, 12)


@pytest.mark.parametrize("attack", [
    "0-marked", "1-noop-insertion", "2-branch-sense-inversion",
    "3-double-watermarking", "4-bypass-branch-function",
    "5-reroute-branch-function",
])
def test_marked_host_under_attack_matches_the_seed(attacked_host, attack):
    emb, images = attacked_host
    assert_engines_agree(images[attack], [50], emb.bf_entry)


def test_attacks_include_broken_and_faulting_images(attacked_host):
    emb, images = attacked_host
    obs = {name: observe(img, [50], emb.bf_entry)
           for name, img in images.items()}
    runs = {name: o["run"][0][0] for name, o in obs.items()}
    assert "fault" in runs.values()
    assert runs["0-marked"] == runs["5-reroute-branch-function"] == "ok"
    assert len(obs["0-marked"]["SmartTracer"][0]) >= emb.width + 1


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SPEC_SOURCES))
def test_spec_kernels_match_the_seed(name):
    obs = assert_engines_agree(spec_native(name), TRAIN_INPUT)
    assert obs["run"][0][0] == "ok"


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ["bzip2", "gcc"])
def test_marked_spec_under_attack_matches_the_seed(kernel):
    emb, images = _attacked(spec_native(kernel), TRAIN_INPUT, 0xBEEF1234, 32)
    for name, image in sorted(images.items()):
        assert_engines_agree(image, TRAIN_INPUT, emb.bf_entry)
