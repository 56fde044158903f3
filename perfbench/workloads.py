"""The in-process workloads: ``mint``, ``recognize`` and ``native``.

Each workload has a ``setup(seed)`` that does everything before timing
and a ``measure(state, seed, seconds, tracer)`` that runs a closed loop
of one client over whole rounds, in which every cell (program x codec,
suspect, or kernel x operation) is attempted once. The number of rounds
comes from ``seconds`` and the workload's nominal round time, not from
a clock, so a seed and a window always attempt the same operations and
a run's ``attempted`` and ``failed`` repeat exactly. Every outcome is
checked against ground truth; nothing is retried.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from tracer import Tracer, now

import repro.bytecode_wm.recognizer as recognizer
import repro.native.machine as machine
import repro.native_wm.embedder as native_embedder
import repro.native_wm.extractor as native_extractor
import repro.pipeline.batch as batch
from repro.bytecode_wm import WatermarkKey, embed
from repro.campaign.attacks import campaign_attacks
from repro.pipeline import CopySpec, prepare
from repro.workloads.caffeinemark import DEFAULT_INPUT as CAFFEINEMARK_INPUT
from repro.workloads.caffeinemark import caffeinemark_module
from repro.workloads.jesslike import DEFAULT_INPUT as JESS_INPUT
from repro.workloads.jesslike import jess_module
from repro.workloads.spec import TRAIN_INPUT, spec_native, spec_vm

MARK_BITS = 64
PIECES = 40
CODECS = ("gcrt", "rs-8", "hybrid-4")
MINT_PROGRAMS = ("gzip", "twolf", "bzip2")
#: Nominal seconds of one round (every cell once) on a 2-core host;
#: ``--seconds`` is divided by it to give the rounds a run makes. The
#: native figure averages a first round, which also runs the unmarked
#: controls, with the shorter rounds after it.
MINT_ROUND_S = 13.0
RECOGNIZE_ROUND_S = 13.0
NATIVE_ROUND_S = 17.0
RECOGNIZE_PROGRAMS = {
    "jess": (jess_module, JESS_INPUT),
    "caffeinemark": (caffeinemark_module, CAFFEINEMARK_INPUT),
}
ATTACKS = ("branch-insertion", "sense-inversion", "combined-layout")
NATIVE_KERNELS = ("bzip2", "parser", "vortex", "gzip")
NATIVE_BITS = 32


@dataclass
class Tally:
    """Attempted and failed operations, with the failures that matter most.

    A *misreport* is a complete recovery of a wrong value, or of any
    value from a negative control; a *broken output* is a marked
    program whose output differs from the unmarked one. Either makes
    the run incorrect. A miss on an unattacked marked copy is a
    failure but not a wrong answer.
    """

    attempted: int = 0
    failed: int = 0
    misreports: int = 0
    broken_outputs: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, what: str, misreport: bool = False,
             broken: bool = False) -> None:
        self.failed += 1
        self.misreports += misreport
        self.broken_outputs += broken
        if len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.misreports == 0 and self.broken_outputs == 0


@dataclass
class Measurement:
    """What one measured phase produced."""

    samples: Dict[Any, List[float]]  # seconds per operation, by cell
    elapsed: float
    tally: Tally
    #: figures printed on `metric` lines: name -> (value, unit)
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: per-layer values the workload measures itself: name -> value
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.samples.values())

    @property
    def op_time_s(self) -> float:
        """The gated operation time: :func:`cell_time` over every cell."""
        return cell_time(self.samples)


def cell_time(samples: Dict[Any, List[float]]) -> float:
    """Mean over cells of each cell's median operation time.

    A cell is one kind of operation on one subject: a (program, codec)
    copy, a suspect, a (kernel, operation) pair or an (artifact, request
    kind) pair. Every cell keeps the same weight, so the figure depends
    neither on where the measuring window ended nor on which kind of
    operation sits in the middle of a mix; the median within a cell
    absorbs an occasional slow repetition. The reciprocal is the rate of
    an equal mix of the cells.
    """
    return statistics.mean(statistics.median(v) for v in samples.values())


def cell_rate(samples: Dict[Any, List[float]]) -> float:
    """Operations per second on an equal mix of the cells (0 if none ran)."""
    return 1.0 / cell_time(samples) if samples else 0.0


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rounds(seconds: float, round_s: float) -> int:
    """Whole rounds (at least one) that fill about ``seconds``."""
    return max(1, int(seconds / round_s + 0.5))


class Loop:
    """A closed loop of one client: times operations by cell, counts them."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.samples: Dict[Any, List[float]] = defaultdict(list)
        self.tally = Tally()
        self.op = 0
        self.start = now()

    def attempt(self, cell: Any, what: str, fn, *args, **kwargs):
        """Run one operation; a raise is a counted failure, returns None."""
        if self.tracer:
            self.tracer.op = self.op
        self.op += 1
        self.tally.attempted += 1
        t = now()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, never retried
            self.tally.fail(f"{what}: raised {exc!r}")
            return None
        finally:
            self.samples[cell].append(now() - t)

    def finish(self) -> Measurement:
        return Measurement(dict(self.samples), now() - self.start, self.tally)


# -- mint ------------------------------------------------------------------

def mint_setup(seed: int) -> Dict[str, Any]:
    """Compile and prepare each SPEC-like kernel once (the vendor's release)."""
    prepared = {}
    for name in MINT_PROGRAMS:
        key = WatermarkKey(b"perfbench-mint-" + name.encode(), TRAIN_INPUT)
        prepared[name] = prepare(spec_vm(name), key, MARK_BITS, pieces=PIECES)
    return prepared


def mint_measure(prepared: Dict[str, Any], seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> Measurement:
    rng = random.Random(seed)
    loop = Loop(tracer)
    tally = loop.tally
    cells = len(MINT_PROGRAMS) * len(CODECS)
    for i in range(cells * rounds(seconds, MINT_ROUND_S)):
        # (i mod 3, (i + i div 3) mod 3) visits all nine cells every nine.
        name = MINT_PROGRAMS[i % 3]
        codec = CODECS[(i + i // 3) % 3]
        spec = CopySpec(f"copy-{i + 1}", rng.getrandbits(MARK_BITS),
                        rng.getrandbits(32))
        what = f"mint {name}/{codec} mark {spec.watermark:#x}"
        result = loop.attempt((name, codec), what, batch.embed_copy,
                              prepared[name], spec, codec=codec)
        if result is None:
            continue
        if not result.ok:
            tally.fail(f"{what}: {result.error}")
        elif not result.output_ok:
            tally.fail(f"{what}: output differs", broken=True)
        elif result.recognized != spec.watermark:
            tally.fail(f"{what}: self-check read {result.recognized}",
                       misreport=result.recognized is not None)
    m = loop.finish()
    m.named["mint_copies_per_s"] = (cell_rate(m.samples), "1/s")
    m.layer["pipeline.self_check_ok_ratio"] = (
        (tally.attempted - tally.failed) / tally.attempted
    )
    return m


# -- recognize -------------------------------------------------------------

@dataclass
class Suspect:
    origin: Tuple[str, str]  # (program, embedding codec)
    kind: str
    module: Any
    key: WatermarkKey
    codec: str
    expect: Optional[int]  # the mark a correct verdict recovers, or None


#: The one suspect each (program, codec) pair adds beyond its unattacked
#: copy, in pair order: every pool holds each attack and each negative
#: control once, and every program meets attacks and controls.
EXTRA_KIND = ("branch-insertion", "unmarked", "sense-inversion",
              "wrong-key", "combined-layout", "wrong-codec")
#: A wrong codec must share no channel with the embedding one: hybrid
#: carries the GCRT statements, so gcrt and hybrid read each other's
#: marks correctly.
WRONG_CODEC = {"gcrt": "rs-8", "rs-8": "gcrt", "hybrid-4": "rs-8"}


def recognize_setup(seed: int) -> List[Suspect]:
    """Build the suspect pool: marked, attacked and negative-control copies.

    Each (program, codec) pair draws two secrets and marks from the
    seed: the first gives the unattacked copy, the second the one extra
    suspect ``EXTRA_KIND`` names, so a slow or unlucky secret sways one
    suspect, not a whole pair. The unattacked copies come first; one
    pass over the pool fits one measuring window.
    """
    rng = random.Random(seed)
    schedules = {s.name: s for s in campaign_attacks(ATTACKS)}
    unattacked: List[Suspect] = []
    others: List[Suspect] = []

    def draw(inputs):
        key = WatermarkKey(rng.getrandbits(64).to_bytes(8, "big"), inputs)
        return key, rng.getrandbits(MARK_BITS)

    for program, (build, inputs) in RECOGNIZE_PROGRAMS.items():
        module = build()
        for codec in CODECS:
            origin = (program, codec)
            kind = EXTRA_KIND[len(unattacked)]
            key, mark = draw(inputs)
            marked = embed(module, mark, key, pieces=PIECES,
                           watermark_bits=MARK_BITS, codec=codec).module
            unattacked.append(
                Suspect(origin, "unattacked", marked, key, codec, mark))
            key, mark = draw(inputs)
            wrong, _ = draw(inputs)
            attack_rng = random.Random(rng.getrandbits(32))
            if kind == "unmarked":
                others.append(Suspect(origin, kind, module, key, codec, None))
                continue
            marked = embed(module, mark, key, pieces=PIECES,
                           watermark_bits=MARK_BITS, codec=codec).module
            if kind in schedules:
                attacked = schedules[kind].apply(marked, 1.0, attack_rng)
                others.append(
                    Suspect(origin, kind, attacked, key, codec, mark))
            elif kind == "wrong-key":
                others.append(
                    Suspect(origin, kind, marked, wrong, codec, None))
            else:
                others.append(Suspect(origin, kind, marked, key,
                                      WRONG_CODEC[codec], None))
    return unattacked + others


def recognize_measure(pool: List[Suspect], seed: int, seconds: float,
                      tracer: Optional[Tracer]) -> Measurement:
    """Judge the pool in order; each suspect is a cell of its own."""
    loop = Loop(tracer)
    attacked = recovered = 0
    for i in range(len(pool) * rounds(seconds, RECOGNIZE_ROUND_S)):
        s = pool[i % len(pool)]
        what = f"recognize {'/'.join(s.origin)} {s.kind}"
        found = loop.attempt((*s.origin, s.kind), what, recognizer.recognize,
                             s.module, s.key, MARK_BITS, codec=s.codec)
        if found is None:
            continue
        value = found.value if found.complete else None
        if s.kind in ATTACKS:
            attacked += 1
            recovered += value == s.expect
        if value is not None and value != s.expect:
            loop.tally.fail(f"{what}: misreported {value:#x}", misreport=True)
        elif value is None and s.kind == "unattacked":
            loop.tally.fail(f"{what}: mark not recovered")
    m = loop.finish()
    m.named["recognize_suspects_per_s"] = (cell_rate(m.samples), "1/s")
    m.named["attacked_recovered_ratio"] = (
        recovered / attacked if attacked else 0.0, "ratio")
    return m


# -- native ----------------------------------------------------------------

def native_setup(seed: int) -> Dict[str, Tuple[Any, List[int]]]:
    """Compile each N32 kernel and record its unmarked output."""
    out = {}
    for name in NATIVE_KERNELS:
        image = spec_native(name)
        out[name] = (image, list(machine.run_image(image, TRAIN_INPUT).output))
    return out


def native_measure(kernels: Dict[str, Tuple[Any, List[int]]], seed: int,
                   seconds: float, tracer: Optional[Tracer]) -> Measurement:
    """Rounds over the kernels: embed, check, extract, unmarked control.

    The cells are (kernel, ``embed``), (kernel, ``extract``) and
    (kernel, ``unmarked``). The unmarked image of each kernel is
    extracted once, with the bracket of the first embed of that kernel
    that succeeds; a failed embed skips that round's extracts, so a
    kernel whose embed always fails has no extract cells.
    """
    rng = random.Random(seed)
    loop = Loop(tracer)
    tally = loop.tally
    controlled = set()
    for i in range(len(NATIVE_KERNELS) * rounds(seconds, NATIVE_ROUND_S)):
        name = NATIVE_KERNELS[i % len(NATIVE_KERNELS)]
        image, baseline = kernels[name]
        mark = rng.getrandbits(NATIVE_BITS)
        what = f"native {name} mark {mark:#x}"
        emb = loop.attempt((name, "embed"), what, native_embedder.embed_native,
                           image, mark, NATIVE_BITS, TRAIN_INPUT,
                           rng_seed=rng.getrandbits(32))
        if emb is None:
            continue
        try:
            output = list(machine.run_image(emb.image, TRAIN_INPUT).output)
        except Exception as exc:  # a marked image that faults is broken
            output = [repr(exc)]
        if output != baseline:
            tally.fail(f"{what}: marked output differs", broken=True)
        got = loop.attempt((name, "extract"), what,
                           native_extractor.extract_native, emb.image,
                           NATIVE_BITS, emb.begin, emb.end, TRAIN_INPUT)
        if got is not None and got.watermark != mark:
            tally.fail(f"{what}: extracted {got.watermark}",
                       misreport=got.watermark is not None)
        if name in controlled:
            continue
        controlled.add(name)
        # Negative control: the vendor's bracket applied to the unmarked
        # image must yield nothing.
        what = f"native {name} unmarked"
        got = loop.attempt((name, "unmarked"), what,
                           native_extractor.extract_native, image,
                           NATIVE_BITS, emb.begin, emb.end, TRAIN_INPUT)
        if got is not None and got.watermark is not None:
            tally.fail(f"{what}: extracted {got.watermark:#x}", misreport=True)
    m = loop.finish()
    m.named["native_embeds_per_s"] = (cell_rate(
        {c: v for c, v in m.samples.items() if c[1] == "embed"}), "1/s")
    m.named["native_extracts_per_s"] = (cell_rate(
        {c: v for c, v in m.samples.items() if c[1] != "embed"}), "1/s")
    return m
