"""Evaluation harness for the native attacks (the §5.2.2 table).

For each attack the table reports two outcomes:

* **program_ok** — the attacked binary still produces the original
  output on the key input and probe inputs (no fault, same prints);
* **extracted** — per-tracer: whether the watermark is still
  extractable (meaningful mainly for attack 5, where the program
  keeps working).

The paper's expected row values: attacks 1–4 break the program;
attack 5 preserves it but defeats only the simple tracer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...native.image import BinaryImage
from ...native.machine import MachineFault, run_image
from ...native_wm.embedder import NativeEmbedding
from ...native_wm.extractor import extract_native
from .transforms import (
    bypass_branch_function,
    double_watermark,
    insert_noops,
    invert_branch_senses,
    reroute_branch_function,
)


@dataclass
class NativeAttackOutcome:
    name: str
    program_ok: bool
    extracted_simple: bool
    extracted_smart: bool

    @property
    def breaks_program(self) -> bool:
        return not self.program_ok


def _outputs(
    image: BinaryImage,
    input_sets: Sequence[Sequence[int]],
    max_steps: int,
) -> List[Optional[List[int]]]:
    """The image's output on each input set; None where it faults."""
    outputs: List[Optional[List[int]]] = []
    for inputs in input_sets:
        try:
            outputs.append(run_image(image, inputs, max_steps).output)
        except MachineFault:
            outputs.append(None)
    return outputs


def _program_ok(
    expected: Sequence[Optional[List[int]]],
    attacked: BinaryImage,
    input_sets: Sequence[Sequence[int]],
    max_steps: int,
) -> bool:
    """Attacked output equals the original's on every input set.

    ``expected`` holds the original's outputs (see :func:`_outputs`); a
    set on which the original faults counts as broken.
    """
    for want, inputs in zip(expected, input_sets):
        if want is None:
            return False
        try:
            got = run_image(attacked, inputs, max_steps).output
        except MachineFault:
            return False
        if want != got:
            return False
    return True


def _extracts(
    embedding: NativeEmbedding,
    attacked: BinaryImage,
    inputs: Sequence[int],
    tracer: str,
    max_steps: int,
) -> bool:
    try:
        # The recognizer knows its own branch function's address (like
        # begin/end, "supplied manually" in the paper); attacks that
        # relocate it are exactly the ones meant to break extraction.
        result = extract_native(
            attacked, embedding.width, embedding.begin, embedding.end,
            inputs, tracer=tracer, bf_entry=embedding.bf_entry,
            max_steps=max_steps,
        )
    except MachineFault:
        return False
    return result.watermark == embedding.watermark


def evaluate_native_attack(
    name: str,
    embedding: NativeEmbedding,
    attacked: BinaryImage,
    input_sets: Sequence[Sequence[int]],
    expected: Sequence[Optional[List[int]]],
    max_steps: int = 20_000_000,
) -> NativeAttackOutcome:
    """Judge one attacked image.

    ``input_sets`` is the key input then each probe; ``expected`` holds
    the original's outputs on them (see :func:`_outputs`). The mark is
    extracted on the key input.
    """
    ok = _program_ok(expected, attacked, input_sets, max_steps)
    key = input_sets[0]
    return NativeAttackOutcome(
        name=name,
        program_ok=ok,
        extracted_simple=_extracts(embedding, attacked, key, "simple",
                                   max_steps),
        extracted_smart=_extracts(embedding, attacked, key, "smart",
                                  max_steps),
    )


def native_attack_images(
    embedding: NativeEmbedding,
    inputs: Sequence[int],
    second_watermark: int = 0x5A5A,
    rng_seed: int = 2004,
) -> Dict[str, BinaryImage]:
    """The five attacked images of Section 5.2.2, by attack name."""
    image = embedding.image
    rng = random.Random(rng_seed)
    attacked: Dict[str, BinaryImage] = {}
    attacked["1-noop-insertion"] = insert_noops(image, 1, rng, at_start=True)
    attacked["2-branch-sense-inversion"] = invert_branch_senses(image, 1.0, rng)
    attacked["3-double-watermarking"] = double_watermark(
        image, second_watermark, 16, inputs
    )
    attacked["4-bypass-branch-function"] = bypass_branch_function(
        image, embedding.bf_entry, inputs
    )
    attacked["5-reroute-branch-function"] = reroute_branch_function(
        image, embedding.bf_entry, inputs
    )
    return attacked


def run_native_attack_suite(
    embedding: NativeEmbedding,
    inputs: Sequence[int],
    probe_inputs: Sequence[Sequence[int]] = (),
    second_watermark: int = 0x5A5A,
    rng_seed: int = 2004,
    max_steps: int = 20_000_000,
) -> List[NativeAttackOutcome]:
    """The five-attack battery of Section 5.2.2."""
    attacked = native_attack_images(
        embedding, inputs, second_watermark, rng_seed
    )
    input_sets = [list(inputs)] + [list(p) for p in probe_inputs]
    # The original is run once per input set, not once per attack.
    expected = _outputs(embedding.image, input_sets, max_steps)
    return [
        evaluate_native_attack(
            name, embedding, img, input_sets, expected, max_steps
        )
        for name, img in sorted(attacked.items())
    ]
