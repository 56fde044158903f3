"""Execution profiling for N32 binaries.

Models PLTO's instrumentation mode: "instrumented to obtain execution
profiles. The programs were profiled using the SPEC training inputs
and these profiles were used to identify any hot spots during our
transformations" (Section 5.2).

A :class:`Profile` records, per instruction address:

* the execution count (hot/cold classification for the embedder and
  the tamper-proofing candidate filter);
* the first-execution sequence number (so tamper-proofing can require
  a candidate branch to first execute *after* the watermark region,
  i.e. after the lockdown cells have been initialized).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .image import BinaryImage
from .machine import Machine


@dataclass
class Profile:
    counts: Dict[int, int] = field(default_factory=dict)
    first_seen: Dict[int, int] = field(default_factory=dict)
    total_steps: int = 0
    output: List[int] = field(default_factory=list)

    def count(self, addr: int) -> int:
        return self.counts.get(addr, 0)

    def executed(self, addr: int) -> bool:
        return addr in self.counts

    def first_execution(self, addr: int) -> Optional[int]:
        return self.first_seen.get(addr)

    def hotness_threshold(self, fraction: float = 0.9) -> int:
        """Count level below which an address is considered cold.

        Addresses are ranked by count; the threshold is the count at
        the given quantile (default: anything below the top decile's
        level is cold).
        """
        if not self.counts:
            return 0
        ranked = sorted(self.counts.values())
        idx = min(len(ranked) - 1, int(len(ranked) * fraction))
        return ranked[idx]


def profile_image(
    image: BinaryImage,
    inputs: Sequence[int] = (),
    max_steps: Optional[int] = None,
) -> Profile:
    """Run the binary on training inputs, collecting the profile."""
    machine = Machine(image) if max_steps is None else Machine(image, max_steps)
    result = machine.run(inputs, count=True)
    return Profile(result.counts, result.first_seen, result.steps,
                   result.output)
