"""Extension — an explicit L2, testing the constant-penalty assumption.

The paper models the backing store as "a constant time L1 miss penalty";
its Figure 1 shows the real machine has a 1-16 MB L2 in front of slow
main memory.  This extension simulates that L2 explicitly: the L1 miss
stream (exact, from the per-reference miss mask) is replayed through a
direct-mapped L2 with larger blocks, and the *effective* average L1 miss
penalty is computed as

    p_eff = p_L2_hit + m_L2 * p_memory.

If the L2 is big enough that ``m_L2`` is small and stable across L1
sizes, the paper's constant-penalty simplification is sound; the table
shows where it starts to bend.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.fastsim import (
    addresses_to_blocks,
    direct_mapped_miss_mask,
    direct_mapped_misses,
)
from repro.core import SuiteMeasurement
from repro.experiments.common import (
    DEFAULT_BLOCK_WORDS,
    ExperimentResult,
    get_measurement,
)
from repro.utils.tables import render_table
from repro.utils.units import kw_to_words

__all__ = ["run", "L2_SIZES_KW", "L2_HIT_CYCLES", "MEMORY_CYCLES"]

L2_SIZES_KW = (64, 256, 1024)
L2_BLOCK_WORDS = 16
#: L1 refill from an L2 hit (the paper's p = 10 regime).
L2_HIT_CYCLES = 10
#: L2 refill from DRAM main memory.
MEMORY_CYCLES = 60


def run(measurement: Optional[SuiteMeasurement] = None) -> ExperimentResult:
    measurement = measurement or get_measurement()
    rows = []
    data = {}
    blocks = addresses_to_blocks(
        measurement.dstream_address_bundle(), DEFAULT_BLOCK_WORDS
    )
    for l1_kw in (1, 8, 32):
        l1_sets = kw_to_words(l1_kw) // DEFAULT_BLOCK_WORDS
        miss_mask = direct_mapped_miss_mask(blocks, l1_sets)
        l1_miss_blocks = blocks[miss_mask]
        # Re-express the L1 miss stream at L2 block granularity.
        ratio = L2_BLOCK_WORDS // DEFAULT_BLOCK_WORDS
        l2_stream = l1_miss_blocks // ratio
        for l2_kw in L2_SIZES_KW:
            l2_sets = kw_to_words(l2_kw) // L2_BLOCK_WORDS
            l2_misses = direct_mapped_misses(l2_stream, l2_sets)
            l2_miss_rate = l2_misses / max(1, len(l2_stream))
            effective_penalty = L2_HIT_CYCLES + l2_miss_rate * MEMORY_CYCLES
            rows.append(
                [
                    l1_kw,
                    l2_kw,
                    len(l2_stream),
                    round(l2_miss_rate, 3),
                    round(effective_penalty, 2),
                ]
            )
            data[(l1_kw, l2_kw)] = {
                "l1_misses": int(len(l2_stream)),
                "l2_miss_rate": l2_miss_rate,
                "effective_penalty": effective_penalty,
            }
    text = render_table(
        [
            "L1-D (KW)",
            "L2 (KW)",
            "L1 misses",
            "L2 miss rate",
            "effective p (cycles)",
        ],
        rows,
        title=(
            "Extension: explicit L2 behind the L1-D "
            f"(L2 hit {L2_HIT_CYCLES} cycles, memory {MEMORY_CYCLES} cycles)"
        ),
    )
    return ExperimentResult(
        experiment_id="ext_l2",
        title="How constant is the 'constant' L1 miss penalty?",
        text=text,
        data=data,
        paper_notes=(
            "The paper assumes a constant L1 miss penalty; a megaword L2 "
            "makes that nearly true, while a small L2 inflates the "
            "effective penalty for small L1s (whose miss streams retain "
            "more locality for the L2 to lose)."
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    print(run())
