"""Reference renderings the production code must keep matching."""

import enum
from dataclasses import asdict


def asdict_params(config):
    """A SystemConfig through ``dataclasses.asdict``, enums to values.

    The deep-copying rendering every design-point key, journal record and
    query digest was first recorded with; ``config_to_params`` must stay
    equal to it key for key, in order and in type.
    """
    return {
        name: value.value if isinstance(value, enum.Enum) else value
        for name, value in asdict(config).items()
    }


def eager_dstream_addresses(session):
    """A session's multiprogrammed data addresses, interleaved in one shot.

    Each benchmark's address model is expanded whole and the quanta are
    interleaved by :func:`~repro.trace.multiprogram.interleave_chunks`,
    the eager path the streamed ``dstream_address_bundle`` replaced; the
    bundle must stay equal to it element for element.
    """
    from repro.trace.multiprogram import (
        address_space_offset,
        interleave_chunks,
        multiprogram_quanta,
    )
    from repro.workload import DataReferenceModel

    sequences = []
    for bench in session.benchmarks:
        counts = bench.trace.category_counts
        model = DataReferenceModel(bench.spec, seed=session.seed)
        sequences.append(
            model.generate(counts["loads"] + counts["stores"])
            + address_space_offset(bench.index)
        )
    quanta = multiprogram_quanta([len(s) for s in sequences], session.switches)
    return interleave_chunks(sequences, quanta)


def eager_istream_blocks(session, slots, block_words):
    """A session's multiprogrammed instruction stream at ``block_words``
    granularity, expanded and interleaved in one shot.

    Each benchmark's whole trace is expanded and reduced to cache blocks,
    and the quanta are interleaved by :func:`~repro.trace.multiprogram.
    interleave_chunks`, the eager path the streamed ``istream_chunks``
    replaced; the stream must stay equal to it element for element.
    """
    from repro.sched import expand_istream
    from repro.trace.multiprogram import (
        address_space_offset,
        interleave_chunks,
        multiprogram_quanta,
    )
    from repro.utils.units import WORD_BYTES, log2_int

    shift = log2_int(block_words * WORD_BYTES)
    sequences = []
    for bench in session.benchmarks:
        stream = expand_istream(bench.trace, bench.translation(slots))
        blocks = stream.cache_block_sequence(block_words * WORD_BYTES)
        sequences.append(blocks + (address_space_offset(bench.index) >> shift))
    quanta = multiprogram_quanta([len(s) for s in sequences], session.switches)
    return interleave_chunks(sequences, quanta)


def eager_btb_stats(session, entries):
    """BTB outcomes over a session's whole CTI stream, held in one piece.

    Each benchmark's CTIs are extracted from its whole trace, the three
    arrays are interleaved by :func:`~repro.trace.multiprogram.
    interleave_chunks`, and one ``simulate`` call walks them per size:
    the eager path the windowed ``btb_sweep`` replaced.  Returns
    ``{entries: BTBStats}``.
    """
    from repro.branchpred import BranchTargetBuffer, cti_stream
    from repro.trace.multiprogram import (
        address_space_offset,
        interleave_chunks,
        multiprogram_quanta,
    )

    streams = [
        cti_stream(bench.trace).with_offset(address_space_offset(bench.index))
        for bench in session.benchmarks
    ]
    quanta = multiprogram_quanta([len(s) for s in streams], session.switches)
    pcs, taken, targets = (
        interleave_chunks([getattr(s, name) for s in streams], quanta)
        for name in ("pcs", "taken", "targets")
    )
    return {
        n: BranchTargetBuffer(entries=n).simulate(pcs, taken, targets)
        for n in entries
    }
