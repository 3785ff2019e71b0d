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
