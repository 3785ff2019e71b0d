"""Golden digests of the front end: synthesized programs and their lowering.

Every cached trace and compiled-program bundle is keyed on
``GENERATOR_VERSION`` and ``LOWERING_VERSION``, not on the code that
produced it, so the front end must keep producing the very same programs
and arrays until one of those versions is bumped.  Each digest covers a
whole program (blocks in layout order with their edges, bias, backward
flag, indirect targets and every instruction field) and every array of
its :meth:`~repro.trace.compiled.CompiledProgram.as_arrays` bundle.
"""

import hashlib

import numpy as np
import pytest

from repro.trace.compiled import CompiledProgram
from repro.utils.rng import DEFAULT_SEED
from repro.workload import TABLE1_SUITE, benchmark_by_name, synthesize_program

#: Second seed, on two small benchmarks, so a change that happens to keep
#: the default seed's programs cannot go unnoticed, and on matrix500, the
#: only program whose block lengths take numpy's PTRS Poisson branch.
OTHER_SEED = 7

GOLDEN = {
    (DEFAULT_SEED, "sdiff"): "0e1ac80fd6f070c26fa201ce27583a773ace6c0f35b477240dc9f2cb623df00b",
    (DEFAULT_SEED, "awk"): "30afd6ec0f24d946c42cdece9a956ee2613cc5a6e6a6b7b242aa5e6ec3494fa9",
    (DEFAULT_SEED, "dodged"): "95def40db73bc102a45aa565b7c2b5f67e233bc4f6e34473b3daf1268322112c",
    (DEFAULT_SEED, "espresso"): "80ae908b12d9ab901e8e13b4a94f5e8dc1a5d8537a8a0b6d5b070ac915b8e952",
    (DEFAULT_SEED, "gcc"): "7507ce6024ec5ef29271596a3622f13db4e598add12cdb9ec7cf772bc82d219b",
    (DEFAULT_SEED, "integral"): "c591fe5478b82c423a79eb3c63b7f2d6da19ebe8d65cfe0e248e92e78e6ab864",
    (DEFAULT_SEED, "linpack"): "0290cf323efa41c66f3f9cbc9052e3fa2b1885ee5c9833510baa98fd988a5a29",
    (DEFAULT_SEED, "loops"): "6aa7d7357a92957b58809cada94f8f8e355f588f4c5dff4e9dc0c7c19800ebec",
    (DEFAULT_SEED, "matrix500"): "7b82bf653b4b44fd4b29d6a83e3daa119d57681fe854a79190face336f4e826c",
    (DEFAULT_SEED, "nroff"): "f8bd40f156cfea94c1b94d86616a14623f2a6a624ebf8bad5ad2f71a823e5ea6",
    (DEFAULT_SEED, "small"): "3904bc2fd48cd6631d830cd9e5e4f84cc441478b2f579e13a49eee9a7236fe17",
    (DEFAULT_SEED, "spice2g6"): "d97aa72d4ab80e7dbf84d70cd909e6f29b034cb345f96506094a59451b8c9a65",
    (DEFAULT_SEED, "tex"): "e2067542dd858efeb44d436237d44f842db3f3659fddd870eb6c665e040417e7",
    (DEFAULT_SEED, "wolf33"): "bd691283d4cbb1cf37422d98bc8ccab0f620de8abbafbf7a207b29a25ab41f40",
    (DEFAULT_SEED, "xwim"): "52e61db5a6bd0af3592f531617d18ceab93a5ab90e8f50dda87964ae263352ca",
    (DEFAULT_SEED, "yacc"): "617d23e092d8900db96b4716afe88e021bfffded4333b88af4427c55e5a8a5f6",
    (OTHER_SEED, "linpack"): "bfa7b5705e1e2d92e39b6e71058d0bb4951f3ca0f982ee1ddc5e1d1cc1ff1635",
    (OTHER_SEED, "integral"): "b6f1ec2a1e8aae7b9d81a5e19ed77eed77cde0b90768fc2ffa5d6543f3104428",
    (OTHER_SEED, "matrix500"): "f0747cbb814a8042daab2d11c154a2a9d86f280b5428d1d44b792ab740315a9b",
}


def _register(register):
    return None if register is None else register.number


def front_end_digest(program) -> str:
    """sha256 over a program and its lowered bundle."""
    digest = hashlib.sha256()
    for procedure in program.procedures:
        digest.update(f"P{procedure.name};".encode())
        for block in procedure.blocks:
            digest.update(
                repr(
                    (
                        block.name,
                        block.taken_target,
                        block.fallthrough,
                        float(block.taken_bias).hex(),
                        block.backward,
                        tuple(block.indirect_targets),
                    )
                ).encode()
            )
            for inst in block.instructions:
                digest.update(
                    repr(
                        (
                            inst.opcode.value,
                            _register(inst.dest),
                            tuple(r.number for r in inst.sources),
                            inst.imm,
                            _register(inst.base),
                            inst.offset,
                            inst.target,
                        )
                    ).encode()
                )
    arrays = CompiledProgram(program).as_arrays()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"A{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_golden_covers_table1():
    assert {name for seed, name in GOLDEN if seed == DEFAULT_SEED} == {
        spec.name for spec in TABLE1_SUITE
    }


@pytest.mark.parametrize(
    "seed,name", sorted(GOLDEN), ids=[f"{name}@{seed}" for seed, name in sorted(GOLDEN)]
)
def test_front_end_is_unchanged(seed, name):
    program = synthesize_program(benchmark_by_name(name), seed=seed)
    assert front_end_digest(program) == GOLDEN[(seed, name)], (
        f"the synthesized program or lowered arrays of {name} at seed {seed} "
        "changed: persisted bundles and traces are keyed on the versions, "
        "so bump GENERATOR_VERSION (repro.core.measurement) for a program "
        "change or LOWERING_VERSION (repro.trace.compiled) for a lowering "
        "change, then re-record these digests"
    )
