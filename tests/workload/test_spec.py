"""Benchmark specification and Table 1 data tests."""

import pytest

from repro.errors import WorkloadError
from repro.workload.spec import BenchmarkSpec, Category, MemoryShape, SynthesisShape
from repro.workload.table1 import TABLE1_SUITE, benchmark_by_name


def make_spec(**overrides):
    defaults = dict(
        name="test",
        description="test benchmark",
        category=Category.INTEGER,
        instructions_millions=100.0,
        load_pct=20.0,
        store_pct=10.0,
        branch_pct=15.0,
        syscalls=10,
    )
    defaults.update(overrides)
    return BenchmarkSpec(**defaults)


class TestBenchmarkSpec:
    def test_derived_properties(self):
        spec = make_spec()
        assert spec.weight == pytest.approx(100.0)

    def test_rejects_nonpositive_instructions(self):
        with pytest.raises(WorkloadError):
            make_spec(instructions_millions=0)

    def test_rejects_out_of_range_percentage(self):
        with pytest.raises(WorkloadError):
            make_spec(load_pct=120.0)

    def test_rejects_mix_without_alu_room(self):
        with pytest.raises(WorkloadError):
            make_spec(load_pct=60.0, store_pct=30.0, branch_pct=10.0)

    def test_rejects_bad_use_distance(self):
        with pytest.raises(WorkloadError):
            make_spec(memory=MemoryShape(use_distance=(0.5, 0.5, 0.5, 0.5)))

    def test_rejects_cti_fractions_over_one(self):
        with pytest.raises(WorkloadError):
            make_spec(shape=SynthesisShape(cond_frac=0.95, indirect_frac=0.10))


class TestTable1:
    def test_sixteen_benchmarks(self):
        assert len(TABLE1_SUITE) == 16

    def test_names_unique(self):
        names = [s.name for s in TABLE1_SUITE]
        assert len(set(names)) == 16

    def test_lookup(self):
        assert benchmark_by_name("gcc").load_pct == 23.3
        assert benchmark_by_name("linpack").instructions_millions == 4.0

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            benchmark_by_name("doom")

    def test_published_totals(self):
        # Table 1's Total row: 24.7 % loads, 8.7 % stores, 13 % branches,
        # 69915 syscalls.  Note: the paper prints 2414.9 M total
        # instructions, but its own rows sum to 2556.4 M; we keep the rows
        # (the percentages below only reconcile with the row sum).  The
        # percentages are weighted by instruction count, as the paper's are.
        weights = [s.instructions_millions for s in TABLE1_SUITE]
        total = sum(weights)

        def weighted_pct(column):
            return sum(w * getattr(s, column) for w, s in zip(weights, TABLE1_SUITE)) / total

        assert total == pytest.approx(2556.4, abs=1.0)
        assert weighted_pct("load_pct") == pytest.approx(24.7, abs=0.5)
        assert weighted_pct("store_pct") == pytest.approx(8.7, abs=0.5)
        assert weighted_pct("branch_pct") == pytest.approx(13.0, abs=1.0)
        assert sum(s.syscalls for s in TABLE1_SUITE) == 69915

    def test_categories_match_paper(self):
        assert benchmark_by_name("gcc").category is Category.INTEGER
        assert benchmark_by_name("matrix500").category is Category.SINGLE_FLOAT
        assert benchmark_by_name("linpack").category is Category.DOUBLE_FLOAT
        assert benchmark_by_name("small").category is Category.MIXED

    def test_fp_codes_are_stream_heavy(self):
        fp = [s for s in TABLE1_SUITE if s.category in (Category.SINGLE_FLOAT, Category.DOUBLE_FLOAT)]
        integer = [s for s in TABLE1_SUITE if s.category is Category.INTEGER]
        assert min(s.memory.stream_frac for s in fp) > max(
            s.memory.stream_frac for s in integer
        )
