"""Miss-cube benchmark CLI tests: grid shape, ledger, equivalence."""

import io

import numpy as np
import pytest

from repro.engine.session import SessionRegistry
from repro.errors import ConfigurationError
from repro.experiments.bench_cube import (
    grid_cases,
    main,
    run_benchmark,
    run_scale_benchmark,
)
from repro.experiments.ext_associativity import ASSOCIATIVITIES, CAPACITIES_KW
from repro.experiments.ext_blocksize import BLOCK_SIZES
from repro.obs.ledger import validate_metrics
from repro.workload import benchmark_by_name


@pytest.fixture
def registry(measurement):
    registry = SessionRegistry()
    registry.set("quick", measurement)
    return registry


class TestGridCases:
    def test_covers_the_block_size_study_surface(self, measurement):
        ((label, addresses, blocks, capacities_kw, ways),) = grid_cases(
            measurement
        )
        assert label == "dstream"
        assert len(addresses) > 0
        assert blocks == tuple(BLOCK_SIZES)
        assert capacities_kw == tuple(CAPACITIES_KW)
        assert ways == tuple(ASSOCIATIVITIES)


class TestRunBenchmark:
    def test_ledger_is_valid_and_records_speedups(self, registry, tmp_path):
        ledger = run_benchmark(
            scale="quick", repeats=1, registry=registry, stream=io.StringIO()
        )
        names = [entry["name"] for entry in ledger.experiments]
        assert any(name.startswith("legacy:") for name in names)
        assert any(name.startswith("plane:") for name in names)
        assert any(name.startswith("cube:") for name in names)
        assert ledger.run_info["speedup"] > 0
        assert ledger.run_info["plane_speedup"] > 0
        assert ledger.run_info["benchmark"] == "miss-cube"
        path = ledger.write(tmp_path / "bench.json")
        validate_metrics(ledger.load(path))

    def test_rejects_bad_repeats(self, registry):
        with pytest.raises(ConfigurationError, match="repeats"):
            run_benchmark(scale="quick", repeats=0, registry=registry)


class TestScaleRows:
    def test_each_row_reports_its_own_peak(self, tmp_path):
        # ~300 MB resident in this process: a row measured here, or in a
        # child charged with its parent's peak, would report at least that.
        ballast = np.ones(300 * 2**20 // 8)
        ledger = run_scale_benchmark(
            [20_000],
            cache_dir=tmp_path,
            stream=io.StringIO(),
            specs=[benchmark_by_name("linpack"), benchmark_by_name("integral")],
        )
        assert ballast[-1] == 1.0
        (row,) = ledger.run_info["scales"]
        assert row["peak_rss_mb"] < 150
        # The fixed front end and the per-scale stream are timed apart.
        assert row["front_end_s"] > 0
        assert row["stream_s"] > 0
        assert "synth_wall_s" not in row
        assert row["bit_identical_to_serial"] is True


class TestCli:
    def test_rejects_bad_repeats(self, capsys):
        with pytest.raises(SystemExit):
            main(["--repeats", "0"])
        assert "--repeats" in capsys.readouterr().err
