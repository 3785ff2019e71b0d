"""Miss-cube scale benchmark tests: per-row peaks, ledger, CLI."""

import io

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.bench_cube import main, run_scale_benchmark
from repro.workload import benchmark_by_name
from tests.obs.schema import load_ledger


class TestScaleRows:
    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            run_scale_benchmark([20_000], repeats=0)

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
        load_ledger(ledger.write(tmp_path / "bench.json"))


class TestCli:
    def test_rejects_bad_repeats(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scales", "400000", "--repeats", "0"])
        assert "--repeats" in capsys.readouterr().err

    def test_scales_are_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "--scales" in capsys.readouterr().err
