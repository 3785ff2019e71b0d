"""RunLedger tests: schema, metrics.json round-trip, ASCII summary."""

import json

import pytest

from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.obs import LEDGER_SCHEMA, RunLedger, Tracer
from repro.obs.ledger import host_facts, peak_rss_mb
from tests.obs.schema import load_ledger, validate_metrics


def _populated_ledger():
    tracer = Tracer()
    with tracer.span("fig12") as span:
        span.count("design_points", 24)
    ledger = RunLedger(tracer)
    ledger.set_run_info(scale="quick", seed=20513, total_instructions=400_000)
    ledger.set_executor_info(backend="process", jobs=4, start_method=None)
    ledger.record_experiment("fig12", 12.5)
    store = ArtifactStore()
    store.get_or_create("thing", 1, lambda: 1, n=1)
    store.get_or_create("thing", 1, lambda: 1, n=1)
    ledger.snapshot_store(store.stats())
    return ledger


class TestRoundTrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        ledger = _populated_ledger()
        path = tmp_path / "metrics.json"
        ledger.write(path)
        payload = load_ledger(path)
        assert payload == ledger.to_dict()
        assert payload["schema"] == LEDGER_SCHEMA
        assert payload["run"]["scale"] == "quick"
        assert payload["run"]["seed"] == 20513
        assert payload["executor"] == {
            "backend": "process",
            "jobs": 4,
            "start_method": None,
        }
        assert payload["experiments"] == [{"name": "fig12", "wall_s": 12.5}]
        assert payload["store"]["memory_hits"] == 1
        assert payload["store"]["misses"] == 1
        assert payload["store"]["hit_rate"] == 0.5
        assert payload["spans"][0]["name"] == "fig12"
        assert payload["spans"][0]["counters"] == {"design_points": 24}

    def test_written_json_is_strict(self, tmp_path):
        path = _populated_ledger().write(tmp_path / "metrics.json")
        # Strict parse: reject any NaN/Infinity constant in the file.
        def _reject(token):
            raise AssertionError(f"non-strict JSON constant {token!r}")

        json.loads(path.read_text(), parse_constant=_reject)

    def test_total_wall_defaults_to_experiment_sum(self):
        ledger = RunLedger()
        ledger.record_experiment("a", 1.0)
        ledger.record_experiment("b", 2.5)
        assert ledger.to_dict()["run"]["wall_s"] == pytest.approx(3.5)


class TestValidation:
    def test_valid_payload_passes(self):
        validate_metrics(_populated_ledger().to_dict())

    def test_missing_key_rejected(self):
        payload = _populated_ledger().to_dict()
        del payload["store"]
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)

    def test_wrong_schema_rejected(self):
        payload = _populated_ledger().to_dict()
        payload["schema"] = "something/else/v9"
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)

    def test_malformed_span_rejected(self):
        payload = _populated_ledger().to_dict()
        payload["spans"] = [{"name": "no-wall"}]
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)

    def test_non_finite_float_rejected(self):
        payload = _populated_ledger().to_dict()
        payload["run"]["wall_s"] = float("nan")
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)

    def test_write_refuses_non_finite(self, tmp_path):
        ledger = _populated_ledger()
        ledger.set_run_info(bad=float("inf"))
        with pytest.raises(ValueError):
            ledger.write(tmp_path / "metrics.json")


class TestSummary:
    def test_summary_mentions_all_sections(self):
        text = _populated_ledger().render_summary()
        assert "run" in text
        assert "experiments" in text
        assert "fig12" in text
        assert "artifact store" in text
        assert "hit_rate" in text
        assert "spans" in text

    def test_empty_ledger_renders(self):
        assert RunLedger().render_summary() == ""


class TestPhysicalSection:
    def _ledger(self):
        ledger = RunLedger()
        ledger.record_experiment("optimize", 1.0)
        ledger.set_physical_info(
            objective="frontier",
            leakage_scale=4.0,
            grid_points=24,
            eligible_points=20,
            frontier_points=5,
        )
        return ledger

    def test_optional_section_round_trips(self, tmp_path):
        ledger = self._ledger()
        payload = load_ledger(ledger.write(tmp_path / "metrics.json"))
        assert payload["physical"]["objective"] == "frontier"
        assert payload["physical"]["frontier_points"] == 5
        validate_metrics(payload)

    def test_absent_without_physical_info(self):
        ledger = RunLedger()
        ledger.record_experiment("fig12", 1.0)
        assert "physical" not in ledger.to_dict()

    def test_summary_renders_the_section(self):
        text = self._ledger().render_summary()
        assert "physical (energy / area)" in text
        assert "leakage_scale" in text
        assert "frontier_points" in text


class TestHostSection:
    def test_every_ledger_records_its_host(self, tmp_path):
        payload = load_ledger(_populated_ledger().write(tmp_path / "m.json"))
        host = payload["host"]
        assert set(host) == {
            "usable_cores",
            "ram_gb",
            "python",
            "numpy",
            "repro_kernel",
        }
        assert host["usable_cores"] >= 1
        assert host["ram_gb"] > 0
        assert host["repro_kernel"] == "numpy"
        assert host == host_facts()

    def test_usable_cores_follow_the_affinity_mask(self):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert host_facts()["usable_cores"] == len(os.sched_getaffinity(0))

    def test_ledger_without_host_still_validates(self):
        # Ledgers written before the section existed (the committed
        # BENCH_*.json files) carry none.
        payload = _populated_ledger().to_dict()
        del payload["host"]
        validate_metrics(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("usable_cores", 0),
            ("usable_cores", "2"),
            ("usable_cores", True),
            ("ram_gb", None),
            ("numpy", 2),
            ("repro_kernel", None),
        ],
    )
    def test_malformed_host_rejected(self, key, value):
        payload = _populated_ledger().to_dict()
        payload["host"][key] = value
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)

    def test_missing_host_key_rejected(self):
        payload = _populated_ledger().to_dict()
        del payload["host"]["python"]
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)

    def test_summary_lists_the_host(self):
        text = _populated_ledger().render_summary()
        assert "host.usable_cores" in text
        assert "host.numpy" in text


class TestPeakRss:
    def test_a_reaped_worker_is_counted(self):
        import subprocess
        import sys

        subprocess.run([sys.executable, "-c", "pass"], check=True)
        peaks = peak_rss_mb()
        assert peaks["worker_peak_rss_mb"] > 0
        assert peaks["peak_rss_mb"] > 0

    def test_ledger_without_peaks_still_validates(self):
        # Ledgers written before the figures existed carry none.
        payload = _populated_ledger().to_dict()
        assert "peak_rss_mb" not in payload["run"]
        validate_metrics(payload)

    @pytest.mark.parametrize("key", ["peak_rss_mb", "worker_peak_rss_mb"])
    @pytest.mark.parametrize("value", [-1.0, "12", None, True])
    def test_malformed_peak_rejected(self, key, value):
        ledger = _populated_ledger()
        ledger.set_run_info(**peak_rss_mb())
        payload = ledger.to_dict()
        payload["run"][key] = value
        with pytest.raises(ConfigurationError):
            validate_metrics(payload)
