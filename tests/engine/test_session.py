"""SessionRegistry and MeasurementSpec tests."""

import numpy as np
import pytest

from repro.core import SuiteMeasurement
from repro.engine.executor import SweepExecutor
from repro.engine.session import MeasurementSpec, SessionRegistry
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.workload import benchmark_by_name


class TestSessionRegistry:
    def test_unknown_scale_rejected(self):
        registry = SessionRegistry()
        with pytest.raises(ConfigurationError):
            registry.resolve_scale("galactic")

    def test_scale_defaults_to_env(self, monkeypatch):
        registry = SessionRegistry()
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert registry.resolve_scale() == "full"
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert registry.resolve_scale() == "quick"

    def test_injected_session_is_returned_memoized(self, measurement):
        registry = SessionRegistry()
        registry.set("quick", measurement)
        assert registry.get("quick") is measurement
        assert registry.get("quick") is registry.get("quick")
        assert "quick" in registry
        assert len(registry) == 1

    def test_jobs_flag_swaps_executor(self, measurement):
        registry = SessionRegistry()
        registry.set("quick", measurement)
        session = registry.get("quick", jobs=3)
        assert session is measurement
        assert session.executor.jobs == 3
        assert session.executor.is_parallel
        session.executor.shutdown()
        registry.get("quick", jobs=1)
        assert session.executor.is_serial

    def test_discard_and_clear(self, measurement):
        registry = SessionRegistry()
        registry.set("quick", measurement)
        registry.discard("quick")
        assert "quick" not in registry
        registry.set("quick", measurement)
        registry.clear()
        assert len(registry) == 0

    def test_registries_are_isolated(self, measurement):
        a, b = SessionRegistry(), SessionRegistry()
        a.set("quick", measurement)
        assert "quick" not in b

    def test_swapping_sessions_retires_primed_fork_state(self, measurement):
        # Regression: replacing or discarding a session left its primed
        # copy in the executor's fork-inheritance table forever.
        from repro.engine import executor as executor_module

        digest = measurement.spec().digest()
        saved = dict(executor_module._FORK_INHERITED)
        executor_module._FORK_INHERITED.clear()
        try:
            registry = SessionRegistry()
            registry.set("quick", measurement)
            executor_module._FORK_INHERITED[digest] = measurement
            registry.discard("quick")
            assert digest not in executor_module._FORK_INHERITED

            registry.set("quick", measurement)
            executor_module._FORK_INHERITED[digest] = measurement
            registry.set("quick", object())  # replaced by a stand-in
            assert digest not in executor_module._FORK_INHERITED

            registry.set("full", measurement)
            executor_module._FORK_INHERITED[digest] = measurement
            registry.clear()
            assert executor_module._FORK_INHERITED == {}
        finally:
            executor_module._FORK_INHERITED.clear()
            executor_module._FORK_INHERITED.update(saved)


class TestMeasurementSpec:
    def _measurement(self, **kwargs):
        return SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=30_000,
            min_benchmark_instructions=30_000,
            **kwargs,
        )

    def test_digest_stable_and_content_sensitive(self):
        a = self._measurement().spec()
        b = self._measurement().spec()
        c = self._measurement(seed=99).spec()
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_build_round_trips(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        original = self._measurement()
        trace = original.benchmarks[0].trace
        rebuilt = original.spec().build()
        assert rebuilt.executor.is_serial  # workers never nest pools
        assert np.array_equal(rebuilt.benchmarks[0].trace.block_ids, trace.block_ids)

    def test_cache_dir_rides_along_outside_the_digest(self, tmp_path):
        # Where a session is cached is not part of what it is.
        a, b = (
            self._measurement(store=ArtifactStore(cache_dir=tmp_path / name)).spec()
            for name in "ab"
        )
        assert (a.cache_dir, b.cache_dir) == (tmp_path / "a", tmp_path / "b")
        assert a.digest() == b.digest()
        assert a.build().store.disk_dir == tmp_path / "a"

    def test_spec_is_picklable(self):
        import pickle

        spec = self._measurement().spec()
        assert pickle.loads(pickle.dumps(spec)).digest() == spec.digest()
