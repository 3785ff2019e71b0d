"""SessionRegistry and MeasurementSpec tests."""

import multiprocessing

import pytest

from repro.core import SuiteMeasurement
from repro.engine.executor import SweepExecutor
from repro.engine.session import SessionRegistry
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.workload import benchmark_by_name


def _small(**kwargs):
    return SuiteMeasurement(
        specs=[benchmark_by_name("small")],
        total_instructions=30_000,
        min_benchmark_instructions=30_000,
        **kwargs,
    )


def _pool_up(session):
    """Fork the session's pool; returns its workers' pids."""
    assert session.executor.map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    return {process.pid for process in session.executor._pool._processes.values()}


def _alive(pids):
    return pids & {child.pid for child in multiprocessing.active_children()}


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
        registry.get("quick", jobs=1)
        assert session.executor.is_serial

    @pytest.mark.parametrize("via", ["attach_cube_jobs", "registry"])
    def test_resizing_reaps_the_old_pool(self, via):
        # A new width retires the old pool and waits for its workers, so
        # no new pool forks beside the old one's exiting workers.
        session = _small(executor=SweepExecutor(jobs=2))
        registry = SessionRegistry()
        registry.set("quick", session)
        workers = _pool_up(session)
        assert len(workers) == 2
        if via == "registry":
            assert registry.get("quick", jobs=3) is session
        else:
            session.attach_cube_jobs(3)
        assert not _alive(workers)
        assert session.executor.jobs == 3
        session.executor.retire_pool(wait=True)

    def test_registries_are_isolated(self, measurement):
        a, b = SessionRegistry(), SessionRegistry()
        a.set("quick", measurement)
        assert "quick" not in b

    def test_swapping_sessions_reaps_their_pools(self):
        # Replacing a session reaps its pool's workers.
        registry = SessionRegistry()
        sessions = [_small(executor=SweepExecutor(jobs=2)) for _ in range(2)]
        registry.set("quick", sessions[0])
        workers = _pool_up(sessions[0])
        registry.set("quick", sessions[1])
        assert not _alive(workers)
        assert registry.get("quick") is sessions[1]


class TestMeasurementSpec:
    def _measurement(self, **kwargs):
        return _small(**kwargs)

    def test_digest_stable_and_content_sensitive(self):
        a = self._measurement().spec()
        b = self._measurement().spec()
        c = self._measurement(seed=99).spec()
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_cache_dir_is_not_part_of_the_identity(self, tmp_path):
        # Where a session is cached is not part of what it is, nor is
        # the width of its pool.
        a, b = (
            self._measurement(store=ArtifactStore(cache_dir=tmp_path / name)).spec()
            for name in "ab"
        )
        wide = self._measurement(executor=SweepExecutor(jobs=2)).spec()
        assert a == b == wide
        assert a.digest() == b.digest() == wide.digest()

    def test_spec_is_picklable(self):
        import pickle

        spec = self._measurement().spec()
        assert pickle.loads(pickle.dumps(spec)).digest() == spec.digest()
