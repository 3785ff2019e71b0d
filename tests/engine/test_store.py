"""ArtifactStore tests: keys, tiers, counters, invalidation."""

import numpy as np
import pytest

from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import ConfigurationError


class TestArtifactKey:
    def test_param_order_independent(self):
        a = ArtifactKey.make("trace", 1, bench="gcc", budget=100)
        b = ArtifactKey.make("trace", 1, budget=100, bench="gcc")
        assert a == b
        assert a.digest == b.digest

    def test_kind_version_and_params_distinguish(self):
        base = ArtifactKey.make("trace", 1, bench="gcc")
        assert base != ArtifactKey.make("istream", 1, bench="gcc")
        assert base != ArtifactKey.make("trace", 2, bench="gcc")
        assert base != ArtifactKey.make("trace", 1, bench="yacc")

    def test_numpy_scalars_coerced(self):
        a = ArtifactKey.make("imiss", 1, sets=np.int64(256))
        b = ArtifactKey.make("imiss", 1, sets=256)
        assert a == b

    def test_non_scalar_rejected(self):
        with pytest.raises(ConfigurationError):
            ArtifactKey.make("trace", 1, bad=[1, 2])


class TestMemoryTier:
    def test_miss_then_hit_returns_same_object(self):
        store = ArtifactStore(use_disk=False)
        calls = []

        def factory():
            calls.append(1)
            return {"value": 42}

        first = store.get_or_create("thing", 1, factory, n=1)
        second = store.get_or_create("thing", 1, factory, n=1)
        assert first is second
        assert len(calls) == 1
        stats = store.stats()
        assert stats.misses == 1
        assert stats.memory_hits == 1

    def test_lru_eviction_counts(self):
        store = ArtifactStore(use_disk=False, memory_entries=2)
        for n in range(4):
            store.get_or_create("thing", 1, lambda n=n: n, n=n)
        assert store.stats().evictions == 2
        assert len(store) == 2
        # The two most recent entries survived.
        assert store.peek("thing", 1, n=3) == 3
        assert store.peek("thing", 1, n=0) is None

    def test_peek_does_not_count_or_create(self):
        store = ArtifactStore(use_disk=False)
        assert store.peek("thing", 1, n=1) is None
        assert store.stats().lookups == 0

    def test_put_then_hit(self):
        store = ArtifactStore(use_disk=False)
        store.put("thing", 1, "payload", n=1)
        assert store.get_or_create("thing", 1, lambda: "other", n=1) == "payload"

    def test_stats_report_mentions_counters(self):
        store = ArtifactStore(use_disk=False)
        store.get_or_create("thing", 1, lambda: 1, n=1)
        report = store.stats().report()
        assert "memory hits" in report and "misses" in report

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ArtifactStore(memory_entries=0)

    def test_cached_none_value_is_a_hit(self):
        # Regression: None is a legitimate factory result.  The memory
        # tier used to treat a cached None as absence, re-running the
        # factory (and counting a miss) on every single lookup.
        store = ArtifactStore(use_disk=False)
        calls = []

        def factory():
            calls.append(1)
            return None

        assert store.get_or_create("thing", 1, factory, n=1) is None
        assert store.get_or_create("thing", 1, factory, n=1) is None
        assert store.get_or_create("thing", 1, factory, n=1) is None
        assert len(calls) == 1
        stats = store.stats()
        assert stats.misses == 1
        assert stats.memory_hits == 2

    def test_cached_none_survives_invalidate(self):
        store = ArtifactStore(use_disk=False)
        store.put("thing", 1, None, n=1)
        assert store.get_or_create("thing", 1, lambda: "fresh", n=1) is None
        store.invalidate("thing", 1, n=1)
        assert store.get_or_create("thing", 1, lambda: "fresh", n=1) == "fresh"


def _disk_entries(tmp_path):
    """Cache entries on disk (one ``.npy.d`` bundle directory each)."""
    return sorted(tmp_path.glob("*.npy.d"))


class TestDiskTier:
    def _arrays(self, n=10):
        return {"x": np.arange(n), "y": np.ones(3)}

    def test_roundtrip_across_stores(self, tmp_path):
        first = ArtifactStore(cache_dir=tmp_path)
        created = first.get_or_create("trace", 1, self._arrays, persist=True, n=1)
        second = ArtifactStore(cache_dir=tmp_path)
        loaded = second.get_or_create(
            "trace", 1, lambda: pytest.fail("factory must not run"), persist=True, n=1
        )
        assert np.array_equal(loaded["x"], created["x"])
        assert second.stats().disk_hits == 1

    def test_corrupt_entry_falls_back_to_factory(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.get_or_create("trace", 1, self._arrays, persist=True, n=1)
        for path in tmp_path.glob("*.npy.d/manifest.json"):
            path.write_text("definitely not a manifest")
        fresh = ArtifactStore(cache_dir=tmp_path)
        value = fresh.get_or_create("trace", 1, self._arrays, persist=True, n=1)
        assert np.array_equal(value["x"], self._arrays()["x"])
        assert fresh.stats().misses == 1

    def test_invalid_entry_fails_validate_and_falls_back(self, tmp_path):
        # A structurally valid but truncated bundle (empty arrays) must be
        # treated as a miss by the validate hook.
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("trace", 1, {"x": np.array([])}, persist=True, n=1)
        fresh = ArtifactStore(cache_dir=tmp_path)
        value = fresh.get_or_create(
            "trace",
            1,
            self._arrays,
            persist=True,
            validate=lambda a: len(a.get("x", ())) > 0,
            n=1,
        )
        assert len(value["x"]) > 0
        assert fresh.stats().misses == 1

    def test_validation_failure_deletes_disk_entry(self, tmp_path):
        # Regression: an entry failing `validate` used to stay on disk,
        # getting re-read and re-failed on every subsequent lookup.  A
        # logically truncated bundle (empty arrays) must be removed the
        # first time validation rejects it.
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("trace", 1, {"x": np.array([])}, persist=True, n=1)
        assert _disk_entries(tmp_path)

        validate = lambda a: len(a.get("x", ())) > 0  # noqa: E731
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.peek("trace", 1, persist=True, validate=validate, n=1) is None
        assert not _disk_entries(tmp_path), "invalid entry must be deleted"
        assert fresh.stats().invalidations == 1

    def test_validation_failure_counts_one_miss_then_recreates(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("trace", 1, {"x": np.array([])}, persist=True, n=1)
        validate = lambda a: len(a.get("x", ())) > 0  # noqa: E731

        fresh = ArtifactStore(cache_dir=tmp_path)
        loads = []

        def factory():
            loads.append(1)
            return self._arrays()

        value = fresh.get_or_create(
            "trace", 1, factory, persist=True, validate=validate, n=1
        )
        assert len(value["x"]) > 0
        stats = fresh.stats()
        assert stats.misses == 1
        assert stats.disk_hits == 0
        assert stats.invalidations == 1
        # The recreated (valid) entry replaced the truncated one on disk.
        third = ArtifactStore(cache_dir=tmp_path)
        third.get_or_create(
            "trace",
            1,
            lambda: pytest.fail("valid entry must be served from disk"),
            persist=True,
            validate=validate,
            n=1,
        )
        assert third.stats().disk_hits == 1
        assert len(loads) == 1

    def test_version_bump_invalidates(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.get_or_create("trace", 1, self._arrays, persist=True, n=1)
        calls = []

        def factory():
            calls.append(1)
            return self._arrays()

        fresh = ArtifactStore(cache_dir=tmp_path)
        fresh.get_or_create("trace", 2, factory, persist=True, n=1)
        assert calls, "bumped version must not reuse the stale entry"

    def test_use_disk_false_keeps_memory_only(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, use_disk=False)
        store.get_or_create("trace", 1, self._arrays, persist=True, n=1)
        assert not list(tmp_path.iterdir())

    def test_persist_requires_array_mapping(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            store.put("trace", 1, "not arrays", persist=True, n=1)

    def test_invalidate_removes_both_tiers(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.get_or_create("trace", 1, self._arrays, persist=True, n=1)
        store.invalidate("trace", 1, n=1)
        assert store.peek("trace", 1, n=1) is None
        assert not _disk_entries(tmp_path)

    def test_factory_output_failing_validate_is_an_error(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            store.get_or_create(
                "trace",
                1,
                lambda: {"x": np.array([])},
                persist=True,
                validate=lambda a: len(a["x"]) > 0,
                n=1,
            )


class TestGetOrStream:
    @staticmethod
    def _producer(writer):
        for start in range(0, 100, 7):  # non-divisor chunk size
            writer.append("ids", np.arange(start, min(start + 7, 100)))

    def test_streams_to_disk_and_returns_mmap(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        arrays = store.get_or_stream("trace", 1, self._producer, n=1)
        assert isinstance(arrays["ids"], np.memmap)
        assert np.array_equal(arrays["ids"], np.arange(100))
        assert store.stats().misses == 1
        assert store.stats().disk_writes == 1

    def test_memory_then_disk_hits(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        first = store.get_or_stream("trace", 1, self._producer, n=1)
        second = store.get_or_stream(
            "trace", 1, lambda w: pytest.fail("producer must not run"), n=1
        )
        assert first is second
        assert store.stats().memory_hits == 1
        fresh = ArtifactStore(cache_dir=tmp_path)
        rehydrated = fresh.get_or_stream(
            "trace", 1, lambda w: pytest.fail("producer must not run"), n=1
        )
        assert np.array_equal(rehydrated["ids"], np.arange(100))
        assert fresh.stats().disk_hits == 1

    def test_memory_only_store_concatenates(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, use_disk=False)
        arrays = store.get_or_stream("trace", 1, self._producer, n=1)
        assert not isinstance(arrays["ids"], np.memmap)
        assert np.array_equal(arrays["ids"], np.arange(100))
        assert not list(tmp_path.iterdir())
        again = store.get_or_stream(
            "trace", 1, lambda w: pytest.fail("producer must not run"), n=1
        )
        assert again is arrays

    def test_streamed_equals_one_shot_bundle(self, tmp_path):
        streamed = ArtifactStore(cache_dir=tmp_path / "a").get_or_stream(
            "trace", 1, self._producer, n=1
        )
        eager = ArtifactStore(cache_dir=tmp_path / "b").get_or_create(
            "trace", 1, lambda: {"ids": np.arange(100)}, persist=True, n=1
        )
        assert np.array_equal(streamed["ids"], eager["ids"])
        assert streamed["ids"].dtype == eager["ids"].dtype

    def test_failing_producer_leaves_no_entry(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)

        def exploding(writer):
            writer.append("ids", np.arange(5))
            raise RuntimeError("synthesis died")

        with pytest.raises(RuntimeError):
            store.get_or_stream("trace", 1, exploding, n=1)
        assert _disk_entries(tmp_path) == []
        # The retry streams cleanly.
        arrays = store.get_or_stream("trace", 1, self._producer, n=1)
        assert np.array_equal(arrays["ids"], np.arange(100))

    def test_invalid_stream_is_an_error(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            store.get_or_stream(
                "trace",
                1,
                lambda w: w.append("ids", np.array([1])),
                validate=lambda a: len(a["ids"]) > 10,
                n=1,
            )


class TestStoreStatsEdges:
    """StoreStats.hit_rate / as_dict: the JSON-safety satellite."""

    def test_zero_lookups_is_zero_not_an_error(self):
        from repro.engine.store import StoreStats

        stats = StoreStats()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0

    def test_corrupted_counters_never_leak_non_finite(self):
        from repro.engine.store import StoreStats

        bad = StoreStats(memory_hits=-3)
        assert bad.hit_rate == 0.0
        nan = StoreStats(memory_hits=float("nan"), misses=1)
        assert nan.hit_rate == 0.0
        inf = StoreStats(memory_hits=float("inf"), misses=1)
        assert inf.hit_rate == 0.0
        over = StoreStats(memory_hits=5, misses=-1)  # hits > lookups
        assert 0.0 <= over.hit_rate <= 1.0

    def test_as_dict_is_strict_json(self):
        import json

        from repro.engine.store import StoreStats

        stats = StoreStats(memory_hits=float("nan"), misses=2)
        payload = stats.as_dict()
        encoded = json.dumps(payload, allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["hit_rate"] == 0.0
        assert {"hits", "lookups", "hit_rate", "disk_bytes"} <= set(decoded)

    def test_report_mentions_disk_budget_counters(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        assert "disk evictions" in store.stats().report()


class TestNamespaces:
    def _arrays(self):
        return {"ids": np.arange(16)}

    def test_namespaces_partition_the_disk_tier(self, tmp_path):
        a = ArtifactStore(cache_dir=tmp_path, namespace="alice")
        b = ArtifactStore(cache_dir=tmp_path, namespace="bob")
        a.get_or_create("t", 1, self._arrays, persist=True, n=1)
        assert b.peek("t", 1, persist=True, n=1) is None
        assert (tmp_path / "alice").is_dir()
        assert not any(tmp_path.glob("*.npy.d"))  # nothing at the root

    def test_same_namespace_shares_entries(self, tmp_path):
        a = ArtifactStore(cache_dir=tmp_path, namespace="team")
        b = ArtifactStore(cache_dir=tmp_path, namespace="team")
        a.get_or_create("t", 1, self._arrays, persist=True, n=1)
        rehydrated = b.peek("t", 1, persist=True, n=1)
        assert rehydrated is not None
        assert np.array_equal(rehydrated["ids"], np.arange(16))

    def test_bad_namespaces_rejected(self, tmp_path):
        for bad in ("", "a/b", "..", ".hidden", "a\\b", "x" * 200):
            with pytest.raises(ConfigurationError):
                ArtifactStore(cache_dir=tmp_path, namespace=bad)


class TestDiskBudget:
    def _fill(self, store, count, size=1000):
        for i in range(count):
            store.put(
                "blob", 1, {"x": np.arange(size, dtype=np.int64)},
                persist=True, n=i,
            )

    def test_budget_evicts_lru_entries(self, tmp_path):
        entry_bytes = ArtifactStore(cache_dir=tmp_path / "probe")
        entry_bytes.put("blob", 1, {"x": np.arange(1000, dtype=np.int64)},
                        persist=True, n=0)
        per_entry = entry_bytes.disk_usage()
        assert per_entry > 0

        store = ArtifactStore(
            cache_dir=tmp_path / "real", max_disk_bytes=3 * per_entry
        )
        self._fill(store, 5)
        stats = store.stats()
        assert stats.disk_evictions == 2
        assert stats.disk_bytes <= 3 * per_entry
        # Oldest entries evicted: n=0,1 gone; n=2..4 survive on disk.
        fresh = ArtifactStore(cache_dir=tmp_path / "real")
        assert fresh.peek("blob", 1, persist=True, n=0) is None
        assert fresh.peek("blob", 1, persist=True, n=4) is not None

    def test_disk_hit_refreshes_lru_position(self, tmp_path):
        probe = ArtifactStore(cache_dir=tmp_path / "probe")
        probe.put("blob", 1, {"x": np.arange(1000, dtype=np.int64)},
                  persist=True, n=0)
        per_entry = probe.disk_usage()

        store = ArtifactStore(
            cache_dir=tmp_path / "real", max_disk_bytes=2 * per_entry
        )
        self._fill(store, 2)
        store.clear_memory()
        assert store.get_or_create(
            "blob", 1, lambda: pytest.fail("must hit disk"), persist=True, n=0
        ) is not None  # n=0 is now the hottest entry
        self._fill(store, 1, size=1000)  # re-put n=0? no: n starts at 0
        # Insert a third entry; the coldest (n=1) must go, not n=0.
        store.put("blob", 1, {"x": np.arange(1000, dtype=np.int64)},
                  persist=True, n=99)
        fresh = ArtifactStore(cache_dir=tmp_path / "real")
        assert fresh.peek("blob", 1, persist=True, n=0) is not None
        assert fresh.peek("blob", 1, persist=True, n=1) is None

    def test_most_recent_entry_never_evicted(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, max_disk_bytes=1)
        store.put("blob", 1, {"x": np.arange(4096, dtype=np.int64)},
                  persist=True, n=0)
        # Far over budget, but the only (and newest) entry survives.
        assert store.peek("blob", 1, persist=True, n=0) is not None
        assert store.stats().disk_evictions == 0

    def test_scan_disk_adopts_preexisting_entries(self, tmp_path):
        writer = ArtifactStore(cache_dir=tmp_path)
        self._fill(writer, 3)
        reader = ArtifactStore(cache_dir=tmp_path)
        adopted = reader.scan_disk()
        assert adopted == 3
        assert reader.disk_usage() == writer.disk_usage()
        assert reader.scan_disk() == 0  # idempotent

    def test_adopted_strangers_evict_before_own_writes(self, tmp_path):
        writer = ArtifactStore(cache_dir=tmp_path)
        self._fill(writer, 2)
        per_entry = writer.disk_usage() // 2
        budgeted = ArtifactStore(
            cache_dir=tmp_path, max_disk_bytes=2 * per_entry + per_entry // 2
        )
        budgeted.scan_disk()
        budgeted.put("blob", 1, {"x": np.arange(1000, dtype=np.int64)},
                     persist=True, n=99)
        # Its own write survives; a stranger was evicted instead.
        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.peek("blob", 1, persist=True, n=99) is not None
        assert fresh.peek("blob", 1, persist=True, n=0) is None

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArtifactStore(cache_dir=tmp_path, max_disk_bytes=0)

    def test_invalidate_updates_accounting(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, max_disk_bytes=10**9)
        self._fill(store, 2)
        before = store.disk_usage()
        store.invalidate("blob", 1, n=0)
        assert store.disk_usage() < before
