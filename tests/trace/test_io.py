"""Trace cache IO tests."""

import errno
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.io import (
    StreamingBundleWriter,
    bundle_dir,
    cache_key,
    default_cache_dir,
    delete_entry,
    load_arrays,
    save_arrays,
)


class TestCacheKey:
    def test_order_independent(self):
        assert cache_key(a=1, b="x") == cache_key(b="x", a=1)

    def test_value_sensitive(self):
        assert cache_key(a=1) != cache_key(a=2)

    def test_rejects_non_scalars(self):
        with pytest.raises(TraceError):
            cache_key(a=[1, 2])

    def test_none_allowed(self):
        assert cache_key(a=None) != cache_key(a=0)

    def test_rejects_nan(self):
        # json.dumps would embed a bare NaN token in the key blob.
        with pytest.raises(TraceError):
            cache_key(a=float("nan"))

    def test_rejects_infinities(self):
        with pytest.raises(TraceError):
            cache_key(a=float("inf"))
        with pytest.raises(TraceError):
            cache_key(a=float("-inf"))

    def test_signed_zeros_are_distinct_keys(self):
        # JSON preserves the sign of the float zero ("-0.0" vs "0.0"), so
        # the keys differ; this is the documented, deliberate choice.
        assert cache_key(a=-0.0) != cache_key(a=0.0)


class TestDefaultCacheDir:
    def test_repro_cache_dir_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "explicit"

    def test_xdg_cache_home_honored(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-trace-cache"

    def test_tmp_fallback_embeds_uid(self, monkeypatch):
        # Shared-host safety: two users falling back to the system temp
        # dir must not collide on one cache directory.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        path = default_cache_dir()
        assert path.parent == Path(tempfile.gettempdir())
        assert path.name == f"repro-trace-cache-{os.getuid()}"


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        arrays = {"x": np.arange(10), "y": np.ones(3)}
        key = cache_key(test="roundtrip")
        save_arrays(key, arrays, cache_dir=tmp_path)
        loaded = load_arrays(key, cache_dir=tmp_path)
        assert loaded is not None
        assert np.array_equal(loaded["x"], arrays["x"])
        assert np.array_equal(loaded["y"], arrays["y"])

    def test_default_layout_is_mmapable_npy_dir(self, tmp_path):
        key = cache_key(test="npy-layout")
        save_arrays(key, {"x": np.arange(64, dtype=np.int32)}, cache_dir=tmp_path)
        assert bundle_dir(key, tmp_path).is_dir()
        loaded = load_arrays(key, cache_dir=tmp_path)
        assert isinstance(loaded["x"], np.memmap)
        assert loaded["x"].dtype == np.int32

    def test_missing_returns_none(self, tmp_path):
        assert load_arrays("nope", cache_dir=tmp_path) is None

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        key = cache_key(test="corrupt")
        save_arrays(key, {"x": np.arange(10)}, cache_dir=tmp_path)
        (bundle_dir(key, tmp_path) / "x.npy").write_bytes(b"not an npy file")
        assert load_arrays(key, cache_dir=tmp_path) is None
        assert not bundle_dir(key, tmp_path).exists()

    def test_truncated_real_entry_is_miss_and_removed(self, tmp_path):
        # Cutting a genuine segment inside its magic, inside its 128-byte
        # header, or inside its data must degrade to a miss: the cache
        # can never be allowed to fail an experiment.
        key = cache_key(test="truncated-real")
        for length in (10, 100, 130, 200):
            save_arrays(key, {"x": np.arange(1000)}, cache_dir=tmp_path)
            segment = bundle_dir(key, tmp_path) / "x.npy"
            segment.write_bytes(segment.read_bytes()[:length])
            assert load_arrays(key, cache_dir=tmp_path) is None, length
            assert not bundle_dir(key, tmp_path).exists(), length

    def test_corrupt_bundle_dir_is_miss_and_removed(self, tmp_path):
        key = cache_key(test="corrupt-dir")
        directory = bundle_dir(key, tmp_path)
        directory.mkdir()
        (directory / "manifest.json").write_text("{ not json")
        assert load_arrays(key, cache_dir=tmp_path) is None
        assert not directory.exists()

    def test_bundle_dir_missing_segment_is_miss_and_removed(self, tmp_path):
        key = cache_key(test="missing-segment")
        directory = bundle_dir(key, tmp_path)
        directory.mkdir()
        (directory / "manifest.json").write_text(
            json.dumps({"version": 1, "names": ["ghost"]})
        )
        assert load_arrays(key, cache_dir=tmp_path) is None
        assert not directory.exists()

    def test_overwrite(self, tmp_path):
        key = cache_key(test="overwrite")
        save_arrays(key, {"x": np.array([1])}, cache_dir=tmp_path)
        save_arrays(key, {"x": np.array([2])}, cache_dir=tmp_path)
        loaded = load_arrays(key, cache_dir=tmp_path)
        assert loaded["x"].tolist() == [2]

    def test_delete_entry_removes_the_bundle(self, tmp_path):
        key = cache_key(test="delete")
        save_arrays(key, {"x": np.array([1])}, cache_dir=tmp_path)
        assert delete_entry(key, tmp_path)
        assert not bundle_dir(key, tmp_path).exists()
        assert load_arrays(key, cache_dir=tmp_path) is None
        assert not delete_entry(key, tmp_path)


class TestRenameNeverCrossesFilesystems:
    """Satellite 1: temp files are pinned to the cache directory.

    os.replace raises EXDEV when source and destination sit on different
    filesystems.  Every save creates its temporary inside the cache
    directory itself, so the final rename is same-directory by
    construction.  The monkeypatched os.replace below enforces exactly
    that invariant: any rename whose source is *outside* the cache
    directory (e.g. a tempfile.gettempdir() default) fails with EXDEV,
    simulating a cache directory on its own mount.
    """

    @pytest.fixture
    def exdev_outside(self, monkeypatch, tmp_path):
        real_replace = os.replace

        def guarded_replace(src, dst, *args, **kwargs):
            if Path(src).parent != Path(dst).parent:
                raise OSError(errno.EXDEV, "Invalid cross-device link", str(src))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", guarded_replace)
        return tmp_path

    def test_npy_save_survives_cross_device_cache(self, exdev_outside):
        key = cache_key(test="exdev-npy")
        save_arrays(key, {"x": np.arange(4)}, cache_dir=exdev_outside)
        assert load_arrays(key, cache_dir=exdev_outside)["x"].tolist() == [0, 1, 2, 3]

    def test_streaming_writer_survives_cross_device_cache(self, exdev_outside):
        writer = StreamingBundleWriter("exdev-stream", cache_dir=exdev_outside)
        writer.append("x", np.arange(4))
        writer.finalize()
        loaded = load_arrays("exdev-stream", cache_dir=exdev_outside)
        assert loaded["x"].tolist() == [0, 1, 2, 3]


class TestStreamingBundleWriter:
    def test_chunked_equals_oneshot(self, tmp_path):
        rng = np.random.default_rng(7)
        full = {
            "ids": rng.integers(0, 1 << 30, size=10_000).astype(np.int64),
            "kinds": rng.integers(0, 7, size=10_000).astype(np.int8),
        }
        save_arrays("oneshot", full, cache_dir=tmp_path)
        # Non-divisor chunk size: 10_000 % 1_537 != 0.
        for chunk_size in (1, 1_537, 4_096, 10_000, 20_000):
            key = f"chunked-{chunk_size}"
            writer = StreamingBundleWriter(key, cache_dir=tmp_path)
            for start in range(0, 10_000, chunk_size):
                for name, data in full.items():
                    writer.append(name, data[start : start + chunk_size])
            writer.finalize()
            oneshot = load_arrays("oneshot", cache_dir=tmp_path)
            chunked = load_arrays(key, cache_dir=tmp_path)
            for name in full:
                assert chunked[name].dtype == full[name].dtype
                assert np.array_equal(chunked[name], oneshot[name])
                assert np.array_equal(chunked[name], full[name])

    def test_unfinalized_bundle_is_invisible(self, tmp_path):
        writer = StreamingBundleWriter("partial", cache_dir=tmp_path)
        writer.append("x", np.arange(3))
        assert load_arrays("partial", cache_dir=tmp_path) is None
        writer.abort()
        assert load_arrays("partial", cache_dir=tmp_path) is None
        # abort leaves no temp litter behind
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_dtype_mismatch_rejected(self, tmp_path):
        writer = StreamingBundleWriter("dtype", cache_dir=tmp_path)
        writer.append("x", np.arange(3, dtype=np.int32))
        with pytest.raises(TraceError):
            writer.append("x", np.arange(3, dtype=np.int64))
        writer.abort()

    def test_non_1d_rejected(self, tmp_path):
        writer = StreamingBundleWriter("shape", cache_dir=tmp_path)
        with pytest.raises(TraceError):
            writer.append("x", np.zeros((2, 2)))
        writer.abort()

    def test_unsafe_name_rejected(self, tmp_path):
        writer = StreamingBundleWriter("name", cache_dir=tmp_path)
        for bad in ("../x", "a/b", "", ".hidden"):
            with pytest.raises(TraceError):
                writer.append(bad, np.arange(3))
        writer.abort()

    def test_empty_finalize_rejected(self, tmp_path):
        writer = StreamingBundleWriter("empty", cache_dir=tmp_path)
        with pytest.raises(TraceError):
            writer.finalize()
        writer.abort()

    def test_double_finalize_rejected(self, tmp_path):
        writer = StreamingBundleWriter("twice", cache_dir=tmp_path)
        writer.append("x", np.arange(3))
        writer.finalize()
        with pytest.raises(TraceError):
            writer.finalize()
