"""Deterministic on-disk caching of trace arrays.

Generating the full multiprogrammed traces takes tens of seconds, and
every experiment of a run reads the same traces, so traces are cached on
disk keyed by a content hash of the generating parameters.  The cache is
purely an optimization: deleting it only costs regeneration time, never
changes a result.

Each entry is a ``{key}.npy.d/`` directory holding one raw ``.npy``
segment per array plus a ``manifest.json``.  Raw segments open with
``np.load(mmap_mode="r")``, so loads are zero-copy views of the page
cache: many processes mapping the same trace share one set of physical
pages, and nothing is decompressed.  :class:`StreamingBundleWriter`
appends fixed-size chunks to the segments as they are produced, so
writing a trace needs O(chunk) memory, not O(trace).  Any other file in
the cache directory is ignored, so an entry in an older format is a
miss and gets rebuilt.

Entries are written atomically (temp directory + rename) with the
temporary pinned *inside the cache directory*: a rename within one
directory can never cross filesystems, so ``os.replace`` can never fail
with ``EXDEV`` even when the cache lives on its own mount.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.errors import TraceError

__all__ = [
    "cache_key",
    "bundle_dir",
    "save_arrays",
    "load_arrays",
    "delete_entry",
    "default_cache_dir",
    "StreamingBundleWriter",
    "MemoryBundleWriter",
]

#: Reserved byte length of every segment's ``.npy`` header.  The header
#: is written once with a placeholder shape and rewritten in place at
#: finalize time; a fixed length keeps the rewrite a pure overwrite.
_NPY_HEADER_LEN = 128

_MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1


def default_cache_dir() -> Path:
    """The trace cache directory (override with ``REPRO_CACHE_DIR``).

    Resolution order: ``REPRO_CACHE_DIR``, then ``XDG_CACHE_HOME`` (the
    per-user cache root on conforming systems), then a per-user directory
    under the system temp dir.  The tmp fallback embeds the uid because
    the system temp dir is shared between users on multi-user hosts: a
    single shared ``repro-trace-cache`` would collide (and the second
    user's writes would fail on the first user's file permissions).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro-trace-cache"
    getuid = getattr(os, "getuid", None)  # not available on Windows
    suffix = f"-{getuid()}" if getuid is not None else ""
    return Path(tempfile.gettempdir()) / f"repro-trace-cache{suffix}"


def cache_key(**params: Union[str, int, float, bool, None]) -> str:
    """Stable hash key for a parameter combination.

    Only JSON-scalar parameters are accepted so the key is unambiguous.
    Non-finite floats are rejected: ``json.dumps`` would emit bare
    ``NaN``/``Infinity`` tokens (not strict JSON), and NaN's ``x != x``
    semantics make it meaningless as a cache identity.  The float zeros
    ``0.0`` and ``-0.0`` hash to *different* keys — JSON preserves the
    sign, and two parameter sets that serialize differently must never
    collide — so callers wanting them unified normalize before keying.

    >>> cache_key(bench="gcc", n=100) == cache_key(n=100, bench="gcc")
    True
    """
    for name, value in params.items():
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise TraceError(f"cache parameter {name!r} is not a scalar: {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise TraceError(
                f"cache parameter {name!r} is not finite: {value!r}"
            )
    blob = json.dumps(params, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def bundle_dir(key: str, cache_dir: Optional[Path] = None) -> Path:
    """The ``.npy``-segment directory a key maps to (may or may not exist)."""
    return (cache_dir or default_cache_dir()) / f"{key}.npy.d"


def delete_entry(key: str, cache_dir: Optional[Path] = None) -> bool:
    """Remove one cached entry; True if something was deleted."""
    directory = bundle_dir(key, cache_dir)
    if not directory.is_dir():
        return False
    shutil.rmtree(directory, ignore_errors=True)
    return not directory.exists()


# -- raw .npy segment helpers -------------------------------------------------


def _npy_header(dtype: np.dtype, shape: tuple) -> bytes:
    """A version-1 ``.npy`` header padded to :data:`_NPY_HEADER_LEN` bytes.

    Hand-built rather than via :mod:`numpy.lib.format` so the byte length
    is *fixed*: the streaming writer reserves the header up front (shape
    unknown) and rewrites it in place once the final length is known.
    """
    descr = np.lib.format.dtype_to_descr(dtype)
    body = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        descr,
        tuple(int(d) for d in shape),
    )
    prefix_len = 6 + 2 + 2  # magic + version + header-length field
    space = _NPY_HEADER_LEN - prefix_len - 1  # trailing newline
    if len(body) > space:  # pragma: no cover - needs a pathological dtype
        raise TraceError(f"npy header too large for reserved space: {body!r}")
    header = body.ljust(space) + "\n"
    return b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header)) + header.encode(
        "latin1"
    )


def _check_segment_name(name: str) -> str:
    if (
        not name
        or name != os.path.basename(name)
        or name.startswith(".")
        or "/" in name
        or "\\" in name
    ):
        raise TraceError(f"array name {name!r} is not a safe segment filename")
    return name


class _Segment:
    """One array's open ``.npy`` file inside a streaming bundle."""

    __slots__ = ("name", "path", "handle", "dtype", "length")

    def __init__(self, name: str, path: Path, dtype: np.dtype) -> None:
        self.name = name
        self.path = path
        self.dtype = dtype
        self.length = 0
        self.handle = open(path, "wb")
        self.handle.write(_npy_header(dtype, (0,)))

    def append(self, chunk: np.ndarray) -> None:
        self.handle.write(np.ascontiguousarray(chunk).tobytes())
        self.length += len(chunk)

    def finalize(self) -> None:
        self.handle.flush()
        self.handle.seek(0)
        self.handle.write(_npy_header(self.dtype, (self.length,)))
        self.handle.flush()
        os.fsync(self.handle.fileno())
        self.handle.close()

    def abort(self) -> None:
        try:
            self.handle.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


class StreamingBundleWriter:
    """Chunked writer for one ``.npy.d`` bundle.

    Chunks appended under one name are concatenated on disk; the bundle
    appears atomically (temp directory renamed into place) only when
    :meth:`finalize` runs, so a crashed producer never leaves a partial
    entry a later load could mistake for a complete one.  Peak memory is
    one chunk, regardless of total trace length.

    >>> # writer = StreamingBundleWriter(key, cache_dir)
    >>> # writer.append("block_ids", chunk); ...; writer.finalize()
    """

    def __init__(self, key: str, cache_dir: Optional[Path] = None) -> None:
        self.key = key
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Temp directory pinned inside the cache directory: the final
        # os.replace is then a same-filesystem rename by construction.
        self._tmp = Path(
            tempfile.mkdtemp(dir=str(self.cache_dir), prefix=f".{key}-tmp-")
        )
        self._segments: Dict[str, _Segment] = {}
        self._order: List[str] = []
        self._done = False

    def append(self, name: str, chunk: np.ndarray) -> None:
        """Append one chunk to the named array (creating it on first use)."""
        if self._done:
            raise TraceError("bundle writer already finalized")
        chunk = np.asarray(chunk)
        if chunk.ndim != 1:
            raise TraceError(
                f"streaming bundles hold 1-D arrays; {name!r} chunk has "
                f"shape {chunk.shape}"
            )
        segment = self._segments.get(name)
        if segment is None:
            _check_segment_name(name)
            segment = _Segment(name, self._tmp / f"{name}.npy", chunk.dtype)
            self._segments[name] = segment
            self._order.append(name)
        elif chunk.dtype != segment.dtype:
            raise TraceError(
                f"chunk dtype {chunk.dtype} does not match segment "
                f"{name!r} dtype {segment.dtype}"
            )
        segment.append(chunk)

    def finalize(self) -> Path:
        """Fix headers, write the manifest, and atomically publish."""
        if self._done:
            raise TraceError("bundle writer already finalized")
        if not self._segments:
            raise TraceError("refusing to finalize an empty bundle")
        for name in self._order:
            self._segments[name].finalize()
        manifest = {
            "version": _MANIFEST_VERSION,
            "names": list(self._order),
        }
        (self._tmp / _MANIFEST_NAME).write_text(json.dumps(manifest))
        final = bundle_dir(self.key, self.cache_dir)
        if final.exists():
            shutil.rmtree(final, ignore_errors=True)
        os.replace(self._tmp, final)
        self._done = True
        return final

    def abort(self) -> None:
        """Drop everything written so far (idempotent)."""
        for segment in self._segments.values():
            segment.abort()
        self._segments.clear()
        shutil.rmtree(self._tmp, ignore_errors=True)
        self._done = True


class MemoryBundleWriter:
    """In-memory stand-in for :class:`StreamingBundleWriter`.

    Used when the disk tier is disabled: chunks are accumulated and
    concatenated, so the streaming producers work unchanged (peak memory
    is O(trace) here, but that is exactly what a memory-only cache holds
    anyway).
    """

    def __init__(self) -> None:
        self._chunks: Dict[str, List[np.ndarray]] = {}
        self._order: List[str] = []

    def append(self, name: str, chunk: np.ndarray) -> None:
        chunk = np.asarray(chunk)
        if name not in self._chunks:
            self._chunks[name] = []
            self._order.append(name)
        self._chunks[name].append(chunk)

    def bundle(self) -> Dict[str, np.ndarray]:
        return {
            name: (
                self._chunks[name][0]
                if len(self._chunks[name]) == 1
                else np.concatenate(self._chunks[name])
            )
            for name in self._order
        }


def save_arrays(
    key: str,
    arrays: Mapping[str, np.ndarray],
    cache_dir: Optional[Path] = None,
) -> Path:
    """Persist named arrays under ``key``; returns the bundle directory.

    One raw segment per array (loadable as zero-copy memory maps).  The
    write is atomic — the bundle is built in a temp directory *in the
    cache directory itself* and renamed into place — so a crashed run
    never leaves a truncated entry behind and the rename can never cross
    a filesystem boundary (EXDEV).
    """
    writer = StreamingBundleWriter(key, cache_dir)
    try:
        for name, value in arrays.items():
            writer.append(name, value)
        return writer.finalize()
    except BaseException:
        writer.abort()
        raise


def load_arrays(
    key: str, cache_dir: Optional[Path] = None
) -> Optional[Dict[str, np.ndarray]]:
    """Load the arrays cached under ``key``, or None if absent/corrupt.

    Arrays come back as read-only memory maps.  A corrupt entry is
    treated as a miss (and removed) rather than an error: the cache must
    never be able to fail an experiment.
    """
    directory = bundle_dir(key, cache_dir)
    if not directory.is_dir():
        return None
    try:
        manifest = json.loads((directory / _MANIFEST_NAME).read_text())
        names = manifest["names"]
        if not isinstance(names, list):
            raise ValueError("manifest names must be a list")
        return {
            name: np.load(directory / f"{_check_segment_name(name)}.npy", mmap_mode="r")
            for name in names
        }
    except (OSError, ValueError, KeyError, TypeError, TraceError):
        shutil.rmtree(directory, ignore_errors=True)
        return None
