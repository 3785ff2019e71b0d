"""Content-addressed two-tier artifact store.

Every stored artifact of a measurement session — compiled programs,
execution traces, prediction statistics, evaluated design points, the
service's memoised sweeps — is identified by a :class:`ArtifactKey`: a
``kind`` (what the artifact is), a ``version`` (bumped when the
producing code changes behaviour), and the scalar parameters that
determine its content.  The store keeps artifacts in two tiers:

* an in-memory LRU tier holding any Python object, bounded by entry
  count, which replaces the per-object memo dicts the measurement layer
  used to hand-roll;
* an on-disk tier (raw ``.npy`` segment bundles via
  :mod:`repro.trace.io`) for artifacts declared *persistent* — array
  bundles whose recomputation is expensive enough to survive process
  boundaries (traces).  Disk hits come back as read-only memory maps, so
  loading a cached trace is zero-copy and many processes mapping the
  same bundle share one set of physical pages.  The disk tier is what
  lets a session's prefetch workers hand their traces to the parent,
  and a warm start map them back, without re-synthesizing anything.

Persistent artifacts whose *production* would not fit in memory go
through :meth:`ArtifactStore.get_or_stream`, which hands the factory a
chunk-appending writer instead of collecting a whole bundle.

The store is purely an optimization: clearing either tier only costs
recomputation time, never changes a result.  Hit/miss/eviction counters
are kept per store and reported by :meth:`ArtifactStore.stats`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.trace.io import (
    StreamingBundleWriter,
    bundle_dir,
    cache_key,
    default_cache_dir,
    delete_entry,
    load_arrays,
    save_arrays,
)

__all__ = ["ArtifactKey", "ArtifactStore", "StoreStats"]

_SCALAR_TYPES = (str, int, float, bool)

#: Private "no entry" sentinel for the memory tier.  ``None`` is a
#: legitimate cached value (a factory may legitimately produce it), so
#: absence must be distinguishable from a cached ``None``.
_ABSENT = object()


def _coerce_scalar(name: str, value: Any) -> Any:
    """Normalize one key parameter to a plain JSON scalar (or None)."""
    if value is None or isinstance(value, _SCALAR_TYPES):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        value = item()
        if isinstance(value, _SCALAR_TYPES):
            return value
    raise ConfigurationError(
        f"artifact key parameter {name!r} is not a scalar: {value!r}"
    )


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one artifact: kind + code version + content parameters."""

    kind: str
    version: int
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, kind: str, version: int, **params: Any) -> "ArtifactKey":
        clean = {
            name: _coerce_scalar(name, value) for name, value in params.items()
        }
        return cls(kind=kind, version=int(version), params=tuple(sorted(clean.items())))

    @property
    def digest(self) -> str:
        """Stable content hash — the on-disk file stem."""
        return cache_key(kind=self.kind, version=self.version, **dict(self.params))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}@v{self.version}({inner})"


@dataclass
class StoreStats:
    """Counter snapshot of one :class:`ArtifactStore`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_writes: int = 0
    disk_evictions: int = 0
    disk_bytes: int = 0
    invalidations: int = 0
    entries: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, always a finite float in [0, 1].

        Zero lookups yield 0.0 rather than a ZeroDivisionError, and a
        corrupted counter (negative, NaN — e.g. a test stand-in or a
        deserialized snapshot) can never leak a non-finite value into a
        JSON response: the ledger and the service stats endpoint both
        serialize this property with ``allow_nan=False``.
        """
        hits, lookups = self.hits, self.lookups
        try:
            if not lookups or lookups < 0 or hits < 0:
                return 0.0
            rate = hits / lookups
        except (TypeError, ZeroDivisionError):
            return 0.0
        if not math.isfinite(rate):
            return 0.0
        return min(1.0, rate)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering: every counter plus the derived rates.

        This is what the run ledger and the sweep service serialize, so
        it must survive ``json.dumps(..., allow_nan=False)`` verbatim.
        """
        def clean(value: Any) -> Any:
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        payload: Dict[str, Any] = {
            name: clean(value) for name, value in vars(self).items()
        }
        payload["hits"] = clean(self.hits)
        payload["lookups"] = clean(self.lookups)
        payload["hit_rate"] = self.hit_rate
        return payload


def _check_namespace(namespace: str) -> str:
    """A namespace must be a safe single path component."""
    if (
        not namespace
        or len(namespace) > 64
        or namespace != Path(namespace).name
        or namespace.startswith(".")
        or "/" in namespace
        or "\\" in namespace
    ):
        raise ConfigurationError(
            f"store namespace {namespace!r} is not a safe directory name"
        )
    return namespace


class ArtifactStore:
    """Two-tier (memory LRU + disk) content-addressed artifact cache.

    Args:
        cache_dir: Disk-tier base directory (default: :func:`repro.trace.
            io.default_cache_dir`, i.e. ``REPRO_CACHE_DIR`` or a tmpdir).
        memory_entries: LRU capacity of the in-memory tier.
        namespace: Optional shard of the disk tier: entries live under
            ``cache_dir/namespace`` so many tenants' artifacts coexist in
            one cache root without colliding, and one tenant's eviction
            budget never deletes another tenant's entries.
        max_disk_bytes: Optional disk-tier budget.  After every disk
            write the least-recently-used entries *in this store's
            namespace* are deleted until the tracked footprint fits the
            budget again (the most recent entry always survives, even
            when it alone exceeds the budget).  ``None`` disables
            eviction.  Entries written by earlier processes are adopted
            into the accounting by :meth:`scan_disk`.
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        memory_entries: int = 1024,
        namespace: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        if memory_entries < 1:
            raise ConfigurationError("memory_entries must be at least 1")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ConfigurationError("max_disk_bytes must be at least 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.memory_entries = memory_entries
        self.namespace = (
            _check_namespace(namespace) if namespace is not None else None
        )
        self.max_disk_bytes = max_disk_bytes
        self._memory: "OrderedDict[ArtifactKey, Any]" = OrderedDict()
        #: Disk-tier LRU accounting: digest -> entry bytes, oldest first.
        self._disk_lru: "OrderedDict[str, int]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = StoreStats()

    @property
    def disk_dir(self) -> Path:
        """The effective disk-tier directory (namespace applied).

        Always a concrete path — the default cache dir is resolved here
        rather than at construction so ``REPRO_CACHE_DIR`` changes (tests,
        forked workers) take effect per use, matching the historical
        behaviour of passing ``cache_dir=None`` down to the io helpers.
        """
        base = self.cache_dir if self.cache_dir is not None else default_cache_dir()
        return base / self.namespace if self.namespace else base

    # -- lookup / insertion ----------------------------------------------------

    def get_or_create(
        self,
        kind: str,
        version: int,
        factory: Callable[[], Any],
        *,
        persist: bool = False,
        validate: Optional[Callable[[Any], bool]] = None,
        **params: Any,
    ) -> Any:
        """The central API: return the artifact, creating it on a miss.

        Lookup order is memory tier, then (for ``persist`` artifacts) the
        disk tier, then ``factory()``.  A disk entry that fails
        ``validate`` is deleted, counts as a miss, and is re-created — a
        truncated or stale bundle can never fail an experiment, and it is
        never re-read (and re-failed) on later lookups.
        """
        key = ArtifactKey.make(kind, version, **params)
        value = self._memory_get(key, count=True)
        if value is not _ABSENT:
            return value
        if persist:
            arrays = self._disk_get(key, validate)
            if arrays is not None:
                with self._lock:
                    self._stats.disk_hits += 1
                self._remember(key, arrays)
                return arrays
        with self._lock:
            self._stats.misses += 1
        value = factory()
        if validate is not None and not validate(value):
            raise ConfigurationError(
                f"factory for artifact {key} produced an invalid value"
            )
        self._insert(key, value, persist=persist)
        return value

    def get_or_stream(
        self,
        kind: str,
        version: int,
        producer: Callable[[Any], None],
        *,
        validate: Optional[Callable[[Any], bool]] = None,
        **params: Any,
    ) -> Mapping[str, np.ndarray]:
        """Streaming variant of :meth:`get_or_create` for persistent bundles.

        On a miss, ``producer(writer)`` is called with a writer exposing
        ``append(name, chunk)``; the producer emits the bundle in chunks
        and never holds more than one chunk at a time.  Chunks stream
        straight to a :class:`~repro.trace.io.StreamingBundleWriter`
        (peak memory is O(chunk)) and the value returned — and
        remembered in the memory tier — is the *memory-mapped* view of
        the finished bundle, so the fully materialized arrays never
        exist in this process's heap at all.

        Streamed artifacts are always persistent by intent; hits follow
        the same memory → disk order as :meth:`get_or_create`.
        """
        key = ArtifactKey.make(kind, version, **params)
        value = self._memory_get(key, count=True)
        if value is not _ABSENT:
            return value
        arrays = self._disk_get(key, validate)
        if arrays is not None:
            with self._lock:
                self._stats.disk_hits += 1
            self._remember(key, arrays)
            return arrays
        with self._lock:
            self._stats.misses += 1
        directory = self.disk_dir
        writer = StreamingBundleWriter(key.digest, cache_dir=directory)
        try:
            producer(writer)
            writer.finalize()
        except BaseException:
            writer.abort()
            raise
        with self._lock:
            self._stats.disk_writes += 1
        self._account_disk_write(key.digest)
        arrays = load_arrays(key.digest, cache_dir=directory)
        if arrays is None:  # pragma: no cover - needs a racing deleter
            raise ConfigurationError(
                f"streamed artifact {key} vanished before it could be "
                f"mapped back"
            )
        if validate is not None and not validate(arrays):
            raise ConfigurationError(
                f"producer for artifact {key} streamed an invalid bundle"
            )
        self._remember(key, arrays)
        return arrays

    def put(
        self,
        kind: str,
        version: int,
        value: Any,
        *,
        persist: bool = False,
        **params: Any,
    ) -> ArtifactKey:
        """Insert an artifact computed elsewhere (e.g. a journaled point)."""
        key = ArtifactKey.make(kind, version, **params)
        self._insert(key, value, persist=persist)
        return key

    def peek(
        self,
        kind: str,
        version: int,
        *,
        persist: bool = False,
        validate: Optional[Callable[[Any], bool]] = None,
        **params: Any,
    ) -> Optional[Any]:
        """Non-creating lookup; returns None on a miss without counting it.

        A cached value of ``None`` is indistinguishable from a miss here
        by design — callers that must tell them apart use
        :meth:`get_or_create`, whose memory tier distinguishes absence
        with a private sentinel.
        """
        key = ArtifactKey.make(kind, version, **params)
        value = self._memory_get(key, count=False)
        if value is not _ABSENT:
            return value
        if persist:
            arrays = self._disk_get(key, validate)
            if arrays is not None:
                self._remember(key, arrays)
                return arrays
        return None

    # -- internals -------------------------------------------------------------

    def _memory_get(self, key: ArtifactKey, count: bool) -> Any:
        """Memory-tier lookup; returns :data:`_ABSENT` (never None) on a miss."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                if count:
                    self._stats.memory_hits += 1
                return self._memory[key]
        return _ABSENT

    def _disk_get(
        self, key: ArtifactKey, validate: Optional[Callable[[Any], bool]]
    ) -> Optional[Any]:
        """Disk-tier lookup; deletes entries that fail ``validate``.

        Removal implements DESIGN.md invalidation rule 2: a bundle that
        loads but is rejected by the owner's ``validate`` hook would
        otherwise be re-read and re-failed on every subsequent lookup.
        """
        arrays = load_arrays(key.digest, cache_dir=self.disk_dir)
        if arrays is None:
            return None
        if validate is not None and not validate(arrays):
            delete_entry(key.digest, cache_dir=self.disk_dir)
            with self._lock:
                self._stats.invalidations += 1
                self._disk_lru.pop(key.digest, None)
            return None
        self._touch_disk(key.digest)
        return arrays

    def _insert(self, key: ArtifactKey, value: Any, persist: bool) -> None:
        if persist:
            if not isinstance(value, Mapping) or not all(
                isinstance(v, np.ndarray) for v in value.values()
            ):
                raise ConfigurationError(
                    f"persistent artifact {key} must be a mapping of numpy "
                    f"arrays, got {type(value).__name__}"
                )
            save_arrays(key.digest, value, cache_dir=self.disk_dir)
            with self._lock:
                self._stats.disk_writes += 1
            self._account_disk_write(key.digest)
        self._remember(key, value)

    def _remember(self, key: ArtifactKey, value: Any) -> None:
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self._stats.evictions += 1

    # -- disk budget -----------------------------------------------------------

    def _entry_nbytes(self, digest: str) -> int:
        """On-disk footprint of one entry, best effort."""
        directory = bundle_dir(digest, self.disk_dir)
        try:
            return sum(
                item.stat().st_size
                for item in directory.iterdir()
                if item.is_file()
            )
        except OSError:  # missing, or racing a deleter
            return 0

    def _touch_disk(self, digest: str) -> None:
        """Mark a disk entry recently used (adopting unknown entries)."""
        with self._lock:
            if digest in self._disk_lru:
                self._disk_lru.move_to_end(digest)
                return
        nbytes = self._entry_nbytes(digest)
        with self._lock:
            self._disk_lru[digest] = nbytes
            self._disk_lru.move_to_end(digest)

    def _account_disk_write(self, digest: str) -> None:
        """Record a fresh disk write, then enforce the byte budget."""
        nbytes = self._entry_nbytes(digest)
        with self._lock:
            self._disk_lru[digest] = nbytes
            self._disk_lru.move_to_end(digest)
        self._enforce_disk_budget()

    def _enforce_disk_budget(self) -> None:
        """Delete LRU disk entries until the tracked footprint fits.

        The most recently used entry is never evicted — a just-written
        artifact must survive its own write even when it alone exceeds
        the budget, or the store would thrash on every lookup.
        """
        if self.max_disk_bytes is None:
            return
        while True:
            with self._lock:
                if (
                    len(self._disk_lru) <= 1
                    or sum(self._disk_lru.values()) <= self.max_disk_bytes
                ):
                    return
                digest, _ = self._disk_lru.popitem(last=False)
                self._stats.disk_evictions += 1
            delete_entry(digest, cache_dir=self.disk_dir)

    def scan_disk(self) -> int:
        """Adopt pre-existing disk entries into the LRU accounting.

        Entries already on disk (written by an earlier process sharing
        the cache directory) join the cold end of the LRU in name order,
        so a budgeted store starting over an old cache evicts strangers
        before anything it wrote itself.  Returns the number of entries
        adopted, and enforces the budget afterwards.
        """
        directory = self.disk_dir
        if not directory.is_dir():
            return 0
        digests = sorted(
            item.name[: -len(".npy.d")]
            for item in directory.iterdir()
            if item.name.endswith(".npy.d") and item.is_dir()
        )
        adopted = 0
        for digest in digests:
            with self._lock:
                known = digest in self._disk_lru
            if known:
                continue
            nbytes = self._entry_nbytes(digest)
            with self._lock:
                if digest not in self._disk_lru:
                    self._disk_lru[digest] = nbytes
                    self._disk_lru.move_to_end(digest, last=False)
                    adopted += 1
        self._enforce_disk_budget()
        return adopted

    # -- reporting -------------------------------------------------------------

    def stats(self) -> StoreStats:
        """A snapshot of the store's counters."""
        with self._lock:
            snapshot = StoreStats(**vars(self._stats))
            snapshot.entries = len(self._memory)
            snapshot.disk_bytes = sum(self._disk_lru.values())
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)
