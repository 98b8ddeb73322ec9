"""The sharded, indexed, GC-managed pulse store.

:class:`PulseLibrary` owns a directory of opaque payload files (pickled
GRAPE cache entries, in practice) laid out for paper-scale libraries and
multi-process sharing:

``<directory>/``
    ``library.json`` — layout descriptor (layout version, shard count,
    filename prefix length).  Written once at creation; the layout of an
    existing library is immutable.
``<directory>/<prefix>/``
    One shard per filename prefix (e.g. ``ab/``), so a million-entry
    library fans out across shards instead of stressing one directory.
    Each shard holds its data files plus a ``manifest.json`` index
    (:mod:`repro.library.manifest`) and a ``.lock`` file guarding
    manifest updates.

Filenames begin with the block unitary's hex fingerprint
(:func:`repro.core.cache.unitary_fingerprint`), so the shard *is* the
fingerprint prefix — SHA-256 uniformity gives balanced shards for free.

Consistency model
-----------------
Data files are the source of truth and are written atomically (unique temp
name + ``os.replace``), so readers never observe partial entries and
concurrent writers race benignly.  Manifests are an advisory index updated
under a cross-process :class:`~repro.library.locking.FileLock`; a crash
between data write and index update leaves an *orphan* that is still
served by :meth:`get` and adopted by the next :meth:`gc`.  Eviction is
LRU by the manifest's ``last_used`` stamp against a size budget
(``REPRO_CACHE_BUDGET_MB``), and only ever happens inside an explicit
:meth:`gc` call — normal puts never block on collection.

Legacy flat directories (the pre-library ``PersistentPulseCache`` layout:
``*.pulse`` files directly in the root) are migrated in place, once, on
first open: each file moves bit-identically into its shard and gains an
index entry.

With prefetch enabled (``REPRO_PREFETCH`` / ``prefetch=True``), the first
:meth:`get` touching a shard bulk-loads every entry its manifest lists
into an in-memory layer; later reads in that shard are served from memory
(``prefetches`` / ``prefetch_hits`` telemetry) while LRU stamps keep being
recorded, so a long-lived variational session streaming over a warm
library pays one sequential sweep per shard instead of one file open per
lookup.
"""

from __future__ import annotations

import math
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import CACHE_SHARD_CHOICES
from repro.errors import ReproError
from repro.library.locking import FileLock
from repro.library.manifest import (
    MANIFEST_FILENAME,
    empty_manifest,
    entry_record,
    load_manifest,
    rebuild_entries,
    save_manifest,
)

#: On-disk layout version recorded in ``library.json``.
LIBRARY_LAYOUT_VERSION = 1

LIBRARY_DESCRIPTOR = "library.json"

#: Shard counts that map to whole hex-character prefixes of the fingerprint
#: (one source of truth: :data:`repro.config.CACHE_SHARD_CHOICES`).
VALID_SHARD_COUNTS = CACHE_SHARD_CHOICES

#: Temp files older than this are considered crash debris and collectable.
_STALE_TMP_SECONDS = 60.0

#: Ceiling on the in-memory prefetch buffer.  A library byte budget
#: (``REPRO_CACHE_BUDGET_MB``) lower than this wins; without one the
#: buffer still cannot grow past this cap — oldest-loaded payloads are
#: dropped first (they re-read from disk transparently).
_PREFETCH_BUDGET_MB = 256.0


@dataclass
class GCReport:
    """Outcome of one :meth:`PulseLibrary.gc` pass."""

    entries_before: int = 0
    entries_after: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    evicted: int = 0
    bytes_freed: int = 0
    orphans_adopted: int = 0
    ghosts_dropped: int = 0
    stale_tmp_removed: int = 0
    budget_bytes: int | None = None
    wall_time_s: float = 0.0
    evicted_names: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "entries_before": self.entries_before,
            "entries_after": self.entries_after,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "evicted": self.evicted,
            "bytes_freed": self.bytes_freed,
            "orphans_adopted": self.orphans_adopted,
            "ghosts_dropped": self.ghosts_dropped,
            "stale_tmp_removed": self.stale_tmp_removed,
            "budget_bytes": self.budget_bytes,
            "wall_time_s": round(self.wall_time_s, 6),
        }


def _resolve_shards(shards: int | None) -> int:
    if shards is None:
        from repro.config import env_config

        shards = env_config().cache_shards
    if shards not in VALID_SHARD_COUNTS:
        raise ReproError(
            f"cache shard count must be one of {VALID_SHARD_COUNTS}, got {shards!r}"
        )
    return shards


class PulseLibrary:
    """A sharded on-disk store of fingerprint-named payload files."""

    suffix = ".pulse"

    def __init__(
        self,
        directory: str | os.PathLike,
        shards: int | None = None,
        budget_mb: float | None = None,
        prefetch: bool | None = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        from repro.config import env_config

        if budget_mb is None:
            budget_mb = env_config().cache_budget_mb
        if prefetch is None:
            prefetch = env_config().prefetch
        self.budget_mb = budget_mb
        self._global_lock = FileLock(self.directory / ".lock")
        self.migrated_entries = 0
        self.puts = 0
        self.gets = 0
        self.get_hits = 0
        self.index_errors = 0
        # Manifest-aware shard prefetch: on first touch of a shard, every
        # entry its manifest lists is bulk-read into this in-memory layer,
        # so a variational run streaming over one warm library pays one
        # sequential sweep per shard instead of one file open per lookup.
        # The buffer is byte-bounded (oldest-loaded dropped first) and
        # guarded by two lock tiers: one short-held lock for the dict
        # itself, plus one lock per shard held across that shard's bulk
        # read, so a slow first-touch sweep never stalls other shards.
        self.prefetch_enabled = bool(prefetch)
        self.prefetches = 0
        self.prefetch_hits = 0
        self._prefetched: dict = {}  # name -> payload bytes, insertion order
        self._prefetched_bytes = 0
        self._prefetched_shards: set = set()
        self._prefetch_lock = threading.Lock()
        self._prefetch_shard_locks: dict = {}  # shard name -> Lock
        budget_cap = _PREFETCH_BUDGET_MB
        if budget_mb is not None:
            budget_cap = min(budget_cap, budget_mb)
        self._prefetch_budget_bytes = int(budget_cap * 1024 * 1024)
        descriptor = self._load_descriptor()
        if descriptor is not None:
            # An existing library's layout is immutable: the descriptor wins
            # over arguments/config so every process fans out identically.
            self.shards = int(descriptor["shards"])
            self.prefix_len = int(descriptor["prefix_len"])
        else:
            self.shards = _resolve_shards(shards)
            self.prefix_len = int(round(math.log(self.shards, 16)))
            self._write_descriptor()
        self._migrate_flat_layout()

    # -- layout ----------------------------------------------------------------
    def _load_descriptor(self) -> dict | None:
        path = self.directory / LIBRARY_DESCRIPTOR
        try:
            import json

            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            isinstance(data, dict)
            and data.get("layout_version") == LIBRARY_LAYOUT_VERSION
            and data.get("shards") in VALID_SHARD_COUNTS
        ):
            return data
        return None

    def _write_descriptor(self) -> None:
        import json

        with self._global_lock:
            # A racing creator may have won the lock first; their layout
            # then governs this library.
            existing = self._load_descriptor()
            if existing is not None:
                self.shards = int(existing["shards"])
                self.prefix_len = int(existing["prefix_len"])
                return
            payload = {
                "layout_version": LIBRARY_LAYOUT_VERSION,
                "shards": self.shards,
                "prefix_len": self.prefix_len,
                "created": round(time.time(), 3),
            }
            tmp = self.directory / f".{LIBRARY_DESCRIPTOR}.{os.getpid()}.tmp"
            tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, self.directory / LIBRARY_DESCRIPTOR)

    def shard_name(self, name: str) -> str:
        """The shard directory (fingerprint prefix) an entry lives in."""
        prefix = name[: self.prefix_len].lower()
        if len(prefix) == self.prefix_len and all(
            c in "0123456789abcdef" for c in prefix
        ):
            return prefix
        # Defensive: non-hex-named payloads are fanned out by name hash so
        # they still land in a valid shard instead of crashing the store.
        import hashlib

        return hashlib.sha256(name.encode()).hexdigest()[: self.prefix_len]

    def shard_dir(self, name: str) -> Path:
        return self.directory / self.shard_name(name)

    def path_for(self, name: str) -> Path:
        """Absolute path of entry ``name`` (whether or not it exists yet)."""
        return self.shard_dir(name) / name

    def _shard_lock(self, shard_dir: Path) -> FileLock:
        return FileLock(shard_dir / ".lock")

    def shard_dirs(self) -> list:
        """Existing shard directories, sorted by prefix."""
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.is_dir() and len(p.name) == self.prefix_len
        )

    # -- migration -------------------------------------------------------------
    def _migrate_flat_layout(self) -> None:
        """Adopt a legacy flat directory (``*.pulse`` files in the root).

        Runs under the global lock so exactly one process performs each
        move; ``os.replace`` keeps every payload bit-identical.  Racing
        processes simply find nothing left to migrate.
        """
        flat = [p for p in self.directory.glob(f"*{self.suffix}") if p.is_file()]
        if not flat:
            return
        with self._global_lock:
            self._migrate_locked()

    def _migrate_locked(self) -> None:
        """Migration body; caller must hold the global lock.

        Moves are grouped by destination shard so each shard's manifest is
        loaded and rewritten once, not once per file — a paper-scale flat
        directory migrates in O(entries), not O(entries²/shards).
        """
        by_shard: dict = {}
        for path in sorted(self.directory.glob(f"*{self.suffix}")):
            if path.is_file():
                by_shard.setdefault(self.shard_name(path.name), []).append(path)
        for shard_name, paths in by_shard.items():
            shard = self.directory / shard_name
            shard.mkdir(exist_ok=True)
            manifest = load_manifest(shard)
            moved = 0
            for path in paths:
                try:
                    stat = path.stat()
                    os.replace(path, shard / path.name)
                except OSError:
                    # Another writer beat us or the file vanished; gc will
                    # reconcile whatever remains.
                    self.index_errors += 1
                    continue
                manifest["entries"][path.name] = entry_record(
                    stat.st_size, stat.st_mtime, stat.st_mtime
                )
                moved += 1
            if moved:
                save_manifest(shard, manifest)
                self.migrated_entries += moved

    # -- entry operations ------------------------------------------------------
    def put(
        self,
        name: str,
        payload: bytes,
        schema_version: int | None = None,
        meta: dict | None = None,
    ) -> None:
        """Store ``payload`` under ``name`` (overwrites) and index it.

        The data write is atomic and lock-free; only the manifest update
        takes the shard lock.  Index failures are counted, not raised —
        the entry itself is durable either way.  ``meta`` is stored under
        the record's ``"target"`` key (the approximate-match metadata of
        :mod:`repro.library.neighbors`); an overwrite without ``meta``
        keeps whatever metadata the previous record carried.
        """
        shard = self.shard_dir(name)
        shard.mkdir(exist_ok=True)
        path = shard / name
        tmp = path.with_name(f".{name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            # Don't leave partial temp files behind (e.g. ENOSPC mid-write)
            # on top of whatever condition caused the failure.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        self.puts += 1
        if self.prefetch_enabled:
            shard_name = self.shard_name(name)
            # Keep an already-prefetched shard coherent with the write.
            # Check-and-insert runs under the shard's load lock, and only
            # while the data file still exists: a delete racing this put
            # (unlink, then pop under the same lock) then either removes
            # what we insert or makes the existence check fail — the
            # buffer can never outlive the file.
            with self._prefetch_shard_lock(shard_name):
                if shard_name in self._prefetched_shards and path.is_file():
                    self._buffer_insert(name, payload, overwrite=True)
        now = time.time()
        try:
            with self._shard_lock(shard):
                manifest = load_manifest(shard)
                previous = manifest["entries"].get(name)
                # A damaged record (non-dict junk, missing/null stamp from a
                # hand-edited or legacy manifest) must not crash the write.
                created = now
                target_meta = meta
                if isinstance(previous, dict):
                    stamp = previous.get("created")
                    if isinstance(stamp, (int, float)) and not isinstance(
                        stamp, bool
                    ):
                        created = stamp
                    if target_meta is None:
                        target_meta = previous.get("target")
                record = entry_record(len(payload), created, now, schema_version)
                if isinstance(target_meta, dict):
                    record["target"] = target_meta
                manifest["entries"][name] = record
                save_manifest(shard, manifest)
        except OSError:
            self.index_errors += 1

    def get(self, name: str) -> bytes | None:
        """Read entry ``name``, bumping its LRU stamp on a hit.

        A missing entry is ``None``; any other read failure (permissions,
        I/O error) propagates as :class:`OSError` so callers can tell a
        cold miss from a broken store.  With prefetch enabled
        (``REPRO_PREFETCH``), the first touch of a shard bulk-loads every
        entry its manifest lists, and later reads in that shard are served
        from memory (``prefetch_hits``); LRU stamps are still recorded so
        eviction decisions stay honest.
        """
        self.gets += 1
        if self.prefetch_enabled:
            self._ensure_prefetched(self.shard_name(name))
            with self._prefetch_lock:
                payload = self._prefetched.get(name)
            if payload is not None:
                self.get_hits += 1
                self.prefetch_hits += 1
                # LRU stamp without manifest I/O: bump the file mtime only
                # (cheap), and let gc's reconcile pass fold newer mtimes
                # into ``last_used`` — paying a lock + manifest rewrite per
                # memory-served get would cost more than the read it saved.
                now = time.time()
                try:
                    os.utime(self.path_for(name), (now, now))
                except OSError:
                    pass
                return payload
        path = self.path_for(name)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            # A not-yet-migrated flat file (e.g. written concurrently by an
            # old-layout process sharing the directory) still serves.
            try:
                payload = (self.directory / name).read_bytes()
            except FileNotFoundError:
                return None
            path = self.directory / name
        self.get_hits += 1
        self._touch(name, path)
        # Orphans the manifest missed stay on the disk path (no buffer
        # insert here: adopting a just-read payload could race a concurrent
        # delete and resurrect it); the next gc indexes them for prefetch.
        return payload

    def _prefetch_shard_lock(self, shard_name: str) -> threading.Lock:
        with self._prefetch_lock:
            lock = self._prefetch_shard_locks.get(shard_name)
            if lock is None:
                lock = self._prefetch_shard_locks[shard_name] = threading.Lock()
        return lock

    def _buffer_insert(self, name: str, payload: bytes, overwrite: bool) -> None:
        """Insert into the buffer, enforcing the byte budget (FIFO drop)."""
        with self._prefetch_lock:
            existing = self._prefetched.get(name)
            if existing is not None:
                if not overwrite:
                    return
                self._prefetched_bytes -= len(self._prefetched.pop(name))
            self._prefetched[name] = payload
            self._prefetched_bytes += len(payload)
            while (
                self._prefetched_bytes > self._prefetch_budget_bytes
                and self._prefetched
            ):
                oldest = next(iter(self._prefetched))
                self._prefetched_bytes -= len(self._prefetched.pop(oldest))

    def _buffer_pop(self, name: str) -> None:
        with self._prefetch_lock:
            payload = self._prefetched.pop(name, None)
            if payload is not None:
                self._prefetched_bytes -= len(payload)

    def _ensure_prefetched(self, shard_name: str) -> None:
        """Bulk-load ``shard_name``'s manifest-listed entries, once.

        The read-and-insert runs under *this shard's* prefetch lock.  That
        keeps the layer coherent against concurrent ``delete``/``gc``: both
        unlink the data file before taking the same shard lock to pop the
        buffer entry, so a bulk load either observes the unlink (the read
        fails, nothing inserted) or completes first (the subsequent pop
        removes what it inserted).  Per-shard granularity means a slow
        first-touch sweep never blocks lookups in other shards.
        """
        if shard_name in self._prefetched_shards:
            return  # racy fast path; the lock below re-checks
        with self._prefetch_shard_lock(shard_name):
            if shard_name in self._prefetched_shards:
                return
            shard = self.directory / shard_name
            if shard.is_dir():
                for entry_name in load_manifest(shard)["entries"]:
                    try:
                        payload = (shard / entry_name).read_bytes()
                    except OSError:
                        continue  # ghost entry; the next gc reconciles
                    # Writes that raced the bulk read are newer: keep them.
                    self._buffer_insert(entry_name, payload, overwrite=False)
                self.prefetches += 1
            self._prefetched_shards.add(shard_name)

    def _touch(self, name: str, path: Path) -> None:
        """Record a use of ``name``: file mtime plus the manifest stamp."""
        now = time.time()
        try:
            os.utime(path, (now, now))
        except OSError:
            pass
        shard = path.parent
        if shard == self.directory:  # un-migrated flat entry; no manifest yet
            return
        try:
            with self._shard_lock(shard):
                manifest = load_manifest(shard)
                record = manifest["entries"].get(name)
                if record is None:
                    try:
                        size = path.stat().st_size
                    except OSError:
                        size = 0
                    record = entry_record(size, now, now)
                    manifest["entries"][name] = record
                record["last_used"] = round(now, 3)
                save_manifest(shard, manifest)
        except OSError:
            self.index_errors += 1

    def delete(self, name: str) -> bool:
        """Remove entry ``name``; returns whether a file was deleted."""
        path = self.path_for(name)
        shard = path.parent
        removed = False
        try:
            path.unlink()
            removed = True
        except OSError:
            pass
        if self.prefetch_enabled:
            # Pop strictly after the unlink, under the shard's load lock: a
            # racing bulk load then either saw the unlink (read failed) or
            # completed its inserts before this pop removes the entry.
            with self._prefetch_shard_lock(self.shard_name(name)):
                self._buffer_pop(name)
        if shard.is_dir():
            try:
                with self._shard_lock(shard):
                    manifest = load_manifest(shard)
                    if manifest["entries"].pop(name, None) is not None:
                        save_manifest(shard, manifest)
            except OSError:
                self.index_errors += 1
        return removed

    def __contains__(self, name: str) -> bool:
        return self.path_for(name).is_file()

    def names(self) -> list:
        """Every entry name currently on disk, sorted."""
        found = [p.name for p in self.directory.glob(f"*{self.suffix}")]
        for shard in self.shard_dirs():
            found.extend(p.name for p in shard.glob(f"*{self.suffix}"))
        return sorted(found)

    def count(self) -> int:
        """Number of entries on disk (data files are the source of truth)."""
        return len(self.names())

    def total_bytes(self) -> int:
        """Total payload bytes on disk across all shards."""
        total = 0
        for shard in [self.directory, *self.shard_dirs()]:
            for path in shard.glob(f"*{self.suffix}"):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    # -- garbage collection ----------------------------------------------------
    def gc(self, budget_mb: float | None = None) -> GCReport:
        """Reconcile the index and evict LRU entries down to the budget.

        ``budget_mb`` falls back to the library's configured budget
        (``REPRO_CACHE_BUDGET_MB``); with no budget at all the pass only
        reconciles manifests and sweeps crash debris.  The whole pass runs
        under the global cross-process lock, so concurrent ``gc`` calls
        serialize; concurrent ``put``/``get`` traffic stays safe because
        data writes are atomic and manifest updates take shard locks.
        """
        start = time.perf_counter()
        if budget_mb is None:
            budget_mb = self.budget_mb
        report = GCReport(
            budget_bytes=None if budget_mb is None else int(budget_mb * 1024 * 1024)
        )
        with self._global_lock:
            self._migrate_locked()
            inventory: list = []  # (last_used, size, name, shard_dir)
            manifests: dict = {}
            for shard in self.shard_dirs():
                with self._shard_lock(shard):
                    manifest = load_manifest(shard)
                    before = set(manifest["entries"])
                    rebuild_entries(shard, manifest, self.suffix)
                    report.ghosts_dropped += len(before - set(manifest["entries"]))
                    report.orphans_adopted += len(set(manifest["entries"]) - before)
                    report.stale_tmp_removed += self._sweep_tmp(shard)
                    save_manifest(shard, manifest)
                manifests[shard] = manifest
                for name, record in manifest["entries"].items():
                    # Reconciliation heals stamps above, but belt-and-braces:
                    # a record damaged between passes (hand-edited manifest,
                    # legacy migration) must not abort eviction mid-gc.
                    last_used = record.get("last_used")
                    if not isinstance(last_used, (int, float)) or isinstance(
                        last_used, bool
                    ):
                        last_used = 0.0
                    size = record.get("size")
                    if not isinstance(size, (int, float)) or isinstance(size, bool):
                        size = 0
                    inventory.append((last_used, size, name, shard))
            report.stale_tmp_removed += self._sweep_tmp(self.directory)
            report.entries_before = len(inventory)
            report.bytes_before = sum(size for _, size, _, _ in inventory)
            total = report.bytes_before
            if report.budget_bytes is not None and total > report.budget_bytes:
                inventory.sort()  # oldest last_used first
                touched = set()
                for last_used, size, name, shard in inventory:
                    if total <= report.budget_bytes:
                        break
                    try:
                        (shard / name).unlink()
                    except OSError:
                        continue
                    manifest = manifests[shard]
                    manifest["entries"].pop(name, None)
                    manifest["evictions"] = manifest.get("evictions", 0) + 1
                    touched.add(shard)
                    total -= size
                    report.evicted += 1
                    report.bytes_freed += size
                    report.evicted_names.append(name)
                for shard in touched:
                    with self._shard_lock(shard):
                        # Re-merge against concurrent puts: keep entries that
                        # appeared since our snapshot, drop only what we evicted.
                        live = load_manifest(shard)
                        for name in report.evicted_names:
                            live["entries"].pop(name, None)
                        live["evictions"] = manifests[shard]["evictions"]
                        rebuild_entries(shard, live, self.suffix)
                        save_manifest(shard, live)
            report.entries_after = report.entries_before - report.evicted
            report.bytes_after = report.bytes_before - report.bytes_freed
        if self.prefetch_enabled and report.evicted_names:
            for name in report.evicted_names:
                with self._prefetch_shard_lock(self.shard_name(name)):
                    self._buffer_pop(name)
        report.wall_time_s = time.perf_counter() - start
        return report

    def _sweep_tmp(self, directory: Path) -> int:
        """Remove crash-debris temp files that are clearly not in flight."""
        removed = 0
        cutoff = time.time() - _STALE_TMP_SECONDS
        for tmp in directory.glob(".*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    # The prefetch buffer and its lock stay behind at pickle boundaries
    # (process-pool workers re-prefetch on demand against their own copy);
    # everything else — paths, layout, counters — travels.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_prefetch_lock"]
        state["_prefetched"] = {}
        state["_prefetched_bytes"] = 0
        state["_prefetched_shards"] = set()
        state["_prefetch_shard_locks"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prefetch_lock = threading.Lock()

    # -- telemetry -------------------------------------------------------------
    def index_bytes(self) -> int:
        """Total size of the manifest files (the on-disk index)."""
        total = 0
        for shard in self.shard_dirs():
            try:
                total += (shard / MANIFEST_FILENAME).stat().st_size
            except OSError:
                pass
        return total

    @staticmethod
    def empty_stats(directory: str | os.PathLike) -> dict:
        """The :meth:`stats` shape for a library that was never created.

        Lets inspection surfaces (``cache-stats`` / ``library stats``)
        report a zeroed snapshot with the exact same schema as a live
        library, without creating the directory as instantiation would.
        """
        return {
            "directory": str(directory),
            "layout_version": LIBRARY_LAYOUT_VERSION,
            "shards": 0,
            "prefix_len": 0,
            "entries": 0,
            "indexed_entries": 0,
            "total_bytes": 0,
            "index_bytes": 0,
            "nonempty_shards": 0,
            "max_shard_entries": 0,
            "evictions": 0,
            "budget_mb": None,
            "migrated_entries": 0,
            "puts": 0,
            "gets": 0,
            "get_hits": 0,
            "index_errors": 0,
            "prefetch_enabled": False,
            "prefetches": 0,
            "prefetch_hits": 0,
            "prefetched_entries": 0,
            "prefetched_bytes": 0,
        }

    def stats(self) -> dict:
        """Layout, occupancy, and lifetime counters for this library."""
        occupancy = {}
        evictions = 0
        indexed = 0
        for shard in self.shard_dirs():
            manifest = load_manifest(shard)
            count = len(manifest["entries"])
            evictions += manifest.get("evictions", 0)
            indexed += count
            if count:
                occupancy[shard.name] = count
        entries = self.count()
        return {
            "directory": str(self.directory),
            "layout_version": LIBRARY_LAYOUT_VERSION,
            "shards": self.shards,
            "prefix_len": self.prefix_len,
            "entries": entries,
            "indexed_entries": indexed,
            "total_bytes": self.total_bytes(),
            "index_bytes": self.index_bytes(),
            "nonempty_shards": len(occupancy),
            "max_shard_entries": max(occupancy.values(), default=0),
            "evictions": evictions,
            "budget_mb": self.budget_mb,
            "migrated_entries": self.migrated_entries,
            "puts": self.puts,
            "gets": self.gets,
            "get_hits": self.get_hits,
            "index_errors": self.index_errors,
            "prefetch_enabled": self.prefetch_enabled,
            "prefetches": self.prefetches,
            "prefetch_hits": self.prefetch_hits,
            "prefetched_entries": len(self._prefetched),
            "prefetched_bytes": self._prefetched_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"PulseLibrary({str(self.directory)!r}, shards={self.shards}, "
            f"entries={self.count()})"
        )
