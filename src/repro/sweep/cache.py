"""Content-addressed memoization of simulation results.

The sweep engine never simulates the same configuration twice: results
are stored under the job's :meth:`~repro.sweep.job.SimJob.fingerprint`,
first in memory (always) and optionally on disk, so identical points
across experiments — Question 1's processor ladder, Question 2a's
full-parallelism runs, the verification pass, the CCR baseline — are
computed exactly once per process (or, with a disk cache, once ever).

The on-disk layer is *directory-sharded* by fingerprint prefix: an entry
with key ``abcd…`` lives at ``ab/abcd….pkl``, which keeps directory
listings short for million-entry campaign caches (a flat directory with
10⁶ files makes every create/lookup a linear scan on most filesystems).
Every write is an atomic publish (temp file + ``os.replace``), so any
number of concurrent writers can share a directory; a corrupt or
truncated pickle is treated as a miss and *quarantined* (renamed to
``*.corrupt``) so it is repaired by the next write instead of being
re-parsed on every lookup.

The in-memory layer is a plain dict: sweeps put tens to thousands of
results in it, and campaign grids store their shard batches as disk-only
blobs (below), so it never holds a million cells.  :meth:`stats`
reports hits/misses and the in-memory and on-disk entry counts.

Enable the disk layer by passing ``directory=`` or by exporting
``REPRO_SWEEP_CACHE=/path/to/dir`` before the default cache is created.

Beyond per-result entries, :meth:`put_blob`/:meth:`get_blob` store
arbitrary picklable payloads under a caller-chosen key in the same
sharded, atomically-published namespace (suffix ``.blob.pkl``).  The
campaign grid engine uses blobs for whole-shard record batches: one
entry per grid shard means a million-cell rerun is incremental at shard
granularity instead of paying a million per-cell lookups.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.sim.results import SimulationResult

__all__ = ["SimCache", "default_cache", "reset_default_cache"]

#: Environment variable naming the on-disk cache directory for the
#: process-wide default cache.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"

#: Length of the fingerprint prefix used as the shard directory name.
SHARD_PREFIX = 2


class SimCache:
    """Sharded on-disk + in-memory result store keyed by fingerprint."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, SimulationResult] = {}
        self._directory = Path(directory) if directory else None
        if self._directory is not None:
            try:
                self._directory.mkdir(parents=True, exist_ok=True)
            except FileExistsError:
                raise NotADirectoryError(
                    f"sweep cache path exists but is not a directory: "
                    f"{self._directory}"
                ) from None
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Path | None:
        return self._directory

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -------------------------------------------------------------- #
    # sharded paths
    # -------------------------------------------------------------- #
    def _shard_dir(self, key: str) -> Path:
        return self._directory / key[:SHARD_PREFIX]

    def _disk_path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Sideline an unreadable pickle so it is never re-parsed.

        The ``.corrupt`` rename makes the miss permanent-until-rewritten:
        the next :meth:`put` publishes a fresh entry at the real path.
        """
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _disk_load(self, path: Path) -> Any | None:
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            self._quarantine(path)
            return None

    def _disk_store(self, path: Path, payload: Any) -> None:
        # Atomic publish: never expose a half-written pickle.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -------------------------------------------------------------- #
    # result entries
    # -------------------------------------------------------------- #
    def get(self, key: str) -> SimulationResult | None:
        """Look up a result; updates the hit/miss counters."""
        result = self._memory.get(key)
        if result is None and self._directory is not None:
            result = self._disk_load(self._disk_path(key))
            if result is not None:
                self._memory[key] = result
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result under its fingerprint."""
        self._memory[key] = result
        if self._directory is not None:
            self._disk_store(self._disk_path(key), result)

    # -------------------------------------------------------------- #
    # blob entries (whole-shard record batches, checkpoints)
    # -------------------------------------------------------------- #
    def _blob_path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.blob.pkl"

    def get_blob(self, key: str) -> Any | None:
        """Fetch an arbitrary payload stored with :meth:`put_blob`.

        Disk-only (blobs are large by design — whole-shard record
        batches — so they never occupy memory); returns None without a
        disk layer.  Corrupt blobs are quarantined like result entries.
        Counts toward hits/misses.
        """
        if self._directory is None:
            self.misses += 1
            return None
        payload = self._disk_load(self._blob_path(key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put_blob(self, key: str, payload: Any) -> None:
        """Store an arbitrary picklable payload (no-op without a disk layer)."""
        if self._directory is not None:
            self._disk_store(self._blob_path(key), payload)

    # -------------------------------------------------------------- #
    # observability + lifecycle
    # -------------------------------------------------------------- #
    def disk_entries(self) -> int:
        """Number of result + blob pickles currently on disk."""
        if self._directory is None:
            return 0
        count = 0
        with os.scandir(self._directory) as it:
            for entry in it:
                if entry.is_dir() and len(entry.name) == SHARD_PREFIX:
                    count += sum(
                        1
                        for f in os.listdir(entry.path)
                        if f.endswith(".pkl")
                    )
        return count

    def stats(self) -> dict[str, int | float]:
        """Counters snapshot: hits/misses, sizes, hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_entries": len(self._memory),
            "disk_entries": self.disk_entries(),
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop the in-memory layer and reset the counters.

        On-disk entries are left alone (delete the directory to discard
        them).
        """
        self._memory.clear()
        self.hits = 0
        self.misses = 0


_default: SimCache | None = None


def default_cache() -> SimCache:
    """The process-wide cache used by :func:`repro.sweep.run_jobs`.

    Created lazily; honours ``REPRO_SWEEP_CACHE`` for an on-disk layer.
    """
    global _default
    if _default is None:
        _default = SimCache(os.environ.get(CACHE_DIR_ENV) or None)
    return _default


def reset_default_cache() -> None:
    """Discard the process-wide cache (tests and benchmarks)."""
    global _default
    _default = None
