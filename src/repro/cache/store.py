"""On-disk summary store: one pickle file per analysis *bucket*.

Layout
------
A bucket groups every summary that shares one ``(program digest, processor
digest, options digest)`` triple — i.e. all function/context/annotation
variants of one analysed executable on one platform.  Different operating
modes of the same program land in the *same* bucket (their item keys differ
by the per-function annotation digest), so one file read warms a whole
``analyze_all_modes`` family.

This granularity is deliberate: a server or a warm-store run analyses the
same few programs many times, and a differential sweep touches each
generated program exactly once per run — one ``open`` + one ``pickle.load``
per analysis is two orders of magnitude cheaper than a file per function
summary, and distinct programs never contend for the same file.

Concurrency: writes go through a temp file + :func:`os.replace`, so readers
always see a complete pickle.  Concurrent writers to the same bucket are
serialised by an advisory per-bucket file lock (``<bucket>.lock``,
:func:`fcntl.flock`) held across the whole read-merge-write cycle of
:meth:`SummaryStore.flush` — multi-process writers (the analysis server's
worker pool, parallel sweeps) can share one store without losing each
other's entries.  On platforms without ``fcntl`` the lock degrades to the
old best-effort behaviour: a lost race drops at most the other writer's
newest entries (a re-computable cache miss, never corruption).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.obs import metrics as obs_metrics

_M_QUARANTINES = obs_metrics.REGISTRY.counter(
    "repro_store_quarantines_total", "Corrupt bucket files moved aside."
)
_M_FLUSH_ERRORS = obs_metrics.REGISTRY.counter(
    "repro_store_flush_errors_total",
    "Bucket writes that failed with an OS error (kept staged for retry).",
)


class SummaryStore:
    """Content-addressed persistent store for pickled analysis summaries.

    Values must be picklable; keys are ``(bucket, item)`` string pairs of
    content digests.  Loaded buckets are kept in an in-memory page cache, so
    repeated lookups within one process hit the disk once per bucket.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self._pages: Dict[str, Dict[str, object]] = {}
        self._dirty: Dict[str, Dict[str, object]] = {}
        #: (mtime_ns, size) of each bucket file as last read/written by this
        #: instance; lets flush() skip the merge re-read when nobody else
        #: wrote the file in between.
        self._sigs: Dict[str, Optional[tuple]] = {}
        #: I/O statistics (reads = bucket files loaded, writes = files written).
        self.file_reads = 0
        self.file_writes = 0
        #: Corrupt bucket files detected (and quarantined) by this instance.
        self.corruptions = 0

    # ------------------------------------------------------------------ #
    def _bucket_path(self, bucket: str) -> str:
        return os.path.join(self.path, f"{bucket}.pkl")

    def _load_bucket(self, bucket: str) -> Dict[str, object]:
        page = self._pages.get(bucket)
        if page is not None:
            return page
        page = self._read_file(bucket)
        self._pages[bucket] = page
        return page

    def _file_sig(self, bucket: str) -> Optional[tuple]:
        try:
            stat = os.stat(self._bucket_path(bucket))
            return (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return None

    def _read_file(self, bucket: str) -> Dict[str, object]:
        self._sigs[bucket] = self._file_sig(bucket)
        try:
            with open(self._bucket_path(bucket), "rb") as handle:
                self.file_reads += 1
                loaded = pickle.load(handle)
                if not isinstance(loaded, dict):
                    self._quarantine(bucket)
                    return {}
                return loaded
        except FileNotFoundError:
            return {}
        except OSError:
            # A transient I/O failure is a miss — the file itself may be
            # fine, so it must not be quarantined.
            return {}
        except Exception:  # noqa: BLE001 - any unpickling failure whatsoever
            # A corrupt bucket is quarantined (renamed aside) instead of
            # being silently re-parsed — and re-failing — on every read.
            # Unpickling executes arbitrary reduce hooks, so the failure set
            # is open-ended (UnpicklingError, EOFError, AttributeError,
            # ImportError, MemoryError on absurd lengths, ...).
            self._quarantine(bucket)
            return {}

    def _quarantine(self, bucket: str) -> None:
        """Move a corrupt bucket file aside as ``<bucket>.corrupt-<ts>``.

        The quarantine name drops the ``.pkl`` suffix, so the file no longer
        counts as a bucket (``__len__``) and can never be read again; the
        next flush simply recreates the bucket from scratch.  A lost rename
        race (another process quarantined it first) is fine — the file is
        gone either way.
        """
        self.corruptions += 1
        _M_QUARANTINES.inc()
        stamp = int(time.time() * 1000)
        try:
            os.replace(
                self._bucket_path(bucket),
                os.path.join(self.path, f"{bucket}.corrupt-{stamp}"),
            )
        except OSError:
            pass
        self._sigs[bucket] = self._file_sig(bucket)

    @contextmanager
    def _bucket_lock(self, bucket: str) -> Iterator[None]:
        """Advisory inter-process lock around one bucket's merge cycle.

        The lock lives in a sidecar ``<bucket>.lock`` file (never the pickle
        itself: :func:`os.replace` swaps the pickle's inode, which would
        silently detach any lock held on it).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = os.path.join(self.path, f"{bucket}.lock")
        with open(lock_path, "ab") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    def get(self, bucket: str, item: str) -> Optional[object]:
        return self._load_bucket(bucket).get(item)

    def put(self, bucket: str, item: str, value: object) -> None:
        """Stage ``value``; it becomes visible to this process immediately
        and is persisted on the next :meth:`flush`."""
        self._load_bucket(bucket)[item] = value
        self._dirty.setdefault(bucket, {})[item] = value

    def flush(self) -> None:
        """Persist staged entries, merging with concurrent writers' state.

        The whole read-merge-write cycle of each bucket runs under the
        bucket's advisory file lock: between our merge re-read and our
        :func:`os.replace`, no other process can slip in a write we would
        clobber, so concurrent flushes from many workers are lossless.

        A bucket whose write fails with an :class:`OSError` (a full disk, a
        read-only directory) is counted and stays staged for the next flush:
        a store failure costs cache warmth, never the analysis.
        """
        failed: Dict[str, Dict[str, object]] = {}
        for bucket, staged in self._dirty.items():
            try:
                self._flush_bucket(bucket, staged)
            except OSError:
                _M_FLUSH_ERRORS.inc()
                failed[bucket] = staged
        self._dirty = failed

    def _flush_bucket(self, bucket: str, staged: Dict[str, object]) -> None:
        page = self._pages.get(bucket) or {}
        with self._bucket_lock(bucket):
            if self._file_sig(bucket) == self._sigs.get(bucket):
                # Nobody else wrote the file since we last read/wrote it:
                # our page (which already contains the staged entries) is
                # the complete truth — no merge re-read needed.
                merged = dict(page)
                merged.update(staged)
            else:
                # Concurrent writer: overlay our page on their state.
                # Keys are content digests, so colliding entries are
                # equivalent.
                merged = self._read_file(bucket)
                merged.update(page)
                merged.update(staged)
            fd, tmp_path = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(merged, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_path, self._bucket_path(bucket))
                self.file_writes += 1
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            self._pages[bucket] = merged
            self._sigs[bucket] = self._file_sig(bucket)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of bucket files currently on disk."""
        return sum(1 for name in os.listdir(self.path) if name.endswith(".pkl"))
