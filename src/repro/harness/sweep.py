"""JSON result caching for parameter sweeps.

The figure drivers run many simulations; a small on-disk cache makes
re-rendering a figure (or ``repro figure 5`` after ``repro figure 4``,
which share one sweep) cheap.  Two kinds of entry share the store: one
document per figure-level sweep, and one per simulation run, keyed by the
config fingerprint (see :class:`~repro.harness.parallel.ParallelRunner`),
so every sweep, ``repro figure shards`` included, replays its runs from
disk.  Keys include every parameter that affects the result plus a format
version, so stale entries are never silently reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Optional

#: Bump when result formats or simulation semantics change.
#: v4: filenames carry a digest of the raw key (collision fix) and the
#: per-run cache keys results by config fingerprint.
#: v5: sharded results carry the optional ``sharding`` dict.
#: v6: results carry ``stopped_at``; search probes stop at their first kill.
CACHE_VERSION = 6


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``.repro_cache/`` in the cwd."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.cwd() / ".repro_cache"


class SweepCache:
    """A tiny key → JSON document store on disk."""

    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Entries found truncated/corrupt and moved aside (kept for
        #: post-mortems as ``*.corrupt``; the result is recomputed).
        self.corrupt_entries = 0
        #: Counter updates only; file operations are already atomic
        #: (``os.replace``) so concurrent sweep threads can share one cache.
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        # Sanitisation alone is lossy ("a:b" and "a_b" both become "a_b"),
        # so the filename also carries a short digest of the raw key.
        safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in key)
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
        return self.directory / f"v{CACHE_VERSION}-{safe[:96]}-{digest}.json"

    def get(self, key: str) -> Optional[dict]:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A truncated or corrupt entry (killed writer, disk fault).
            # Quarantine it instead of retrying it forever: the caller
            # recomputes and overwrites the slot with a good document.
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        if not isinstance(document, dict):
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return document

    def quarantine(self, key: str) -> Optional[Path]:
        """Move ``key``'s entry aside as ``*.corrupt``; returns the new path.

        For callers that discover an entry is semantically broken (parses
        as JSON but doesn't deserialise) after :meth:`get` accepted it.
        """
        return self._quarantine(self._path(key))

    def _quarantine(self, path: Path) -> Optional[Path]:
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None  # a concurrent reader already moved or removed it
        with self._lock:
            self.corrupt_entries += 1
        return target

    def put(self, key: str, document: dict) -> None:
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        # Unique tmp name so concurrent writers of the same key never
        # interleave; the final os.replace is atomic either way.
        tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def get_or_compute(self, key: str, compute: Callable[[], dict]) -> dict:
        """Fetch ``key`` or compute, store and return it."""
        cached = self.get(key)
        if cached is not None:
            return cached
        document = compute()
        self.put(key, document)
        return document

    def clear(self) -> int:
        """Delete every cache file; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "*.corrupt"):
                for path in self.directory.glob(pattern):
                    path.unlink()
                    removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepCache {self.directory} hits={self.hits} misses={self.misses}>"
