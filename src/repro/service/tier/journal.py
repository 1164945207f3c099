"""The result store: sharded, segmented, compacting, memory-first.

Results are keyed by :func:`~repro.service.job.job_fingerprint` — a
content hash over everything that can influence the output — so a stored
payload can be served for *any* later job with the same fingerprint,
from any tenant, bit for bit.  :class:`SegmentedResultStore` encodes a
payload once, on ``put``, as sorted-key JSON text; that text is both the
journal line's payload and the entry of a bounded in-memory LRU, and
each ``get`` decodes it into a fresh copy.  Given a ``root`` directory,
the store journals to disk:

* **Sharding** — the journal is partitioned into per-shard directories
  keyed by the *device fingerprint* (the ``shard`` hint
  :meth:`SegmentedResultStore.put` receives from the execution engine).
  Workers serving different devices append to different files; each
  shard has its own lock, its own segments, its own compaction clock.
  Payloads with no hint land in a prefix shard of the fingerprint, so
  sharding never needs the device to exist.
* **Segments** — each shard is a sequence of JSONL segment files
  (``seg-000001.jsonl``, monotonically numbered), one
  ``{"fingerprint", "payload_version", "payload"}`` record per line.
  The highest-numbered segment is the *active* one; it rolls when it
  exceeds ``segment_bytes``.  Only the active segment can have a torn
  final line (a crash mid-append); sealed segments are complete by
  construction, so mid-file corruption anywhere is a real error
  (:class:`~repro.exceptions.PayloadError`), not a crash artifact.
* **Compaction** — when a shard accumulates enough sealed segments or
  enough *dead* records (older duplicates of a re-put fingerprint),
  compaction rewrites the shard's live records into one next-numbered
  segment (a snapshot — later records win, exactly replay order) and
  deletes the inputs.  Numbering makes this crash-safe without renames:
  a crash after writing the snapshot but before deleting the inputs just
  replays both, and the snapshot's higher number wins.
* **Replay** — construction replays every shard's segments in number
  order, later records winning, torn tail tolerated on the active
  segment only, payload versions checked
  (:mod:`repro.core.payload`).
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.payload import PAYLOAD_VERSION, check_payload_version
from repro.exceptions import PayloadError, ServiceError
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["SegmentedResultStore"]

_SEGMENT_RE = re.compile(r"^seg-(\d{6})\.jsonl$")


def _segment_name(number: int) -> str:
    return f"seg-{number:06d}.jsonl"


def _shard_dir_name(shard: str) -> str:
    """A filesystem-safe directory name for a shard key."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", shard)[:64] or "_"


def _journal_line(fingerprint: str, payload_version: Any, text: str) -> str:
    """One journal line around a payload already encoded as ``text``.

    Byte-identical to ``json.dumps({"fingerprint": ..., "payload_version":
    ..., "payload": payload}, sort_keys=True)`` when ``text`` is
    ``json.dumps(payload, sort_keys=True)``: sorted, the wrapper's keys
    come as fingerprint, payload, payload_version, and a nested object
    encodes exactly as it does alone.
    """
    return (
        f'{{"fingerprint": {json.dumps(fingerprint)}, "payload": {text}, '
        f'"payload_version": {json.dumps(payload_version)}}}\n'
    )


def _encode(payload: Mapping[str, Any]) -> str:
    """The store's one encoding of a payload: sorted-key JSON text."""
    return json.dumps(payload, sort_keys=True)


def _read_segment(
    path: str, tolerate_torn_tail: bool
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Yield ``(fingerprint, payload)`` records of one segment file.

    A final line that is not UTF-8 JSON is a torn tail and skipped when
    ``tolerate_torn_tail`` (the active segment — a crash interrupted an
    append); anywhere else it raises :class:`PayloadError`, as does any
    structural defect, a record that is not a JSON object included.
    """
    with open(path, "rb") as handle:
        lines = handle.readlines()
    for line_number, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            record = json.loads(line)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep
        # nesting exhausts the decoder's recursion.
        except (ValueError, RecursionError) as exc:
            if tolerate_torn_tail and line_number == len(lines):
                return
            raise PayloadError(
                f"{path}:{line_number}: corrupt journal record: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise PayloadError(
                f"{path}:{line_number}: journal record is not a JSON object"
            )
        check_payload_version(record, what=f"{path}:{line_number}")
        fingerprint = record.get("fingerprint")
        payload = record.get("payload")
        if not isinstance(fingerprint, str) or not isinstance(payload, dict):
            raise PayloadError(
                f"{path}:{line_number}: journal record needs "
                "'fingerprint' and 'payload'"
            )
        yield fingerprint, payload


class _Shard:
    """One shard: its directory, segments, and live map.

    All access is serialised by the shard's own lock — two workers
    writing different shards never contend.
    """

    def __init__(self, root: str, key: str) -> None:
        self.key = key
        self.dir = os.path.join(root, _shard_dir_name(key))
        self._lock = threading.Lock()
        #: fingerprint -> segment number currently holding its live record.
        self._live: Dict[str, int] = {}
        self._dead = 0
        self._active_number = 0
        self._active_bytes = 0
        os.makedirs(self.dir, exist_ok=True)
        self._replay()

    # -- recovery -------------------------------------------------------

    def _segments(self) -> List[int]:
        numbers = []
        for name in os.listdir(self.dir):
            match = _SEGMENT_RE.match(name)
            if match:
                numbers.append(int(match.group(1)))
        return sorted(numbers)

    def _segment_path(self, number: int) -> str:
        return os.path.join(self.dir, _segment_name(number))

    def _replay(self) -> Dict[str, Dict[str, Any]]:
        """Rebuild the live map from disk; returns the live payloads."""
        payloads: Dict[str, Dict[str, Any]] = {}
        self._live.clear()
        self._dead = 0
        numbers = self._segments()
        for number in numbers:
            active = number == numbers[-1]
            for fingerprint, payload in _read_segment(
                self._segment_path(number), tolerate_torn_tail=active
            ):
                if fingerprint in self._live:
                    self._dead += 1
                self._live[fingerprint] = number
                payloads[fingerprint] = payload
        self._active_number = numbers[-1] if numbers else 0
        self._active_bytes = (
            os.path.getsize(self._segment_path(self._active_number))
            if numbers
            else 0
        )
        return payloads

    # -- writes ---------------------------------------------------------

    def append(
        self,
        fingerprint: str,
        line: str,
        segment_bytes: int,
        max_segments: int,
        max_dead_ratio: float,
    ) -> bool:
        """Append one encoded journal line; roll and compact by the
        shard's triggers.  Returns whether the append compacted the
        shard."""
        with self._lock:
            if self._active_number == 0 or self._active_bytes >= segment_bytes:
                self._active_number += 1
                self._active_bytes = 0
            path = self._segment_path(self._active_number)
            with open(path, "a") as handle:
                handle.write(line)
            self._active_bytes += len(line)
            if fingerprint in self._live:
                self._dead += 1
            self._live[fingerprint] = self._active_number
            live = len(self._live)
            if len(self._segments()) > max_segments or (
                live and self._dead / (live + self._dead) > max_dead_ratio
            ):
                return self._compact_locked()
            return False

    def compact(self) -> bool:
        """Force a compaction (the ``repro store compact`` path)."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> bool:
        """Merge every segment into one next-numbered snapshot; returns
        whether there was anything to compact.

        The snapshot is written *before* the inputs are deleted: a crash
        in between leaves both on disk, and replay's later-wins rule
        resolves it in the snapshot's favour.
        """
        numbers = self._segments()
        if not numbers:
            return False
        payloads = self._replay()
        snapshot = numbers[-1] + 1
        path = self._segment_path(snapshot)
        with open(path, "w") as handle:
            for fingerprint in sorted(payloads):
                payload = payloads[fingerprint]
                handle.write(
                    _journal_line(
                        fingerprint, payload["payload_version"], _encode(payload)
                    )
                )
            handle.flush()
            os.fsync(handle.fileno())
        for number in numbers:
            os.remove(self._segment_path(number))
        self._live = {fingerprint: snapshot for fingerprint in payloads}
        self._dead = 0
        self._active_number = snapshot
        self._active_bytes = os.path.getsize(path)
        return True

    # -- reads ----------------------------------------------------------

    def load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Re-read one live record from disk (memory-tier miss path)."""
        with self._lock:
            number = self._live.get(fingerprint)
            if number is None:
                return None
            numbers = self._segments()
            found: Optional[Dict[str, Any]] = None
            for candidate, payload in _read_segment(
                self._segment_path(number),
                tolerate_torn_tail=bool(numbers) and number == numbers[-1],
            ):
                if candidate == fingerprint:
                    found = payload  # later duplicates in-segment win
            return found


class SegmentedResultStore:
    """Sharded, segmented, compacting result store.

    Args:
        root: journal directory (created if missing).  ``None`` (the
            serving tier's default) makes the store memory-only: nothing
            is persisted and an evicted entry is gone.
        max_entries: memory-tier LRU bound (``None`` unbounded).
            Evictions only drop the fast path: a disk-backed entry
            reloads from its shard on the next ``get``.
        segment_bytes: active-segment size that triggers a roll.
        max_segments: per-shard sealed+active segment count that triggers
            compaction.
        max_dead_ratio: dead-record fraction that triggers compaction.

    Events count into the store's registry (``store.hits``,
    ``store.misses``, ``store.evictions``, ``store.loaded``,
    ``store.reloads``, ``store.compactions``); the serving tier attaches
    it.  :attr:`shards` maps each shard key to its shard.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: Optional[int] = 1024,
        segment_bytes: int = 1 << 20,
        max_segments: int = 8,
        max_dead_ratio: float = 0.5,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ServiceError("max_entries must be >= 1 or None")
        if segment_bytes < 1:
            raise ServiceError("segment_bytes must be >= 1")
        if max_segments < 1:
            raise ServiceError("max_segments must be >= 1")
        if not 0.0 < max_dead_ratio <= 1.0:
            raise ServiceError("max_dead_ratio must be in (0, 1]")
        self.root = root
        self.max_entries = max_entries
        self.segment_bytes = segment_bytes
        self.max_segments = max_segments
        self.max_dead_ratio = max_dead_ratio
        #: fingerprint -> the payload's encoded JSON text (the memory tier).
        self._data: "OrderedDict[str, str]" = OrderedDict()
        #: fingerprint -> shard key (to find evicted entries on disk;
        #: journaled stores only).
        self._shard_of: Dict[str, str] = {}
        self.shards: Dict[str, _Shard] = {}
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("store.hits")
        self._misses = self.metrics.counter("store.misses")
        self._evictions = self.metrics.counter("store.evictions")
        self._loaded = self.metrics.counter("store.loaded")
        self._reloads = self.metrics.counter("store.reloads")
        self._compactions = self.metrics.counter("store.compactions")
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._replay_all()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _replay_all(self) -> None:
        """Replay every shard directory under ``root`` at construction."""
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if not os.path.isdir(path):
                continue
            shard = _Shard(self.root, name)
            # The directory name *is* the shard key on replay (it was
            # sanitised at creation; routing only needs consistency).
            self.shards[name] = shard
            for fingerprint, payload in shard._replay().items():
                text = _encode(payload)
                with self._lock:
                    self._remember(fingerprint, text, name)
                    self._loaded.add()

    # ------------------------------------------------------------------

    def _shard_key(self, shard: Optional[str], fingerprint: str) -> str:
        """Route a record: the device hint, else a fingerprint prefix."""
        if shard:
            return _shard_dir_name(shard)
        return f"fp-{fingerprint[:2]}"

    def _shard_for(self, key: str) -> _Shard:
        with self._lock:
            shard = self.shards.get(key)
            if shard is None:
                shard = self.shards[key] = _Shard(self.root, key)
            return shard

    def _remember(self, fingerprint: str, text: str, shard_key: str) -> None:
        self._data[fingerprint] = text
        self._data.move_to_end(fingerprint)
        if self.root is not None:
            self._shard_of[fingerprint] = shard_key
        if self.max_entries is not None:
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self._evictions.add()

    # ------------------------------------------------------------------
    # The store interface
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """A fresh copy of the stored payload, or ``None`` (counted).
        Falls back to the owning shard's segment files when the LRU
        evicted the entry."""
        with self._lock:
            text = self._data.get(fingerprint)
            if text is not None:
                self._data.move_to_end(fingerprint)
                self._hits.add()
            else:
                shard_key = self._shard_of.get(fingerprint)
        if text is not None:
            return json.loads(text)
        if shard_key is None:
            self._misses.add()
            return None
        payload = self._shard_for(shard_key).load(fingerprint)
        if payload is None:
            self._misses.add()
            return None
        text = _encode(payload)
        with self._lock:
            self._reloads.add()
            self._hits.add()
            self._remember(fingerprint, text, shard_key)
        return payload

    def put(
        self,
        fingerprint: str,
        payload: Mapping[str, Any],
        shard: Optional[str] = None,
    ) -> None:
        """Store ``payload``; journal it into the shard ``shard`` routes
        to (the engine passes the device fingerprint).  The payload is
        encoded once; the journal line and the memory tier share that
        text."""
        record = dict(payload)
        record.setdefault("payload_version", PAYLOAD_VERSION)
        check_payload_version(record, what="result payload")
        text = _encode(record)
        shard_key = self._shard_key(shard, fingerprint)
        if self.root is not None and self._shard_for(shard_key).append(
            fingerprint,
            _journal_line(fingerprint, record["payload_version"], text),
            segment_bytes=self.segment_bytes,
            max_segments=self.max_segments,
            max_dead_ratio=self.max_dead_ratio,
        ):
            self._compactions.add()
        with self._lock:
            self._remember(fingerprint, text, shard_key)

    def compact(self) -> None:
        """Force-compact every shard (one segment each afterwards)."""
        with self._lock:
            shards = list(self.shards.values())
        for shard in shards:
            if shard.compact():
                self._compactions.add()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._data:
                return True
            return fingerprint in self._shard_of

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentedResultStore(entries={len(self)}, "
            f"shards={len(self.shards)}, root={self.root!r})"
        )

