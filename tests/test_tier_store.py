"""The sharded segmented journal: rolling, compaction, replay.

Covers the serving tier's :class:`SegmentedResultStore` durability
contract: shard routing by device fingerprint, size-triggered segment
rolls, compaction (count- and dead-ratio-triggered, and forced), restart
replay with later-records-win, torn-tail tolerance on the active segment
only, and payload-version checks.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.payload import PAYLOAD_VERSION
from repro.exceptions import PayloadError, ServiceError
from repro.service.tier import SegmentedResultStore
from tests.conftest import counts


def payload(i: int) -> dict:
    return {"scheme": "jigsaw", "value": i, "padding": "x" * 40}


def segments_of(root: str, shard: str) -> list:
    return sorted(os.listdir(os.path.join(root, shard)))


class TestRoundtrip:
    def test_put_get_roundtrip_and_isolation(self, tmp_path):
        store = SegmentedResultStore(root=str(tmp_path / "j"))
        store.put("fp1", payload(1), shard="devA")
        got = store.get("fp1")
        assert got["value"] == 1
        got["value"] = 999  # a caller's mutation must not corrupt the store
        assert store.get("fp1")["value"] == 1
        assert store.get("missing") is None
        assert "fp1" in store and len(store) == 1

    def test_memory_only_mode(self):
        store = SegmentedResultStore(root=None)
        store.put("fp1", payload(1), shard="devA")
        assert store.get("fp1")["value"] == 1

    def test_shard_routing(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root)
        store.put("aa11", payload(1), shard="devA")
        store.put("bb22", payload(2), shard="devB")
        store.put("cc33", payload(3))  # no hint: fingerprint-prefix shard
        assert sorted(os.listdir(root)) == ["devA", "devB", "fp-cc"]

    def test_shard_key_sanitised(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root)
        store.put("fp1", payload(1), shard="dev/../ evil")
        (name,) = os.listdir(root)
        assert "/" not in name and " " not in name

    def test_lru_eviction_reloads_from_disk(self, tmp_path):
        store = SegmentedResultStore(root=str(tmp_path / "j"), max_entries=2)
        for i in range(5):
            store.put(f"fp{i}", payload(i), shard="devA")
        assert len(store) == 2 and counts(store)["store.evictions"] == 3
        # Evicted entries reload from their shard's segments.
        assert store.get("fp0")["value"] == 0
        assert counts(store)["store.reloads"] == 1

    def test_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(ServiceError):
            SegmentedResultStore(max_entries=0)
        with pytest.raises(ServiceError):
            SegmentedResultStore(segment_bytes=0)
        with pytest.raises(ServiceError):
            SegmentedResultStore(max_dead_ratio=0.0)


class TestSegments:
    def test_size_triggered_roll(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(
            root=root, segment_bytes=150, max_segments=100
        )
        for i in range(6):
            store.put(f"fp{i}", payload(i), shard="devA")
        names = segments_of(root, "devA")
        assert len(names) > 1
        assert names[0] == "seg-000001.jsonl"

    def test_count_triggered_compaction(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(
            root=root, segment_bytes=150, max_segments=3
        )
        for i in range(30):
            store.put(f"fp{i:02d}", payload(i), shard="devA")
        assert counts(store)["store.compactions"] >= 1
        # The snapshot + at most a few fresh segments.
        assert len(segments_of(root, "devA")) <= 4
        assert all(store.get(f"fp{i:02d}")["value"] == i for i in range(30))

    def test_dead_ratio_triggered_compaction(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(
            root=root, segment_bytes=10_000, max_segments=100,
            max_dead_ratio=0.5,
        )
        store.put("fp0", payload(0), shard="devA")
        for i in range(1, 6):
            store.put("fp0", payload(i), shard="devA")  # dead duplicates
        assert counts(store)["store.compactions"] >= 1
        # Duplicates put after the last compaction may still be dead, but
        # compaction keeps the ratio bounded below the trigger.
        assert store.shards["devA"]._dead <= 1
        assert store.get("fp0")["value"] == 5  # later records won

    def test_forced_compaction_leaves_one_segment(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root, segment_bytes=150)
        for i in range(8):
            store.put(f"fp{i}", payload(i), shard="devA")
        store.compact()
        assert len(segments_of(root, "devA")) == 1
        # The snapshot took the next number — crash-safe without renames.
        reloaded = SegmentedResultStore(root=root)
        assert all(reloaded.get(f"fp{i}")["value"] == i for i in range(8))


class TestReplay:
    def test_restart_replays_later_records_win(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root, segment_bytes=150)
        for i in range(10):
            store.put(f"fp{i % 3}", payload(i), shard="devA")
        reloaded = SegmentedResultStore(root=root)
        assert reloaded.get("fp0")["value"] == 9
        assert reloaded.get("fp1")["value"] == 7
        assert reloaded.get("fp2")["value"] == 8
        assert counts(reloaded)["store.loaded"] == 3

    def test_torn_tail_tolerated_on_active_segment(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root)
        store.put("fp1", payload(1), shard="devA")
        (name,) = segments_of(root, "devA")
        with open(os.path.join(root, "devA", name), "a") as handle:
            handle.write('{"fingerprint": "torn-mid-append')
        reloaded = SegmentedResultStore(root=root)
        assert reloaded.get("fp1")["value"] == 1

    def test_midfile_corruption_is_fatal(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root)
        store.put("fp1", payload(1), shard="devA")
        (name,) = segments_of(root, "devA")
        path = os.path.join(root, "devA", name)
        with open(path) as handle:
            good = handle.read()
        with open(path, "w") as handle:
            handle.write("not json\n" + good)
        with pytest.raises(PayloadError, match="corrupt"):
            SegmentedResultStore(root=root)

    def test_corruption_in_sealed_segment_is_fatal_even_at_tail(
        self, tmp_path
    ):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root, segment_bytes=80)
        for i in range(4):
            store.put(f"fp{i}", payload(i), shard="devA")
        names = segments_of(root, "devA")
        assert len(names) >= 2
        # Tear the tail of a SEALED (non-active) segment: that file was
        # complete by construction, so this is corruption, not a crash.
        with open(os.path.join(root, "devA", names[0]), "a") as handle:
            handle.write('{"fingerprint": "torn')
        with pytest.raises(PayloadError, match="corrupt"):
            SegmentedResultStore(root=root)

    def test_future_payload_version_refused(self, tmp_path):
        root = str(tmp_path / "j")
        store = SegmentedResultStore(root=root)
        store.put("fp1", payload(1), shard="devA")
        (name,) = segments_of(root, "devA")
        with open(os.path.join(root, "devA", name), "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "fingerprint": "fp2",
                        "payload_version": PAYLOAD_VERSION + 1,
                        "payload": {"payload_version": PAYLOAD_VERSION + 1},
                    }
                )
                + "\n"
            )
        with pytest.raises(PayloadError, match="payload_version"):
            SegmentedResultStore(root=root)

    def test_put_refuses_future_version(self, tmp_path):
        store = SegmentedResultStore(root=str(tmp_path / "j"))
        with pytest.raises(PayloadError):
            store.put(
                "fp1", {"payload_version": PAYLOAD_VERSION + 1}, shard="devA"
            )

