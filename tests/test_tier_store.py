"""The sharded segmented journal: rolling, compaction, replay.

Covers the serving tier's :class:`SegmentedResultStore` durability
contract: shard routing by device fingerprint, size-triggered segment
rolls, compaction (count- and dead-ratio-triggered, and forced), restart
replay with later-records-win, torn-tail tolerance on the active segment
only, payload-version checks, and a property over truncated and garbled
segment bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


    @pytest.mark.parametrize("line", [b"[1, 2]", b"42", b"null", b'"fp"'])
    def test_record_that_is_not_an_object_is_fatal(self, tmp_path, line):
        """Valid JSON that is not an object is a defect, not a torn tail,
        even as the active segment's last line."""
        root = str(tmp_path / "j")
        SegmentedResultStore(root=root).put("fp1", payload(1), shard="devA")
        (name,) = segments_of(root, "devA")
        with open(os.path.join(root, "devA", name), "ab") as handle:
            handle.write(line + b"\n")
        with pytest.raises(PayloadError, match="not a JSON object"):
            SegmentedResultStore(root=root)

    def test_undecodable_torn_tail_tolerated_on_active_segment(self, tmp_path):
        root = str(tmp_path / "j")
        SegmentedResultStore(root=root).put("fp1", payload(1), shard="devA")
        (name,) = segments_of(root, "devA")
        with open(os.path.join(root, "devA", name), "ab") as handle:
            handle.write(b'{"fingerprint": "\xc3')
        assert SegmentedResultStore(root=root).get("fp1")["value"] == 1

    def test_undecodable_line_mid_file_is_fatal(self, tmp_path):
        root = str(tmp_path / "j")
        SegmentedResultStore(root=root).put("fp1", payload(1), shard="devA")
        (name,) = segments_of(root, "devA")
        path = os.path.join(root, "devA", name)
        with open(path, "rb") as handle:
            good = handle.read()
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe\n" + good)
        with pytest.raises(PayloadError, match="corrupt"):
            SegmentedResultStore(root=root)


#: Byte strings a crash or a bad disk could leave in a segment.
_GARBAGE = st.binary(min_size=1, max_size=6) | st.sampled_from(
    [b"\n", b"\xff", b"\xc3", b"[1, 2]\n", b"42\n", b"null\n", b"[" * 3000]
)


@settings(max_examples=150, deadline=None)
@given(
    segment=st.integers(0, 7),
    edits=st.lists(
        st.tuples(st.integers(0, 1 << 20), _GARBAGE, st.booleans()), max_size=3
    ),
    cut=st.none() | st.integers(0, 1 << 20),
)
def test_damaged_segment_replays_intact_records_or_raises(segment, edits, cut):
    """Truncate or garble one segment's bytes: opening the store either
    succeeds and serves every record whose line is intact, or raises
    PayloadError, never another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "j")
        store = SegmentedResultStore(root=root, segment_bytes=250)
        # Fingerprints far apart: no small edit turns one into another.
        records = {
            hashlib.sha256(str(i).encode()).hexdigest(): payload(i)
            for i in range(6)
        }
        for fingerprint, record in records.items():
            store.put(fingerprint, record, shard="devA")
        names = segments_of(root, "devA")
        assert len(names) >= 2
        home = {}
        for name in names:
            with open(os.path.join(root, "devA", name), "rb") as handle:
                for line in handle.read().splitlines():
                    home[json.loads(line)["fingerprint"]] = (name, line)
        damaged = names[segment % len(names)]
        path = os.path.join(root, "devA", damaged)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        for position, chunk, insert in edits:
            position %= len(data) + 1
            stop = position if insert else position + len(chunk)
            data[position:stop] = chunk
        if cut is not None:
            del data[cut % (len(data) + 1) :]
        with open(path, "wb") as handle:
            handle.write(data)
        intact = set(bytes(data).split(b"\n"))
        try:
            reopened = SegmentedResultStore(root=root)
        except PayloadError:
            return
        for fingerprint, record in records.items():
            name, line = home[fingerprint]
            if name != damaged or line in intact:
                assert reopened.get(fingerprint) == {
                    **record,
                    "payload_version": PAYLOAD_VERSION,
                }


def _parent_line(fingerprint: str, record: dict) -> bytes:
    """A journal line as the store wrote it before encoding once: the
    record canonicalized through a JSON round trip, then the wrapper
    encoded with sorted keys."""
    record = dict(record)
    record.setdefault("payload_version", PAYLOAD_VERSION)
    canonical = json.loads(json.dumps(record, sort_keys=True))
    wrapper = {
        "fingerprint": fingerprint,
        "payload_version": canonical["payload_version"],
        "payload": canonical,
    }
    return (json.dumps(wrapper, sort_keys=True) + "\n").encode("utf-8")


class TestEncodeOnce:
    def _journal_bytes(self, root: str, shard: str) -> bytes:
        (name,) = segments_of(root, shard)
        with open(os.path.join(root, shard, name), "rb") as handle:
            return handle.read()

    def test_journal_line_bytes_match_the_wrapper_encoding(self, tmp_path):
        root = str(tmp_path / "j")
        tricky = {
            "scheme": "jigsaw",
            "zeta": {"b": [1, 2.5, -0.0, 1e-300], "a": None, "ü": "naïve ☃"},
            "alpha": [{"y": True, "x": False}, "tab\tquote\"slash\\"],
            "huge": 1.7976931348623157e308,
            "tiny": 5e-324,
            "int": -(2**70),
        }
        store = SegmentedResultStore(root=root)
        store.put("fp-tricky", tricky, shard="devA")
        assert self._journal_bytes(root, "devA") == _parent_line(
            "fp-tricky", tricky
        )

    def test_served_payload_line_bytes_match(self, tmp_path):
        from repro.devices import ibmq_toronto
        from repro.runtime import Session
        from repro.workloads import workload_by_name

        session = Session(ibmq_toronto(), seed=3, exact=True)
        record = session.run_jigsaw(workload_by_name("GHZ-6")).to_dict()
        root = str(tmp_path / "j")
        SegmentedResultStore(root=root).put("fp-ghz", record, shard="devB")
        line = self._journal_bytes(root, "devB")
        assert line == _parent_line("fp-ghz", record)
        # Replay and compaction read it back and rewrite the same bytes.
        reopened = SegmentedResultStore(root=root)
        assert reopened.get("fp-ghz") == json.loads(line)["payload"]
        reopened.compact()
        assert self._journal_bytes(root, "devB") == line

    def test_put_copies_the_callers_payload(self):
        store = SegmentedResultStore()
        record = {"value": [1, 2]}
        store.put("fp1", record)
        record["value"].append(3)
        assert store.get("fp1")["value"] == [1, 2]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**64), 2**64)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)
_PAYLOADS = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key != "payload_version"),
    _JSON,
    max_size=5,
)


def _mutate_everywhere(value) -> None:
    """Change every container reachable from ``value`` in place."""
    if isinstance(value, dict):
        for child in list(value.values()):
            _mutate_everywhere(child)
        value["\x00mutated"] = True
    elif isinstance(value, list):
        for child in value:
            _mutate_everywhere(child)
        value.append("mutated")


@settings(max_examples=100, deadline=None)
@given(payloads=st.lists(_PAYLOADS, min_size=1, max_size=4))
def test_put_get_returns_equal_independent_copies(payloads):
    """``get`` returns what ``put`` stored, as a fresh object every call:
    mutating one copy leaves the next ``get`` unchanged, and a reopened
    journal serves the same payloads."""
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "j")
        store = SegmentedResultStore(root=root)
        expected = {}
        for index, record in enumerate(payloads):
            fingerprint = f"fp{index}"
            store.put(fingerprint, record, shard="devA")
            expected[fingerprint] = dict(
                record, payload_version=PAYLOAD_VERSION
            )
        for fingerprint, want in expected.items():
            first = store.get(fingerprint)
            assert first == want
            _mutate_everywhere(first)
            second = store.get(fingerprint)
            assert second == want and second is not first
        reopened = SegmentedResultStore(root=root)
        for fingerprint, want in expected.items():
            assert reopened.get(fingerprint) == want
