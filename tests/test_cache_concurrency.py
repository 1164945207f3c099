"""Thread-hammering the shared caches: consistent counters, no dup work.

The service layer shares one :class:`CompilationCache` per device across
every job session, and the serving tier's drain workers compile on their
own threads against it, so the stage store must keep two promises under
contention:

* **counters consistent** — ``hits + misses`` equals the number of
  lookups, entry counts match what was stored, no lost updates;
* **no duplicate in-flight computes** — concurrent misses on one key run
  the compute exactly once (`stage_get_or_compute`'s per-key locks), the
  guarantee behind the route-once invariant at any worker count.

The :class:`SegmentedResultStore` gets the same treatment for the
service's memoization path.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import SimulationError
from repro.runtime import CompilationCache
from repro.service.tier import SegmentedResultStore
from tests.conftest import counts

THREADS = 16
KEYS = 8
ROUNDS = 40


class TestStageStoreHammering:
    def test_raw_get_put_counters_consistent(self):
        cache = CompilationCache()
        lookups_per_thread = KEYS * ROUNDS

        def worker(thread_index: int) -> None:
            for round_index in range(ROUNDS):
                for key_index in range(KEYS):
                    key = f"key-{key_index}"
                    value = cache.stage_get("route", key)
                    if value is None:
                        cache.stage_put("route", key, f"routed-{key_index}")

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        counters = counts(cache)
        assert (
            counters["cache.stage.route.hits"]
            + counters["cache.stage.route.misses"]
            == THREADS * lookups_per_thread
        )
        assert cache.stage_entries("route") == KEYS
        # Every key ends up storing exactly one value, readable by all.
        for key_index in range(KEYS):
            assert cache.stage_get("route", f"key-{key_index}") == (
                f"routed-{key_index}"
            )

    def test_get_or_compute_runs_compute_once_per_key(self):
        cache = CompilationCache()
        computes: Counter = Counter()
        computes_lock = threading.Lock()
        barrier = threading.Barrier(THREADS)

        def worker(thread_index: int) -> int:
            barrier.wait()  # maximise contention on the cold store
            observed_hits = 0
            for round_index in range(ROUNDS):
                for key_index in range(KEYS):
                    key = f"key-{key_index}"

                    def compute(key_index=key_index):
                        with computes_lock:
                            computes[key_index] += 1
                        time.sleep(0.0005)  # widen the in-flight window
                        return f"artifact-{key_index}"

                    value, hit = cache.stage_get_or_compute(
                        "route", key, compute
                    )
                    assert value == f"artifact-{key_index}"
                    observed_hits += int(hit)
            return observed_hits

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            hits = sum(pool.map(worker, range(THREADS)))

        # The whole point: one compute per key, no matter how many
        # threads missed concurrently.
        assert computes == Counter({k: 1 for k in range(KEYS)})
        counters = counts(cache)
        total_lookups = THREADS * ROUNDS * KEYS
        assert (
            counters["cache.stage.route.hits"]
            + counters["cache.stage.route.misses"]
            == total_lookups
        )
        assert cache.stage_entries("route") == KEYS
        # Waiters that replayed a peer's in-flight compute return hit=False
        # only for the single computing call per key.
        assert hits >= total_lookups - THREADS * KEYS

    def test_get_or_compute_failure_releases_key(self):
        cache = CompilationCache()
        attempts = []

        def failing():
            attempts.append(1)
            raise SimulationError("boom")

        with pytest.raises(SimulationError):
            cache.stage_get_or_compute("route", "k", failing)
        # The key lock was released: a retry computes again and succeeds.
        value, hit = cache.stage_get_or_compute("route", "k", lambda: "ok")
        assert value == "ok" and not hit
        assert len(attempts) == 1

    def test_disabled_cache_still_serializes_per_key(self):
        cache = CompilationCache.disabled()
        concurrent = []
        lock = threading.Lock()
        peak = []

        def compute():
            with lock:
                concurrent.append(1)
                peak.append(len(concurrent))
            time.sleep(0.002)
            with lock:
                concurrent.pop()
            return "v"

        def worker(_):
            value, hit = cache.stage_get_or_compute("route", "same", compute)
            assert value == "v" and not hit

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        # Nothing is ever stored, so all 8 computed — but never two at once.
        assert max(peak) == 1
        assert cache.stage_entries() == 0


class TestResultStoreHammering:
    def test_concurrent_put_get_counters_consistent(self, tmp_path):
        store = SegmentedResultStore(root=str(tmp_path / "store"))
        gets_per_thread = KEYS * ROUNDS

        def worker(thread_index: int) -> None:
            for round_index in range(ROUNDS):
                for key_index in range(KEYS):
                    key = f"fp-{key_index}"
                    if store.get(key) is None:
                        store.put(key, {"value": key_index})

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        counters = counts(store)
        assert (
            counters["store.hits"] + counters["store.misses"]
            == THREADS * gets_per_thread
        )
        assert len(store) == KEYS
        # The journal replays to the same state (duplicates collapse).
        reloaded = SegmentedResultStore(root=str(tmp_path / "store"))
        for key_index in range(KEYS):
            assert reloaded.get(f"fp-{key_index}") == {
                "value": key_index,
                "payload_version": 1,
            }

    def test_concurrent_eviction_keeps_bound(self):
        store = SegmentedResultStore(max_entries=4)

        def worker(thread_index: int) -> None:
            for key_index in range(64):
                store.put(f"fp-{thread_index}-{key_index}", {"v": key_index})
                store.get(f"fp-{thread_index}-{key_index}")

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))
        assert len(store) <= 4
        assert counts(store)["store.evictions"] == THREADS * 64 - len(store)
