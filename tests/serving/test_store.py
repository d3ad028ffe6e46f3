"""MapStore retention, eviction safety and cache transparency."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import store as store_mod
from repro.serving.errors import EpochEvicted
from repro.serving.store import MapStore
from repro.serving.wire import decode_snapshot, encode_snapshot


def _record(seed: int) -> bytes:
    return random.Random(seed).randbytes(8)


def _fill(store: MapStore, epochs: int) -> None:
    for e in range(1, epochs + 1):
        records = tuple(sorted(_record(100 * e + i) for i in range(e % 4)))
        store.put_epoch(e, delta=b"d%d" % e, records=records, sink=e)


class TestRetention:
    def test_epochs_must_arrive_in_order(self):
        store = MapStore("q")
        store.put_epoch(1, b"", (), None)
        with pytest.raises(ValueError):
            store.put_epoch(3, b"", (), None)
        with pytest.raises(ValueError):
            store.put_epoch(1, b"", (), None)

    def test_eviction_window(self):
        store = MapStore("q", retention=3)
        _fill(store, 5)
        assert store.oldest_retained() == 3
        assert store.latest_epoch == 5
        assert store.delta(2) is None
        assert store.delta(3) == b"d3"

    def test_evicted_snapshot_raises_not_stale(self):
        store = MapStore("q", retention=2)
        _fill(store, 2)
        # Render and cache epoch 1, then push it out of retention.
        cached = store.snapshot(1)
        assert decode_snapshot(cached).epoch == 1
        store.put_epoch(3, b"d3", (_record(1),), 3)
        with pytest.raises(EpochEvicted):
            store.snapshot(1)

    def test_empty_store_serves_canonical_empty_snapshot(self):
        assert MapStore("q").snapshot() == encode_snapshot(0, (), None)

    def test_never_published_epoch_raises(self):
        store = MapStore("q")
        _fill(store, 2)
        with pytest.raises(EpochEvicted):
            store.snapshot(9)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MapStore("q", retention=0)


class TestCache:
    def test_hit_and_miss_counters(self, monkeypatch):
        monkeypatch.setattr(store_mod, "SNAPSHOT_CACHE_SIZE", 2)
        store = MapStore("q")
        _fill(store, 3)
        store.snapshot(3)
        store.snapshot(3)
        assert (store.cache_hits, store.cache_misses) == (1, 1)
        # Touch two other epochs: LRU capacity 2 evicts epoch 3's render.
        store.snapshot(1)
        store.snapshot(2)
        store.snapshot(3)
        assert store.cache_misses == 4

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        retention=st.integers(1, 6),
        cache_size=st.integers(1, 4),
        n_ops=st.integers(1, 60),
    )
    def test_cache_is_transparent(self, seed, retention, cache_size, n_ops):
        """A cached store serves the bytes a fresh rendering of the
        retained state gives, under any interleaving of publishes and
        (possibly repeated) reads."""
        rng = random.Random(seed)
        store = MapStore("q", retention)
        published = {}
        epoch = 0
        with mock.patch.object(store_mod, "SNAPSHOT_CACHE_SIZE", cache_size):
            for _ in range(n_ops):
                if epoch == 0 or rng.random() < 0.4:
                    epoch += 1
                    records = tuple(
                        sorted(
                            _record(rng.randrange(50))
                            for _ in range(rng.randrange(4))
                        )
                    )
                    sink = rng.choice([None, rng.randrange(0xFFFF)])
                    store.put_epoch(epoch, b"d%d" % epoch, records, sink)
                    published[epoch] = encode_snapshot(epoch, records, sink)
                else:
                    probe = rng.randrange(max(1, epoch - retention - 1), epoch + 2)
                    try:
                        served = store.snapshot(probe)
                    except EpochEvicted:
                        served = "evicted"
                    retained = epoch - retention < probe <= epoch
                    assert served == (published[probe] if retained else "evicted")
