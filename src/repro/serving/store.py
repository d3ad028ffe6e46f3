"""Per-session payload store: retention window + rendered-snapshot cache.

A :class:`MapStore` holds, for every epoch inside its retention window:

- the epoch's **delta payload** (what a subscriber replaying missed
  epochs is sent), and
- the epoch's canonical **record state** (the position-keyed map records
  after applying the delta, as a sorted tuple) plus the sink reading,
  from which the snapshot payload is rendered on demand.

Snapshot payloads are memoised in an LRU of :data:`SNAPSHOT_CACHE_SIZE`
renderings keyed by ``(epoch, simplified)``.  The cache is *transparent*
by construction -- rendering is a pure function of the retained
per-epoch state, so cache hits and misses return identical bytes
(pinned by a property test) --
and eviction is safe: dropping an epoch's state also purges its cached
rendering, so a request for an evicted epoch raises
:class:`~repro.serving.errors.EpochEvicted` instead of ever serving
stale bytes.

Epoch 0 (before anything was published) renders as the canonical empty
snapshot -- the same state a fresh
:class:`~repro.serving.wire.DeltaReplayer` renders, which is what makes
the snapshot-vs-replay identity hold from the very start of a stream.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.serving.errors import EpochEvicted
from repro.serving.wire import encode_snapshot

#: Rendered snapshots the LRU keeps (read at each render, so a test can
#: patch it).
SNAPSHOT_CACHE_SIZE = 8


@dataclass(frozen=True)
class _EpochEntry:
    delta: bytes
    records: Tuple[bytes, ...]
    sink: Optional[int]
    #: The SIMPLIFIED stream's payloads for this epoch (None on sessions
    #: without a configured simplify tolerance).
    s_delta: Optional[bytes] = None
    s_records: Optional[Tuple[bytes, ...]] = None


class MapStore:
    """Bounded per-session storage of served payloads.

    Args:
        query_id: the owning session's query id (error-message context).
        retention: how many most-recent epochs keep their delta payload
            and record state (>= 1); older epochs are evicted.
    """

    def __init__(self, query_id: str, retention: int = 128):
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.query_id = query_id
        self.retention = retention
        self._epochs: "OrderedDict[int, _EpochEntry]" = OrderedDict()
        # Rendered-snapshot LRU, keyed (epoch, simplified).
        self._rendered: "OrderedDict[Tuple[int, bool], bytes]" = OrderedDict()
        self._latest = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def latest_epoch(self) -> int:
        """The newest published epoch (0 before the first publish)."""
        return self._latest

    def oldest_retained(self) -> Optional[int]:
        """The oldest epoch still in retention (None when empty)."""
        if not self._epochs:
            return None
        return next(iter(self._epochs))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put_epoch(
        self,
        epoch: int,
        delta: bytes,
        records: Tuple[bytes, ...],
        sink: Optional[int],
        s_delta: Optional[bytes] = None,
        s_records: Optional[Tuple[bytes, ...]] = None,
    ) -> None:
        """Publish one epoch's payloads (epochs must arrive in order).

        ``s_delta`` / ``s_records`` carry the SIMPLIFIED stream's epoch
        payloads when the session produces one; they share the epoch's
        retention window.
        """
        if epoch != self._latest + 1:
            raise ValueError(
                f"epoch {epoch} out of order (latest is {self._latest})"
            )
        self._epochs[epoch] = _EpochEntry(
            delta,
            tuple(records),
            sink,
            s_delta=s_delta,
            s_records=None if s_records is None else tuple(s_records),
        )
        self._latest = epoch
        while len(self._epochs) > self.retention:
            old, _ = self._epochs.popitem(last=False)
            # Purge any cached rendering with the state it came from:
            # eviction must never leave a servable stale snapshot behind.
            self._rendered.pop((old, False), None)
            self._rendered.pop((old, True), None)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def delta(self, epoch: int, simplified: bool = False) -> Optional[bytes]:
        """The delta payload of ``epoch`` (None once evicted / unknown).

        With ``simplified`` the SIMPLIFIED stream's delta is returned;
        requesting it on a session that never produced one raises
        ``ValueError`` (negotiation upstream should have refused).
        """
        entry = self._epochs.get(epoch)
        if entry is None:
            return None
        if not simplified:
            return entry.delta
        if entry.s_delta is None:
            raise ValueError(
                f"query {self.query_id!r} epoch {epoch} has no simplified delta"
            )
        return entry.s_delta

    def snapshot(
        self, epoch: Optional[int] = None, simplified: bool = False
    ) -> bytes:
        """The rendered snapshot payload of ``epoch`` (default: latest).

        With ``simplified`` the snapshot is rendered from the epoch's
        SIMPLIFIED record subset (cached separately from the plain
        rendering).

        Raises:
            EpochEvicted: the epoch fell out of retention (or was never
                published).
            ValueError: a simplified snapshot of an epoch that has none.
        """
        if epoch is None:
            epoch = self._latest
        if epoch == 0 and self._latest == 0:
            # Nothing published yet: the canonical empty map (identical
            # for both encodings -- simplifying nothing keeps nothing).
            return encode_snapshot(0, (), None)
        entry = self._epochs.get(epoch)
        if entry is None:
            raise EpochEvicted(
                f"query {self.query_id!r} epoch {epoch} is outside retention "
                f"[{self.oldest_retained()}, {self._latest}]"
            )
        records = entry.records
        if simplified:
            if entry.s_records is None:
                raise ValueError(
                    f"query {self.query_id!r} epoch {epoch} has no simplified "
                    f"record state"
                )
            records = entry.s_records
        key = (epoch, simplified)
        cached = self._rendered.get(key)
        if cached is not None:
            self._rendered.move_to_end(key)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        payload = encode_snapshot(epoch, records, entry.sink)
        self._rendered[key] = payload
        while len(self._rendered) > SNAPSHOT_CACHE_SIZE:
            self._rendered.popitem(last=False)
        return payload
