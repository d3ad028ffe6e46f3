"""Wire framing for served contour maps: snapshots, deltas, replay.

The serving layer ships the sink's report cache to clients in the same
2-byte-per-parameter quantised records the network uses
(:class:`repro.core.codec.ReportCodec`, 8 bytes per report), wrapped in
two payload kinds:

- a **snapshot** carries the complete current map: every cached record,
  in canonical order, plus the sink's own quantised reading;
- a **delta** carries one epoch's change: the records that were
  (re)delivered this epoch and the positions whose reports were
  retracted (a retraction is position-only, 4 bytes -- the serving
  analogue of :data:`repro.core.continuous.RETRACTION_BYTES`).

Records are keyed by their quantised position (the paper's reports carry
no source id -- the position identifies the source), so a client that
folds deltas into a position-keyed dict reconstructs the server's map
state exactly.  :class:`DeltaReplayer` implements that fold and can
re-render the snapshot payload at any point; the serving tests pin that
a replay from epoch 0 is *byte-identical* to the server's ``snapshot()``
at every epoch.

Canonical ordering: snapshot records are sorted by their raw 8-byte
encoding.  Any total order would do -- sorting makes the rendering a
pure function of the map state, which is what byte-identity needs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.wire import ISOLINE_REPORT_BYTES
from repro.geometry.simplify import (
    chain_points,
    polyline_deviation,
    simplify_polyline,
    simplify_ring,
)
from repro.serving.errors import (
    EncodingUnavailable,
    ReplayGapError,
    WireFormatError,
)

#: Message kinds carried by :class:`ServedMessage`.
SNAPSHOT = "snapshot"
DELTA = "delta"

#: A delta from a prediction-enabled session (``prediction_tolerance``
#: set on its :class:`~repro.serving.session.SessionConfig`): the PAYLOAD
#: layout is byte-identical to :data:`DELTA` and a :class:`DeltaReplayer`
#: folds it the same way, but the kind tags the records as *mirrored
#: predictor state* -- some entries are deterministic dead-reckoned
#: extrapolations rather than delivered sensor reports, with staleness
#: bounded by the session's heartbeat cap.
DELTA_PREDICTED = "delta_predicted"

#: Stream encodings a subscriber can negotiate (see
#: :func:`negotiate_encoding`).  PLAIN is the PR-6 contract: every
#: cached record ships.  SIMPLIFIED ships the tolerance-bounded record
#: subset produced by :class:`SimplifiedStream`; its payload *layout* is
#: identical to PLAIN (same headers, records, retractions -- a
#: :class:`DeltaReplayer` folds either), only the record selection
#: differs, so the version number is part of the negotiation, not of the
#: payload bytes.
ENCODING_PLAIN = "plain"
ENCODING_SIMPLIFIED = "simplified"

#: Wire contract versions (negotiated out of band, per subscriber).
WIRE_VERSION_PLAIN = 1
WIRE_VERSION_SIMPLIFIED = 2
WIRE_VERSIONS = {
    ENCODING_PLAIN: WIRE_VERSION_PLAIN,
    ENCODING_SIMPLIFIED: WIRE_VERSION_SIMPLIFIED,
}

#: A snapshot served while the session's shard is failing or recovering:
#: the payload is the last *retained* epoch (byte-identical to what
#: ``snapshot`` served when that epoch was fresh), and the distinct kind
#: is the explicit staleness marker -- the client knows the map may lag
#: the field instead of mistaking a degraded answer for a live one.
SNAPSHOT_STALE = "snapshot_stale"

#: Delta header: epoch (u32), new-record count (u16), retraction count
#: (u16), quantised sink value (u16), sink-present flag (u8).
_DELTA_HEADER = struct.Struct("<IHHHB")

#: Snapshot header: epoch (u32), record count (u16), quantised sink
#: value (u16), sink-present flag (u8).
_SNAPSHOT_HEADER = struct.Struct("<IHHB")

#: A retraction on the serving wire: the quantised (x, y) position.
_RETRACTION = struct.Struct("<HH")

#: Position offset inside an encoded report record (value is first).
_RECORD_POS = struct.Struct("<HH")

#: Counts are u16 fields.
MAX_RECORDS = 0xFFFF


@dataclass(frozen=True)
class ServedMessage:
    """One unit of the serving protocol as seen by a client.

    Attributes:
        kind: :data:`SNAPSHOT`, :data:`SNAPSHOT_STALE`, :data:`DELTA` or
            :data:`DELTA_PREDICTED`.
        epoch: the epoch the payload describes (snapshots: the epoch the
            state is current *as of*; deltas: the epoch the change
            belongs to).
        payload: the encoded bytes.
    """

    kind: str
    epoch: int
    payload: bytes

    @property
    def stale(self) -> bool:
        """True when this is a degraded-mode (staleness-tagged) snapshot."""
        return self.kind == SNAPSHOT_STALE

    @property
    def predicted(self) -> bool:
        """True when this delta carries mirrored-predictor state (some
        records may be bounded-staleness extrapolations)."""
        return self.kind == DELTA_PREDICTED


@dataclass(frozen=True)
class DeltaFrame:
    """A decoded delta payload."""

    epoch: int
    records: Tuple[bytes, ...]
    retractions: Tuple[Tuple[int, int], ...]
    sink: Optional[int]


@dataclass(frozen=True)
class SnapshotFrame:
    """A decoded snapshot payload."""

    epoch: int
    records: Tuple[bytes, ...]
    sink: Optional[int]


def record_position_key(record: bytes) -> Tuple[int, int]:
    """The quantised (x, y) a record is keyed by in map state."""
    return _RECORD_POS.unpack_from(record, 2)


def _pack_sink(sink: Optional[int]) -> Tuple[int, int]:
    if sink is None:
        return 0, 0
    if not 0 <= sink <= 0xFFFF:
        raise WireFormatError(f"quantised sink value {sink} out of range")
    return sink, 1


def _unpack_sink(q: int, flag: int) -> Optional[int]:
    return q if flag else None


def _check_records(records: Iterable[bytes]) -> Tuple[bytes, ...]:
    recs = tuple(records)
    if len(recs) > MAX_RECORDS:
        raise WireFormatError(f"{len(recs)} records exceed the u16 count field")
    for r in recs:
        if len(r) != ISOLINE_REPORT_BYTES:
            raise WireFormatError(
                f"record must be {ISOLINE_REPORT_BYTES} bytes, got {len(r)}"
            )
    return recs


def encode_delta(
    epoch: int,
    records: Iterable[bytes],
    retractions: Iterable[Tuple[int, int]],
    sink: Optional[int],
) -> bytes:
    """Serialise one epoch's change set."""
    recs = _check_records(records)
    rets = tuple(retractions)
    if len(rets) > MAX_RECORDS:
        raise WireFormatError(f"{len(rets)} retractions exceed the u16 count field")
    q_sink, flag = _pack_sink(sink)
    parts = [_DELTA_HEADER.pack(epoch, len(recs), len(rets), q_sink, flag)]
    parts.extend(recs)
    parts.extend(_RETRACTION.pack(qx, qy) for qx, qy in rets)
    return b"".join(parts)


def decode_delta(payload: bytes) -> DeltaFrame:
    """Deserialise a delta payload; raises :class:`WireFormatError`."""
    if len(payload) < _DELTA_HEADER.size:
        raise WireFormatError("delta payload shorter than its header")
    epoch, n_new, n_ret, q_sink, flag = _DELTA_HEADER.unpack_from(payload)
    expected = _DELTA_HEADER.size + n_new * ISOLINE_REPORT_BYTES + n_ret * _RETRACTION.size
    if len(payload) != expected:
        raise WireFormatError(
            f"delta payload is {len(payload)} bytes, header implies {expected}"
        )
    off = _DELTA_HEADER.size
    records = tuple(
        bytes(payload[off + i * ISOLINE_REPORT_BYTES : off + (i + 1) * ISOLINE_REPORT_BYTES])
        for i in range(n_new)
    )
    off += n_new * ISOLINE_REPORT_BYTES
    retractions = tuple(
        _RETRACTION.unpack_from(payload, off + i * _RETRACTION.size)
        for i in range(n_ret)
    )
    return DeltaFrame(epoch, records, retractions, _unpack_sink(q_sink, flag))


def encode_snapshot(
    epoch: int, records: Iterable[bytes], sink: Optional[int]
) -> bytes:
    """Serialise the full map state in canonical (sorted) record order."""
    recs = tuple(sorted(_check_records(records)))
    q_sink, flag = _pack_sink(sink)
    return b"".join(
        [_SNAPSHOT_HEADER.pack(epoch, len(recs), q_sink, flag), *recs]
    )


def decode_snapshot(payload: bytes) -> SnapshotFrame:
    """Deserialise a snapshot payload; raises :class:`WireFormatError`."""
    if len(payload) < _SNAPSHOT_HEADER.size:
        raise WireFormatError("snapshot payload shorter than its header")
    epoch, count, q_sink, flag = _SNAPSHOT_HEADER.unpack_from(payload)
    expected = _SNAPSHOT_HEADER.size + count * ISOLINE_REPORT_BYTES
    if len(payload) != expected:
        raise WireFormatError(
            f"snapshot payload is {len(payload)} bytes, header implies {expected}"
        )
    off = _SNAPSHOT_HEADER.size
    records = tuple(
        bytes(payload[off + i * ISOLINE_REPORT_BYTES : off + (i + 1) * ISOLINE_REPORT_BYTES])
        for i in range(count)
    )
    return SnapshotFrame(epoch, records, _unpack_sink(q_sink, flag))


class DeltaReplayer:
    """Client-side map state: fold served messages, re-render snapshots.

    Starts empty at epoch 0 (matching the server's pre-first-epoch
    state).  Deltas must arrive contiguously (epoch ``n+1`` after ``n``);
    a snapshot resets the state to the carried epoch, which is how the
    session resyncs a subscriber whose requested epoch fell out of
    retention.  A client that wants reports decodes the records of
    ``decode_snapshot(replayer.render())`` with
    :meth:`repro.core.codec.ReportCodec.decode`.
    """

    def __init__(self) -> None:
        self._state: Dict[Tuple[int, int], bytes] = {}
        self._sink: Optional[int] = None
        self.epoch = 0

    @property
    def record_count(self) -> int:
        return len(self._state)

    def apply(self, message: ServedMessage) -> None:
        """Fold one served message into the map state."""
        if message.kind in (DELTA, DELTA_PREDICTED):
            self.apply_delta(decode_delta(message.payload))
        elif message.kind in (SNAPSHOT, SNAPSHOT_STALE):
            # A stale snapshot resyncs like a live one; its embedded
            # epoch is the (older) epoch the state is current as of.
            self.apply_snapshot(decode_snapshot(message.payload))
        else:
            raise WireFormatError(f"unknown message kind {message.kind!r}")

    def apply_delta(self, frame: DeltaFrame) -> None:
        if frame.epoch != self.epoch + 1:
            raise ReplayGapError(
                f"delta for epoch {frame.epoch} cannot follow epoch {self.epoch}"
            )
        for rec in frame.records:
            self._state[record_position_key(rec)] = rec
        for key in frame.retractions:
            self._state.pop(key, None)
        self._sink = frame.sink
        self.epoch = frame.epoch

    def apply_snapshot(self, frame: SnapshotFrame) -> None:
        self._state = {record_position_key(r): r for r in frame.records}
        self._sink = frame.sink
        self.epoch = frame.epoch

    def render(self) -> bytes:
        """The snapshot payload of the current state (canonical order)."""
        return encode_snapshot(self.epoch, self._state.values(), self._sink)


# ----------------------------------------------------------------------
# SIMPLIFIED encoding (wire version 2, negotiated per subscriber)
# ----------------------------------------------------------------------


def negotiate_encoding(
    offered: Iterable[str], simplified_available: bool
) -> str:
    """Pick the stream encoding for one subscriber.

    The subscriber offers encodings in preference order; the first one
    the session can serve wins.  PLAIN is always servable; SIMPLIFIED
    only on sessions configured with a ``simplify_tolerance``.  An
    unknown encoding name is a hard error (it is a client bug, not a
    preference), and so is an offer the session cannot meet at all --
    :class:`~repro.serving.errors.EncodingUnavailable` instead of a
    silent downgrade.
    """
    offers = tuple(offered)
    if not offers:
        raise EncodingUnavailable("subscriber offered no encodings")
    for enc in offers:
        if enc not in WIRE_VERSIONS:
            raise EncodingUnavailable(f"unknown stream encoding {enc!r}")
    for enc in offers:
        if enc == ENCODING_PLAIN or simplified_available:
            return enc
    raise EncodingUnavailable(
        f"none of {offers!r} is servable (simplified stream not configured)"
    )


#: Chain gap cutoff for record selection, as a multiple of the level's
#: median nearest-neighbour record distance.  Chaining only decides which
#: records may be *dropped* -- every dropped record stays within the
#: tolerance of the retained span of its own chain regardless of how the
#: chain was cut -- so a generous cutoff (longer chains, fewer always-kept
#: endpoints) buys bytes without touching the Hausdorff guarantee.
CHAIN_GAP_FACTOR = 12.0


def select_simplified_records(
    records: Iterable[bytes],
    dequantize: "Callable[[Tuple[int, int]], Tuple[float, float]]",
    tolerance: float,
) -> Tuple[bytes, ...]:
    """The tolerance-bounded record subset of a full map state.

    Records sharing a quantised value are samples of one level's
    isolines; per level they are chained into polylines/rings
    (:func:`repro.geometry.simplify.chain_points` -- deterministic
    greedy nearest-neighbour with a data-derived gap cutoff) and
    Douglas-Peucker simplified; the kept vertices are the kept records.
    Selection is a pure function of ``(records, tolerance)``: every
    replica selects the identical subset, which is what lets workers
    rebuild and fast-forward a simplified stream byte-identically.

    ``tolerance == 0`` keeps everything (the identity the byte-identity
    differentials pin).
    """
    recs = tuple(records)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if tolerance == 0.0 or len(recs) <= 2:
        return recs
    kept: List[bytes] = []
    for level_recs, chain, pts, _is_ring, simplified in _iter_simplified_chains(
        recs, dequantize, tolerance
    ):
        kept_pts = set(simplified)
        kept.extend(
            level_recs[i] for i, p in zip(chain, pts) if p in kept_pts
        )
    return tuple(sorted(kept))


def _iter_simplified_chains(recs, dequantize, tolerance):
    """Per-level chaining + simplification shared by selection and stats.

    Yields ``(level_recs, chain, pts, is_ring, simplified)`` per chain,
    deterministically (levels ascending, records in canonical order).
    """
    by_level: Dict[int, List[bytes]] = {}
    for rec in recs:
        level = rec[0] | (rec[1] << 8)  # first u16 of the <HHHH> record
        by_level.setdefault(level, []).append(rec)
    for level in sorted(by_level):
        level_recs = sorted(by_level[level])
        positions = [dequantize(record_position_key(r)) for r in level_recs]
        for chain, is_ring in chain_points(
            positions, gap_factor=CHAIN_GAP_FACTOR
        ):
            pts = [positions[i] for i in chain]
            if is_ring:
                simplified = simplify_ring(pts, tolerance)
            else:
                simplified = simplify_polyline(pts, tolerance)
            yield level_recs, chain, pts, is_ring, simplified


def simplified_selection_stats(
    records: Iterable[bytes],
    dequantize: "Callable[[Tuple[int, int]], Tuple[float, float]]",
    tolerance: float,
) -> Dict[str, float]:
    """Measured fidelity of :func:`select_simplified_records`.

    Returns the record counts and the **measured Hausdorff deviation**:
    the maximum distance from any full-stream record position to the
    retained span of its own chain (closing segment included for rings).
    This is exactly the quantity the simplifier's per-segment tolerance
    guarantee bounds, so ``max_deviation <= tolerance`` always -- the
    stats exist to *measure* it rather than assume it, and the bench
    gate asserts the inequality on real served maps.
    """
    recs = tuple(records)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    n_full = len(recs)
    if tolerance == 0.0 or n_full <= 2:
        return {
            "records_full": n_full,
            "records_kept": n_full,
            "chains": 0,
            "max_deviation": 0.0,
        }
    n_kept = 0
    n_chains = 0
    worst = 0.0
    for _level_recs, _chain, pts, is_ring, simplified in _iter_simplified_chains(
        recs, dequantize, tolerance
    ):
        n_kept += len(simplified)
        n_chains += 1
        curve = simplified + [simplified[0]] if is_ring else simplified
        worst = max(worst, polyline_deviation(pts, curve))
    return {
        "records_full": n_full,
        "records_kept": n_kept,
        "chains": n_chains,
        "max_deviation": worst,
    }


class SimplifiedStream:
    """Server-side producer of the SIMPLIFIED delta/snapshot stream.

    Mirrors what a simplified subscriber holds (a position-keyed record
    dict, exactly like a :class:`DeltaReplayer`) and, each epoch, folds
    the session's *full* change set into a simplified delta that moves
    the mirror to the tolerance-bounded subset of the new map state.

    Payload construction preserves the full delta's framing order so the
    two streams stay relatable byte-for-byte:

    - records: the full delta's records, in order, filtered to kept
      keys; then (sorted) any kept record the mirror lacks or holds with
      different bytes -- records re-entering the subset as the geometry
      shifts under a *fixed* tolerance;
    - retractions: the full delta's retractions, in order, filtered to
      keys the mirror actually holds; then (sorted) the simplification
      drops -- records leaving the subset without leaving the map.

    At ``tolerance == 0`` the selection keeps everything and the fold is
    a strict passthrough of the full delta bytes, so the simplified
    stream is **byte-identical** to the PR-6 encoding -- the acceptance
    differential.

    Determinism: the mirror evolves as a pure function of the epoch
    sequence, so a rebuilt worker that fast-forwards through the same
    epochs re-emits identical simplified payloads.
    """

    def __init__(
        self,
        tolerance: float,
        dequantize: "Callable[[Tuple[int, int]], Tuple[float, float]]",
    ):
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = tolerance
        self._dequantize = dequantize
        self._mirror: Dict[Tuple[int, int], bytes] = {}
        self.epoch = 0

    def fold_epoch(
        self,
        epoch: int,
        delta_records: Iterable[bytes],
        delta_retractions: Iterable[Tuple[int, int]],
        state_records: Iterable[bytes],
        sink: Optional[int],
    ) -> Tuple[bytes, Tuple[bytes, ...]]:
        """Fold one epoch; returns ``(s_delta payload, s_records)``.

        ``delta_records`` / ``delta_retractions`` are the full delta's
        contents in wire order; ``state_records`` is the full map state
        after the epoch.  ``s_records`` is the canonical (sorted) kept
        subset -- what the store renders simplified snapshots from.
        """
        d_recs = tuple(delta_records)
        d_rets = tuple(delta_retractions)
        if self.tolerance == 0.0:
            # Strict passthrough: byte identity with the plain stream.
            self._mirror = {record_position_key(r): r for r in state_records}
            self.epoch = epoch
            return (
                encode_delta(epoch, d_recs, d_rets, sink),
                tuple(sorted(self._mirror.values())),
            )
        s_records = select_simplified_records(
            state_records, self._dequantize, self.tolerance
        )
        target = {record_position_key(r): r for r in s_records}
        applied = dict(self._mirror)
        emitted: List[bytes] = []
        for rec in d_recs:
            key = record_position_key(rec)
            if key in target:
                emitted.append(rec)
                applied[key] = rec
        extra = sorted(
            rec
            for key, rec in target.items()
            if applied.get(key) != rec
        )
        for rec in extra:
            applied[record_position_key(rec)] = rec
        emitted.extend(extra)
        need_drop = set(applied) - set(target)
        rets: List[Tuple[int, int]] = []
        for key in d_rets:
            if key in need_drop:
                rets.append(key)
                need_drop.discard(key)
        rets.extend(sorted(need_drop))
        self._mirror = target
        self.epoch = epoch
        return encode_delta(epoch, emitted, rets, sink), s_records
