"""Unit tests for the serving wire formats and the delta replayer."""

import math
import random

import pytest

from repro.core.codec import ReportCodec
from repro.core.contour_map import build_contour_map
from repro.core.query import ContourQuery
from repro.core.reports import IsolineReport
from repro.geometry import BoundingBox
from repro.serving.errors import ReplayGapError, WireFormatError
from repro.serving.wire import (
    DELTA,
    SNAPSHOT,
    DeltaFrame,
    DeltaReplayer,
    ServedMessage,
    decode_delta,
    decode_snapshot,
    encode_delta,
    encode_snapshot,
    record_position_key,
)

BOX = BoundingBox(0, 0, 20, 20)
CODEC = ReportCodec.for_query(ContourQuery(14.0, 16.0, 2.0), BOX)


def record(x, y, level=14.0, angle=0.3, source=0) -> bytes:
    return CODEC.encode(
        IsolineReport(level, (x, y), (math.cos(angle), math.sin(angle)), source)
    )


class TestRoundtrips:
    def test_delta_roundtrip(self):
        recs = [record(3, 4), record(5, 6, level=16.0)]
        rets = [(17, 99), (0, 0xFFFF)]
        payload = encode_delta(7, recs, rets, sink=1234)
        frame = decode_delta(payload)
        assert frame == DeltaFrame(7, tuple(recs), tuple(rets), 1234)

    def test_delta_roundtrip_empty(self):
        frame = decode_delta(encode_delta(3, [], [], sink=None))
        assert frame.epoch == 3
        assert frame.records == ()
        assert frame.retractions == ()
        assert frame.sink is None

    def test_snapshot_roundtrip_is_sorted(self):
        recs = [record(9, 1), record(1, 9), record(5, 5)]
        frame = decode_snapshot(encode_snapshot(2, recs, sink=None))
        assert frame.epoch == 2
        assert list(frame.records) == sorted(recs)

    def test_sink_value_is_preserved(self):
        frame = decode_snapshot(encode_snapshot(1, [], sink=0xFFFF))
        assert frame.sink == 0xFFFF
        frame = decode_snapshot(encode_snapshot(1, [], sink=0))
        assert frame.sink == 0  # flag distinguishes 0 from absent

    def test_position_key_matches_codec(self):
        rep = IsolineReport(14.0, (3.25, 17.5), (1.0, 0.0), 4)
        assert record_position_key(CODEC.encode(rep)) == CODEC.quantize_position(
            rep.position
        )


class TestValidation:
    def test_short_payloads_rejected(self):
        for decode in (decode_delta, decode_snapshot):
            with pytest.raises(WireFormatError):
                decode(b"\x01\x02")

    def test_truncated_body_rejected(self):
        payload = encode_delta(1, [record(1, 1)], [], None)
        with pytest.raises(WireFormatError):
            decode_delta(payload[:-3])
        snap = encode_snapshot(1, [record(1, 1)], None)
        with pytest.raises(WireFormatError):
            decode_snapshot(snap + b"\x00")

    def test_bad_record_size_rejected(self):
        with pytest.raises(WireFormatError):
            encode_delta(1, [b"short"], [], None)

    def test_bad_sink_rejected(self):
        with pytest.raises(WireFormatError):
            encode_snapshot(1, [], sink=0x10000)

    def test_fuzzed_truncations_never_crash_unhelpfully(self):
        rng = random.Random(5)
        payload = encode_delta(
            9, [record(i, i) for i in range(5)], [(1, 2), (3, 4)], sink=77
        )
        for _ in range(200):
            cut = rng.randrange(len(payload))
            with pytest.raises(WireFormatError):
                decode_delta(payload[:cut])


class TestReplayer:
    def test_fold_upserts_and_retractions(self):
        rep = DeltaReplayer()
        r1, r2 = record(2, 2), record(8, 8)
        rep.apply(ServedMessage(DELTA, 1, encode_delta(1, [r1, r2], [], 5)))
        assert rep.record_count == 2
        # Retract r1 by position, re-deliver r2 with a rotated direction.
        r2b = record(8, 8, angle=1.0)
        rep.apply(
            ServedMessage(
                DELTA, 2, encode_delta(2, [r2b], [record_position_key(r1)], 5)
            )
        )
        assert rep.record_count == 1
        assert rep.render() == encode_snapshot(2, [r2b], 5)

    def test_gap_raises(self):
        rep = DeltaReplayer()
        rep.apply(ServedMessage(DELTA, 1, encode_delta(1, [], [], None)))
        with pytest.raises(ReplayGapError):
            rep.apply(ServedMessage(DELTA, 3, encode_delta(3, [], [], None)))

    def test_snapshot_resync_resets_epoch(self):
        rep = DeltaReplayer()
        rep.apply(ServedMessage(SNAPSHOT, 10, encode_snapshot(10, [record(1, 1)], 3)))
        assert rep.epoch == 10
        assert rep.record_count == 1
        # Live deltas continue from 11.
        rep.apply(ServedMessage(DELTA, 11, encode_delta(11, [], [], 3)))
        assert rep.epoch == 11

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError):
            DeltaReplayer().apply(ServedMessage("gossip", 1, b""))

    def test_initial_render_is_canonical_empty_snapshot(self):
        assert DeltaReplayer().render() == encode_snapshot(0, [], None)

    def test_decoded_reports_and_map(self):
        # A client decodes the rendered records with the codec and
        # builds its map from them.
        rep = DeltaReplayer()
        recs = [record(5, 5), record(12, 5, level=16.0, angle=2.0)]
        rep.apply(ServedMessage(DELTA, 1, encode_delta(1, recs, [], None)))
        reports = [CODEC.decode(r) for r in decode_snapshot(rep.render()).records]
        assert len(reports) == 2
        assert {round(r.isolevel) for r in reports} == {14, 16}
        cmap = build_contour_map(reports, [14.0, 16.0], BOX)
        assert cmap.levels == [14.0, 16.0]
