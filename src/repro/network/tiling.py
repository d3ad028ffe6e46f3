"""Spatial tile-sharding of the epoch transport (the million-node path).

The deployment is partitioned into a regular grid of square tiles
(:class:`TilePartition`).  With ``EpochTransport(tiling=...)`` a level
batch's frames are grouped by the *sender's* tile and each tile's fault
draws resolve independently.  Each directed edge is owned exclusively
by its sender, so the per-edge frame cursors and burst-chain
checkpoints partition cleanly across tiles, and because every draw is
addressed by ``(edge, frame, attempt)`` (counter-based streams) the
outcomes are bit-identical to the single global batch regardless of
tile layout or resolution order.  All order-sensitive work -- the
Mersenne payload-damage stream, receiver dispatch, charge scatter-adds
-- stays at the transport's merge barrier in global flat order, so the
partition may be any grid of senders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

from repro import profiling


@dataclass(frozen=True)
class TileGrid:
    """A regular grid of square tiles over a bounding box.

    Tile ``(tx, ty)`` covers ``[xmin + tx*s, xmin + (tx+1)*s) x [ymin +
    ty*s, ymin + (ty+1)*s)``; the last row/column absorbs any remainder
    up to the box edge.  A point exactly on an interior tile line
    belongs to the *higher* tile (half-open cells); a point exactly on
    the box's far edge clamps into the last tile.
    """

    xmin: float
    ymin: float
    tile_size: float
    nx: int
    ny: int

    @staticmethod
    def for_bounds(bounds: Any, tile_size: float) -> "TileGrid":
        if tile_size <= 0:
            raise ValueError("tile size must be positive")
        nx = max(1, int(np.ceil((bounds.xmax - bounds.xmin) / tile_size)))
        ny = max(1, int(np.ceil((bounds.ymax - bounds.ymin) / tile_size)))
        return TileGrid(
            xmin=bounds.xmin, ymin=bounds.ymin, tile_size=tile_size, nx=nx, ny=ny
        )

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    def tile_coords(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point ``(tx, ty)`` grid coordinates (vectorized)."""
        s = self.tile_size
        tx = np.floor((pts[:, 0] - self.xmin) / s).astype(np.int64)
        ty = np.floor((pts[:, 1] - self.ymin) / s).astype(np.int64)
        np.clip(tx, 0, self.nx - 1, out=tx)
        np.clip(ty, 0, self.ny - 1, out=ty)
        return tx, ty

    def tile_of(self, pts: np.ndarray) -> np.ndarray:
        """Per-point flat tile id ``ty * nx + tx``."""
        tx, ty = self.tile_coords(pts)
        return ty * np.int64(self.nx) + tx


@dataclass(frozen=True)
class TilePartition:
    """A deployment's node-to-tile assignment: ``tile_id[i]`` is node
    ``i``'s flat tile id on ``grid``."""

    grid: TileGrid
    tile_id: np.ndarray  # (n,) node -> flat tile id

    @staticmethod
    def build(
        positions: np.ndarray, bounds: Any, tile_size: float
    ) -> "TilePartition":
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        grid = TileGrid.for_bounds(bounds, tile_size)
        return TilePartition(grid=grid, tile_id=grid.tile_of(pts))

    @property
    def n_tiles(self) -> int:
        return self.grid.n_tiles


# ----------------------------------------------------------------------
# Shared ARQ attempt reduction (the half of _send_level_batch that is
# per-frame pure math, reused by the untiled, per-tile-inline and
# per-tile-worker resolution paths).
# ----------------------------------------------------------------------


@dataclass
class AttemptResolution:
    """Per-frame outcome of the batched ARQ loop over precomputed draws.

    Attributes:
        delivered: did any attempt resolve the frame?
        attempts_used: attempts that went on air (1..A).
        corr_res: resolving attempt arrived damaged (CRC off only).
        corr_fail: final attempt arrived but was CRC-rejected, so the
            exhaustion is a corruption discard (CRC on only).
        corrupted_detected: damaged frames the CRC caught (CRC on only).
    """

    delivered: np.ndarray
    attempts_used: np.ndarray
    corr_res: np.ndarray
    corr_fail: np.ndarray
    corrupted_detected: int


def reduce_attempt_draws(
    air_ok: np.ndarray, corr: np.ndarray, crc: bool, max_attempts: int
) -> AttemptResolution:
    """Collapse ``(F, A)`` attempt draws into per-frame ARQ outcomes.

    The same outcomes as a per-frame ARQ loop over the same draws: an
    attempt resolves the frame when it survives the air and -- under a
    CRC -- arrives undamaged (damaged ones are rejected and retried);
    without a CRC any on-air arrival ends the loop.
    """
    total = air_ok.shape[0]
    resolves = air_ok & ~corr if crc else air_ok
    delivered = resolves.any(axis=1)
    k_res = np.where(delivered, resolves.argmax(axis=1), max_attempts - 1)
    attempts_used = k_res + 1
    if crc:
        executed = np.arange(max_attempts)[None, :] < attempts_used[:, None]
        detected = int((air_ok & corr & executed).sum())
        corr_res = np.zeros(total, dtype=bool)
        corr_fail = (~delivered) & air_ok[:, -1] & corr[:, -1]
    else:
        detected = 0
        corr_res = corr[np.arange(total), k_res]
        corr_fail = np.zeros(total, dtype=bool)
    return AttemptResolution(
        delivered=delivered,
        attempts_used=attempts_used,
        corr_res=corr_res,
        corr_fail=corr_fail,
        corrupted_detected=detected,
    )


#: The picklable payload ``resolve_tile_job`` receives: ``(plan,
#: attempts_per_frame, crc, edges, counts, frame0, ge_t, ge_state,
#: profile)`` -- everything a worker needs to replay one tile's draws
#: without the engine object.
TileJobPayload = Tuple[
    Any, int, bool, tuple, tuple, tuple, tuple, tuple, bool
]


def resolve_tile_job(payload: TileJobPayload):
    """Resolve one tile's frame draws in a worker process.

    Rebuilds the tile's edge streams from the shipped cursors
    (:func:`repro.network.faults.frame_draws_detached`), draws and
    reduces, and returns plain arrays plus the advanced cursors for the
    parent to write back -- the worker never sees the engine, network or
    report state, so resolution order across tiles cannot matter.
    """
    from repro.network.faults import frame_draws_detached

    (plan, attempts, crc, edges, counts, frame0, ge_t, ge_state, profile) = payload
    if profile:
        profiling.reset()
        profiling.enable()
    with profiling.stage("transport.tile.draws"):
        air_ok, corr, dup, cursors = frame_draws_detached(
            plan, attempts, edges, counts, frame0, ge_t, ge_state
        )
        res = reduce_attempt_draws(air_ok, corr, crc, attempts)
    snap = profiling.snapshot() if profile else None
    return (
        res.delivered,
        res.attempts_used,
        res.corr_res,
        res.corr_fail,
        res.corrupted_detected,
        dup,
        cursors,
        snap,
    )
