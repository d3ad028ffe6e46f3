"""Shard-worker entry point: per-process session compute with catch-up.

The router pins every session to one shard (a single-worker process
pool), so a session's epochs always execute sequentially in the same
process and :func:`compute_epoch` can keep the stateful
:class:`~repro.serving.session.SessionCompute` in a module-level table,
exactly like the sweep runner keeps its topology skeletons per worker.

Determinism is the contract: the compute is a pure function of
``(config, epoch)`` given the sequential epoch history, so if the table
entry is missing or ahead (a fresh worker, a config change, a test
re-using a query id), the worker rebuilds the session and fast-forwards
through epochs ``1 .. epoch - 1`` -- byte-identical to having computed
them here all along.  That is also why the same function serves the
inline (``n_shards = 0``) path: where the state lives cannot change
what it produces.

Inline, a compute that overruns its deadline cannot be killed: it keeps
running on its executor thread after :func:`reset` has cleared the
table, while the retry builds a fresh session.  Each :func:`reset` opens
a new generation, and a compute installs the session it built only if
its generation is still current, so an abandoned compute can never
replace the retry's session with one it is still mutating.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict

from repro.serving.session import SessionCompute, SessionConfig

#: Per-process session table, keyed by query id.
_SESSIONS: Dict[str, SessionCompute] = {}

#: Bumped by every :func:`reset`; guarded, with the table, by ``_LOCK``.
_GENERATION = 0
_LOCK = threading.Lock()


def compute_epoch(config_dict: Dict[str, Any], epoch: int) -> Dict[str, Any]:
    """Compute one session epoch, rebuilding/fast-forwarding as needed.

    Args:
        config_dict: a :meth:`SessionConfig.to_dict` payload (picklable).
        epoch: the 1-based epoch to produce.

    Returns:
        The :meth:`SessionCompute.epoch` payload dict.
    """
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    config = SessionConfig.from_dict(config_dict)
    with _LOCK:
        generation = _GENERATION
        session = _SESSIONS.get(config.query_id)
    if session is None or session.config != config or epoch < session.next_epoch:
        session = SessionCompute(config)
        with _LOCK:
            if generation == _GENERATION:
                _SESSIONS[config.query_id] = session
    while session.next_epoch < epoch:
        session.epoch(session.next_epoch)
    return session.epoch(epoch)


def reset() -> None:
    """Drop all per-process session state (test isolation hook), and
    keep computes still running from before the reset out of the table."""
    global _GENERATION
    with _LOCK:
        _GENERATION += 1
        _SESSIONS.clear()


def wedge(seconds: float) -> None:
    """Occupy the worker for ``seconds`` (supervision test hook).

    Submitted to a single-worker shard this simulates a genuinely wedged
    process: every queued request waits behind it until the supervisor's
    deadline fires and the shard is respawned.
    """
    time.sleep(seconds)
