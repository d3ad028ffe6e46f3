"""Scalar predictor kernels: the references for the bank's batch kernels.

Each function here is the loop form of one ``*_batch`` kernel in
:mod:`repro.core.prediction`, built from the same elementwise IEEE
expressions, so the pair must agree bit for bit
(``test_prediction.py``, which also runs a whole bank on these);
``benchmarks/bench_predict.py`` times the pairs.
"""

from typing import List, Sequence, Tuple

from repro.core.prediction import wrap_angle


def advance_tracks_reference(
    x: Sequence[float],
    y: Sequence[float],
    vx: Sequence[float],
    vy: Sequence[float],
    theta: Sequence[float],
    omega: Sequence[float],
) -> Tuple[List[float], List[float], List[float]]:
    """Scalar :func:`~repro.core.prediction.advance_tracks_batch`."""
    nx = [x[i] + vx[i] for i in range(len(x))]
    ny = [y[i] + vy[i] for i in range(len(y))]
    nt = [wrap_angle(theta[i] + omega[i]) for i in range(len(theta))]
    return nx, ny, nt


def track_accept_reference(
    ox: Sequence[float],
    oy: Sequence[float],
    otheta: Sequence[float],
    olevel: Sequence[float],
    px: Sequence[float],
    py: Sequence[float],
    ptheta: Sequence[float],
    plevel: Sequence[float],
    age: Sequence[int],
    tol_sq: float,
    angle_tol: float,
    heartbeat: int,
) -> Tuple[List[bool], List[bool]]:
    """Scalar :func:`~repro.core.prediction.track_accept_batch`."""
    accept: List[bool] = []
    would: List[bool] = []
    for i in range(len(ox)):
        dx = ox[i] - px[i]
        dy = oy[i] - py[i]
        d2 = dx * dx + dy * dy
        dth = abs(wrap_angle(otheta[i] - ptheta[i]))
        w = bool(
            d2 <= tol_sq and dth <= angle_tol and olevel[i] == plevel[i]
        )
        would.append(w)
        accept.append(w and age[i] <= heartbeat)
    return accept, would


def join_accept_reference(
    jx: Sequence[float],
    jy: Sequence[float],
    jtheta: Sequence[float],
    jlevel: Sequence[float],
    tx: Sequence[float],
    ty: Sequence[float],
    ttheta: Sequence[float],
    tlevel: Sequence[float],
    tage: Sequence[int],
    tol_sq: float,
    angle_tol: float,
    heartbeat: int,
) -> Tuple[List[bool], List[bool]]:
    """Scalar :func:`~repro.core.prediction.join_accept_batch`."""
    out: List[bool] = []
    covered = [False] * len(tx)
    for j in range(len(jx)):
        hit = False
        for t in range(len(tx)):
            if tlevel[t] != jlevel[j] or tage[t] > heartbeat:
                continue
            dx = jx[j] - tx[t]
            dy = jy[j] - ty[t]
            if dx * dx + dy * dy > tol_sq:
                continue
            if abs(wrap_angle(jtheta[j] - ttheta[t])) > angle_tol:
                continue
            hit = True
            covered[t] = True
        out.append(hit)
    return out, covered
