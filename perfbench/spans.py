"""Span recording for the traced benchmark run.

The benchmark times each layer from the outside: wrappers installed
around the public functions a layer exposes record one span per call.
Nothing here is imported by the program, and no wrapper exists in an
untraced run -- :func:`install` is the only way one gets in, and
:func:`uninstall` puts every original back.

A span is ``(name, start, end, parent, epoch, thread)``.  Spans live in
flat per-thread arrays while the run goes and are written out once, at
the end (:meth:`SpanRecorder.dump`).

Parent links follow the call stack.  The stack is a context variable,
so each thread -- and each asyncio task on the event-loop thread --
keeps its own: a span opened by one task while another task's span is
suspended at an ``await`` is not mistaken for that span's child.  A call
that runs on another thread than its caller (the serving layer computes
in the event loop's default executor, a worker thread unless the caller
installs an inline one, as the benchmark does) starts with an empty
stack; such a target is declared ``cross_thread`` and adopts as parent
the innermost open span of the same epoch.

This module imports only the standard library, so importing it costs
nothing the measured set-up time would see.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Epoch tag of spans that serve no epoch (set-up, idle reads).
NO_EPOCH = -1

#: Attribute marking a callable as a benchmark wrapper.
WRAPPER_MARK = "__perfbench_span__"


class _Buffer:
    """One thread's closed spans, in flat arrays (appended lock-free)."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.epoch = array("q")

    def add(self, sid, nid, start, end, parent, epoch) -> None:
        self.sid.append(sid)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.epoch.append(epoch)


class SpanRecorder:
    """In-memory span store with per-thread, per-task parent stacks.

    Span ids are handed out in opening order.  A span is stored when it
    closes, in the closing thread's own buffer, so recording takes no
    lock; :meth:`spans` merges the buffers.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: span id -> the counts its call reported.
        self.values: Dict[int, Dict[str, float]] = {}
        #: Epoch tag for spans that neither carry one nor have a parent.
        self.default_epoch = NO_EPOCH
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[Tuple[int, int]] = contextvars.ContextVar(
            "perfbench_span", default=(-1, NO_EPOCH)
        )
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._open_by_epoch: Dict[int, List[int]] = {}
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------
    # Opening and closing spans
    # ------------------------------------------------------------------

    def open(self, epoch: Optional[int] = None, cross_thread: bool = False):
        """Open a span; returns ``(sid, parent, epoch, token)`` for
        :meth:`close`."""
        parent, parent_epoch = self._current.get()
        sid = next(self._ids)
        if epoch is None:
            epoch = parent_epoch if parent >= 0 else self.default_epoch
        else:
            with self._lock:
                waiting = self._open_by_epoch.setdefault(epoch, [])
                if parent < 0 and cross_thread and waiting:
                    parent = waiting[-1]
                if not cross_thread:
                    waiting.append(sid)
        return sid, parent, epoch, self._current.set((sid, epoch))

    def close(self, nid: int, opened, start: float, end: float) -> None:
        sid, parent, epoch, token = opened
        self._current.reset(token)
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
        buf.add(sid, nid, start, end, parent, epoch)
        waiting = self._open_by_epoch.get(epoch)
        if waiting and sid in waiting:
            with self._lock:
                waiting.remove(sid)

    # ------------------------------------------------------------------
    # Wrapping callables
    # ------------------------------------------------------------------

    def wrap(self, span: str, fn: Callable, target: Optional["Target"] = None) -> Callable:
        """A wrapper recording one ``span`` per call of ``fn``."""
        nid = self.name_id(span)
        epoch_of = target.epoch if target is not None else None
        count = target.count if target is not None else None
        wrap_args = target.wrap_args if target is not None else None
        cross = target.cross_thread if target is not None else False
        rec = self
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                opened = rec.open(epoch_of(args) if epoch_of else None, cross)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    rec.close(nid, opened, start, clock())
                if count is not None:
                    rec.values[opened[0]] = count(result, args)
                return result

            setattr(async_wrapper, WRAPPER_MARK, span)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if wrap_args is not None:
                args = wrap_args(rec, args)
            opened = rec.open(epoch_of(args) if epoch_of else None, cross)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(nid, opened, start, clock())
            if count is not None:
                rec.values[opened[0]] = count(result, args)
            return result

        setattr(wrapper, WRAPPER_MARK, span)
        return wrapper

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------

    def spans(self) -> "SpanTable":
        """Every closed span, in id order (row ``i`` is span ``i``)."""
        cols = {key: array(code) for key, code in _COLUMNS}
        for buf in self._buffers:
            for key, _code in _COLUMNS[:-1]:
                cols[key].extend(getattr(buf, key))
            cols["thread"].extend([buf.thread] * len(buf.sid))
        sid = cols["sid"]
        order = sorted(range(len(sid)), key=sid.__getitem__)
        if [sid[i] for i in order] != list(range(len(order))):
            raise RuntimeError("a span is still open")
        take = {key: [cols[key][i] for i in order] for key, _code in _COLUMNS[1:]}
        return SpanTable(names=list(self.names), values=dict(self.values), **take)


#: (field, array type code) of a span, as :class:`_Buffer` stores it.
_COLUMNS = (
    ("sid", "q"),
    ("name", "i"),
    ("start", "d"),
    ("end", "d"),
    ("parent", "q"),
    ("epoch", "q"),
    ("thread", "q"),
)


@dataclass
class SpanTable:
    """Spans as plain lists, with the self-time arithmetic.

    Row ``i`` is span ``i``: ``parent`` holds row indices (-1 for a
    root), and ``values`` maps a row to the counts its call reported.
    """

    names: List[str]
    name: List[int]
    start: List[float]
    end: List[float]
    parent: List[int]
    epoch: List[int]
    thread: List[int]
    values: Dict[int, Dict[str, float]]
    #: span name -> its rows, in id order.
    by_name: Dict[str, List[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_name = {}
        for i, nid in enumerate(self.name):
            self.by_name.setdefault(self.names[nid], []).append(i)

    def __len__(self) -> int:
        return len(self.name)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children's
        intervals (clipped to the span), whatever thread they ran on."""
        children: Dict[int, List[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = [self.duration(i) for i in range(len(self))]
        for i, kids in children.items():
            lo, hi = self.start[i], self.end[i]
            spans = sorted(
                (max(self.start[k], lo), min(self.end[k], hi)) for k in kids
            )
            covered = 0.0
            cur_s, cur_e = None, None
            for s, e in spans:
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                elif e > cur_e:
                    cur_e = e
            if cur_e is not None:
                covered += cur_e - cur_s
            out[i] -= covered
        return out

    def rows(self, *names: str) -> List[int]:
        """Rows of the spans recorded under any of ``names``."""
        out: List[int] = []
        for name in names:
            out.extend(self.by_name.get(name, ()))
        return out

    def fired(self) -> Dict[str, int]:
        """Span name -> number of spans recorded under it."""
        return {name: len(rows) for name, rows in self.by_name.items()}

    def dump(self, path: str, header: Optional[Dict[str, Any]] = None) -> None:
        """Write every span as gzipped JSON lines after one header line.

        Each span line is ``[name id, start, end, parent, epoch, thread]``
        (the span's id is its position after the header line, from 0),
        plus the call's counts when it reported any.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            head = {**(header or {}), "names": self.names}
            fh.write(json.dumps(head) + "\n")
            for i in range(len(self)):
                counts = self.values.get(i)
                tail = "" if counts is None else "," + json.dumps(counts)
                fh.write(
                    f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.epoch[i]},{self.thread[i]}{tail}]\n"
                )


# ----------------------------------------------------------------------
# Targets: where wrappers go
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped public call.

    Attributes:
        span: the span name (``layer.call``).
        sites: every place the callers look the name up, as
            ``"module:attr"`` or ``"module:Class.attr"``.
        epoch: maps the call's positional args to the epoch it serves
            (None: inherit the parent's epoch).
        count: maps ``(result, args)`` to the counts the call reports.
        wrap_args: rewrites the positional args before the call (used
            to time callbacks handed to the call as protocol work).
        cross_thread: the call runs on another thread than its caller.
    """

    span: str
    sites: Tuple[str, ...]
    epoch: Optional[Callable[[Sequence[Any]], int]] = None
    count: Optional[Callable[[Any, Sequence[Any]], Dict[str, float]]] = None
    wrap_args: Optional[Callable[[SpanRecorder, Tuple[Any, ...]], Tuple[Any, ...]]] = None
    cross_thread: bool = False


def _resolve(site: str) -> Tuple[Any, str]:
    """``(owner, attr)`` for a site; raises if the name is gone."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"trace site {site} does not exist")
    return owner, attr


def install(recorder: SpanRecorder, targets: Sequence[Target]) -> List[Tuple[Any, str, Any]]:
    """Patch a wrapper in at every site of every target.

    Returns the undo list for :func:`uninstall`.  Raises (after undoing
    what it patched) when a site no longer exists, so a rename in the
    program cannot silently drop a layer from the trace.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            for site in target.sites:
                owner, attr = _resolve(site)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched: Any = classmethod(
                        recorder.wrap(target.span, original.__func__, target)
                    )
                elif isinstance(original, staticmethod):
                    patched = staticmethod(
                        recorder.wrap(target.span, original.__func__, target)
                    )
                else:
                    patched = recorder.wrap(target.span, original, target)
                setattr(owner, attr, patched)
                undo.append((owner, attr, original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    """Restore every original patched by :func:`install`."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def installed_wrappers(targets: Sequence[Target]) -> List[str]:
    """Sites that currently hold a benchmark wrapper (empty when clean)."""
    found = []
    for target in targets:
        for site in target.sites:
            owner, attr = _resolve(site)
            value = vars(owner)[attr]
            fn = getattr(value, "__func__", value)
            if hasattr(fn, WRAPPER_MARK):
                found.append(site)
    return found
