"""Self-time arithmetic, parent links and wrapper installation."""

import asyncio
import threading

import pytest

from perfbench.spans import (
    NO_EPOCH,
    SpanRecorder,
    SpanTable,
    Target,
    install,
    installed_wrappers,
    uninstall,
)


def _table(rows):
    """rows: (name, start, end, parent, thread)."""
    names = sorted({r[0] for r in rows})
    return SpanTable(
        names=names,
        name=[names.index(r[0]) for r in rows],
        start=[r[1] for r in rows],
        end=[r[2] for r in rows],
        parent=[r[3] for r in rows],
        epoch=[0] * len(rows),
        thread=[r[4] for r in rows],
        values={},
    )


def test_self_time_of_a_hand_built_tree():
    table = _table(
        [
            ("root", 0.0, 10.0, -1, 1),  # 0
            ("a", 1.0, 3.0, 0, 1),  # 1: nested child with its own child
            ("a.inner", 1.5, 2.5, 1, 1),  # 2
            ("b", 2.0, 5.0, 0, 2),  # 3: child on another thread, overlaps a
            ("c", 8.0, 12.0, 0, 2),  # 4: outlives the root; clipped
            ("leaf", 20.0, 20.5, -1, 1),  # 5: no children
        ]
    )
    self_t = table.self_times()
    # root: 10 minus the union [1, 5] and [8, 10] of its children.
    assert self_t[0] == pytest.approx(4.0)
    assert self_t[1] == pytest.approx(1.0)
    assert self_t[2] == pytest.approx(1.0)
    assert self_t[3] == pytest.approx(3.0)
    assert self_t[4] == pytest.approx(4.0)
    assert self_t[5] == pytest.approx(0.5)


def test_nested_wrappers_link_parents_and_inherit_epochs():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap(
        "outer", lambda x: inner(x) * 2, Target("outer", (), epoch=lambda a: a[0])
    )
    assert outer(5) == 12
    table = rec.spans()
    (o,) = table.rows("outer")
    (i,) = table.rows("inner")
    assert table.parent[i] == o and table.parent[o] == -1
    assert table.epoch[o] == 5 and table.epoch[i] == 5
    assert table.start[o] <= table.start[i] <= table.end[i] <= table.end[o]


def test_default_epoch_tags_root_spans():
    rec = SpanRecorder()
    leaf = rec.wrap("leaf", lambda: None)
    leaf()
    rec.default_epoch = 3
    leaf()
    assert rec.spans().epoch == [NO_EPOCH, 3]


def test_cross_thread_call_adopts_the_open_span_of_its_epoch():
    rec = SpanRecorder()
    work = rec.wrap(
        "work",
        lambda epoch: None,
        Target("work", (), epoch=lambda a: a[0], cross_thread=True),
    )
    done = threading.Event()

    def run():
        work(4)
        work(9)  # no open span serves epoch 9: stays a root
        done.set()

    def call(epoch):
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=10)
        assert done.is_set() and not thread.is_alive()

    rec.wrap("caller", call, Target("caller", (), epoch=lambda a: a[0]))(4)
    table = rec.spans()
    (sid,) = table.rows("caller")
    first, second = table.rows("work")
    assert table.parent[first] == sid
    assert table.parent[second] == -1
    assert table.thread[first] != table.thread[sid]
    self_t = table.self_times()
    assert self_t[sid] == pytest.approx(table.duration(sid) - table.duration(first))


def test_interleaved_tasks_keep_separate_stacks():
    rec = SpanRecorder()

    async def slow():
        await asyncio.sleep(0.02)

    async def quick():
        return None

    slow_w = rec.wrap("slow", slow)
    quick_w = rec.wrap("quick", quick)

    async def main():
        task = asyncio.create_task(slow_w())
        await asyncio.sleep(0.005)  # slow() is suspended inside its span
        await quick_w()
        await task

    asyncio.run(main())
    table = rec.spans()
    (s,) = table.rows("slow")
    (q,) = table.rows("quick")
    assert table.start[s] < table.start[q] < table.end[s]
    assert table.parent[q] == -1  # not a child of the suspended span


def test_counts_are_attached_to_their_span():
    rec = SpanRecorder()
    f = rec.wrap("f", lambda: [1, 2, 3], Target("f", (), count=lambda r, _a: {"n": len(r)}))
    f()
    table = rec.spans()
    assert table.values == {0: {"n": 3}}
    assert table.end[0] >= table.start[0]


class _Owner:
    @staticmethod
    def static(x):
        return x

    @classmethod
    def klass(cls, x):
        return (cls, x)

    def method(self, x):
        return x


def test_install_and_uninstall_restore_every_kind_of_attribute(monkeypatch):
    module = __name__
    targets = (
        Target("t.fn", (f"{module}:_table",)),
        Target("t.static", (f"{module}:_Owner.static",)),
        Target("t.class", (f"{module}:_Owner.klass",)),
        Target("t.method", (f"{module}:_Owner.method",)),
    )
    before = {k: v for k, v in vars(_Owner).items()}
    fn_before = _table
    rec = SpanRecorder()
    undo = install(rec, targets)
    try:
        assert len(installed_wrappers(targets)) == 4
        assert _Owner.static(1) == 1
        assert _Owner.klass(2) == (_Owner, 2)
        assert _Owner().method(3) == 3
        assert set(rec.spans().fired()) == {"t.static", "t.class", "t.method"}
    finally:
        uninstall(undo)
    assert installed_wrappers(targets) == []
    assert {k: v for k, v in vars(_Owner).items()} == before
    assert globals()["_table"] is fn_before


def test_install_refuses_a_site_that_no_longer_exists():
    targets = (
        Target("ok", (f"{__name__}:_Owner.static",)),
        Target("gone", (f"{__name__}:_Owner.renamed",)),
    )
    with pytest.raises(LookupError):
        install(SpanRecorder(), targets)
    assert installed_wrappers(targets[:1]) == []
