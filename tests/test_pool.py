"""The shared process pool: task order, when it runs in-process, and no
pool inside a pool worker."""

import os

import pytest

from pathcert import _pool


def _pid(_):
    return os.getpid()


def _where(task):
    """The task, this process's id, whether it is a pool worker, and the
    process ids of a pool_map started here."""
    return task, os.getpid(), _pool._in_worker, _pool.pool_map(_pid, [0, 1])


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_results_in_task_order(monkeypatch, cores):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: cores)
    assert _pool.pool_map(abs, range(-5, 0)) == [5, 4, 3, 2, 1]


def test_one_core_or_one_task_runs_here(monkeypatch):
    me = os.getpid()
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
    assert [w[1:] for w in _pool.pool_map(_where, [0, 1])] == \
        [(me, False, [me, me])] * 2
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    assert [w[:3] for w in _pool.pool_map(_where, [0])] == [(0, me, False)]


def test_workers_never_nest_a_pool(monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    out = _pool.pool_map(_where, [0, 1, 2])
    assert [w[0] for w in out] == [0, 1, 2]
    for _, pid, in_worker, nested in out:
        assert pid != os.getpid() and in_worker
        assert nested == [pid, pid]
