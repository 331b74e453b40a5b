"""The shared process pool: task order and when it runs in-process."""

import os

import pytest

from pathcert import _pool


def _pid(_):
    return os.getpid()


def _where(task):
    """The task, this process's id, and the process ids of a pool_map
    started here."""
    return task, os.getpid(), _pool.pool_map(_pid, [0, 1])


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_results_in_task_order(monkeypatch, cores):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: cores)
    assert _pool.pool_map(abs, range(-5, 0)) == [5, 4, 3, 2, 1]


def test_one_core_or_one_task_runs_here(monkeypatch):
    me = os.getpid()
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
    assert [w[1:] for w in _pool.pool_map(_where, [0, 1])] == \
        [(me, [me, me])] * 2
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    assert [w[:2] for w in _pool.pool_map(_where, [0])] == [(0, me)]

