"""The shared process pool and the helper process: task order, when they
run in-process, neither inside a pool worker, and no helper without fork
or when it cannot start."""

import multiprocessing
import multiprocessing.connection
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


def _plus(base, request):
    if request < 0:
        raise ValueError("negative request")
    return base + request, _pool._in_worker, os.getpid()


def test_helper_answers_each_request(monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    with _pool.helper(_plus, 10) as child:
        replies = []
        for request in (1, 2, 3):
            child.send(request)
            replies.append(child.recv())
        assert child.alive
    assert [r[:2] for r in replies] == [(11, True), (12, True), (13, True)]
    assert len({r[2] for r in replies} - {os.getpid()}) == 1
    assert not child.alive
    assert multiprocessing.active_children() == []


def test_no_helper_on_one_core_or_in_worker(monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 1)
    with _pool.helper(_plus, 0) as child:
        assert child is None
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(_pool, "_in_worker", True)
    with _pool.helper(_plus, 0) as child:
        assert child is None
    assert multiprocessing.active_children() == []


def _helper_here(_):
    """Whether a helper starts in this process."""
    with _pool.helper(_plus, 0) as child:
        return child is not None


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_no_helper_without_fork(monkeypatch, method):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    assert _helper_here(0)
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: method)
    assert not _helper_here(0)
    assert multiprocessing.active_children() == []


def test_failed_start_gives_none_and_closes_the_pipe(monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    pipes = []
    real_pipe = multiprocessing.connection.Pipe

    def pipe(*args, **kwargs):
        pipes.append(real_pipe(*args, **kwargs))
        return pipes[-1]

    def start(self):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(multiprocessing.connection, "Pipe", pipe)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    with _pool.helper(_plus, 0) as child:
        assert child is None
    assert len(pipes) == 1 and all(end.closed for end in pipes[0])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("loss", ["raising request", "killed"])
def test_lost_helper_gives_none(monkeypatch, loss):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    with _pool.helper(_plus, 0) as child:
        if loss == "killed":
            child._proc.kill()
            child._proc.join()
            child.send(1)
        else:
            child.send(-1)
        assert child.recv() is None and not child.alive
        child.close()
    assert multiprocessing.active_children() == []


def test_helper_closed_when_block_raises(monkeypatch):
    monkeypatch.setattr(_pool, "_usable_cores", lambda: 2)
    with pytest.raises(KeyError):
        with _pool.helper(_plus, 0) as child:
            child.send(1)
            raise KeyError("stop")
    assert not child.alive
    assert multiprocessing.active_children() == []
