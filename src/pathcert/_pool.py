"""The one place that starts processes: a pool for independent tasks and
a helper process for work that overlaps this process's own.

Tracking a family's paths, verifying a run's certificates and replaying
a long certificate's segment blocks are each a list of independent
tasks whose results do not depend on where they run.  ``pool_map`` runs
such a list on every usable core, or in this process when there is one
core or one task.  A pool worker always runs its tasks in-process, so
pools never nest.

``helper`` starts one child process that answers requests one at a time
while this process works on something else: only on two or more usable
cores, only where processes start by fork, and never inside a pool
worker, the helper itself or any daemonic process (a caller's
``multiprocessing.Pool`` worker may not have children).  A helper that
cannot be started, or is lost later, leaves the work to the caller.  It
only moves where a request is computed, never what: a caller must get
the same result whether the helper answers or the caller computes the
request itself.
"""

import os
from contextlib import contextmanager

# True in a pool worker or a helper, set when the process starts
_in_worker = False


def _usable_cores():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _enter_worker():
    global _in_worker
    _in_worker = True


def pool_map(fn, tasks):
    """``[fn(task) for task in tasks]`` for a list of tasks, in order.

    The tasks run in a process pool of min(tasks, usable cores) workers
    when that is above 1 and this process is not itself a pool worker,
    else one after another here.  ``fn`` must be a module-level function
    and the tasks and results picklable.
    """
    workers = 1 if _in_worker else min(len(tasks), _usable_cores())
    if workers > 1:
        # the platform's default start method: a spawned worker imports
        # numpy and pathcert afresh, about 0.4 s per two-worker pool on a
        # 2-core x86 machine against 0.015 s forked, which is most of
        # what verifying a four-path katsura run takes on one core
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_enter_worker) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _serve(conn, parent_end, serve, args):
    """The helper's loop: answer each request until None or a closed pipe."""
    # a forked child holds a copy of the parent's end; closing it lets
    # recv see the pipe close when the parent goes away
    parent_end.close()
    _enter_worker()
    with conn:
        try:
            while (request := conn.recv()) is not None:
                conn.send(serve(*args, request))
        except Exception:
            # a request that raises, or a parent that is gone: stop.  The
            # parent sees the pipe close and computes the request itself,
            # which raises the error there, with its traceback.
            return


class Helper:
    """A forked child process answering ``serve(*args, request)`` for one
    request at a time.  Requests and replies must be picklable.  Raises
    OSError, with both pipe ends closed, when the child cannot start.
    """

    def __init__(self, serve, args):
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._proc = ctx.Process(target=_serve,
                                 args=(theirs, self._conn, serve, args),
                                 daemon=True)
        try:
            self._proc.start()
        except OSError:
            self._conn.close()
            self._conn = None
            raise
        finally:
            theirs.close()

    @property
    def alive(self):
        return self._conn is not None

    def send(self, request):
        """Hand a request to the child; a lost child shows in ``recv``."""
        try:
            self._conn.send(request)
        except OSError:
            self.close()

    def recv(self):
        """The reply to the last request, or None when the child is lost."""
        if self._conn is None:
            return None
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            self.close()
            return None

    def close(self):
        """Stop the child and wait for it; idempotent."""
        if self._conn is None:
            return
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._conn.close()
        self._conn = None
        self._proc.join(timeout=1.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def _may_fork_helper():
    """Whether this process may start a helper: not a worker, helper or
    daemonic process, on two or more usable cores, and processes start by
    fork.  A helper lives for one tracked path, often shorter than the
    imports a spawned or forkserver child pays (see pool_map), and only
    the forked helper was measured, so other start methods run serially.
    """
    if _in_worker or _usable_cores() < 2:
        return False
    import multiprocessing as mp
    # the method set for this program, else the platform's default, which
    # get_all_start_methods lists first; asked without fixing the choice
    method = mp.get_start_method(allow_none=True) or \
        mp.get_all_start_methods()[0]
    return not mp.current_process().daemon and method == "fork"


@contextmanager
def helper(serve, *args):
    """A ``Helper`` for the duration of the with-block, closed at its end
    however it ends; None where ``_may_fork_helper`` says no or the child
    cannot start, and the caller then does the work itself."""
    child = None
    if _may_fork_helper():
        try:
            child = Helper(serve, args)
        except OSError:
            pass
    if child is None:
        yield None
        return
    try:
        yield child
    finally:
        child.close()
