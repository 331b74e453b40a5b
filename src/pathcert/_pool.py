"""One process pool for independent tasks.

Tracking a family's paths and verifying a run's certificates are each a
list of independent tasks whose results do not depend on where they
run.  ``pool_map`` runs such a list on every usable core, or in this
process when there is one core or one task.  No task given to the pool
calls ``pool_map`` itself: a path tracks, and a certificate replays, in
the one process that runs its task.
"""

import os


def _usable_cores():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, tasks):
    """``[fn(task) for task in tasks]`` for a list of tasks, in order.

    The tasks run in a process pool of min(tasks, usable cores) workers
    when that is above 1, else one after another here.  ``fn`` must be a
    module-level function and the tasks and results picklable.
    """
    workers = min(len(tasks), _usable_cores())
    if workers > 1:
        # the platform's default start method: a spawned worker imports
        # numpy and pathcert afresh, about 0.4 s per two-worker pool on a
        # 2-core x86 machine against 0.015 s forked, which is most of
        # what verifying a four-path katsura run takes on one core
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
