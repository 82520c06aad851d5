"""Run one task over many items in forked worker processes.

The restart protocol (``multi_run``) and the CSV loader (``load_csv``)
both fan work out this way.  Importing this module starts nothing and
imports neither ``multiprocessing`` nor ``concurrent.futures``; they are
imported only when a pool starts.
"""

from __future__ import annotations

import sys

# Set once in each pool worker by the initializer; never in the caller.
_worker_task = None


def _adopt(task) -> None:
    global _worker_task
    _worker_task = task


def _run_in_worker(item):
    return _worker_task(item)


def fork_map(task, items, workers: int):
    """``task(item)`` for each of ``items``, yielded in order.

    With ``workers > 1`` on Linux, the items run in a pool of ``workers``
    forked processes.  ``task`` reaches each worker through the fork's
    copy-on-write memory and is never pickled, so it may hold data of any
    size, and a shared ``mmap`` it holds is the same memory in every
    worker; only the items go out and only the results come back.
    Otherwise every item runs in this process: macOS lists ``fork`` as a
    start method, but Apple's system libraries are not safe to use in a
    forked child.  An error inside ``task`` propagates with its type and
    text; a worker that dies raises ``BrokenProcessPool``.
    """
    if workers > 1 and sys.platform == "linux":
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(task,),
        ) as pool:
            yield from pool.map(_run_in_worker, items)
    else:
        yield from map(task, items)
