"""Work split into shares, one per CPU, each share on a thread of its own.

numpy releases the GIL inside its array-wide ufuncs, and hashlib while
it digests, so shares made of such calls run in parallel.
KGSpectralField.jets cuts its points into contiguous shares;
check_ode_lemma deals its column blocks out in turn and hands each
block's running integrals on to the next through a Relay; run_pipeline
hashes the archive beside its analysis stages.
"""

from __future__ import annotations

import os
import threading


def worker_count():
    """Number of CPUs this process may run on: one share each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_shares(run, shares):
    """run(*args) for every args in shares, the first on the calling thread
    and each other on a thread of its own.

    All threads are joined before this returns; an exception raised in
    any share is raised here.
    """
    first, *rest = shares
    errors, started = [], []

    def guarded(*args):
        try:
            run(*args)
        except BaseException as exc:
            errors.append(exc)

    try:
        for args in rest:
            thread = threading.Thread(target=guarded, args=args)
            thread.start()
            started.append(thread)
        run(*first)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


class Relay:
    """One value handed from each of n blocks to the next, in block order,
    between the shares of run_shares.

    put(k, value) hands block k's value on; take(k) waits for it and
    returns it, and drops the relay's reference.  A share that fails calls
    abort(), after which every take, waiting or to come, returns None, so
    no share waits for a value that will never be handed on.
    """

    def __init__(self, n):
        self._values = [None] * n
        self._ready = [threading.Event() for _ in range(n)]
        self._aborted = False

    def put(self, k, value):
        self._values[k] = value
        self._ready[k].set()

    def take(self, k):
        self._ready[k].wait()
        if self._aborted:
            return None
        value, self._values[k] = self._values[k], None
        return value

    def abort(self):
        self._aborted = True
        for ready in self._ready:
            ready.set()
