"""Work split into shares, one per CPU, each share on a thread of its own.

numpy releases the GIL inside its array-wide ufuncs, and hashlib while
it digests, so shares made of such calls run in parallel.
KGSpectralField.jets cuts its points into contiguous shares, and
check_ode_lemma its cases; run_pipeline hashes the archive beside its
analysis stages.
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

