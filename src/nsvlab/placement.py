"""Where the program's helpers run.

A helper started beside its caller (the field writer's process, a sweep's
worker threads) binds itself to a usable CPU other than the one its caller
runs on, so the kernel does not run the two on one CPU while another idles.
The caller's own affinity is never changed.
"""

from __future__ import annotations

import os


def caller_cpu() -> int | None:
    """The CPU the calling thread runs on (field 39 of /proc/thread-self/stat),
    or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def spare_cpus() -> list:
    """A CPU for each helper the calling thread may start beside itself, one
    fewer than the usable CPUs (so none on one usable CPU): the usable CPUs
    other than the caller's, distinct and in turn from the one after it.
    Each is None, for a helper left unbound, where the caller's CPU cannot
    be read."""
    if not hasattr(os, "sched_getaffinity"):
        return [None] * ((os.cpu_count() or 1) - 1)
    usable, here = sorted(os.sched_getaffinity(0)), caller_cpu()
    if here is None:
        return [None] * (len(usable) - 1)
    turn = [cpu for cpu in usable if cpu > here] + [cpu for cpu in usable if cpu < here]
    return turn[:len(usable) - 1]


def bind(cpu: int | None):
    """Bind the calling thread to cpu (on Linux os.sched_setaffinity(0, ...)
    acts on the calling thread alone); None, or a refused bind, binds nothing."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
