"""One worker forked to share a job with this process, as ``bounds`` and ``verify`` do.

The worker runs the same code as this process on alternate parts of the job
and sends its results back over a pipe.  Both run it in the same process
image, so the results do not depend on the split.  The worker leaves through
``os._exit`` on every path: it never returns into its caller's code, flushes
no inherited output buffer and runs no exit handler.  This module imports no
numpy; ``bounds`` loads it only for a sweep long enough to split.
"""

import os
import signal
import sys
import threading


def may_fork(cpus: int) -> bool:
    """Whether a job may fork its worker, given ``cpus`` usable CPUs: two or
    more, on Linux, and no other Python thread running, whose locks a worker
    would inherit held."""
    return cpus > 1 and sys.platform.startswith("linux") and threading.active_count() == 1


class Worker:
    """A worker forked to call ``work(receive, send)`` with its ends of two
    pipes, then exit: with code 0 if ``work`` returns and 1 if it raises.

    What the worker writes to ``send`` this process reads from
    :attr:`receive`, and what this process writes to :attr:`send` the worker
    reads from ``receive``.  This process owns those two file descriptors.
    On exit from a ``with`` block the worker is killed and reaped, unless
    :meth:`stopped` has reaped it.
    """

    def __init__(self, name: str, work):
        self.name = name
        down, up = os.pipe(), os.pipe()
        # Python 3.12 and later warn here (DeprecationWarning, hidden by
        # default) when OpenBLAS's thread is alive.  The worker has one thread
        # all the same: OpenBLAS's fork handler stops its pool first, and no
        # other Python thread runs.
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(down[1])
                os.close(up[0])
                work(down[0], up[1])
                code = 0
            finally:
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        self.receive, self.send = up[0], down[1]

    def stopped(self) -> OSError:
        """The error to raise for a worker whose pipe closed early: it names
        the worker's exit code, once the worker is reaped."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        return OSError(f"{self.name} worker stopped with exit code {code}")

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
