"""Shortest round-trip reprs of float64 values, formatted by a second interpreter.

``bounds`` spends most of its time in ``repr`` of floats.  With two usable
CPUs it hands part of each block's values to one helper: this file, run as a
script by the same interpreter (``python -I -S _reprhelper.py``).  As a script
it imports only ``array``, ``struct`` and ``sys``, so it starts in about 20 ms
and holds about 9.5 MB.  The same interpreter formats a float to the same
characters, so the output does not change.

Protocol, over the helper's stdin and stdout, in native byte order: a request
is an unsigned 64-bit count n followed by n float64 values; its reply is an
unsigned 64-bit byte count followed by the n reprs joined by ``\\n`` (ASCII).
Replies come in request order.  The helper exits at the end of its input.

:class:`Helper` is the parent's side.  A writer thread feeds the helper's
stdin, so the parent blocks only to read a reply, and the helper can always
write the reply that the parent waits for: there is no deadlock at any pipe
capacity.
"""

import struct
import sys
from array import array

_COUNT = struct.Struct("=Q")


class Helper:
    """A running helper: :meth:`submit` arrays, then take their reprs in the same
    order from :meth:`result`.  As a context manager it ends the helper on exit,
    killing it first unless the block ran to its end."""

    # The parent side imports inside its methods, so that the helper, running
    # this file as a script, imports only what the top of the file does.
    def __init__(self, process):
        import queue
        import threading

        self._process = process
        self._frames = queue.SimpleQueue()
        self._writer = threading.Thread(target=self._write, daemon=True)
        self._writer.start()

    @classmethod
    def start(cls):
        """A started helper, or None where no interpreter can be started to run
        this file (a frozen or embedded program, or a failed start)."""
        if not sys.executable or getattr(sys, "frozen", False):
            return None
        import subprocess

        try:
            # A session of its own keeps a terminal's Ctrl-C away from the
            # helper; the parent ends it.
            process = subprocess.Popen([sys.executable, "-I", "-S", __file__],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       start_new_session=True)
        except OSError:
            return None
        return cls(process)

    def _write(self):
        """Writer thread: each queued frame to the helper's stdin, until None."""
        stdin = self._process.stdin
        try:
            for frame in iter(self._frames.get, None):
                stdin.write(frame)
                stdin.flush()
        except OSError:  # the helper is gone; result() reports it
            pass

    def submit(self, values) -> None:
        """Queue a float64 array for formatting."""
        self._frames.put(_COUNT.pack(values.size) + values.tobytes())

    def result(self) -> list:
        """The reprs of the oldest submitted array not yet returned."""
        stdout = self._process.stdout
        head = stdout.read(_COUNT.size)
        size = _COUNT.unpack(head)[0] if len(head) == _COUNT.size else None
        text = b"" if size is None else stdout.read(size)
        if size is None or len(text) < size:
            raise OSError(f"repr helper stopped with exit code {self._process.wait()}")
        return text.decode("ascii").split("\n") if text else []

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        if kind is not None:
            self._process.kill()
        self._frames.put(None)
        self._writer.join()
        try:
            self._process.stdin.close()  # the helper's end of input
        except OSError:  # a frame the killed helper never read
            pass
        self._process.wait()
        self._process.stdout.close()


def _serve(stdin, stdout) -> None:
    while True:
        head = stdin.read(_COUNT.size)
        if not head:
            return
        values = array("d")
        values.frombytes(stdin.read(8 * _COUNT.unpack(head)[0]))
        text = "\n".join(map(repr, values)).encode("ascii")
        stdout.write(_COUNT.pack(len(text)))
        stdout.write(text)
        stdout.flush()


if __name__ == "__main__":
    _serve(sys.stdin.buffer, sys.stdout.buffer)
