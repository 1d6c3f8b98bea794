"""Shortest round-trip reprs of float64 values, formatted by a second interpreter.

``bounds`` spends most of its time in ``repr`` of floats.  With two usable
CPUs it hands part of each block's values to one helper: this file, run as a
script by the same interpreter (``python -I -S _reprhelper.py``).  As a script
it imports only ``sys``, so it starts in about 12 ms and holds about 9 MB.
The same interpreter formats a float to the same characters, so the output
does not change.

Protocol, over the helper's stdin and stdout, in native byte order: a request
is an unsigned 64-bit count n followed by n float64 values; its reply is an
unsigned 64-bit byte count followed by the n reprs joined by ``\\n`` (ASCII).
Replies come in request order.  The helper exits at the end of its input,
and exits quietly (code 1, nothing on stderr) when its reader is gone.

:class:`Helper` is the parent's side.  A writer thread feeds the helper's
stdin, so the parent blocks only to read a reply, and the helper can always
write the reply that the parent waits for: there is no deadlock at any pipe
capacity.  Both pipes are unbuffered, so :meth:`Helper.ready` sees a reply as
soon as it reaches the pipe, and no buffer holds it back.
"""

import sys

_COUNT_SIZE = 8


def _count(n: int) -> bytes:
    return n.to_bytes(_COUNT_SIZE, sys.byteorder)


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
            process = subprocess.Popen([sys.executable, "-I", "-S", __file__], bufsize=0,
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
                _write_all(stdin, frame)
        except OSError:  # the helper is gone; result() reports it
            pass

    def submit(self, values) -> None:
        """Queue a float64 array for formatting."""
        self._frames.put(_count(values.size) + values.tobytes())

    def ready(self) -> bool:
        """Whether the reply that :meth:`result` returns next has begun to
        arrive (or the helper has stopped), so that reading it need not wait."""
        import select

        return bool(select.select([self._process.stdout], [], [], 0)[0])

    def result(self) -> list:
        """The reprs of the oldest submitted array not yet returned."""
        stdout = self._process.stdout
        head = _read_exactly(stdout, _COUNT_SIZE)
        text = None if head is None else _read_exactly(stdout, int.from_bytes(head, sys.byteorder))
        if text is None:
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


def _read_exactly(stream, size):
    """``size`` bytes from the unbuffered ``stream``, which may return them in
    parts, or None if it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = stream.readinto(view)
        if not got:
            return None
        view = view[got:]
    return data


def _write_all(stream, data) -> None:
    """Write ``data`` to the unbuffered ``stream``, which may take it in parts."""
    view = memoryview(data)
    while view:
        view = view[stream.write(view):]


def _serve(stdin, stdout) -> None:
    """Reply to each frame, until the input ends or breaks off mid-frame."""
    while len(head := stdin.read(_COUNT_SIZE)) == _COUNT_SIZE:
        size = 8 * int.from_bytes(head, sys.byteorder)
        data = stdin.read(size)
        if len(data) < size:
            return
        text = "\n".join(map(repr, memoryview(data).cast("d"))).encode("ascii")
        _write_all(stdout, _count(len(text)) + text)


if __name__ == "__main__":
    # Replies go out unbuffered, so no byte is left to flush at exit.  A reader
    # that is gone (the parent killed) ends the helper without a traceback.
    try:
        _serve(sys.stdin.buffer, open(sys.stdout.fileno(), "wb", buffering=0, closefd=False))
    except BrokenPipeError:
        sys.exit(1)
