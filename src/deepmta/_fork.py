"""How a worker process is started, talked to, reaped and reported: `train`'s
helper, each extra shard of an `attribute` window and `gen`'s journey
writer run in a `Worker`."""

from __future__ import annotations

import contextlib
import os
import signal
import sys

from .errors import WorkerError

# the caller's pipe ends of every Worker entered in this process. A child
# closes them all first: holding another worker's, it would keep that worker
# from seeing its caller close them, or its caller from seeing it die
_OPEN_ENDS: set[int] = set()


def can_fork() -> bool:
    """Whether this platform can start a Worker."""
    return hasattr(os, "fork")


class Worker:
    """A child process, forked on entry, that runs target(reads, writes)
    over its ends of a pipe from the caller and a pipe to it. The child
    first closes the caller's ends of every worker open at the fork, and
    always leaves through os._exit, so it never returns into the caller's
    code nor flushes the caller's stdio buffers: with status 0 when target
    returns, else 1, after naming an Exception on stderr. In the caller, a
    pipe the child closed is a WorkerError naming `role` and the child's
    exit status. On every exit the caller's ends are closed and the child
    is reaped, killed first when an exception is leaving."""

    def __init__(self, role: str, target):
        self.role, self.target, self.pid = role, target, None

    def __enter__(self) -> "Worker":
        child_reads, self.send_fd = os.pipe()
        self.recv_fd, child_writes = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (child_reads, self.send_fd, self.recv_fd, child_writes):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                for fd in (self.send_fd, self.recv_fd, *_OPEN_ENDS):
                    os.close(fd)
                self.target(child_reads, child_writes)
                status = 0
            except Exception as exc:  # named here; the caller sees the pipe close
                print(f"error: {self.role} failed: {exc!r}", file=sys.stderr)
            finally:
                os._exit(status)
        os.close(child_reads)
        os.close(child_writes)
        _OPEN_ENDS.update((self.send_fd, self.recv_fd))
        return self

    def _reap(self) -> int:
        """Wait for the child to end; its exit status, negative for a signal."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)

    def _ended(self, status: int) -> WorkerError:
        return WorkerError(f"{self.role} ended with exit status {status} before it finished its part")

    def write(self, data: bytes) -> None:
        """Send the child at most PIPE_BUF bytes, in one write."""
        try:
            os.write(self.send_fd, data)
        except BrokenPipeError:
            raise self._ended(self._reap()) from None

    def read(self, size: int) -> bytes:
        """Up to `size` bytes from the child, once the first has come."""
        data = os.read(self.recv_fd, size)
        if not data:
            raise self._ended(self._reap())
        return data

    @contextlib.contextmanager
    def sending(self):
        """A binary file over the send end, for a stream of any length. On
        exit the end is closed, so the child reads to its end; a child that
        closed its own end first is a WorkerError."""
        fd, self.send_fd = self.send_fd, None
        _OPEN_ENDS.discard(fd)
        try:
            with open(fd, "wb") as pipe:
                yield pipe
        except BrokenPipeError:
            raise self._ended(self._reap()) from None

    def read_to_end(self) -> bytes:
        """All the child wrote, once it has ended with status 0."""
        with open(self.recv_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = self._reap()
        if status or not data:
            raise self._ended(status)
        return data

    def __exit__(self, exc_type, exc, tb) -> None:
        for fd in (self.send_fd, self.recv_fd):
            if fd is not None:  # the send end is closed already after `sending`
                _OPEN_ENDS.discard(fd)
                os.close(fd)
        if self.pid is not None:
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
            self._reap()
