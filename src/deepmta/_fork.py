"""How many processes a stage runs, how its work is shared between them, and
how a worker process is started, talked to, reaped and reported: `train`'s
helper, each extra shard of an `attribute` window, `gen`'s journey writer,
the reader of a journey file's second half and `eval`'s scorer run in a
`Worker`."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import sys

from .errors import ConfigError, WorkerError

# the caller's pipe ends of every Worker entered in this process. A child
# closes them all first: holding another worker's, it would keep that worker
# from seeing its caller close them, or its caller from seeing it die
_OPEN_ENDS: set[int] = set()
# held back across a fork: a Ctrl-C or SIGTERM reaches every process of the
# group, and in a child still in its at-fork hooks it would print "Exception
# ignored" on the caller's stderr. The child takes it once inside its own
# handling, and the caller once the worker is set up
_STOPS = {signal.SIGINT, signal.SIGTERM}


def processes(workers: int, most: int | None = None) -> int:
    """How many processes a stage asked for `workers` runs on: that many,
    at most `most`, and 1 where the platform cannot fork. Fewer than 1
    worker is a ConfigError."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    return workers if most is None else min(workers, most)


def shares(costs: list[int], n: int) -> list[list[int]]:
    """The indices of `costs` split into n shares, each in index order: the
    costliest first, each onto the share with the least cost so far (the
    first of those on a tie)."""
    taken: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for idx in sorted(range(len(costs)), key=lambda idx: -costs[idx]):
        least = loads.index(min(loads))
        taken[least].append(idx)
        loads[least] += costs[idx]
    return [sorted(share) for share in taken]


def sharded(role: str, work, parts: list) -> list:
    """work(part) of each part, in order. A child is forked for each part
    after the first (a `Worker.computing` named `role`), so it starts with
    its part in its memory; then the caller does the first. Callers drop
    empty parts: each costs a fork. Every child is reaped before this
    returns, and on an error."""
    with contextlib.ExitStack() as stack:
        children = [stack.enter_context(Worker.computing(role, functools.partial(work, part))) for part in parts[1:]]
        first = work(parts[0])
        return [first, *(child.result() for child in children)]


def reply(writes: int, compute) -> None:
    """A child's one pickle to its caller, read by `Worker.result`: the
    value of compute(), or the Exception that stopped it."""
    try:
        value = compute()
    except Exception as exc:  # reported to the caller, which raises it
        value = exc
    with open(writes, "wb") as pipe:
        pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)


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

    @classmethod
    def computing(cls, role: str, compute) -> "Worker":
        """A Worker whose child sends the caller one `reply`: compute()'s
        value, read by `result`."""
        return cls(role, lambda _, writes: reply(writes, compute))

    def __enter__(self) -> "Worker":
        child_reads, self.send_fd = os.pipe()
        self.recv_fd, child_writes = os.pipe()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOPS)
        try:
            self.pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (child_reads, self.send_fd, self.recv_fd, child_writes):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
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
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        except BaseException:  # a stop that came during the fork: the child is killed and reaped
            self.__exit__(*sys.exc_info())
            raise
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
        pipe = open(fd, "wb")
        try:
            yield pipe
            pipe.close()
        except BrokenPipeError:
            raise self._ended(self._reap()) from None
        finally:
            # on the way out of an interrupt the child may be gone already:
            # what is still buffered is dropped, and the interrupt goes on
            with contextlib.suppress(OSError):
                pipe.close()

    def read_to_end(self) -> bytes:
        """All the child wrote, once it has ended with status 0."""
        with open(self.recv_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = self._reap()
        if status or not data:
            raise self._ended(status)
        return data

    def result(self):
        """The child's `reply`, once it has ended; the Exception that stopped
        it is raised here."""
        value = pickle.loads(self.read_to_end())
        if isinstance(value, BaseException):
            raise value
        return value

    def __exit__(self, exc_type, exc, tb) -> None:
        for fd in (self.send_fd, self.recv_fd):
            if fd is not None:  # the send end is closed already after `sending`
                _OPEN_ENDS.discard(fd)
                os.close(fd)
        if self.pid is not None:
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
            self._reap()
