"""How many processes a stage runs, how its work is shared between them, and
how a worker process is started, talked to, reaped and reported: `train`'s
helper, each extra shard of an `attribute` window, `gen`'s journey writer,
the reader of a journey file's second half and `eval`'s scorer run in a
`Worker`, and while one runs the BLAS runs one thread per process."""

from __future__ import annotations

import contextlib
import ctypes
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
# the variables that pin a BLAS's thread count, read as numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the (setter, getter) of the thread count of each BLAS numpy may load:
# numpy's wheels' scipy-openblas, OpenBLAS with 64-bit and 32-bit integers,
# and MKL, tried in this order (the symbols threadpoolctl calls)
_BLAS_SETTERS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)
# the Workers open in this process, and the BLAS thread count the caller had
# before the first of them pinned it, None where nothing was pinned; held
# per process, as the BLAS's own count is
_PINNED = {"open": 0, "threads": None}


def processes(workers: int, most: int | None = None) -> int:
    """How many processes a stage asked for `workers` runs on: that many,
    at most `most`, and 1 where the platform cannot fork. Fewer than 1
    worker is a ConfigError."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    return workers if most is None else min(workers, most)


@functools.cache
def blas_threads():
    """The (set, get) thread-count functions of the BLAS loaded in this
    process, or None where none is found: the first of `_BLAS_SETTERS`
    that a library mapped into the process (Linux's /proc/self/maps)
    whose file name names a BLAS exports, called through ctypes. Found
    once; every module that forks has loaded numpy, and its BLAS, first."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return None
    for path in dict.fromkeys(entry[5].strip() for entry in fields if len(entry) == 6):
        name = os.path.basename(path).lower()
        if ".so" not in name or not ("blas" in name or "mkl" in name):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _BLAS_SETTERS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def _pin_blas() -> None:
    """Before a Worker's fork: where no variable of BLAS_THREAD_VARS is set
    and the BLAS's setter is found (`blas_threads`), the first Worker open
    keeps the caller's thread count and sets one thread, which the children
    inherit, so that the processes do not contend for the CPUs with BLAS
    threads; the last Worker closed restores the count (`_unpin_blas`)."""
    _PINNED["open"] += 1
    if _PINNED["open"] > 1 or any(os.environ.get(name) for name in BLAS_THREAD_VARS) or blas_threads() is None:
        return
    set_threads, get_threads = blas_threads()
    _PINNED["threads"] = get_threads()
    set_threads(1)


def _unpin_blas() -> None:
    _PINNED["open"] -= 1
    if not _PINNED["open"] and _PINNED["threads"] is not None:
        blas_threads()[0](_PINNED["threads"])
        _PINNED["threads"] = None


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


def sharded(role: str, work, parts) -> list:
    """work(part) of each of `parts`, an iterable, in order. A child is
    forked for each part after the first (a `Worker.computing` named
    `role`), so it starts with its part in its memory; then the caller does
    the first. The parts are taken one at a time and a Worker drops its part
    once its child is forked, so the caller holds no forked part that its
    iterable does not: a list keeps them, a generator's are freed. Callers
    drop empty parts: each costs a fork. Every child is reaped before this
    returns, and on an error."""
    parts = iter(parts)
    first = next(parts)
    with contextlib.ExitStack() as stack:
        children = [stack.enter_context(Worker.computing(role, functools.partial(work, part))) for part in parts]
        return [work(first), *(child.result() for child in children)]


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
    returns, else 1, after naming an Exception on stderr. The caller drops
    target once the child is forked, and while any Worker is open its BLAS
    runs one thread where it would run more (`_pin_blas`). In the caller, a
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
        _pin_blas()
        try:
            self.pid = os.fork()
        except OSError:
            _unpin_blas()
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
        self.target = None
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
        _unpin_blas()
