"""One piece of a command's work done in a forked child.

`child_wanted` tells whether a second process can help here; `Child` runs
one function in a fork and sends its value back. `cli` reads a log, or the
back part of a run, in one; `metrics` summarises the back half of the
judged topics in one.
"""

import os
import pickle
import sys
import warnings

# Python 3.12+ warns on fork() in a process with threads; after numpy's
# import this one runs OpenBLAS's.
_FORK_WITH_THREADS = (r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
                      r"may lead to deadlocks in the child")


def child_wanted() -> bool:
    """Whether part of the work runs in a forked child (`mine`'s log, the
    back part of a run, the back half of the judged topics' summaries): on
    Linux, with fork, where this process may run on two CPUs or more."""
    return (sys.platform == "linux" and hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2)


class Child:
    """A forked child that runs one function and sends its value back,
    pickled, through a pipe. Where the function returns None or raises, the
    child sends nothing and exits 1: the caller then does that work itself,
    so every diagnostic is the caller's."""

    def __init__(self, pid: int, pipe):
        self.pid, self.pipe = pid, pipe

    @classmethod
    def start(cls, work) -> "Child | None":
        """The child running `work()`, or None where none can be made."""
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Safe here: the child runs a file read or topic summaries,
                # which call no BLAS routine, and then leaves through os._exit.
                warnings.filterwarnings("ignore", _FORK_WITH_THREADS, DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return None
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                value = work()
                if value is not None:
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        return cls(pid, open(read_fd, "rb"))

    def value(self):
        """The value the child sent, or None if it sent none. The child is
        reaped either way."""
        try:
            with self.pipe:
                # Unpickled as it arrives: reading the whole pickle first
                # raised mine's peak RSS by about 2 MB.
                try:
                    value = pickle.load(self.pipe)
                except (EOFError, pickle.UnpicklingError):  # cut off
                    value = None
            _, status = os.waitpid(self.pid, 0)
        except BaseException:
            self.kill()
            raise
        return value if status == 0 else None

    def kill(self) -> None:
        """Stop the child and reap it."""
        import signal

        self.pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
