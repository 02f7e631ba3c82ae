"""One piece of a command's work done in a forked child.

`child_wanted` tells whether a second process can help here; `Child` runs
one function in a fork and sends its value back. `cli` reads a command's
run or log in one, which reads the part past the cut in a child of its own
and joins the two parts; `metrics` summarises the back half of the judged
topics in one.

A child started by the main process leads a process group, and the children
it starts join that group, so that `Child.kill` stops them all at once: no
process outlives the command.
"""

import os
import pickle
import sys
import warnings
from contextlib import suppress

# Python 3.12+ warns on fork() in a process with threads; after numpy's
# import this one runs OpenBLAS's.
_FORK_WITH_THREADS = (r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
                      r"may lead to deadlocks in the child")


def child_wanted() -> bool:
    """Whether part of the work runs in a forked child (a run or a log, the
    back half of the judged topics' summaries): on Linux, with fork, where
    this process may run on two CPUs or more."""
    return (sys.platform == "linux" and hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2)


# Whether this process is a Child; the children of a Child join its group.
_in_child = False


class Child:
    """A forked child that runs one function and sends its value back,
    pickled, through a pipe. Where the function returns None or raises, the
    child sends nothing and exits 1: the caller then does that work itself,
    so every diagnostic is the caller's."""

    def __init__(self, pid: int, pipe, leads: bool):
        self.pid, self.pipe, self.leads = pid, pipe, leads

    @classmethod
    def start(cls, work) -> "Child | None":
        """The child running `work()`, or None where none can be made."""
        global _in_child
        leads = not _in_child  # whether the child leads a process group of its own
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Safe here: the child runs a file read or topic summaries,
                # which call no BLAS routine, and then leaves through os._exit.
                warnings.filterwarnings("ignore", _FORK_WITH_THREADS, DeprecationWarning)
                pid = os.fork()
        except OSError:  # no pipe, or no fork
            for fd in fds:
                os.close(fd)
            return None
        if pid == 0:
            code, _in_child = 1, True
            try:
                os.close(read_fd)
                if leads:  # here and in the parent: the group is made before either acts
                    os.setpgid(0, 0)
                value = work()
                if value is not None:
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)
                    code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        if leads:
            os.setpgid(pid, pid)
        return cls(pid, open(read_fd, "rb"), leads)

    def value(self):
        """The value the child sent, or None if it sent none. The child is
        reaped either way; where it sent none, it is stopped first (`kill`),
        with every child it started."""
        try:
            with self.pipe:
                # Unpickled as it arrives: reading the whole pickle first
                # raised mine's peak RSS by about 2 MB.
                try:
                    value = pickle.load(self.pipe)
                except (EOFError, pickle.UnpicklingError):  # cut off
                    value = None
            if value is None:
                self.kill()
                return None
            _, status = os.waitpid(self.pid, 0)
        except BaseException:
            self.kill()
            raise
        return value if status == 0 else None

    def kill(self) -> None:
        """Stop the child, and every child it started, and reap it."""
        import signal

        self.pipe.close()
        (os.killpg if self.leads else os.kill)(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        if self.leads:  # its children, where this process is their subreaper
            with suppress(ChildProcessError):
                while True:
                    os.waitpid(-self.pid, 0)
