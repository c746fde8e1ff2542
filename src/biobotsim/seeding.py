"""Deterministic seed derivation, and the forked workers that spread
independent jobs over the CPUs.

Every random draw in the package flows from one top-level integer seed.
Child seeds are derived by hashing (seed, label, index) so that adding a
consumer never shifts the streams of existing ones, and so that no result
depends on how many workers share the draws.

fork_map is the package's one worker mechanism.  The voltage sweep runs
its chunks of traces through it, and a coverage seed batch its seeds.
"""
from __future__ import annotations

import hashlib
import os
import sys
from typing import BinaryIO, Iterator


def child_seed(seed: int, label: str, index: int = 0) -> int:
    """Derive a stable 64-bit child seed for a named consumer."""
    digest = hashlib.sha256(f"{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def cpu_count() -> int:
    """CPUs this process may run on: fork_map runs one worker process on
    each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(n: int) -> int:
    """Processes that run n jobs: one per CPU this process may use, at
    most one per job, and 1 where fork is not the platform's safe default:
    without os.fork, or on macOS, whose system libraries may crash in a
    forked child."""
    if not hasattr(os, "fork") or sys.platform == "darwin":
        return 1
    return max(1, min(cpu_count(), n))


def _fork_worker(fn, indices, readers) -> tuple[int, BinaryIO]:
    """Fork a child that pickles fn(i) for each i in indices, in order,
    into a pipe and ends with os._exit, 1 at its first exception; return
    its pid and the pipe's read end.  The child closes readers, the other
    children's read ends, which only this process reads."""
    import pickle
    import warnings

    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12, fork warns in a process with other threads,
            # as a lock one of them holds stays held in the child.  Here
            # they are OpenBLAS's, and OpenBLAS shuts its pool down before a
            # fork; each sweep GEMM, one _PIECE, stays under its threading
            # threshold, so a child runs it on its own thread
            warnings.filterwarnings("ignore", ".*use of fork",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for reader in readers:
                reader.close()
            with os.fdopen(w, "wb") as out:
                for i in indices:
                    pickle.dump(fn(i), out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
            code = 0
        finally:
            # no exception leaves the child: the parent, reading no
            # result, runs the job itself and raises it there
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def fork_map(fn, n: int) -> Iterator:
    """Yield fn(i) for i < n, in that order.

    The jobs run on W = _workers(n) processes: this one is worker 0, and at
    the first next() os.fork starts the others.  Job i runs on worker
    i mod W, and each child pickles its results into its own pipe, which
    this process reads in turn, so it holds one result at a time.  A
    result a child does not deliver, as when it raised, is computed here,
    as are the rest of that child's jobs and those of a worker that could
    not be forked, so a failing job raises here, at its position, as at
    W = 1.  However the generator ends, every child is reaped; ending
    early, closed or raising, kills them first.  A child starts from fn's
    state at the fork, so it builds its own buffers at its first job.
    """
    workers = _workers(n)
    pids, readers = [], {}      # readers of the children still delivering
    if workers > 1:
        # both users draw from numpy.random, which numpy loads at the first
        # draw: load it here, once, rather than again in every child
        import numpy.random

    def take(i):
        reader = readers.get(i % workers)
        if reader is not None:
            import pickle
            try:
                return pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                # the pipe ended early: the child raised or was killed
                del readers[i % workers]
                reader.close()
        return fn(i)

    done = False
    try:
        for w in range(1, workers):
            try:
                pid, readers[w] = _fork_worker(
                    fn, range(w, n, workers), list(readers.values()))
            except OSError:   # no process to spare: the rest run here
                break
            pids.append(pid)
        for i in range(n):
            yield take(i)
        done = True
    finally:
        for reader in readers.values():
            reader.close()
        if not done and pids:
            # a child may still be running.  Unreaped, a child that has
            # ended keeps its pid and takes the signal harmlessly
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
