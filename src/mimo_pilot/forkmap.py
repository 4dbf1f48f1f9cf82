"""Fork map: a list of tasks shared out over forked worker processes.

:func:`fork_map` returns ``[fn(task) for task in tasks]``.  With one
worker, or on a platform without ``os.fork`` such as Windows, it runs
the tasks in-process.  Otherwise the caller forks ``workers - 1``
children and runs a share itself.  On Linux each worker has its own CPU of the
affinity set for the map, if there are enough, and the caller then gets
its set back: the kernel may leave a child on its parent's CPU while
another idles.  Every worker takes chunks of tasks from one queue
(:func:`_task_queue`) until it is empty, so a worker that draws a slow
task leaves the rest to the others.  A child pickles its (chunk start, results)
pairs, or its exception and traceback text, down a pipe of its own; an
exception that does not pickle, or does not unpickle in the caller,
arrives as a :class:`WorkerError` naming its type and message.  The
caller runs its share, reads every pipe, reaps every child, then raises
the first failure in worker order (a child's traceback text is its
cause) or returns the results in task order.  If the caller's own share
fails, it kills and reaps every child first, so no child outlives the
call.  macOS forks too, though its system libraries do not promise to
survive a fork.  Nothing of ``multiprocessing`` loads.
"""

from __future__ import annotations

import os
import pickle
import sys


class WorkerError(Exception):
    """A worker's exception that could not cross the pipe, as its type's
    qualified name and its message."""


def fork_map(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]`` over ``workers`` processes."""
    if workers == 1 or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    mask = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    cpus = [{cpu} for cpu in sorted(mask)] if len(mask) >= workers else [mask] * workers
    queue, size = _task_queue(len(tasks))
    children = []  # (pid, read end of its pipe), in worker order
    try:
        for w in range(1, workers):
            children.append(_fork_share(fn, tasks, queue, size, cpus[w]))
        _pin(cpus[0])
        done = _take_chunks(fn, tasks, queue, size)
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal  # only a failed map needs it
        # so that no reap waits for a child to finish its share
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _pin(mask)  # only this thread moved
        os.close(queue)
        codes = [_reap(pid, pipe) for pid, pipe in children]
    for w, ((pid, _), payload, code) in enumerate(zip(children, payloads, codes), 1):
        if code != 0 or not payload:
            raise RuntimeError(f"sweep worker {w} (pid {pid}) exited with code "
                               f"{code} and sent no results")
        share, failure, trace = pickle.loads(payload)
        if trace is not None:
            cause = RuntimeError(f"sweep worker {w} (pid {pid}) raised:\n{trace}")
            raise _unpickled(*failure) from cause
        done += share
    results = [None] * len(tasks)
    for start, chunk in done:
        results[start:start + len(chunk)] = chunk
    return results


_RECORD = 4  # bytes per chunk start in the task queue


def _task_queue(n_tasks: int):
    """A pipe that holds the start of every chunk of ``size`` tasks, then
    ends: its read end, and ``size``.  A read of one record takes exactly
    one chunk, whichever worker reads it.  A chunk is one task up to
    ``PIPE_BUF`` / 4 tasks (1024 on Linux) and grows past that, so that
    every record goes in one write of at most ``PIPE_BUF`` bytes, which
    an empty pipe takes without blocking."""
    read, write = os.pipe()
    try:
        size = -(-n_tasks * _RECORD // os.fpathconf(write, "PC_PIPE_BUF"))
        os.write(write, b"".join(start.to_bytes(_RECORD, "little")
                                 for start in range(0, n_tasks, size)))
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return read, size


def _take_chunks(fn, tasks: list, queue: int, size: int) -> list:
    """Run chunks of tasks taken from the queue until it is empty; returns
    their (start, results) pairs."""
    done = []
    while record := os.read(queue, _RECORD):
        start = int.from_bytes(record, "little")
        done.append((start, [fn(task) for task in tasks[start:start + size]]))
    return done


def _flush_std_streams():
    """Flush stdout and stderr, skipping one that is None or closed."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


def _pin(cpus):
    """Best effort: run this thread on ``cpus`` alone."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no such call (macOS), or no such CPU
        pass


def _fork_share(fn, tasks: list, queue: int, size: int, cpus):
    """Fork a child that takes chunks from the queue on ``cpus`` and sends
    their outcome down a new pipe; returns its pid and the pipe's read end."""
    read, write = os.pipe()
    # flushed here, what the caller has buffered is not written again by
    # the child
    _flush_std_streams()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _run_share(fn, tasks, queue, size, write, cpus)
    os.close(write)
    return pid, open(read, "rb")


def _run_share(fn, tasks: list, queue: int, size: int, write: int, cpus):
    """A child's whole life: move onto ``cpus``, run its share, send the
    pickled (results, exception, traceback text) and exit, flushing its
    output but running none of the caller's exit handlers.  The exception
    goes as (its own pickle or None, "module.Type: message")."""
    code = 1
    try:
        _pin(cpus)
        try:
            payload = pickle.dumps((_take_chunks(fn, tasks, queue, size), None, None))
        except BaseException as exc:  # sent to the caller, which raises it
            import traceback  # only a failed map needs it
            summary = f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"
            try:
                sent = pickle.dumps(exc)
            except Exception:  # a lambda attribute, say: the summary stands in
                sent = None
            payload = pickle.dumps((None, (sent, summary),
                                    "".join(traceback.format_exception(exc))))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(code)


def _unpickled(sent, summary: str) -> BaseException:
    """A child's exception from its pickle, or a :class:`WorkerError` with
    its summary if there is no pickle or it does not load (an ``__init__``
    whose arguments are not the exception's ``args``, say)."""
    try:
        return WorkerError(summary) if sent is None else pickle.loads(sent)
    except Exception:
        return WorkerError(summary)


def _reap(pid: int, pipe) -> int:
    """Close a child's pipe and wait for it; returns its exit code."""
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
