"""Host speed, measured by fixed calibration kernels between repetitions.

The shared cores this benchmark runs on change speed by up to a factor
of two within seconds and differ from each other, and CPU time follows
wall time, so raw seconds of identical work spread more than any useful
bound.  ``run.py`` therefore times three fixed kernels on the CPUs a
repetition is bound to, before and after it, and scales the
repetition's seconds by the host speed they saw.  The kernels do the
three kinds of work the sweeps do: a pure-Python loop, numpy complex
normal draws on a Monte-Carlo-sized array, and many numpy calls on tiny
arrays.  None of them touches ``mimo_pilot``, so a change to the package
moves the scaled seconds exactly as it moves the raw ones.

A factor of 1 means the kernels ran at their :data:`REFERENCE_S` times;
scaled seconds are seconds at that reference speed.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

# Median seconds of each kernel on the reference host (2-core Intel Xeon,
# Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread).
REFERENCE_S = (0.056, 0.064, 0.064)


def _python_loop() -> None:
    x = 0
    for i in range(600_000):
        x += i * i % 7


def _normal_draws() -> None:
    rng = np.random.default_rng(0)
    for _ in range(40):
        a = rng.standard_normal((7, 10, 512)) + 1j * rng.standard_normal((7, 10, 512))
        np.abs(a).sum()


def _tiny_arrays() -> None:
    v = np.ones(8)
    for _ in range(10_000):
        v = np.minimum(v * 1.0001, 2.0) + np.sum(v) * 0.0


KERNELS = (_python_loop, _normal_draws, _tiny_arrays)


def _time_kernels(cpu: int) -> list[float]:
    os.sched_setaffinity(0, {cpu})
    times = []
    for kernel in KERNELS:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def measure(cpus) -> tuple[float, ...]:
    """Seconds each kernel takes on each of ``cpus``, all CPUs at once.

    A repetition at ``jobs > 1`` keeps every CPU it runs on busy, so the
    kernels load them together: this process times them on the first CPU
    while a forked child times them on each other one.  Leaves this
    process bound to ``cpus``, so that a process it starts next runs
    where the kernels were timed.
    """
    children = []
    try:
        for cpu in cpus[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    os.write(write_fd, json.dumps(_time_kernels(cpu)).encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        times = _time_kernels(cpus[0])
        for _, read_fd in children:
            with os.fdopen(read_fd) as pipe:
                times.extend(json.loads(pipe.read()))
    finally:
        for pid, _ in children:
            os.waitpid(pid, 0)
    os.sched_setaffinity(0, cpus)
    return tuple(times)


def factor(before, after) -> float:
    """Scale from raw to reference seconds for work run between two measurements.

    The geometric mean over kernels and CPUs of reference time over
    measured time, each measured time being the mean of ``before`` and
    ``after``.
    """
    logs = [math.log(REFERENCE_S[i % len(REFERENCE_S)] / ((b + a) / 2.0))
            for i, (b, a) in enumerate(zip(before, after))]
    return math.exp(sum(logs) / len(logs))
