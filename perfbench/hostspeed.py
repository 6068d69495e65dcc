"""How fast the workload's core runs, sampled from inside the workload.

On a shared host the speed of one core moves by up to 2x within
seconds and drifts over minutes (other tenants on the same physical
core), and CPU time moves with it, so a raw time says as much about the
neighbours as about the program.  A loop run on the other core does not
track it (correlation 0.2); a loop run on the same thread, interleaved
with the program, does.

:class:`HostSpeed` runs a fixed calibration loop of about a millisecond,
half interpreter work and half small numpy calls, every
``PERIOD_CPU_S`` seconds of the process's CPU time (``SIGPROF``; the
program itself arms only ``SIGALRM``), and records when it ran and how
long it took.  :func:`normalize` turns a raw time into the time it
would have taken on a core that runs the loop in ``REFERENCE_LOOP_S``:
the raw time less the loop's own time, times the reference loop time
over the harmonic mean of the sampled loop times.  A change to the
program moves the normalized time; a change in the neighbours' load
mostly does not.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.wallclock import wall_clock

#: CPU seconds between two calibration samples
PERIOD_CPU_S = 0.05
#: iterations of the interpreter part of the calibration loop
LOOP_ITERATIONS = 2000
#: rounds of the array part of the calibration loop
ARRAY_ROUNDS = 20
#: the loop's time on the reference core (a 2-vCPU Xeon VM in a quiet
#: moment); it only scales the normalized times
REFERENCE_LOOP_S = 0.0011


def python_loop(n: int = LOOP_ITERATIONS) -> int:
    """Interpreter-bound work: dict updates, integer arithmetic."""
    table = {}
    total = 0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += abs(i % 7 - 3)
    return total


_VALUES = np.arange(1 << 16, dtype=np.int64)
_INDEX = (np.arange(4096, dtype=np.int64) * 7919) % (1 << 16)


def array_loop(n: int = ARRAY_ROUNDS) -> int:
    """Small-array numpy calls and a gather over a 512 KiB array."""
    total = 0
    for _ in range(n):
        x = _VALUES[_INDEX]
        total += int(np.count_nonzero(x & 1)) + int(np.flatnonzero(x > 30000).size)
    return total


def queue_wait() -> float:
    """Seconds this process has waited for a CPU held by someone else.

    The second field of ``/proc/self/schedstat`` (Linux); 0.0 where the
    kernel does not keep it.
    """
    try:
        with open("/proc/self/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def workload_cpu() -> int:
    """The CPU a workload process is pinned to: the last one allowed."""
    return max(os.sched_getaffinity(0))


def cpu_steal(cpu: int) -> float:
    """Seconds the hypervisor has kept vCPU *cpu* from running.

    The steal column of ``/proc/stat`` (Linux, clock-tick resolution);
    0.0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class HostSpeed:
    """Calibration samples ``(start, duration)`` taken during one run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = wall_clock()
        cpu = time.thread_time()
        python_loop()
        array_loop()
        self.samples.append((start, time.thread_time() - cpu))

    def start(self) -> None:
        python_loop()  # first calls warm the loops' code objects
        array_loop()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_CPU_S, PERIOD_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


def normalize(seconds: float, samples: Sequence[Sequence[float]],
              end: Optional[float] = None) -> float:
    """*seconds* of a run at reference core speed.

    *samples* are the run's ``(start, duration)`` calibration samples;
    with *end*, only those that started before it count (an interval
    that begins with the run).  Without any sample the raw time is
    returned.
    """
    loops = [d for s, d in samples if end is None or s < end]
    if not loops:
        return seconds
    mean_speed = sum(1.0 / d for d in loops) / len(loops)
    return (seconds - sum(loops)) * REFERENCE_LOOP_S * mean_speed
