"""Correct a timing for the speed of a shared host.

On a small VM that shares its host, the same code can take half as long
again, or more, for minutes at a time while neighbours are busy, and its CPU
time slows as much as its wall time: the processor is slower, the program is
not waiting. A raw timing then measures the neighbours as much as the program.

``Sampler`` measures the host's speed over exactly the interval it times. A
SIGALRM handler runs a fixed pure-Python kernel (about 1 ms) at a fixed
interval, and times each run on the main thread's CPU clock, so neither
preemption nor another thread holding the GIL can lengthen it. The mean
kernel time over ``REFERENCE_S`` is the interval's slowdown, and::

    with Sampler(0.1) as s:
        ...                 # the timed code
    s.wall                  # seconds the block took, less the sampling
    s.slowdown              # mean kernel CPU time / REFERENCE_S
    s.corrected             # s.wall / s.slowdown: seconds at reference speed

The kernel is the benchmark's own code and shares nothing with prevmap, so a
change to prevmap moves ``corrected`` as much as it moves ``wall``. The
module imports only ``signal`` and ``time``, so it can sample inside the
interpreter whose ``import prevmap.cli`` is being timed.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 1.0e-3  # a round figure near the kernel's CPU time on a 2-vCPU x86-64 VM
MIN_SAMPLES = 5


def kernel(n: int = 1000) -> float:
    """Fixed interpreter-bound work: float arithmetic, dict and list traffic."""
    acc = 0.0
    table: dict[int, float] = {}
    seen: list[float] = []
    for i in range(n):
        v = (i * 0.37 + acc) % 11.0
        table[i & 31] = table.get((i + 7) & 31, 0.0) + v
        seen.append(v)
        acc += sum(seen[-8:]) * 1e-3
    seen.sort()
    return acc + seen[len(seen) // 2]


class Sampler:
    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.cpu: list[float] = []
        self.spent = 0.0
        self.wall = 0.0

    def _sample(self) -> float:
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        self.cpu.append(time.thread_time() - cpu)
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.spent += self._sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.cpu) < MIN_SAMPLES:  # a block shorter than a few intervals
            self._sample()

    @property
    def slowdown(self) -> float:
        return sum(self.cpu) / len(self.cpu) / REFERENCE_S

    @property
    def corrected(self) -> float:
        return self.wall / self.slowdown
