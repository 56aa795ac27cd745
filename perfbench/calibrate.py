"""Host-speed calibration for the benchmark's timings.

The hosts this benchmark runs on change speed by 20-40% over tens of
seconds (other tenants share the cores), which swamps most effects worth
measuring.  So every timed region also times a fixed calibration loop,
and timings are reported normalised to a reference speed:

    normalised = measured * reference / mean(loop samples)

An interval timer interleaves the loop with the measured work, so the
samples see the same host phases as the work, and the time the samples
take is subtracted from the measurement.  The loop mirrors the kind of
work being measured: interpreter-bound Python for the simulator and for
set-up, ``/proc`` reads and ``kill(2)`` for the live controller.  Each
sample is timed on the wall clock and on the process CPU clock, and a
timing is normalised by the samples of its own clock.  The
loops are this file's own code, so no change to the program can change
them.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import Any, Callable, Sequence

_wall = time.perf_counter
_cpu = time.process_time

#: Host seconds between samples inside a timed region.
INTERVAL_S = 0.1
#: Iterations of the interpreter loop per sample.
LOOP_ITERATIONS = 20_000
#: Seconds one interpreter-loop sample takes at the reference speed
#: (about what it takes on the host the benchmark was defined on: a
#: 2-vCPU Intel Xeon VM, Python 3.11).
LOOP_REFERENCE_S = 0.005
#: Rounds of the syscall loop per sample.
SYSCALL_ROUNDS = 10
#: Seconds one syscall-loop sample over two pids takes at the reference
#: speed (same host).
SYSCALL_REFERENCE_S = 0.0005


class _Slot:
    __slots__ = ("a",)


def interpreter_loop() -> None:
    """The simulator's kind of work: dict stores, calls, attributes."""
    table: dict[int, int] = {}
    slot = _Slot()
    slot.a = 0

    def step(x: int) -> int:
        return x + 1

    for i in range(LOOP_ITERATIONS):
        table[i & 255] = step(i)
        slot.a = (slot.a + table[i & 255]) & 0xFFFF


def syscall_loop(pids: Sequence[int]) -> Callable[[], None]:
    """The live controller's kind of work: read each pid's ``/proc``
    stat and send it signal 0, :data:`SYSCALL_ROUNDS` times."""
    paths = [f"/proc/{pid}/stat" for pid in pids]

    def loop() -> None:
        for _ in range(SYSCALL_ROUNDS):
            for pid, path in zip(pids, paths):
                with open(path, "rb") as f:
                    f.read()
                os.kill(pid, 0)

    return loop


class SpeedProbe:
    """Times a calibration loop around and inside a region.

    :meth:`start` takes one sample and arms the timer; :meth:`stop`
    disarms it; :meth:`finish` takes one more sample.  A caller reads its
    clocks between :meth:`start` and :meth:`stop`, so ``spent_s`` and
    ``spent_cpu_s``, the time the timer's samples took, lie inside its
    measurement and can be subtracted from it.  Each sample is timed on
    both clocks: wall timings are normalised by the wall samples, CPU
    timings by the CPU samples.  Uses ``SIGALRM``.
    """

    def __init__(
        self,
        loop: Callable[[], None] = interpreter_loop,
        reference_s: float = LOOP_REFERENCE_S,
    ) -> None:
        self.loop = loop
        self.reference_s = reference_s
        self.wall_samples: list[float] = []
        self.cpu_samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def _sample(self) -> tuple[float, float]:
        t0, c0 = _wall(), _cpu()
        self.loop()
        wall, cpu = _wall() - t0, _cpu() - c0
        self.wall_samples.append(wall)
        self.cpu_samples.append(cpu)
        return wall, cpu

    def _tick(self, *_: Any) -> None:
        wall, cpu = self._sample()
        self.spent_s += wall
        self.spent_cpu_s += cpu

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def finish(self) -> tuple[float, float]:
        """Take the closing sample; return the factors that convert
        measured wall and CPU seconds to seconds at the reference speed."""
        self._sample()
        return (
            self.reference_s / statistics.mean(self.wall_samples),
            self.reference_s / statistics.mean(self.cpu_samples),
        )
