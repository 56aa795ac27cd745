"""A CFS-like kernel scheduler (fair virtual-runtime policy).

ALPS's portability claim is that it runs *on top of* whatever the
kernel scheduler does — it only needs progress sampling and
SIGSTOP/SIGCONT.  This module provides a second, very different kernel
policy (modelled on Linux's Completely Fair Scheduler: per-process
virtual runtime weighted by nice, minimum-vruntime dispatch, wakeup
placement, granularity-bounded preemption) behind the same
:class:`~repro.kernel.kernel.Kernel` interface, so the same ALPS agent
can be evaluated on both.

Only the policy differs: the process model, sleep/wakeup, signals,
accounting, and the behavior trampoline are inherited unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import KernelError
from repro.kernel.kconfig import DEFAULT_CONFIG, KernelConfig
from repro.kernel.kernel import _EVPRI_HOUSEKEEPING, Kernel
from repro.kernel.process import Process, ProcState
from repro.sim.engine import Engine
from repro.units import MSEC

#: Weight of a nice-0 process (Linux convention).
NICE0_WEIGHT = 1024
#: Multiplicative step per nice level (~10 % CPU per nice).
WEIGHT_STEP = 1.25
#: Wakeup placement bonus: sleepers resume at min_vruntime minus this
#: (µs of virtual time), bounding how much credit sleeping earns.
WAKEUP_BONUS_US = 12 * MSEC
#: Virtual-time margin a waiter must be ahead by before it preempts
#: (CFS's wakeup granularity); bounds thrashing between near-ties.
PREEMPT_MARGIN_US = 1 * MSEC
#: How often the policy re-checks the running processes.
CFS_TICK_US = 10 * MSEC


def nice_weight(nice: int) -> float:
    """Load weight for a nice level (1024 at nice 0, ×1.25 per level)."""
    return NICE0_WEIGHT * (WEIGHT_STEP ** (-nice))


class CfsRunQueue:
    """Min-vruntime ready queue with the RunQueue duck-type interface.

    A sorted list stands in for CFS's red-black tree; workloads here
    are tens of processes, where bisection is plenty.
    """

    def __init__(self) -> None:
        self._procs: list[Process] = []  # kept sorted by (vruntime, pid)

    def __len__(self) -> int:
        return len(self._procs)

    def _key(self, proc: Process) -> tuple[float, int]:
        return (proc.vruntime, proc.pid)

    def insert(self, proc: Process) -> None:
        key = self._key(proc)
        lo, hi = 0, len(self._procs)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key(self._procs[mid]) < key:
                lo = mid + 1
            else:
                hi = mid
        self._procs.insert(lo, proc)

    insert_head = insert  # position is determined by vruntime anyway

    def remove(self, proc: Process) -> None:
        try:
            self._procs.remove(proc)
        except ValueError:
            raise KernelError(f"pid {proc.pid} not on the CFS run queue") from None

    def pop_best(self) -> Optional[Process]:
        if not self._procs:
            return None
        return self._procs.pop(0)

    def best_priority(self) -> Optional[int]:
        """Rank surrogate for generic callers (vruntime in ms, clamped)."""
        if not self._procs:
            return None
        return min(127, max(0, int(self._procs[0].vruntime // MSEC)))

    def min_vruntime(self) -> Optional[float]:
        """Virtual runtime of the leftmost (next-to-run) process."""
        if not self._procs:
            return None
        return self._procs[0].vruntime

    def __contains__(self, proc: Process) -> bool:
        return proc in self._procs


class CfsKernel(Kernel):
    """Kernel with a CFS-like policy instead of 4.4BSD decay usage."""

    def __init__(
        self, engine: Engine, config: KernelConfig = DEFAULT_CONFIG
    ) -> None:
        super().__init__(engine, config)
        self.runq = CfsRunQueue()
        #: Monotone floor for wakeup placement.
        self._min_vruntime = 0.0

    # ------------------------------------------------------------------
    # Policy: charging
    # ------------------------------------------------------------------
    def _charge_proc(self, proc: Process) -> None:
        consumed = self.now - proc.run_start
        if consumed <= 0:
            return
        proc.cpu_time += consumed
        proc.pending_burst_us = max(0, proc.pending_burst_us - consumed)
        proc.vruntime += consumed * NICE0_WEIGHT / nice_weight(proc.nice)
        self._min_vruntime = max(self._min_vruntime, proc.vruntime)
        proc.run_start = self.now
        self.total_busy_us += consumed

    def _inst_vruntime(self, proc: Process) -> float:
        inflight = max(0, self.now - proc.run_start)
        return proc.vruntime + inflight * NICE0_WEIGHT / nice_weight(proc.nice)

    # ------------------------------------------------------------------
    # Policy: enqueue / wakeup placement
    # ------------------------------------------------------------------
    def _setrunnable(self, proc: Process) -> None:
        proc.state = ProcState.RUNNABLE
        if proc.stopped:
            return
        # Wakeup/fork placement: newcomers and sleepers may not bank
        # unbounded credit, but get a small head start over the pack.
        floor = self._min_vruntime - WAKEUP_BONUS_US
        proc.vruntime = max(proc.vruntime, floor)
        proc.slptime = 0
        proc.boost_priority = None
        if proc.pid not in self._on_runq:
            self.runq.insert(proc)
            self._on_runq.add(proc.pid)
        self._request_resched()

    # ------------------------------------------------------------------
    # Policy: preemption decisions
    # ------------------------------------------------------------------
    def _resched_now(self) -> None:
        # Fill idle CPUs first.
        if any(c is None for c in self.cpus):
            self._dispatch()
            return
        queued = self.runq.min_vruntime()
        if queued is None:
            return
        # Preempt the running process with the largest vruntime if the
        # queued one is ahead by more than the preemption margin.
        worst_i, worst_v = None, None
        for i, proc in enumerate(self.cpus):
            assert proc is not None
            v = self._inst_vruntime(proc)
            if worst_v is None or v > worst_v:
                worst_i, worst_v = i, v
        if (
            worst_i is not None
            and worst_v is not None
            and queued + PREEMPT_MARGIN_US < worst_v
        ):
            self._preempt_cpu(worst_i)
            self._dispatch()

    # ------------------------------------------------------------------
    # Policy: periodic work
    # ------------------------------------------------------------------
    def _start_housekeeping(self) -> None:
        self.engine.after(
            CFS_TICK_US,
            self._on_cfs_tick,
            priority=_EVPRI_HOUSEKEEPING,
            tag="cfstick",
        )
        self.engine.after(
            self.cfg.schedcpu_us,
            self._on_slptime_tick,
            priority=_EVPRI_HOUSEKEEPING,
            tag="slptime",
        )
        self.engine.after(
            self.cfg.loadavg_interval_us,
            self._on_loadavg,
            priority=_EVPRI_HOUSEKEEPING,
            tag="loadavg",
        )

    def _on_cfs_tick(self, event) -> None:
        for i, proc in enumerate(self.cpus):
            if proc is None or self.now <= proc.run_start:
                continue
            self._charge_proc(proc)
        # One preemption opportunity per tick (need_resched semantics).
        self._request_resched()
        self.engine.after(
            CFS_TICK_US,
            self._on_cfs_tick,
            priority=_EVPRI_HOUSEKEEPING,
            tag="cfstick",
        )

    def _on_slptime_tick(self, event) -> None:
        for proc in self.procs.values():
            if proc.state is ProcState.SLEEPING or proc.stopped:
                proc.slptime += 1
        self.engine.after(
            self.cfg.schedcpu_us,
            self._on_slptime_tick,
            priority=_EVPRI_HOUSEKEEPING,
            tag="slptime",
        )
