"""Kernel tuning constants (FreeBSD 4.x defaults).

The values mirror the scheduler parameters of the paper's host OS
(FreeBSD 4.8): hz = stathz = 100 (10 ms ticks), a 100 ms round-robin
slice, per-second ``schedcpu`` decay, and the classic BSD priority
formula ``p_usrpri = PUSER + p_estcpu / 4 + 2 * p_nice``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.units import MSEC, SEC

#: Valid values of :attr:`KernelConfig.backend`.
KERNEL_BACKENDS = frozenset({"auto", "strict", "resident"})

#: Process count at and above which ``backend="auto"`` picks the
#: resident kernel.  Below it the strict kernel is faster: the array
#: passes only amortize over many processes.  Set from the strict vs
#: resident crossover of the substrate cells (docs/performance.md).
RESIDENT_MIN_PROCS = 200


@dataclass(slots=True, frozen=True)
class KernelConfig:
    """Tunable parameters of the simulated kernel.

    Attributes:
        tick_us: statclock/hardclock period; ``estcpu`` is charged one
            unit per tick of CPU consumed.
        slice_us: ``roundrobin()`` period — how often the kernel forces a
            switch among runnable processes of equal priority.
        schedclock_us: how often the *running* process's priority is
            recomputed from its accrued ``estcpu`` (FreeBSD recomputes
            every 4 statclock ticks).
        schedcpu_us: period of the per-second decay filter.
        ctx_switch_us: time lost to a context switch (charged to neither
            process).
        sleep_priority: kernel priority granted to a process waking from
            a voluntary sleep (tsleep); it holds until first dispatch,
            letting woken processes preempt user-mode work immediately —
            the mechanism that makes a low-usage ALPS prompt.
        puser: base user-mode priority.
        maxpri: worst (numerically largest) priority.
        estcpu_weight: divisor in the priority formula (4 in BSD).
        nice_weight: multiplier for nice in the priority formula (2 in BSD).
        loadavg_interval_us: how often the load average EWMA is updated.
        loadavg_tau_us: EWMA time constant (one minute, as in loadavg[0]).
    """

    #: Number of CPUs.  The paper's testbed is a uniprocessor; values
    #: above 1 enable the SMP extension.
    ncpus: int = 1
    tick_us: int = 10 * MSEC
    #: Timer-callout resolution: sleep deadlines round up to this grid.
    callout_resolution_us: int = 1 * MSEC
    slice_us: int = 100 * MSEC
    schedclock_us: int = 40 * MSEC
    schedcpu_us: int = 1 * SEC
    ctx_switch_us: int = 5
    sleep_priority: int = 30
    puser: int = 50
    maxpri: int = 127
    estcpu_weight: int = 4
    nice_weight: int = 2
    loadavg_interval_us: int = 5 * SEC
    loadavg_tau_us: int = 60 * SEC
    #: Scheduler backend: ``"strict"`` is the eager reference
    #: :class:`~repro.kernel.kernel.Kernel`; ``"resident"`` selects
    #: :class:`~repro.kernel.resident.ResidentKernel`, where numpy-viewable
    #: arrays are the authoritative per-process state and PCBs are views
    #: onto their row; ``"auto"`` picks between them from the process
    #: count (:meth:`resolve_backend`).  Both produce byte-identical
    #: schedules — tests/perf/test_backend_matrix.py is the contract.
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.ncpus < 1:
            raise ValueError(f"ncpus must be >= 1, got {self.ncpus}")
        if self.backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend {self.backend!r}; "
                f"expected one of {sorted(KERNEL_BACKENDS)}"
            )

    def resolve_backend(self, nprocs: Optional[int] = None) -> str:
        """The concrete backend (``"strict"`` or ``"resident"``) to build.

        ``"auto"`` picks resident when ``nprocs`` — the number of
        processes the caller is about to spawn — reaches
        :data:`RESIDENT_MIN_PROCS`, and strict otherwise, including when
        the count is unknown.
        """
        if self.backend != "auto":
            return self.backend
        if nprocs is not None and nprocs >= RESIDENT_MIN_PROCS:
            return "resident"
        return "strict"

    @property
    def estcpu_limit(self) -> float:
        """Clamp on ``estcpu`` so priority never exceeds :attr:`maxpri`."""
        return float((self.maxpri - self.puser) * self.estcpu_weight)


#: Default kernel configuration (FreeBSD 4.x-like).
DEFAULT_CONFIG = KernelConfig()
