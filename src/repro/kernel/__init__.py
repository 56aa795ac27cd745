"""Simulated UNIX kernel substrate.

This package models the parts of a 4.4BSD/FreeBSD-4.x kernel that the
ALPS paper's behaviour depends on:

* a decay-usage scheduler (``estcpu`` charged per statclock tick while
  running, decayed once per second by a load-dependent filter, priority
  recomputed as ``PUSER + estcpu/4 + 2*nice``),
* 100 ms round-robin among equal-priority processes,
* sleep/wakeup with wait channels (visible to user level, as via kvm),
* job-control signals (SIGSTOP/SIGCONT) — the mechanism ALPS uses to
  make processes ineligible/eligible,
* per-process CPU-time accounting (getrusage), and
* a one-minute load average.

The kernel runs on top of :class:`repro.sim.Engine`; simulated processes
express their work as :class:`~repro.kernel.behaviors.Behavior` objects
that emit :mod:`~repro.kernel.actions`.
"""

from typing import Optional

from repro.kernel.actions import Compute, Exit, Sleep, SleepOn
from repro.kernel.behaviors import Behavior, GeneratorBehavior, behavior
from repro.kernel.cfs import CfsKernel
from repro.kernel.kapi import KernelAPI
from repro.kernel.kconfig import (
    DEFAULT_CONFIG,
    KERNEL_BACKENDS,
    RESIDENT_MIN_PROCS,
    KernelConfig,
)
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, ProcState
from repro.kernel.signals import SIGCONT, SIGKILL, SIGSTOP


def make_kernel(
    engine, config: Optional[KernelConfig] = None, nprocs: Optional[int] = None
) -> Kernel:
    """Build the kernel implementation selected by ``config.backend``.

    ``"strict"`` maps to :class:`Kernel` and ``"resident"`` to
    :class:`repro.kernel.resident.ResidentKernel`; ``"auto"`` chooses
    from ``nprocs``, the number of processes the caller will spawn (see
    :meth:`KernelConfig.resolve_backend`).  The resident module is
    imported lazily so workloads that never select it do not pay the
    numpy import.
    """
    if config is None:
        config = DEFAULT_CONFIG
    if config.resolve_backend(nprocs) == "resident":
        from repro.kernel.resident import ResidentKernel

        return ResidentKernel(engine, config)
    return Kernel(engine, config)


__all__ = [
    "Behavior",
    "CfsKernel",
    "Compute",
    "Exit",
    "GeneratorBehavior",
    "KERNEL_BACKENDS",
    "Kernel",
    "KernelAPI",
    "KernelConfig",
    "Process",
    "ProcState",
    "RESIDENT_MIN_PROCS",
    "SIGCONT",
    "SIGKILL",
    "SIGSTOP",
    "Sleep",
    "SleepOn",
    "behavior",
    "make_kernel",
]
