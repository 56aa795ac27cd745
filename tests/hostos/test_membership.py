"""HostAlps membership, driven deterministically.

procfs reads and ``kill(2)`` are replaced by an in-memory fake, and the
wake-time membership step is fed synthetic driver-clock timestamps, so
admission, the overload ladder's shed/readmit and gated-tree drains are
checked without live processes or wall-clock timing.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import HostOSError
from repro.hostos import procfs
from repro.hostos.controller import HostAlps
from repro.obs import Observer
from repro.overload import OverloadConfig, OverloadGuard
from repro.sharetree import ShareTree

QUANTUM_S = 0.05
Q_US = 50_000


class FakeHost:
    """In-memory procfs and ``kill(2)`` for a handful of fake pids."""

    def __init__(self, monkeypatch, pids) -> None:
        self.usage = {pid: 0 for pid in pids}
        self.stopped: set[int] = set()
        self.signals: list[tuple[int, int]] = []
        monkeypatch.setattr(procfs, "cpu_time_us", self.cpu_time_us)
        monkeypatch.setattr(procfs, "proc_state", self.proc_state)
        monkeypatch.setattr(procfs, "is_alive", lambda pid: pid in self.usage)
        monkeypatch.setattr(os, "kill", self.kill)

    def cpu_time_us(self, pid: int) -> int:
        if pid not in self.usage:
            raise HostOSError(f"no such process: {pid}")
        return self.usage[pid]

    def proc_state(self, pid: int) -> str:
        if pid not in self.usage:
            raise HostOSError(f"no such process: {pid}")
        return "T" if pid in self.stopped else "R"

    def kill(self, pid: int, signo: int) -> None:
        if pid not in self.usage:
            raise ProcessLookupError(pid)
        self.signals.append((pid, signo))
        if signo == signal.SIGSTOP:
            self.stopped.add(pid)
        elif signo == signal.SIGCONT:
            self.stopped.discard(pid)

    def exit(self, pid: int) -> None:
        del self.usage[pid]
        self.stopped.discard(pid)


class Clock:
    """Synthetic wake timestamps for ``Membership.on_wake``."""

    def __init__(self, alps: HostAlps) -> None:
        self.alps = alps
        self.now_us = 0

    def wake(self, slip_quanta: int = 0) -> None:
        self.now_us += Q_US + slip_quanta * Q_US
        self.alps.membership.on_wake(self.alps, self.now_us, Q_US)


def eager_guard(**overrides) -> OverloadGuard:
    """A guard whose ladder moves one rung per wake, both ways."""
    cfg = dict(slip_alpha=1.0, engage_dwell=1, release_dwell=1)
    cfg.update(overrides)
    return OverloadGuard(OverloadConfig(**cfg))


def events(obs: Observer) -> list[tuple[str, dict]]:
    return [(ev.kind, dict(ev.fields)) for ev in obs.events.tail(len(obs.events))]


def core_shares(alps: HostAlps) -> dict[int, int]:
    return {pid: st.share for pid, st in alps.core.subjects.items()}


def climb_to_shed(clock: Clock) -> None:
    clock.wake()  # first wake only anchors the cadence
    for _ in range(3):  # NORMAL -> STRETCH -> COARSEN -> SHED
        clock.wake(slip_quanta=10)


def test_ladder_sheds_the_low_share_tail_and_readmits_it(monkeypatch):
    host = FakeHost(monkeypatch, [101, 102, 103, 104])
    obs = Observer()
    guard = eager_guard()
    alps = HostAlps(
        {101: 1, 102: 2, 103: 3, 104: 4},
        quantum_s=QUANTUM_S, overload=guard, observer=obs,
    )
    alps._signal(101, signal.SIGSTOP)  # an ineligible member
    clock = Clock(alps)
    climb_to_shed(clock)
    assert guard.shed_sids == (101,)
    assert 101 not in alps.core.subjects
    assert 101 not in alps.subjects
    # Best-effort: the shed member's stopped pid was resumed.
    assert host.signals[-1] == (101, signal.SIGCONT)
    assert 101 not in host.stopped
    assert ("overload.shed", {"sid": 101}) in events(obs)

    host.usage[101] = 70_000  # consumed while best-effort
    clock.wake()  # slip clears: SHED -> COARSEN readmits the tail
    assert guard.shed_sids == ()
    assert guard.readmits == 1
    assert core_shares(alps) == {101: 1, 102: 2, 103: 3, 104: 4}
    assert alps._last_read[101] == 70_000  # best-effort use forgiven
    assert ("overload.readmit", {"sid": 101}) in events(obs)


def test_queued_pid_drains_into_a_freed_slot(monkeypatch):
    host = FakeHost(monkeypatch, [101, 102, 103])
    obs = Observer()
    guard = OverloadGuard(OverloadConfig(capacity=2))
    alps = HostAlps(
        {101: 1, 102: 1}, quantum_s=QUANTUM_S, overload=guard, observer=obs
    )
    assert not alps.submit_pid(103, 2)
    assert guard.admission.depth == 1
    assert ("overload.queued", {"sid": 103, "depth": 1}) in events(obs)
    host.exit(101)
    alps.run(0.0)  # start-up reads find 101 gone and drop it
    assert 101 not in alps.core.subjects
    Clock(alps).wake()
    assert guard.admission.depth == 0
    assert core_shares(alps) == {102: 1, 103: 2}
    assert ("overload.admitted", {"sid": 103}) in events(obs)


def test_gated_subtree_drains_into_a_freed_slot(monkeypatch):
    host = FakeHost(monkeypatch, [101, 102, 103])
    obs = Observer()
    tree = ShareTree()
    tree.group("g", 1, capacity=1)
    tree.leaf("g/a", sid=101, weight=1)
    tree.leaf("c", sid=103, weight=1)
    alps = HostAlps(
        {101: 1, 103: 1}, quantum_s=QUANTUM_S, sharetree=tree, observer=obs
    )
    assert not alps.submit_pid(102, 1, path="g/b")
    # A queued arrival has no leaf yet: it must not dilute its siblings.
    assert tree.find_sid(102) is None
    queued = ("sharetree.queued", {"sid": 102, "path": "g/b", "depth": 1})
    assert queued in events(obs)
    host.exit(101)
    alps.run(0.0)
    assert tree.find_sid(101) is None
    Clock(alps).wake()
    assert tree.pending_admissions == 0
    assert tree.find_sid(102) is not None
    assert core_shares(alps) == tree.effective_shares()
    assert ("sharetree.admitted", {"sid": 102, "path": "g/b"}) in events(obs)


def test_readmitted_member_takes_its_current_tree_share(monkeypatch):
    FakeHost(monkeypatch, [101, 102])
    tree = ShareTree()
    tree.group("g", 2)
    tree.leaf("g/a", sid=101, weight=1)
    tree.group("h", 1)
    tree.leaf("h/b", sid=102, weight=1)
    guard = eager_guard()
    alps = HostAlps(
        {101: 1, 102: 1}, quantum_s=QUANTUM_S, overload=guard, sharetree=tree
    )
    clock = Clock(alps)
    climb_to_shed(clock)
    assert guard.shed_sids == (102,)
    alps.set_tree_weight("h", 4)
    clock.wake()
    assert guard.shed_sids == ()
    assert core_shares(alps) == tree.effective_shares()
    assert core_shares(alps) == {101: 2, 102: 4}


def test_duplicate_submit_is_rejected_before_any_state_changes(monkeypatch):
    FakeHost(monkeypatch, [101, 102, 103, 104, 105])
    guard = eager_guard(capacity=4)
    alps = HostAlps(
        {101: 1, 102: 2, 103: 3, 104: 4}, quantum_s=QUANTUM_S, overload=guard
    )
    assert not alps.submit_pid(105, 1)  # at capacity: queued
    climb_to_shed(Clock(alps))
    assert guard.shed_sids == (101,)
    before = guard.admission.stats()
    for pid in (102, 105, 101):  # enforced, queued, shed
        with pytest.raises(HostOSError, match="already a member"):
            alps.submit_pid(pid, 1)
    assert guard.admission.stats() == before
    assert set(alps.core.subjects) == {102, 103, 104}
