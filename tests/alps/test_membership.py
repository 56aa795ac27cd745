"""The simulated agent's membership policy (shared with HostAlps).

Ladder transitions are driven through ``Membership.on_wake`` with
synthetic timestamps, so each test decides exactly when the group sheds
and readmits.
"""

from __future__ import annotations

import pytest

from repro.alps.agent import _AgentDriver
from repro.alps.algorithm import AlpsCore
from repro.alps.config import AlpsConfig
from repro.alps.membership import Membership
from repro.alps.subjects import ProcessSubject
from repro.errors import SchedulerConfigError
from repro.overload import OverloadConfig, OverloadGuard
from repro.sharetree import ShareTree
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.spinner import spinner_behavior

Q_US = ms(10)


def eager_guard(**overrides) -> OverloadGuard:
    """A guard whose ladder moves one rung per wake, both ways."""
    cfg = dict(slip_alpha=1.0, engage_dwell=1, release_dwell=1)
    cfg.update(overrides)
    return OverloadGuard(OverloadConfig(**cfg))


class Waker:
    """Feeds the agent's membership policy synthetic wakes."""

    def __init__(self, cw) -> None:
        self.cw = cw
        self.now_us = cw.kernel.kapi.now

    def wake(self, slip_quanta: int = 0) -> float:
        agent = self.cw.agent
        self.now_us += Q_US + slip_quanta * Q_US
        driver = _AgentDriver(agent, self.cw.kernel.kapi)
        return agent.membership.on_wake(driver, self.now_us, Q_US)

    def climb_to_shed(self) -> None:
        self.wake()  # first wake only anchors the cadence
        for _ in range(3):  # NORMAL -> STRETCH -> COARSEN -> SHED
            self.wake(slip_quanta=10)


def core_shares(cw) -> dict[int, int]:
    return {sid: st.share for sid, st in cw.agent.core.subjects.items()}


def arrival(cw, sid: int, share: int = 1) -> ProcessSubject:
    proc = cw.kernel.spawn(f"arrival-{sid}", spinner_behavior(), uid=900)
    return ProcessSubject(sid=sid, share=share, pid=proc.pid)


def test_readmitted_subject_takes_its_current_tree_share():
    tree = ShareTree()
    tree.leaf("a", sid=0, weight=2)
    tree.leaf("b", sid=1, weight=2)
    tree.group("h", 1)
    tree.leaf("h/c", sid=2, weight=1)
    cw = build_controlled_workload(
        [2, 2, 1], AlpsConfig(quantum_us=Q_US), seed=0,
        overload=eager_guard(), sharetree=tree,
    )
    cw.engine.run_until(sec(1))
    waker = Waker(cw)
    waker.climb_to_shed()
    assert cw.overload.shed_sids == (2,)
    cw.agent.set_tree_weight("h", 4)
    waker.wake()  # slip clears: SHED -> COARSEN readmits sid 2
    assert cw.overload.shed_sids == ()
    assert tree.effective_shares()[2] == 4
    assert core_shares(cw) == tree.effective_shares()
    assert cw.agent.subjects[2].share == 4


def test_shed_and_readmit_charge_signals_then_reads():
    cw = build_controlled_workload(
        [1, 2, 3, 4], AlpsConfig(quantum_us=Q_US), seed=0,
        overload=eager_guard(),
    )
    cw.engine.run_until(sec(1))
    agent = cw.agent
    costs = agent.cfg.costs
    waker = Waker(cw)
    waker.wake()
    waker.wake(slip_quanta=10)
    waker.wake(slip_quanta=10)
    shed_pid = cw.workers[0].pid
    assert shed_pid in agent._stopped_pids  # the low-share tail is ineligible
    assert waker.wake(slip_quanta=10) == costs.signal_us
    assert cw.overload.shed_sids == (0,)
    assert shed_pid not in agent._stopped_pids
    assert 0 in agent.membership.shed
    assert all(s.sid != 0 for s in agent._proc_subjects)
    reads = agent.reads
    assert waker.wake() == costs.measure_cost(1)
    assert agent.reads == reads + 1
    assert sum(s.sid == 0 for s in agent._proc_subjects) == 1


def test_duplicate_submit_is_rejected_before_any_state_changes():
    cw = build_controlled_workload(
        [1, 2, 3, 4], AlpsConfig(quantum_us=Q_US), seed=0,
        overload=eager_guard(capacity=4),
    )
    cw.engine.run_until(sec(1))
    agent, kapi, guard = cw.agent, cw.kernel.kapi, cw.overload
    assert not agent.submit_subject(arrival(cw, 100), kapi)  # queued
    Waker(cw).climb_to_shed()
    assert guard.shed_sids == (0,)
    before = guard.admission.stats()
    subjects = dict(agent.subjects)
    for sid in (1, 100, 0):  # enforced, queued, shed
        with pytest.raises(SchedulerConfigError, match="already a member"):
            agent.submit_subject(arrival(cw, sid), kapi)
    assert guard.admission.stats() == before
    assert agent.subjects == subjects


def test_duplicate_of_a_queued_arrival_cannot_corrupt_a_later_drain():
    cw = build_controlled_workload(
        [1, 2, 3], AlpsConfig(quantum_us=Q_US), seed=0,
        overload=OverloadGuard(OverloadConfig(capacity=3)),
    )
    cw.engine.run_until(sec(1))
    agent, kapi = cw.agent, cw.kernel.kapi
    first = arrival(cw, 100)
    assert not agent.submit_subject(first, kapi)
    with pytest.raises(SchedulerConfigError):
        agent.submit_subject(arrival(cw, 100), kapi)
    cw.kernel.kill(cw.workers[0].pid, 9)
    cw.engine.run_until(sec(3))  # frees a slot; the queue drains
    assert agent.subjects[100] is first
    assert sum(s.sid == 100 for s in agent._proc_subjects) == 1


def test_gated_tree_duplicate_is_rejected():
    tree = ShareTree()
    tree.group("g", 1, capacity=1)
    tree.leaf("g/a", sid=0, weight=1)
    tree.leaf("b", sid=1, weight=1)
    cw = build_controlled_workload(
        [1, 1], AlpsConfig(quantum_us=Q_US), seed=0, sharetree=tree
    )
    cw.engine.run_until(sec(1))
    agent, kapi = cw.agent, cw.kernel.kapi
    assert not agent.submit_subject(arrival(cw, 100), kapi, path="g/x")
    with pytest.raises(SchedulerConfigError):
        agent.submit_subject(arrival(cw, 100), kapi, path="g/y")
    with pytest.raises(SchedulerConfigError):
        agent.submit_subject(arrival(cw, 1), kapi, path="g/z")
    assert tree.gates()[0].admission.depth == 1


class RecordingDriver:
    """A driver that only records what the policy asks of it."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def admit(self, entry) -> int:
        self.calls.append(("admit", entry.sid))
        return 1

    def resume(self, entry, cost: float) -> float:
        self.calls.append(("resume", entry.sid))
        return cost + 0.5

    def read_cost(self, npids: int) -> float:
        self.calls.append(("read_cost", npids))
        return 10.0 * npids

    def emit(self, kind: str, **fields) -> None:
        self.calls.append((kind, fields.get("sid")))


def test_wake_step_drains_the_flat_queue_before_the_tree():
    shares = {1: 1, 2: 2}
    core = AlpsCore(shares, Q_US)
    members = {sid: ProcessSubject(sid, share, sid) for sid, share in shares.items()}
    membership = Membership(core, members)
    membership.guard = eager_guard(capacity=2)
    tree = ShareTree()
    tree.group("g", 1, capacity=1)
    membership.attach_tree(tree)
    driver = RecordingDriver()
    assert not membership.submit(driver, ProcessSubject(3, 1, 3))
    assert membership.submit(driver, ProcessSubject(4, 1, 4), path="g/x")
    assert not membership.submit(driver, ProcessSubject(5, 1, 5), path="g/y")
    driver.calls.clear()
    membership.drop([2, 4])  # frees one flat slot and the gated slot
    assert membership.on_wake(driver, 0, Q_US, 1.0) == 1.0 + 10.0 + 10.0
    assert driver.calls == [
        ("admit", 3), ("overload.admitted", 3), ("read_cost", 1),
        ("admit", 5), ("sharetree.admitted", 5), ("read_cost", 1),
    ]
