"""Property tests for the resident kernel's array core.

Two equivalences, each pinned with exact (``==``) comparisons, never
tolerances — the resident backend's byte-identity contract rests on the
array machinery reproducing the scalar machinery exactly:

* :func:`batched_decay` / :func:`batched_user_priority` over arbitrary
  estcpu/nice vectors equal the per-process scalar functions
  (:func:`decay_estcpu` / :func:`user_priority`) elementwise;
* :class:`ResidentRunQueue` (bitmap pick over flat buckets, tombstone
  removal) is operation-for-operation indistinguishable from the
  linked-list :class:`RunQueue` under arbitrary insert/pop/remove
  scripts, including removes after a stale priority change.

Plus the store's masks: the ``on_runq`` and ``state`` columns mirror
the kernel's run-queue set and process states as a run proceeds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.kconfig import DEFAULT_CONFIG
from repro.kernel.priorities import decay_estcpu, user_priority
from repro.kernel.process import Process, ProcState
from repro.kernel.resident import (
    STATE_CODES,
    ResidentProcess,
    ResidentRunQueue,
    ResidentStore,
    batched_decay,
    batched_user_priority,
)
from repro.kernel.runqueue import NQS, PPQ, RunQueue

CFG = DEFAULT_CONFIG

# estcpu values beyond the clamp limit included on purpose: the clamp
# lanes must agree too.
estcpus = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
nices = st.integers(min_value=-20, max_value=20)
loads = st.floats(
    min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
)


def _proc(pid: int, priority: int = 50) -> Process:
    proc = Process(pid=pid, name=f"p{pid}", uid=0, nice=0, behavior=None)
    proc.priority = priority
    return proc


def _view(store: ResidentStore, pid: int, priority: int = 50) -> ResidentProcess:
    """A view PCB (the run queue records its position on the view)."""
    proc = ResidentProcess.attach(
        store, pid=pid, name=f"p{pid}", uid=0, nice=0, behavior=None
    )
    proc.priority = priority
    return proc


# ----------------------------------------------------------------------
# Vectorized arithmetic ≡ scalar arithmetic
# ----------------------------------------------------------------------
@given(
    rows=st.lists(st.tuples(estcpus, nices), min_size=1, max_size=50),
    load=loads,
)
@settings(max_examples=200, deadline=None)
def test_batched_decay_equals_scalar_decay_exactly(rows, load):
    est = np.array([e for e, _ in rows], dtype=np.float64)
    nice = np.array([n for _, n in rows], dtype=np.int64)
    batched = batched_decay(est, nice, load, CFG.estcpu_limit)
    for i, (e, n) in enumerate(rows):
        expected = decay_estcpu(CFG, e, n, load)
        assert batched[i] == expected, (
            f"row {i}: est={e!r} nice={n} load={load!r}: "
            f"batched={batched[i]!r} scalar={expected!r}"
        )


@given(rows=st.lists(st.tuples(estcpus, nices), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_batched_priority_equals_scalar_priority_exactly(rows):
    est = np.array([e for e, _ in rows], dtype=np.float64)
    nice = np.array([n for _, n in rows], dtype=np.int64)
    batched = batched_user_priority(CFG, est, nice)
    for i, (e, n) in enumerate(rows):
        expected = user_priority(CFG, e, n)
        assert batched[i] == expected
        assert isinstance(int(batched[i]), int)


@given(
    rows=st.lists(st.tuples(estcpus, nices), min_size=1, max_size=50),
    load=loads,
)
@settings(max_examples=100, deadline=None)
def test_decay_then_priority_composes_like_the_eager_loop(rows, load):
    """The exact composition the resident schedcpu pass performs."""
    est = np.array([e for e, _ in rows], dtype=np.float64)
    nice = np.array([n for _, n in rows], dtype=np.int64)
    new_est = batched_decay(est, nice, load, CFG.estcpu_limit)
    new_pri = batched_user_priority(CFG, new_est, nice)
    for i, (e, n) in enumerate(rows):
        scalar_est = decay_estcpu(CFG, e, n, load)
        assert new_est[i] == scalar_est
        assert new_pri[i] == user_priority(CFG, scalar_est, n)


# ----------------------------------------------------------------------
# ResidentRunQueue ≡ RunQueue
# ----------------------------------------------------------------------
# Operation alphabet: (op, argument)
#   insert      — new process at a priority
#   pop         — pop_best from both, compare
#   remove      — remove the k-th live member (same in both)
#   retag       — change the k-th live member's priority *without*
#                 requeueing (models the stale-priority remove path)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, NQS * PPQ - 1)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("remove"), st.integers(0, 10_000)),
        st.tuples(
            st.just("retag"),
            st.tuples(st.integers(0, 10_000), st.integers(0, NQS * PPQ - 1)),
        ),
    ),
    min_size=1,
    max_size=80,
)


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_array_runqueue_matches_linked_list_runqueue(ops):
    reference = RunQueue()
    array = ResidentRunQueue()
    store = ResidentStore()
    # Two mirror Process populations: queue membership mutates the
    # Process objects' bucket linkage, so each queue gets its own.
    ref_procs: dict[int, Process] = {}
    arr_procs: dict[int, Process] = {}
    live: list[int] = []  # insertion-ordered live pids
    next_pid = 1
    for op, arg in ops:
        if op == "insert":
            pid, pri = next_pid, arg
            next_pid += 1
            ref_procs[pid] = _proc(pid, pri)
            arr_procs[pid] = _view(store, pid, pri)
            reference.insert(ref_procs[pid])
            array.insert(arr_procs[pid])
            live.append(pid)
        elif op == "pop":
            a = reference.pop_best()
            b = array.pop_best()
            assert (a is None) == (b is None)
            if a is not None:
                assert a.pid == b.pid and a.priority == b.priority
                live.remove(a.pid)
        elif op == "remove":
            if not live:
                continue
            pid = live[arg % len(live)]
            reference.remove(ref_procs[pid])
            array.remove(arr_procs[pid])
            live.remove(pid)
        else:  # retag
            idx, pri = arg
            if not live:
                continue
            pid = live[idx % len(live)]
            ref_procs[pid].priority = pri
            arr_procs[pid].priority = pri
        assert len(reference) == len(array)
        assert reference.best_priority() == array.best_priority()
    # Drain: the full remaining pick order must agree.
    while True:
        a = reference.pop_best()
        b = array.pop_best()
        assert (a is None) == (b is None)
        if a is None:
            break
        assert a.pid == b.pid


def test_array_runqueue_rejects_out_of_range_priority():
    queue = ResidentRunQueue()
    store = ResidentStore()
    from repro.errors import KernelError

    with pytest.raises(KernelError):
        queue.insert(_view(store, 1, priority=NQS * PPQ))
    with pytest.raises(KernelError):
        queue.insert(_view(store, 2, priority=-1))
    with pytest.raises(KernelError):
        queue.remove(_view(store, 3, priority=5))  # never inserted
    popped = _view(store, 4, priority=5)
    queue.insert(popped)
    assert queue.pop_best() is popped
    with pytest.raises(KernelError):
        queue.remove(popped)  # already dequeued


def test_array_runqueue_tombstones_keep_fifo_order():
    queue = ResidentRunQueue()
    store = ResidentStore()
    procs = [_view(store, pid, priority=8) for pid in range(1, 101)]
    for proc in procs:
        queue.insert(proc)
    # Tombstone every third process, then requeue one at the tail.
    removed = {proc.pid for proc in procs[::3]}
    for proc in procs[::3]:
        queue.remove(proc)
    queue.remove(procs[1])
    queue.insert(procs[1])
    assert len(queue) == 100 - len(removed)
    expected = [p.pid for p in procs if p.pid not in removed | {procs[1].pid}]
    expected.append(procs[1].pid)
    assert [queue.pop_best().pid for _ in range(len(queue))] == expected
    assert queue.pop_best() is None and queue.best_priority() is None


# ----------------------------------------------------------------------
# Store masks mirror kernel state
# ----------------------------------------------------------------------
def test_resident_store_masks_mirror_kernel_state():
    from repro.kernel import KernelConfig, make_kernel
    from repro.sim.engine import Engine
    from repro.workloads.spinner import spinner_behavior

    engine = Engine(seed=0)
    kernel = make_kernel(engine, KernelConfig(backend="resident"))
    procs = [kernel.spawn(f"p{i}", spinner_behavior()) for i in range(3)]
    engine.run_until(50_000)
    store = kernel.store
    on_runq = store.np_view("on_runq")
    state = store.np_view("state")
    for proc in procs:
        row = store.slot_of[proc.pid]
        assert bool(on_runq[row]) == (proc.pid in kernel._on_runq)
        assert state[row] == STATE_CODES[proc.state]
    # Exactly one spinner is on the CPU.
    assert int((state == STATE_CODES[ProcState.RUNNING]).sum()) == 1
