"""Group membership policy shared by both ALPS drivers.

The simulated agent (:class:`~repro.alps.agent.AlpsAgent`) and the
real-host controller (:class:`~repro.hostos.controller.HostAlps`) run
one membership policy over one :class:`~repro.alps.algorithm.AlpsCore`:
flat and subtree-gated admission (docs/overload.md,
docs/share_tree.md), share-tree reweighing, and the overload ladder's
shed and readmit.  What differs between the drivers sits behind
:class:`MembershipDriver`.

Entries are anything with integer ``sid`` and ``share`` attributes:
the agent's :class:`~repro.alps.subjects.Subject` objects, and on the
host one :class:`~repro.alps.subjects.ProcessSubject` per pid (a host
sid is the pid).  CPU costs are summed in a fixed order: the agent
charges the total as one burst, and another order could round
differently and move a schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.errors import SchedulerConfigError
from repro.overload.ladder import Rung

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.alps.algorithm import AlpsCore
    from repro.overload.guard import OverloadGuard
    from repro.sharetree.tree import ShareNode, ShareTree


class MembershipDriver(Protocol):
    """The driver-specific half of a membership change."""

    def admit(self, entry: Any) -> int:
        """Set ``entry``'s read baselines; its pid count, 0 if it died."""
        ...

    def resume(self, entry: Any, cost: float) -> float:
        """SIGCONT a shed entry's stopped pids; ``cost`` plus theirs."""
        ...

    def read_cost(self, npids: int) -> float:
        """CPU cost of ``npids`` baseline reads taken on admission."""
        ...

    def emit(self, kind: str, **fields: Any) -> None:
        """Emit an obs event stamped with the driver's clock."""
        ...


class Membership:
    """Enforced, queued and shed members of one ALPS group.

    ``members`` is the driver's sid → entry map of the enforced set,
    kept in step with the core.  ``error`` is the exception type the
    driver's public entry points raise.
    """

    def __init__(
        self,
        core: "AlpsCore",
        members: dict[int, Any],
        *,
        error: type[Exception] = SchedulerConfigError,
    ) -> None:
        self.core = core
        self.members = members
        #: Members the SHED rung released to best-effort, kept out of
        #: the core until the ladder walks back down.
        self.shed: dict[int, Any] = {}
        #: Overload guard (docs/overload.md); None = no overload layer.
        self.guard: Optional["OverloadGuard"] = None
        #: Share tree (docs/share_tree.md); None = the flat model.
        self.tree: Optional["ShareTree"] = None
        self.error = error
        #: Driver clock at the previous guarded wake, for cadence slip;
        #: None after startup and crash-restart.
        self.last_wake_us: Optional[int] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def enforce(self, driver: MembershipDriver, entry: Any) -> int:
        """Enforce ``entry`` now, bypassing admission control; returns
        its pid count, 0 if it died first."""
        npids = driver.admit(entry)
        if npids:
            self.members[entry.sid] = entry
            self.core.add_subject(entry.sid, entry.share)
        return npids

    def submit(
        self, driver: MembershipDriver, entry: Any, path: Optional[str] = None
    ) -> bool:
        """Offer a new arrival through admission control.

        Without a guard (or with spare capacity) the entry is enforced
        now; otherwise it waits in the FIFO admission queue for a later
        wake.  With ``path`` it is placed in the share tree and queues
        at its subtree's own gate instead.  Returns True when enforced
        now.  A sid already enforced, queued or shed is rejected before
        any state changes.
        """
        sid = entry.sid
        if sid in self.members or sid in self.shed or self._is_queued(sid):
            raise self.error(f"sid {sid} is already a member of this group")
        if path is not None:
            if self.tree is None:
                raise self.error("submitting with a path requires a share tree")
            return self._submit_tree(driver, entry, path)
        guard = self.guard
        if guard is None:
            return bool(self.enforce(driver, entry))
        if not guard.admission.submit(
            entry, len(self.core.subjects), paused=guard.admission_paused
        ):
            driver.emit("overload.queued", sid=sid, depth=guard.admission.depth)
            return False
        if not self.enforce(driver, entry):
            return False
        driver.emit("overload.admitted", sid=sid)
        return True

    def _is_queued(self, sid: int) -> bool:
        guard = self.guard
        if guard is not None and any(e.sid == sid for e in guard.admission.pending()):
            return True
        gates = self.tree.gates() if self.tree is not None else []
        return any(
            e.sid == sid
            for gate in gates
            for e, _ in gate.admission.pending()  # type: ignore[union-attr]
        )

    def _submit_tree(self, driver: MembershipDriver, entry: Any, path: str) -> bool:
        """Route an arrival through its subtree's admission gate.

        The leaf is only created once admitted — a queued arrival must
        not dilute its siblings' shares while it waits.  Queue entries
        are ``(entry, path)`` pairs.
        """
        tree = self.tree
        assert tree is not None
        gate = tree.admission_for(tree.node(path.rpartition("/")[0]))
        if gate is not None:
            assert gate.admission is not None
            active = self._active_leaves_under(gate)
            if not gate.admission.submit((entry, path), active):
                driver.emit(
                    "sharetree.queued",
                    sid=entry.sid, path=path, depth=gate.admission.depth,
                )
                return False
        tree.leaf(path, sid=entry.sid, weight=entry.share)
        if not self.enforce(driver, entry):
            tree.remove(path)  # died before admission
            return False
        self.reweigh_from_tree()
        driver.emit("sharetree.admitted", sid=entry.sid, path=path)
        return True

    def _drain_admissions(self, driver: MembershipDriver) -> float:
        """Admit queued arrivals into spare capacity; returns CPU cost."""
        guard = self.guard
        assert guard is not None
        npids = 0
        for entry in guard.admission.admit_ready(
            len(self.core.subjects), paused=guard.admission_paused
        ):
            admitted = self.enforce(driver, entry)
            if admitted:
                npids += admitted
                driver.emit("overload.admitted", sid=entry.sid)
        return driver.read_cost(npids) if npids else 0.0

    def _drain_tree_admissions(self, driver: MembershipDriver) -> float:
        """Admit queued subtree arrivals into spare capacity (per gate)."""
        tree = self.tree
        assert tree is not None
        npids = 0
        for gate in tree.gates():
            queue = gate.admission
            if queue is None or not queue.depth:
                continue
            for entry, path in queue.admit_ready(self._active_leaves_under(gate)):
                try:
                    tree.leaf(path, sid=entry.sid, weight=entry.share)
                except SchedulerConfigError:
                    continue  # its branch vanished while it waited
                admitted = self.enforce(driver, entry)
                if not admitted:
                    tree.remove(path)
                    continue
                npids += admitted
                driver.emit("sharetree.admitted", sid=entry.sid, path=path)
        if not npids:
            return 0.0
        self.reweigh_from_tree()
        return driver.read_cost(npids)

    # ------------------------------------------------------------------
    # Departure and share-tree weights
    # ------------------------------------------------------------------
    def drop(self, sids: list[int]) -> None:
        """Remove departed members (death, EPERM) from the core, the
        enforced set and the tree; their siblings' shares grow."""
        core = self.core
        for sid in sids:
            if sid in core.subjects:
                core.remove_subject(sid)
            self.members.pop(sid, None)
        tree = self.tree
        if tree is not None:
            # One reweigh for the batch (flat-equivalent trees no-op).
            changed = False
            for sid in sids:
                changed |= tree.discard_sid(sid)
            if changed:
                self.reweigh_from_tree()

    def attach_tree(self, tree: "ShareTree") -> None:
        """Make ``tree`` the authority for every member's share."""
        self.tree = tree
        self.reweigh_from_tree()

    def reweigh_from_tree(self) -> None:
        """Re-apply the tree's effective shares to the core.

        ``AlpsCore.set_share`` early-outs on a zero delta, so this is
        free (and trace-invisible) whenever the resolved shares already
        match — the flat-equivalence case.
        """
        tree = self.tree
        if tree is None:
            return
        core = self.core
        for sid, share in tree.effective_shares().items():
            if sid not in core.subjects:
                continue
            core.set_share(sid, share)
            entry = self.members.get(sid)
            if entry is not None:
                entry.share = share

    def set_tree_weight(self, path: str, weight: int) -> None:
        """Reweight a tree node; every descendant leaf follows."""
        if self.tree is None:
            raise self.error("no share tree attached")
        self.tree.set_weight(path, weight)
        self.reweigh_from_tree()

    def _active_leaves_under(self, gate: "ShareNode") -> int:
        """Admitted members of a gated subtree (its enforced count)."""
        assert self.tree is not None
        core_subjects = self.core.subjects
        return sum(1 for leaf in self.tree.leaves(gate) if leaf.sid in core_subjects)

    # ------------------------------------------------------------------
    # The wake-time step
    # ------------------------------------------------------------------
    def on_wake(
        self,
        driver: MembershipDriver,
        now_us: int,
        cadence_us: int,
        cost: float = 0.0,
    ) -> float:
        """Run the membership work due at one timer wake.

        Feeds the guard the *cadence* slip: the wake-to-wake gap minus
        the intended period ``cadence_us``.  Timer delivery stays prompt
        under load (wakeups carry a priority boost); starvation shows as
        the servicing between wakes crawling.  Then enacts any ladder
        step and drains the flat and the per-subtree admission queues.
        Returns ``cost`` plus each step's CPU cost, added in that order.
        Pure bookkeeping unless a rung changes or queued arrivals fit —
        schedule-invisible while idle.
        """
        guard = self.guard
        if guard is not None:
            prev = self.last_wake_us
            self.last_wake_us = now_us
            if prev is not None:
                delta = guard.observe_wake(
                    now_us - prev - cadence_us, self.core.quantum_us
                )
                if delta:
                    cost += self._apply_ladder(driver, delta)
            if guard.admission.depth and not guard.admission_paused:
                cost += self._drain_admissions(driver)
        tree = self.tree
        # _gates first: ungated trees (the common flat-equivalent case)
        # must not pay a generator sum on every wake.
        if tree is not None and tree._gates and tree.pending_admissions:
            cost += self._drain_tree_admissions(driver)
        return cost

    def _apply_ladder(self, driver: MembershipDriver, delta: int) -> float:
        """Enact a ladder step; returns the CPU cost of enactment."""
        guard = self.guard
        assert guard is not None
        self.core.postpone_boost = guard.postpone_boost
        driver.emit(
            "overload.engage" if delta > 0 else "overload.relax",
            rung=int(guard.rung),
            slip_ewma_quanta=round(guard.slip.ewma_quanta, 3),
        )
        if delta > 0 and guard.rung >= Rung.SHED:
            return self._shed_members(driver)
        if delta < 0 and guard.rung < Rung.SHED and guard.shed_sids:
            return self._readmit_shed(driver)
        return 0.0

    def _shed_members(self, driver: MembershipDriver) -> float:
        """SHED rung: release the lowest-share tail to best-effort.

        Shed members leave the enforced set (core, liveness sweep,
        measurement loop) and their stopped pids are resumed —
        best-effort means the kernel schedules them, not us.  Their
        tree leaves stay, so siblings' shares do not grow.
        """
        guard = self.guard
        assert guard is not None
        core = self.core
        quota = guard.shed_quota(len(core.subjects))
        if quota <= 0:
            return 0.0
        shares = {sid: st.share for sid, st in core.subjects.items()}
        cost = 0.0
        for sid in guard.select_shed(shares, quota):
            entry = self.members.pop(sid, None)
            if entry is None:  # pragma: no cover - raced a departure
                continue
            core.remove_subject(sid)
            self.shed[sid] = entry
            guard.note_shed(sid)
            cost = driver.resume(entry, cost)
            driver.emit("overload.shed", sid=sid)
        return cost

    def _readmit_shed(self, driver: MembershipDriver) -> float:
        """Walking back below SHED: return the shed tail to enforcement.

        Best-effort consumption while shed is forgiven — baselines
        restart at the current reading and the member rejoins with a
        full allowance, at the share the tree gives it now.
        """
        guard = self.guard
        assert guard is not None
        npids = 0
        for sid in guard.shed_sids:
            entry = self.shed.pop(sid, None)
            admitted = self.enforce(driver, entry) if entry is not None else 0
            if not admitted:
                guard.note_departed(sid)
                continue
            npids += admitted
            guard.note_readmitted(sid)
            driver.emit("overload.readmit", sid=sid)
        if not npids:
            return 0.0
        self.reweigh_from_tree()
        return driver.read_cost(npids)
