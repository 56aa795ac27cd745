"""Outside-in span tracing for the benchmark's traced mode.

Nothing here edits the program.  :class:`Instrumentation` wraps public
calls for the length of one traced pass and puts every original back
afterwards: each process's ``behavior`` gets a proxy, each ALPS agent
sees a :class:`KernelAPI` proxy, and a few methods and module functions
(``AlpsCore``, the plane, the sweep cache, ``repro.hostos.procfs``,
``os.kill``) are swapped for timing wrappers.

Spans live in flat arrays until the run ends.  A span records its name,
start, end, parent span and trace id (one trace per cell, segment or
quantum).  A layer is the first dotted part of a span name and matches
a ``repro.*`` package (``kernel``, ``alps``, ``sweep``, ...), except
``bench``, which is the benchmark's own glue.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from array import array
from typing import Any, Callable, Iterable, Optional, Sequence

_now = time.perf_counter

#: Self times must sum to the root span within this share of it.
CLOSURE_TOLERANCE = 0.01
#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


class SpanRecorder:
    """Spans of one run, stored column-wise until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self._stack = [-1]
        #: Trace id stamped on spans opened from now on.
        self.trace_id = 0

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_trace(self) -> int:
        self.trace_id += 1
        return self.trace_id

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self.start.append(_now())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped} open)")

    def wrap(
        self, name: str, fn: Callable, *, per_call_trace: bool = False
    ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self.intern(name)
        name_a, parent_a = self.name.append, self.parent.append
        trace_a, end_a, start_a = self.trace.append, self.end.append, self.start.append
        end, stack = self.end, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            if per_call_trace:
                self.trace_id += 1
            idx = len(end)
            name_a(nid)
            parent_a(stack[-1])
            trace_a(self.trace_id)
            end_a(0.0)
            start_a(_now())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()

        return traced

    def save(self, path: str) -> None:
        """Write every span to ``path`` (a NumPy ``.npz`` archive)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trace=np.frombuffer(self.trace, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so no span's self time goes negative.
    """
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        children.sort(key=start.__getitem__)
        covered = 0.0
        cur_s = cur_e = None
        for c in children:
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def closure_error(
    start: Sequence[float],
    end: Sequence[float],
    parent: Sequence[int],
    selfs: Sequence[float],
) -> float:
    """Worst relative gap between a root's duration and its tree's self sum.

    Parents are recorded before their children, so one forward pass
    finds each span's root.
    """
    root = [0] * len(start)
    sums: dict[int, float] = {}
    for i, p in enumerate(parent):
        r = i if p < 0 else root[p]
        root[i] = r
        sums[r] = sums.get(r, 0.0) + selfs[i]
    worst = 0.0
    for r, total in sums.items():
        dur = end[r] - start[r]
        if dur > 0:
            worst = max(worst, abs(total - dur) / dur)
    return worst


def tail_percentile(
    values: Iterable[float], wanted: float
) -> tuple[Optional[float], float, int]:
    """``(percentile used, value, sample count)`` by nearest rank.

    The wanted percentile is lowered until at least
    :data:`TAIL_SAMPLES` samples lie beyond it.  When even the median
    has fewer than that beyond it, the percentile is ``None`` and the
    value is the median.  An empty input gives ``(None, 0.0, 0)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None, 0.0, 0
    k = max(0, math.ceil(wanted / 100.0 * n) - 1)
    if n - 1 - k < TAIL_SAMPLES:
        k = n - 1 - TAIL_SAMPLES
    if k < math.ceil(0.5 * n) - 1:
        return None, statistics.median(ordered), n
    return min(wanted, 100.0 * (k + 1) / n), ordered[k], n


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class TraceSummary:
    """Per-span-name totals over a recorder's spans.

    Span durations are kept only for the names in ``keep``.
    """

    def __init__(self, rec: SpanRecorder, keep: Iterable[str] = ()) -> None:
        start, end, parent = rec.start, rec.end, rec.parent
        selfs = self_times(start, end, parent)
        self.closure_err = closure_error(start, end, parent, selfs)
        self.count: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.layer_self_s: dict[str, float] = {}
        self.root_s = 0.0
        names = rec.names
        kept = {name: self.durations.setdefault(name, []) for name in keep}
        for i, nid in enumerate(rec.name):
            name = names[nid]
            self.count[name] = self.count.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            if name in kept:
                kept[name].append(end[i] - start[i])
            layer = layer_of(name)
            self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + selfs[i]
            if parent[i] < 0:
                self.root_s += end[i] - start[i]

    def share(self, layer: str) -> float:
        """Layer self time as a share of all root time (0..1)."""
        if self.root_s <= 0:
            return 0.0
        return self.layer_self_s.get(layer, 0.0) / self.root_s

    def layers(self) -> list[str]:
        return sorted(self.layer_self_s)


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------
class KapiProxy:
    """A ``KernelAPI`` whose method calls are recorded as syscall spans.

    Plain attributes (``now``, ``observer``) pass straight through;
    a name the real object lacks raises ``AttributeError`` as before,
    so feature tests such as ``getattr(kapi, "measure_many", None)``
    see the same surface.
    """

    def __init__(self, kapi: Any, rec: SpanRecorder) -> None:
        self._kapi = kapi
        self._rec = rec

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._kapi, attr)
        if callable(value):
            # Cached on the instance, so later lookups skip __getattr__.
            value = self._rec.wrap("kernel.syscall", value)
            setattr(self, attr, value)
        return value


class BehaviorProxy:
    """A process behaviour whose activations are recorded as spans.

    An agent's behaviour also sees its ``KernelAPI`` through a
    :class:`KapiProxy`.
    """

    def __init__(
        self, behavior: Any, rec: SpanRecorder, name: str, *, agent: bool
    ) -> None:
        self._rec = rec
        self._agent = agent
        self._kapi: Any = None
        self._kapi_proxy: Optional[KapiProxy] = None
        self._call = rec.wrap(name, behavior.next_action)

    def next_action(self, proc: Any, kapi: Any) -> Any:
        if self._agent:
            if kapi is not self._kapi:
                self._kapi, self._kapi_proxy = kapi, KapiProxy(kapi, self._rec)
            kapi = self._kapi_proxy
        return self._call(proc, kapi)


class Instrumentation:
    """Timing wrappers for traced passes.

    Used as a context manager around a pass's timed region: entering
    patches the class-level and module-level targets below, leaving
    restores every original.  :meth:`instrument_kernel` proxies the
    behaviours of a kernel's processes; those proxies stay on the
    pass's own kernel, which the pass discards.
    """

    def __init__(self, rec: SpanRecorder, *, trace_per_quantum: bool = False) -> None:
        self.rec = rec
        self.trace_per_quantum = trace_per_quantum
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(
        self, owner: Any, attr: str, span: str, *, per_call_trace: bool = False
    ) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(
            owner, attr,
            self.rec.wrap(span, original, per_call_trace=per_call_trace),
        )

    def __enter__(self) -> "Instrumentation":
        from repro.alps.algorithm import AlpsCore
        from repro.hostos import procfs
        from repro.obs.events import EventLog
        from repro.resilience.journal import MemoryJournal
        from repro.sharetree.plane import ShardedAlpsPlane
        from repro.sharetree.resilience import PlaneResilience
        from repro.sim.engine import Engine
        from repro.sweep import scheduler
        from repro.sweep.cache import SweepCache

        self._patch(Engine, "run_until", "kernel.run")
        # On the host each quantum is a trace; simulated quanta share
        # their cell's or segment's trace.
        self._patch(
            AlpsCore, "begin_quantum", "alps.core",
            per_call_trace=self.trace_per_quantum,
        )
        self._patch(AlpsCore, "complete_quantum", "alps.core")
        self._patch(AlpsCore, "check_runtime_invariants", "alps.invariants")
        self._patch(ShardedAlpsPlane, "run_until", "sharetree.run")
        self._patch(ShardedAlpsPlane, "set_weight", "sharetree.set_weight")
        self._patch(ShardedAlpsPlane, "rebalance", "sharetree.rebalance")
        self._patch(PlaneResilience, "tick", "resilience.tick")
        self._patch(MemoryJournal, "append", "resilience.journal")
        self._patch(EventLog, "emit", "obs.emit")
        self._patch(SweepCache, "get", "sweep.cache")
        self._patch(SweepCache, "put", "sweep.cache")
        self._patch(scheduler, "code_fingerprint", "sweep.fingerprint")
        self._patch(procfs, "read_proc_stat", "hostos.read")
        self._patch(procfs, "is_alive", "hostos.read")
        self._patch(os, "kill", "hostos.signal")
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def instrument_kernel(self, kernel: Any, agent_pids: Iterable[int]) -> None:
        """Proxy every not-yet-proxied process behaviour of ``kernel``.

        Safe to call again after new processes appear (a plane spawns
        cell agents lazily).
        """
        agents = set(agent_pids)
        for pid, proc in kernel.procs.items():
            if isinstance(proc.behavior, BehaviorProxy):
                continue
            agent = pid in agents
            proc.behavior = BehaviorProxy(
                proc.behavior,
                self.rec,
                "alps.wake" if agent else "workloads.behavior",
                agent=agent,
            )
