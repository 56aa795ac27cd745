"""The benchmark's four workloads.

Each workload builds its inputs from a seed, runs one *pass* of fixed
work, and returns what the pass produced: host time, the controller
quanta it serviced, and per-operation outputs that are compared with
the committed reference.  Simulated outputs are checked, never timed;
host time is timed, never checked.

Workloads call the library only through public entry points
(``build_controlled_workload``, ``run_sweep``, ``ShardedAlpsPlane``,
``HostAlps``) and run the default ``KernelConfig()``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import calibrate
from calibrate import SpeedProbe
from tracing import Instrumentation

#: Host-time clock for the timed region of a pass.
_wall = time.perf_counter
_cpu = time.process_time


@dataclass
class PassResult:
    """What one pass did."""

    #: Host seconds of the timed region.
    wall_s: float
    #: Process CPU seconds of the timed region.
    cpu_s: float
    #: Factors that normalise this pass's wall and CPU times for host
    #: speed (``SpeedProbe.finish``; 1.0 in a traced pass).
    wall_scale: float
    cpu_scale: float
    #: Controller quanta serviced in the timed region.
    quanta: int
    #: Operation id -> its checked outputs (in operation order).
    ops: dict[str, dict[str, Any]]
    #: Operation id -> why it failed a check made inside the pass.
    failures: dict[str, str] = field(default_factory=dict)
    #: Counters read from the program after the pass (no tracing needed).
    stats: dict[str, float] = field(default_factory=dict)


class Timed:
    """The timed region of a pass.

    An untraced pass samples host speed throughout with ``probe``
    (``calibrate``, the interpreter loop by default).  ``elapsed`` is the
    measured time; ``wall`` and ``cpu`` leave the samples out.  A traced
    pass instead installs the instrumentation and records the root span,
    so both cover exactly the timed work.
    """

    def __init__(
        self, inst: Optional[Instrumentation], probe: Optional[SpeedProbe] = None
    ) -> None:
        self.inst = inst
        self.elapsed = self.wall = self.cpu = 0.0
        self.wall_scale = self.cpu_scale = 1.0
        self.probe = None if inst is not None else probe or SpeedProbe()

    def __enter__(self) -> "Timed":
        if self.inst is not None:
            self.inst.__enter__()
            self._root = self.inst.rec.open("bench.pass")
        else:
            self.probe.start()
        self._c0, self._t0 = _cpu(), _wall()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.inst is not None:
            self.elapsed = self.wall = _wall() - self._t0
            self.cpu = _cpu() - self._c0
            self.inst.rec.close(self._root)
            self.inst.__exit__(*exc)
            return
        self.probe.stop()
        self.elapsed = _wall() - self._t0
        self.wall = self.elapsed - self.probe.spent_s
        self.cpu = _cpu() - self._c0 - self.probe.spent_cpu_s
        self.wall_scale, self.cpu_scale = self.probe.finish()


def cycle_log_sha256(log) -> str:
    """SHA-256 over a cycle log, one sorted-key line per cycle."""
    h = hashlib.sha256()
    for rec in log:
        h.update(
            (
                f"{rec.index} {rec.end_time} q={rec.quantum_us} "
                f"consumed[{sorted(rec.consumed.items())}] "
                f"blocked[{sorted(rec.blocked_quanta.items())}] "
                f"shares[{sorted(rec.shares.items())}]\n"
            ).encode()
        )
    return h.hexdigest()


def _sim_stats(agents, kernel, engine) -> dict[str, float]:
    """Counters a simulated pass leaves in its agents, kernel and engine."""
    snap = kernel.perf_snapshot()
    return {
        "sim.events": engine.events_processed,
        "alps.quanta": sum(a.invocations for a in agents),
        "alps.reads": sum(a.reads for a in agents),
        "alps.signals": sum(a.signals_sent for a in agents),
        # Subject-quanta: how many reads a controller that never
        # postpones would have made (membership taken at pass end).
        "alps.postpone_base": sum(a.invocations * len(a.subjects) for a in agents),
        "kernel.schedcpu_passes": snap["kernel.schedcpu_passes"],
        "kernel.context_switches": snap["kernel.context_switches"],
    }


def _add_stats(total: dict[str, float], part: dict[str, float]) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0) + v


class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name = ""
    #: What one checked operation is, and how many a pass makes.
    op = ""
    ops_per_pass = 1
    #: Whether outputs are deterministic (and so have a reference).
    simulated = True
    #: Whether a pass lasts a fixed host time (so its wall time is not
    #: a cost to normalise for host speed).
    duration_bound = False

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def setup(self, seed: int) -> None:
        """Build what every pass reuses (the timed set-up)."""

    def run_pass(
        self, seed: int, inst: Optional[Instrumentation] = None
    ) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` made."""


# ---------------------------------------------------------------------------
# paper_sweep
# ---------------------------------------------------------------------------
#: (figure, Table 2 model, n, quantum ms): every model, every n and both
#: quantum extremes appear in each figure.
PAPER_CELLS = (
    (4, "skewed", 5, 10),
    (4, "linear", 10, 40),
    (4, "equal", 20, 10),
    (5, "equal", 5, 40),
    (5, "skewed", 10, 10),
    (5, "linear", 20, 40),
)
#: The quick protocol's cycle counts (``repro run fig4`` / ``fig5``).
FIG4_CYCLES = {5: 120, 10: 70, 20: 40}
FIG4_WARMUP = 5
FIG5_CYCLES = 40
FIG5_WARMUP = 3


class PaperSweep(Workload):
    """Figure 4 and 5 quick-protocol cells through ``run_sweep``."""

    name = "paper_sweep"
    op = "cell"
    ops_per_pass = len(PAPER_CELLS)

    def setup(self, seed: int) -> None:
        from repro.sweep import SweepCell

        self._make_worker(None)  # imports what a pass runs
        self.cells = [
            SweepCell(
                "perfbench.paper",
                {"fig": fig, "model": model, "n": n, "quantum_ms": q, "seed": seed},
            )
            for fig, model, n, q in PAPER_CELLS
        ]

    @staticmethod
    def cell_id(params) -> str:
        return f"fig{params['fig']}/{params['model']}{params['n']}/q{params['quantum_ms']}"

    def run_pass(self, seed, inst=None):
        from repro.sweep import SweepCache, SweepCell, SweepSpec, run_sweep
        from repro.sweep.fingerprint import clear_fingerprint_cache

        cells = [SweepCell(c.experiment, dict(c.params, seed=seed)) for c in self.cells]
        worker = self._make_worker(inst)
        if inst is not None:
            worker = inst.rec.wrap("experiments.cell", worker, per_call_trace=True)
        spec = SweepSpec(worker=worker, cells=cells)
        # Every pass pays what a fresh ``repro run`` process pays: an
        # empty cache and a source fingerprint not yet memoized.
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.out_dir)
        clear_fingerprint_cache()
        try:
            cache = SweepCache(cache_dir)
            sweep = run_sweep if inst is None else inst.rec.wrap("sweep.run", run_sweep)
            with Timed(inst) as timed:
                outcome = sweep(spec, workers=1, cache=cache)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        ops: dict[str, dict] = {}
        stats: dict[str, float] = {}
        for result in outcome.results:
            ops[self.cell_id(result.cell.params)] = result.value["out"]
            _add_stats(stats, result.value["stats"])
        lookups = outcome.stats.hits + outcome.stats.misses
        stats["sweep.hit_ratio"] = outcome.stats.hits / lookups if lookups else 0.0
        return PassResult(
            timed.wall, timed.cpu, timed.wall_scale, timed.cpu_scale,
            int(stats["alps.quanta"]), ops, stats=stats,
        )

    def _make_worker(self, inst):
        from repro import AlpsConfig, build_controlled_workload, ms
        from repro.experiments.common import run_for_cycles
        from repro.metrics.accuracy import mean_rms_relative_error
        from repro.workloads import ShareDistribution, workload_shares

        build = build_controlled_workload
        if inst is not None:
            build = inst.rec.wrap("workloads.build", build_controlled_workload)

        def paper_cell(params) -> dict:
            """One cell, computed as ``repro.experiments`` computes it."""
            n, fig = params["n"], params["fig"]
            cw = build(
                workload_shares(ShareDistribution(params["model"]), n),
                AlpsConfig(quantum_us=ms(params["quantum_ms"])),
                seed=params["seed"],
            )
            if inst is not None:
                inst.instrument_kernel(cw.kernel, [cw.alps_proc.pid])
            log = cw.agent.cycle_log
            out: dict[str, Any] = {}
            if fig == 4:
                run_for_cycles(cw, FIG4_CYCLES[n] + FIG4_WARMUP)
                out["rms_error_pct"] = mean_rms_relative_error(log, skip=FIG4_WARMUP)
            else:
                run_for_cycles(cw, FIG5_CYCLES + FIG5_WARMUP)
                alps_cpu = cw.kernel.getrusage(cw.alps_proc.pid)
                out["overhead_pct"] = 100.0 * alps_cpu / cw.kernel.now
            out["cycle_log_sha256"] = cycle_log_sha256(log)
            out["events"] = cw.engine.events_processed
            return {"out": out, "stats": _sim_stats([cw.agent], cw.kernel, cw.engine)}

        return paper_cell


# ---------------------------------------------------------------------------
# scale_1000
# ---------------------------------------------------------------------------
SCALE_N = 1000
SCALE_QUANTUM_MS = 10
SCALE_HORIZON_S = 300


class Scale1000(Workload):
    """One ALPS over 1000 equal-share spinners, fixed simulated horizon."""

    name = "scale_1000"
    op = "run"

    def setup(self, seed: int) -> None:
        self._build(seed)

    def _build(self, seed: int):
        from repro import AlpsConfig, build_controlled_workload, ms

        return build_controlled_workload(
            [1] * SCALE_N, AlpsConfig(quantum_us=ms(SCALE_QUANTUM_MS)), seed=seed
        )

    def run_pass(self, seed, inst=None):
        from repro import sec

        cw = self._build(seed)
        if inst is not None:
            inst.instrument_kernel(cw.kernel, [cw.alps_proc.pid])
            inst.rec.new_trace()
        with Timed(inst) as timed:
            cw.engine.run_until(sec(SCALE_HORIZON_S))
        h = hashlib.sha256(cycle_log_sha256(cw.agent.cycle_log).encode())
        for w in cw.workers:
            h.update(f"{w.pid}:{cw.kernel.getrusage(w.pid)}\n".encode())
        agent = cw.agent
        out = {
            "sha256": h.hexdigest(),
            "events": cw.engine.events_processed,
            "cycles": len(agent.cycle_log),
            "quanta": agent.invocations,
            "reads": agent.reads,
        }
        stats = _sim_stats([agent], cw.kernel, cw.engine)
        return PassResult(
            timed.wall, timed.cpu, timed.wall_scale, timed.cpu_scale,
            agent.invocations, {"run": out}, stats=stats,
        )


# ---------------------------------------------------------------------------
# tenant_plane
# ---------------------------------------------------------------------------
PLANE_TENANTS = 6
PLANE_GROUPS = 2
PLANE_LEAVES = 4
PLANE_CELLS = 2
PLANE_QUANTUM_MS = 10
PLANE_SEGMENTS = 40
PLANE_SEGMENT_S = 1


def plane_tree():
    """Tenant -> group -> leaf tree: 6 x 2 x 4 = 48 leaves."""
    from repro import ShareTree

    tree = ShareTree()
    sid = 0
    for t in range(PLANE_TENANTS):
        tree.group(f"t{t}", 1 + t % 3)
        for g in range(PLANE_GROUPS):
            tree.group(f"t{t}/g{g}", 1 + g)
            for leaf in range(PLANE_LEAVES):
                tree.leaf(f"t{t}/g{g}/w{leaf}", sid=sid, weight=1 + leaf % 2)
                sid += 1
    return tree


def plane_mutations(seed: int) -> list[tuple[str, int]]:
    """One ``set_weight`` per segment: tenants on even, groups on odd."""
    rng = random.Random(seed)
    muts = []
    for s in range(PLANE_SEGMENTS):
        t = rng.randrange(PLANE_TENANTS)
        path = f"t{t}" if s % 2 == 0 else f"t{t}/g{rng.randrange(PLANE_GROUPS)}"
        muts.append((path, rng.randint(1, 8)))
    return muts


class TenantPlane(Workload):
    """A sharded plane with obs on and the default resilience stack."""

    name = "tenant_plane"
    op = "segment"
    ops_per_pass = PLANE_SEGMENTS

    def setup(self, seed: int) -> None:
        self._build(seed)

    def _build(self, seed: int):
        from repro import AlpsConfig, Observer, ShardedAlpsPlane, ms
        from repro.sharetree.resilience import PlaneResilienceConfig

        obs = Observer()
        plane = ShardedAlpsPlane(
            plane_tree(),
            AlpsConfig(quantum_us=ms(PLANE_QUANTUM_MS)),
            cells=PLANE_CELLS,
            seed=seed,
            observer=obs,
            resilience=PlaneResilienceConfig(),
        )
        return plane, obs

    def run_pass(self, seed, inst=None):
        from repro import sec
        from repro.obs import collect_plane, metrics_to_prometheus

        plane, obs = self._build(seed)
        muts = plane_mutations(seed)

        def export():
            collect_plane(plane)
            return metrics_to_prometheus(obs.metrics)

        if inst is not None:
            export = inst.rec.wrap("obs.export", export)
            inst.instrument_kernel(
                plane.kernel, [p.pid for p in plane.agent_procs.values()]
            )
        marks: list[tuple[int, int, int]] = []
        with Timed(inst) as timed:
            for s, (path, weight) in enumerate(muts):
                if inst is not None:
                    inst.rec.new_trace()
                end = sec(PLANE_SEGMENT_S) * (s + 1)
                plane.run_until(end)
                plane.set_weight(path, weight)
                if inst is not None:
                    # A rebalance may have spawned an agent for an empty cell.
                    inst.instrument_kernel(
                        plane.kernel, [p.pid for p in plane.agent_procs.values()]
                    )
                marks.append((end, plane.migrations, plane.engine.events_processed))
            prom = export()
        agents = [plane.agents[c] for c in sorted(plane.agents)]
        ops: dict[str, dict] = {}
        prev = -1
        for s, (end, migrations, events) in enumerate(marks):
            h = hashlib.sha256()
            for cell in sorted(plane.agents):
                recs = [r for r in plane.agents[cell].cycle_log if prev < r.end_time <= end]
                h.update(f"cell{cell}:{cycle_log_sha256(recs)}\n".encode())
            ops[f"segment{s:02d}"] = {
                "sha256": h.hexdigest(),
                "migrations": migrations,
                "events": events,
            }
            prev = end
        failures = {}
        if "alps_plane_migrations" not in prom:
            failures["segment%02d" % (len(marks) - 1)] = "metrics export lacks migrations"
        stats = _sim_stats(agents, plane.kernel, plane.engine)
        stats["obs.events"] = obs.events.emitted
        stats["sharetree.migrations"] = plane.migrations
        return PassResult(
            timed.wall, timed.cpu, timed.wall_scale, timed.cpu_scale,
            int(stats["alps.quanta"]), ops, failures, stats,
        )


# ---------------------------------------------------------------------------
# host_live
# ---------------------------------------------------------------------------
#: Unequal shares; only the first ``nproc`` are used.
LIVE_SHARES = (1, 3)
LIVE_QUANTUM_S = 0.02
LIVE_DURATION_S = 2.0
#: Largest allowed gap between a spinner's attained and target fraction.
LIVE_TOLERANCE = 0.08


class HostLive(Workload):
    """``HostAlps`` over real spinner processes."""

    name = "host_live"
    op = "live run"
    simulated = False
    duration_bound = True

    def __init__(self, out_dir: str) -> None:
        super().__init__(out_dir)
        self.procs: list = []

    def setup(self, seed: int) -> None:
        import os

        from repro.hostos import HostAlps, spawn_spinner

        shares = list(LIVE_SHARES[: max(1, os.cpu_count() or 1)])
        random.Random(seed).shuffle(shares)
        for _ in shares:
            self.procs.append(spawn_spinner())
        self.shares = {p.pid: s for p, s in zip(self.procs, shares)}
        HostAlps(self.shares, quantum_s=LIVE_QUANTUM_S)  # construction is set-up

    def close(self) -> None:
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()
        self.procs = []

    def run_pass(self, seed, inst=None):
        from repro.hostos import HostAlps
        from repro.hostos.procfs import proc_state

        alps = HostAlps(self.shares, quantum_s=LIVE_QUANTUM_S)
        run = alps.run if inst is None else inst.rec.wrap("hostos.run", alps.run)
        # Host speed for the controller's work: the same /proc reads and
        # kill(2) calls it makes.
        probe = SpeedProbe(
            calibrate.syscall_loop(list(self.shares)),
            calibrate.SYSCALL_REFERENCE_S,
        )
        with Timed(inst, probe) as timed:
            report = run(LIVE_DURATION_S)
        quanta = alps.core.count
        total = sum(self.shares.values())
        fractions = report.fractions()
        worst = max(abs(fractions[pid] - s / total) for pid, s in self.shares.items())
        stopped = [pid for pid in self.shares if proc_state(pid) == "T"]
        failures = {}
        if worst > LIVE_TOLERANCE:
            failures["live"] = f"share error {worst:.3f} > {LIVE_TOLERANCE}"
        if stopped:
            failures["live"] = f"spinners left stopped: {stopped}"
        out = {"share_error": worst, "cycles": report.cycles}
        stats = {
            "alps.quanta": quanta,
            "alps.postpone_base": quanta * len(self.shares),
        }
        # The run lasts a fixed time, so its wall time is the measured
        # one; the controller's CPU time leaves the speed samples out.
        cpu = report.controller_cpu_us / 1e6
        if timed.probe is not None:
            cpu -= timed.probe.spent_cpu_s
        return PassResult(
            timed.elapsed, cpu, timed.wall_scale, timed.cpu_scale, quanta,
            {"live": out}, failures, stats,
        )


WORKLOADS = {w.name: w for w in (PaperSweep, Scale1000, TenantPlane, HostLive)}
