#!/usr/bin/env python3
"""Run the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload paper_sweep --seed 3 --seconds 15
    python3 perfbench/run.py --workload scale_1000 --trace 1

Prints one line per metric with its unit, then, as the last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run.  Full results, the
environment stamp and the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Seeds with committed reference outputs: the default and one held out
#: while the benchmark was written.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
#: Timed set-ups per run (after one untimed set-up that warms the
#: bytecode caches).
SETUP_PROBES = 7
#: Untimed passes never count; at least this many timed passes do.
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ctl_us_per_quantum": "us",
}

#: Layers, named after the ``repro.*`` packages (``bench`` is this
#: benchmark's own glue inside the timed region).
LAYERS = (
    "bench", "experiments", "sweep", "workloads", "kernel", "alps",
    "sharetree", "resilience", "obs", "hostos",
)
#: Span name -> per-layer self-time metric.
SELF_TIME = {
    "bench.pass": "bench.self_s",
    "kernel.run": "kernel.self_s",
    "kernel.syscall": "kernel.syscall_s",
    "alps.wake": "alps.self_s",
    "alps.core": "alps.core_s",
    "alps.invariants": "alps.invariants_s",
    "workloads.behavior": "workloads.behavior_s",
    "workloads.build": "workloads.build_s",
    "obs.emit": "obs.emit_s",
    "obs.export": "obs.export_s",
    "resilience.journal": "resilience.journal_s",
    "resilience.tick": "resilience.tick_s",
    "sharetree.run": "sharetree.run_s",
    "sharetree.rebalance": "sharetree.rebalance_s",
    "sharetree.set_weight": "sharetree.set_weight_s",
    "sweep.run": "sweep.run_s",
    "sweep.cache": "sweep.cache_s",
    "sweep.fingerprint": "sweep.fingerprint_s",
    "experiments.cell": "experiments.self_s",
    "hostos.run": "hostos.run_s",
}
#: Span name -> per-layer call-count metric.
SPAN_COUNT = {
    "kernel.syscall": "kernel.syscalls",
    "resilience.journal": "resilience.journal_appends",
    "hostos.read": "hostos.reads",
    "hostos.signal": "hostos.signals",
}
#: (metric stem, span name, scale, unit, wanted tail percentile or None).
DISTRIBUTIONS = (
    ("alps.wake_us", "alps.wake", 1e6, "us", 99.0),
    ("experiments.cell_s", "experiments.cell", 1.0, "s", 90.0),
    ("hostos.read_us", "hostos.read", 1e6, "us", 99.0),
    ("hostos.signal_us", "hostos.signal", 1e6, "us", None),
)
#: Counters the workloads read from the program after each pass.
STAT_COUNTS = {
    "sim.events": "count",
    "alps.quanta": "count",
    "alps.reads": "count",
    "alps.signals": "count",
    "alps.postpone_base": "count",
    "kernel.schedcpu_passes": "count",
    "kernel.context_switches": "count",
    "obs.events": "count",
    "sharetree.migrations": "count",
    "sweep.hit_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {m: "s" for m in SELF_TIME.values()}
    units.update({m: "count" for m in SPAN_COUNT.values()})
    units.update(STAT_COUNTS)
    units["alps.reads_per_quantum"] = "reads/quantum"
    units["alps.postpone_ratio"] = "ratio"
    units["hostos.core_s"] = "s"
    for stem, _span, _scale, unit, wanted in DISTRIBUTIONS:
        units[f"{stem}.p50"] = unit
        if wanted is not None:
            units[f"{stem}.p{wanted:g}"] = unit
        units[f"{stem}.n"] = "count"
    units.update({f"share.{layer}": "%" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    units["trace.closure_err"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.predictions_ok"] = "bool"
    return units


#: Predicted dominance, checked on every traced run: the agent (alps
#: layer) carries more of ``paper_sweep`` than of ``scale_1000`` and the
#: kernel more of ``scale_1000``.  A single run checks its side of a
#: pivot; the all-workloads run also compares the two directly.
ALPS_PIVOT = 0.25
KERNEL_PIVOT = 0.60
PLANE_LAYERS = ("obs", "sharetree", "resilience")


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------
class Ledger:
    """Counts operations and checks each against reference and repeats."""

    def __init__(self, workload, reference: dict) -> None:
        self.wl = workload
        self.reference = reference
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, seed: int, inst=None):
        wl = self.wl
        try:
            res = wl.run_pass(seed, inst)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += wl.ops_per_pass
            self.failed += wl.ops_per_pass
            self.failures.append(f"seed {seed}: pass raised")
            return None
        bad = dict(res.failures)
        if wl.simulated:
            expected = self.reference.get(str(seed))
            first = self.first.setdefault(seed, res.ops)
            for op in sorted(set(res.ops) | set(expected or first)):
                got = res.ops.get(op)
                if expected is not None and expected.get(op) != got:
                    bad[op] = f"differs from the reference: {got} != {expected.get(op)}"
                elif first.get(op) != got:
                    bad[op] = "differs from the first pass at this seed"
        self.attempted += max(len(res.ops), wl.ops_per_pass)
        self.failed += len(bad)
        self.failures += [f"seed {seed} {wl.op} {op}: {why}" for op, why in bad.items()]
        return res


def load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(name, {})


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def setup_probe(name: str, seed: int) -> int:
    """Child process: time imports plus workload construction.

    Prints the measured seconds and the seconds normalised for host
    speed (``calibrate``).
    """
    from calibrate import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](str(OUT))
    try:
        try:
            wl.setup(seed)
        finally:
            probe.stop()
        elapsed = time.perf_counter() - t0 - probe.spent_s
    finally:
        wl.close()
    print(repr(elapsed), repr(elapsed * probe.finish()[0]))
    return 0


def setup_probe_cmd(name: str, seed: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]


def probe_setup(cmd: list[str]) -> tuple[float, float]:
    """(measured, normalised) set-up seconds from one child process."""
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw, normalised = done.stdout.strip().splitlines()[-1].split()
    return float(raw), float(normalised)


def reset_peak_rss() -> None:
    """Restart this process's peak resident-set count (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # then the peak below covers the whole process lifetime


def peak_rss_mb() -> float:
    """Peak resident memory (MB) since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import CLOSURE_TOLERANCE, Instrumentation, SpanRecorder
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](str(OUT))
    # Set-up is an end-to-end metric, so traced runs skip it.  Probes
    # are spread over the timed passes, so that they see the same host
    # phases, except for a workload that keeps processes of its own
    # running (live spinners): its probes run before it builds them.
    probe = setup_probe_cmd(name, seed)
    setup: list[tuple[float, float]] = []
    probes = 0 if trace else SETUP_PROBES
    if probes:
        probe_setup(probe)
        if not wl.simulated:
            setup = [probe_setup(probe) for _ in range(probes)]
    ledger = Ledger(wl, load_reference(name))
    untraced, traced = [], []
    peaks: list[float] = []
    rec = SpanRecorder() if trace else None
    try:
        wl.setup(seed)
        # Untimed warm-up on a reference seed, so every run is checked
        # against committed outputs whatever seed it measures.
        ledger.run(REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)])
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            due = probes * (time.perf_counter() - start) / seconds
            if len(setup) < min(probes, due + 1):
                setup.append(probe_setup(probe))
            gc.collect()  # every pass starts from a collected heap
            reset_peak_rss()
            untraced.append(ledger.run(seed))
            peaks.append(peak_rss_mb())
            if trace:
                gc.collect()
                inst = Instrumentation(rec, trace_per_quantum=not wl.simulated)
                traced.append(ledger.run(seed, inst))
            enough = len(untraced) >= (1 if trace else MIN_PASSES)
            if enough and time.perf_counter() >= deadline:
                break
        while len(setup) < probes:
            setup.append(probe_setup(probe))
    finally:
        wl.close()
    untraced = [r for r in untraced if r is not None]
    traced = [r for r in traced if r is not None]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures, "passes": len(untraced),
        "environment": environment(),
    }
    details: dict[str, str] = {}
    metrics: dict[str, float] = {}
    raw_walls = [r.wall_s for r in untraced]
    if not trace:
        # Timings are normalised for host speed (calibrate.py); the
        # measured medians are reported alongside.
        wall_scale = [1.0 if wl.duration_bound else r.wall_scale for r in untraced]
        series = {
            "wall_s": ([w * s for w, s in zip(raw_walls, wall_scale)], raw_walls, "passes"),
            "setup_s": ([n for _raw, n in setup], [raw for raw, _n in setup], "set-ups"),
            "ctl_us_per_quantum": (
                [r.cpu_s * 1e6 / r.quanta * r.cpu_scale for r in untraced if r.quanta],
                [r.cpu_s * 1e6 / r.quanta for r in untraced if r.quanta],
                "passes",
            ),
        }
        for key, (values, raw, what) in series.items():
            metrics[key] = statistics.median(values) if values else 0.0
            if values:
                q1, q3 = quartiles(values)
                details[key] = (
                    f"median of {len(values)} {what}; q1 {q1:.6g}, q3 {q3:.6g};"
                    f" measured median {statistics.median(raw):.6g}"
                )
        metrics["peak_rss_mb"] = statistics.median(peaks)
        units = END_TO_END
        result["correct"] = ledger.failed == 0 and bool(untraced)
    else:
        summary_ok, trace_metrics, trace_details = summarize_trace(
            name, rec, traced, raw_walls
        )
        metrics, details = trace_metrics, trace_details
        units = per_layer_units()
        result["correct"] = ledger.failed == 0 and bool(traced) and summary_ok
        if rec is not None:
            rec.save(str(OUT / f"{name}.spans.npz"))
        result["closure_tolerance"] = CLOSURE_TOLERANCE
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    result["details"] = details
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    return result


def summarize_trace(name, rec, traced, untraced_walls):
    """Per-layer metrics from the traced passes (means per pass)."""
    from tracing import CLOSURE_TOLERANCE, TraceSummary, tail_percentile

    k = max(1, len(traced))
    summ = TraceSummary(rec, keep=[span for _s, span, *_ in DISTRIBUTIONS])
    m: dict[str, float] = {}
    details: dict[str, str] = {}
    for span, metric in SELF_TIME.items():
        m[metric] = summ.self_s.get(span, 0.0) / k
    for span, metric in SPAN_COUNT.items():
        m[metric] = summ.count.get(span, 0) / k
    for stat in STAT_COUNTS:
        m[stat] = sum(r.stats.get(stat, 0) for r in traced) / k
    if name == "host_live":
        m["alps.reads"] = m["hostos.reads"]
        m["alps.signals"] = m["hostos.signals"]
        m["hostos.core_s"] = m["alps.core_s"]
    else:
        m["hostos.core_s"] = 0.0
    quanta = m["alps.quanta"]
    m["alps.reads_per_quantum"] = m["alps.reads"] / quanta if quanta else 0.0
    base = m["alps.postpone_base"]
    m["alps.postpone_ratio"] = 1.0 - m["alps.reads"] / base if base else 0.0
    for stem, span, scale, unit, wanted in DISTRIBUTIONS:
        values = [d * scale for d in summ.durations.get(span, [])]
        m[f"{stem}.p50"] = statistics.median(values) if values else 0.0
        m[f"{stem}.n"] = len(values)
        if wanted is not None:
            pct, value, n = tail_percentile(values, wanted)
            m[f"{stem}.p{wanted:g}"] = value
            details[f"{stem}.p{wanted:g}"] = (
                f"p{pct:.4g} of {n} samples" if pct is not None
                else f"median of {n} samples (too few for a tail)"
            )
    for layer in LAYERS:
        m[f"share.{layer}"] = 100.0 * summ.share(layer)
    traced_walls = [r.wall_s for r in traced]
    m["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
        if traced_walls and untraced_walls else 0.0
    )
    m["trace.closure_err"] = summ.closure_err
    m["trace.spans"] = len(rec) / k
    checks = predictions(name, summ)
    m["trace.predictions_ok"] = float(all(checks.values()))
    details["trace.predictions_ok"] = "; ".join(
        f"{'ok' if ok else 'FAILED'}: {what}" for what, ok in checks.items()
    )
    closure_ok = summ.closure_err <= CLOSURE_TOLERANCE
    details["trace.closure_err"] = (
        f"{'within' if closure_ok else 'OUTSIDE'} tolerance {CLOSURE_TOLERANCE}"
    )
    return closure_ok, m, details


def predictions(name: str, summ) -> dict[str, bool]:
    present = {layer for layer in summ.layers() if summ.layer_self_s[layer] > 0}
    alps, kernel = summ.share("alps"), summ.share("kernel")
    checks = {}
    if name == "paper_sweep":
        checks[f"alps share {alps:.1%} >= {ALPS_PIVOT:.0%}"] = alps >= ALPS_PIVOT
        checks[f"kernel share {kernel:.1%} < {KERNEL_PIVOT:.0%}"] = kernel < KERNEL_PIVOT
    if name == "scale_1000":
        checks[f"alps share {alps:.1%} < {ALPS_PIVOT:.0%}"] = alps < ALPS_PIVOT
        checks[f"kernel share {kernel:.1%} >= {KERNEL_PIVOT:.0%}"] = kernel >= KERNEL_PIVOT
    plane = [layer for layer in PLANE_LAYERS if layer in present]
    if name == "tenant_plane":
        checks["obs, sharetree and resilience spans present"] = len(plane) == len(PLANE_LAYERS)
    else:
        checks["no obs, sharetree or resilience spans"] = not plane
    host = "hostos" in present
    if name == "host_live":
        checks["hostos spans present"] = host
    else:
        checks["no hostos spans"] = not host
    return checks


def environment() -> dict:
    """Where and on what a result was measured."""
    import numpy

    from repro import KernelConfig
    from repro.sim import fastloop
    from repro.sweep import code_fingerprint

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fastloop": fastloop.ACTIVE_IMPL,
        "kernel_backend": KernelConfig().resolve_backend(),
        "git_commit": commit,
        "source_sha256": code_fingerprint(),
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def print_result(result: dict) -> None:
    name = result["workload"]
    for key, metric in result["metrics"].items():
        note = result["details"].get(key)
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}"
              + (f"  ({note})" if note else ""))
    attempted, failed = result["attempted"], result["failed"]
    frac = failed / attempted if attempted else 1.0
    print(f"{name}  failed_frac = {frac:.6g}  ({failed} of {attempted} operations)")
    for why in result["failures"][:20]:
        print(f"{name}  FAILED {why}")
    print(f"{name}  environment {json.dumps(result['environment'], sort_keys=True)}")


def last_line(result: dict) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    })


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; one combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    shares = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"{name}  exited with {done.returncode}")
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, metric in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        shares[name] = {k: v["value"] for k, v in res["metrics"].items()}
    if trace and {"paper_sweep", "scale_1000"} <= set(shares):
        paper, scale = shares["paper_sweep"], shares["scale_1000"]
        for layer, bigger, smaller in (
            ("alps", paper, scale), ("kernel", scale, paper)
        ):
            ok = bigger[f"share.{layer}"] > smaller[f"share.{layer}"]
            which = "paper_sweep" if bigger is paper else "scale_1000"
            print(f"dominance  {layer} share larger on {which}: {'ok' if ok else 'FAILED'}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    print(last_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
