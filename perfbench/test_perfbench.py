"""Self-tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    Instrumentation,
    SpanRecorder,
    TraceSummary,
    closure_error,
    self_times,
    tail_percentile,
)


# -- self time ----------------------------------------------------------
def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,7]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 7], [-1, 0, 1, 0]
    selfs = self_times(start, end, parent)
    assert selfs == [10 - 3 - 2, 3 - 1, 1, 2]
    assert closure_error(start, end, parent, selfs) == 0


def test_self_time_counts_overlapping_children_once():
    # Children [1,5] and [3,8] overlap on [3,5]; [9,12] runs past the
    # parent's end and is clipped to [9,10].
    start, end, parent = [0, 1, 3, 9], [10, 5, 8, 12], [-1, 0, 0, 0]
    selfs = self_times(start, end, parent)
    assert selfs[0] == 10 - 7 - 1
    # The overlap is counted by both children, so the tree's self sum
    # exceeds the root and closure reports the excess.
    assert closure_error(start, end, parent, selfs) == pytest.approx((2 + 2) / 10)


def test_recorder_nests_wrapped_calls():
    rec = SpanRecorder()
    inner = rec.wrap("alps.core", lambda: sum(range(1000)))
    outer = rec.wrap("alps.wake", lambda: inner() + inner())
    root = rec.open("bench.pass")
    outer()
    rec.close(root)
    summary = TraceSummary(rec)
    assert summary.count == {"bench.pass": 1, "alps.wake": 1, "alps.core": 2}
    assert list(rec.parent) == [-1, 0, 1, 1]
    assert summary.closure_err < 1e-9
    assert summary.share("alps") + summary.share("bench") == pytest.approx(1.0)


# -- percentile rule ----------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail_percentile(values, 99) == (99, 990, 1000)
    # 100 samples: p99 would leave one beyond it, so p90 is reported.
    assert tail_percentile(range(1, 101), 99) == (90, 90, 100)
    # 15 samples: no percentile at or above the median has 10 beyond.
    assert tail_percentile(range(1, 16), 90) == (None, 8, 15)
    assert tail_percentile([], 99) == (None, 0.0, 0)


# -- host-speed calibration ----------------------------------------------
def test_untraced_timing_leaves_out_calibration_samples():
    timed = workloads.Timed(None)
    with timed:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    probe = timed.probe
    # One sample at each edge and at least two from the timer inside.
    assert len(probe.wall_samples) >= 4 and probe.spent_s > 0
    assert timed.wall + probe.spent_s == pytest.approx(0.35, abs=0.01)
    n = len(probe.cpu_samples)
    assert timed.cpu_scale == pytest.approx(
        calibrate.LOOP_REFERENCE_S * n / sum(probe.cpu_samples)
    )


# -- failure counting ---------------------------------------------------
class _Fixed(workloads.Workload):
    name = "fixed"
    op = "cell"
    ops_per_pass = 2

    def run_pass(self, seed, inst=None):
        ops = {"a": {"sha256": "x", "events": 3}, "b": {"sha256": "y", "events": 4}}
        return workloads.PassResult(1.0, 1.0, 1.0, 1.0, 10, ops)


def test_wrong_reference_counts_as_failed_operation(tmp_path):
    reference = {"0": {"a": {"sha256": "x", "events": 3},
                       "b": {"sha256": "WRONG", "events": 4}}}
    ledger = run.Ledger(_Fixed(str(tmp_path)), reference)
    ledger.run(0)
    ledger.run(0)
    ledger.run(5)  # no reference: checked against its own first pass
    assert (ledger.attempted, ledger.failed) == (6, 2)
    assert all(" b: differs from the reference" in f for f in ledger.failures)


def test_raising_pass_fails_all_its_operations(tmp_path):
    class Broken(_Fixed):
        def run_pass(self, seed, inst=None):
            raise RuntimeError("boom")

    ledger = run.Ledger(Broken(str(tmp_path)), {})
    assert ledger.run(0) is None
    assert (ledger.attempted, ledger.failed) == (2, 2)


# -- traced and untraced runs agree ---------------------------------------
@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SCALE_N", 40)
    monkeypatch.setattr(workloads, "SCALE_HORIZON_S", 3)
    monkeypatch.setattr(workloads, "PLANE_SEGMENTS", 3)
    monkeypatch.setattr(workloads, "PAPER_CELLS", ((4, "skewed", 5, 10), (5, "linear", 5, 40)))
    monkeypatch.setattr(workloads, "FIG4_CYCLES", {5: 10})
    monkeypatch.setattr(workloads, "FIG5_CYCLES", 8)


@pytest.mark.parametrize("name", ["paper_sweep", "scale_1000", "tenant_plane"])
def test_traced_pass_reproduces_untraced_outputs(small, tmp_path, name):
    wl = workloads.WORKLOADS[name](str(tmp_path))
    wl.setup(3)
    plain = wl.run_pass(3)
    rec = SpanRecorder()
    traced = wl.run_pass(3, Instrumentation(rec))
    assert traced.ops == plain.ops
    assert traced.stats == plain.stats
    summary = TraceSummary(rec)
    assert summary.closure_err < 1e-9
    assert summary.count["bench.pass"] == 1
    assert summary.count["alps.wake"] > 0 and summary.count["kernel.syscall"] > 0


def test_instrumentation_restores_every_patch():
    from repro.alps.algorithm import AlpsCore
    from repro.sim.engine import Engine

    before = (Engine.run_until, AlpsCore.begin_quantum, run.os.kill)
    with Instrumentation(SpanRecorder()):
        assert Engine.run_until is not before[0]
    assert (Engine.run_until, AlpsCore.begin_quantum, run.os.kill) == before


# -- the benchmark's cells are the paper's cells --------------------------
def test_paper_cells_match_the_experiment_workers(small, tmp_path):
    from repro.experiments.accuracy import accuracy_cell, run_accuracy_cell
    from repro.experiments.overhead import overhead_cell, run_overhead_cell
    from repro.workloads import ShareDistribution

    wl = workloads.PaperSweep(str(tmp_path))
    wl.setup(0)
    ops = wl.run_pass(0).ops
    fig4 = run_accuracy_cell(
        accuracy_cell(ShareDistribution("skewed"), 5, 10, cycles=10, seeds=(0,)).params
    )
    fig5 = run_overhead_cell(
        overhead_cell(ShareDistribution("linear"), 5, 40, cycles=8, seed=0).params
    )
    assert ops["fig4/skewed5/q10"]["rms_error_pct"] == fig4["mean_rms_error_pct"]
    assert ops["fig5/linear5/q40"]["overhead_pct"] == fig5["overhead_pct"]
