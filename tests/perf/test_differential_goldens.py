"""Golden-trace differential tests: strict vs optimized kernel.

The optimized kernel — the array-resident backend — is only allowed to
exist because these tests hold: for equal seeds, each Table 2 workload
must produce byte-identical cycle logs and event traces whether it runs
on the strict reference kernel (``backend="strict"``) or on the
resident one (``backend="resident"``), through the same
:func:`compare_cell` harness ``repro perf diff`` uses.  The full
acceptance sweep is DISTRIBUTIONS × {5, 10, 20} × seeds {0, 1, 2}.
"""

from __future__ import annotations

import pytest

from repro.perf.differential import (
    TABLE2_SIZES,
    RunFingerprint,
    compare_cell,
    fingerprint_run,
    serialize_cycle_log,
)
from repro.units import ms, sec
from repro.workloads.shares import DISTRIBUTIONS

#: Per-cell horizon: long enough for dozens of cycles on every
#: distribution, short enough to keep the 27-cell sweep in seconds.
HORIZON_US = sec(5)


@pytest.mark.parametrize("model", DISTRIBUTIONS, ids=lambda m: m.value)
@pytest.mark.parametrize("n", TABLE2_SIZES)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_strict_and_optimized_schedules_are_byte_identical(model, n, seed):
    cell = compare_cell(model, n, seed, horizon_us=HORIZON_US)
    assert cell.matches, (
        f"{model.value} n={n} seed={seed}: strict and resident backends "
        f"diverged — {cell.detail}"
    )
    # The digests double as goldens within the run: equal fingerprints
    # must render equal digests.
    assert cell.strict_digest == cell.resident_digest


def test_fingerprint_is_reproducible_for_equal_seeds():
    a = fingerprint_run([1, 2, 3], seed=7, horizon_us=sec(2))
    b = fingerprint_run([1, 2, 3], seed=7, horizon_us=sec(2))
    assert a == b
    assert a.digest() == b.digest()
    assert len(a.trace) > 0 and len(a.cycle_log) > 0


def test_fingerprint_distinguishes_seeds_or_workloads():
    base = fingerprint_run([1, 2, 3], seed=0, horizon_us=sec(2))
    other_shares = fingerprint_run([3, 2, 1], seed=0, horizon_us=sec(2))
    assert base != other_shares


def test_detail_pinpoints_an_injected_difference():
    a = fingerprint_run([1, 1], seed=0, horizon_us=sec(1))
    tampered = RunFingerprint(
        cycle_log=a.cycle_log,
        trace=a.trace + b"\n999 event tampered",
        events=a.events,
        final_now=a.final_now,
    )
    from repro.perf.differential import _first_difference

    assert "trace" in _first_difference(a, tampered)


def test_cycle_log_serialization_is_key_order_independent():
    """Mapping insertion order must not leak into the bytes."""
    from repro.alps.instrumentation import CycleLog, CycleRecord

    fwd = CycleRecord(
        index=0,
        end_time=100,
        consumed={1: 10, 2: 20},
        blocked_quanta={1: 0, 2: 1},
        shares={1: 1, 2: 2},
        quantum_us=ms(10),
    )
    rev = CycleRecord(
        index=0,
        end_time=100,
        consumed={2: 20, 1: 10},
        blocked_quanta={2: 1, 1: 0},
        shares={2: 2, 1: 1},
        quantum_us=ms(10),
    )
    log_fwd, log_rev = CycleLog(), CycleLog()
    log_fwd.append(fwd)
    log_rev.append(rev)
    assert serialize_cycle_log(log_fwd) == serialize_cycle_log(log_rev)
