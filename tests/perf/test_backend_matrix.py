"""Backend differential-equivalence matrix.

The array-resident backend (``KernelConfig(backend="resident")``) is
only allowed to exist because this battery holds: it must produce
schedules byte-identical to the strict reference kernel over the full
Table 2 workload matrix × seeds 0–4, bare *and* stacked with every
cross-cutting layer (observability, fault injection, journaling +
supervision, overload protection, hierarchical share trees), on one
CPU and on several, and on either side of the process count at which
``backend="auto"`` switches from strict to resident.

The challenger cells keep their historical ``batch`` id; they run the
resident kernel, the configuration ``auto`` picks at scale.

Faulted cells are compared across backends only (a faulted schedule
legitimately differs from a clean one); their fingerprints embed the
injector's realized fault trace, so the comparison also pins that both
backends see the identical fault sequence.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.alps.config import AlpsConfig
from repro.faults.plan import FaultPlan, ProcessCrash
from repro.kernel import Kernel, KernelConfig, RESIDENT_MIN_PROCS, make_kernel
from repro.kernel.resident import ResidentKernel
from repro.perf.differential import (
    TABLE2_SIZES,
    describe_difference,
    fingerprint_run,
)
from repro.sim.engine import Engine
from repro.units import ms, sec
from repro.workloads.scenarios import build_controlled_workload
from repro.workloads.shares import DISTRIBUTIONS, ShareDistribution, workload_shares

#: Challengers checked against the strict reference: id -> kernel
#: backend.
CHALLENGERS: dict[str, str] = {"batch": "resident"}

#: Seeds of the acceptance sweep.
SEEDS = (0, 1, 2, 3, 4)

#: Horizon: dozens of ALPS cycles per cell, short enough that the full
#: (3 models × 3 sizes + 5 stacks) × 5 seeds sweep stays in seconds.
HORIZON_US = sec(3)

#: The representative cell for the stacked sweeps (mid-size, uneven
#: shares — exercises suspension, postponement, and wakeup boosts).
STACK_MODEL = ShareDistribution.SKEWED
STACK_N = 10

#: Stacked layers: name -> fingerprint_run keyword arguments.
STACKS: dict[str, dict] = {
    "obs": {"obs": True},
    "journal": {"resilience": True},
    "overload": {"overload": True},
    "sharetree": {"sharetree": True},
}


def _fault_plan() -> FaultPlan:
    """A deterministic plan exercising crash, drop, and read faults."""
    return FaultPlan(
        seed=3,
        crashes=(ProcessCrash(1_500_000, 1),),
        signal_drop_prob=0.05,
        rusage_fail_prob=0.02,
    )


def _run_challenger(challenger, shares, **kwargs):
    """``fingerprint_run`` for a strict or :data:`CHALLENGERS` id."""
    backend = "strict" if challenger == "strict" else CHALLENGERS[challenger]
    return fingerprint_run(shares, backend=backend, **kwargs)


@lru_cache(maxsize=None)
def _fingerprint(model, n, seed, backend, stack):
    kwargs = dict(STACKS.get(stack, {}))
    if stack == "faults":
        kwargs["fault_plan"] = _fault_plan()
    return _run_challenger(
        backend,
        workload_shares(model, n),
        seed=seed,
        horizon_us=HORIZON_US,
        **kwargs,
    )


def _assert_matches_strict(model, n, seed, backend, stack):
    reference = _fingerprint(model, n, seed, "strict", stack)
    challenger = _fingerprint(model, n, seed, backend, stack)
    assert challenger == reference, (
        f"{backend} diverged from strict on {model.value} n={n} "
        f"seed={seed} stack={stack}: "
        + describe_difference(
            reference, challenger, left="strict", right=backend
        )
    )


@pytest.mark.parametrize("backend", CHALLENGERS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("n", TABLE2_SIZES)
@pytest.mark.parametrize("model", DISTRIBUTIONS, ids=lambda m: m.value)
def test_backend_matches_strict_on_table2(model, n, seed, backend):
    """Bare Table 2 matrix × seeds 0–4: every backend, byte-identical."""
    _assert_matches_strict(model, n, seed, backend, "plain")


@pytest.mark.parametrize("backend", CHALLENGERS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("stack", sorted(STACKS) + ["faults"])
def test_backend_matches_strict_stacked(stack, seed, backend):
    """Each cross-cutting layer stacked on the backend sweep.

    obs/journal/overload cells must equal the strict cell with the same
    stack; faulted cells must equal the strict *faulted* cell — the
    fault realization (embedded in the fingerprint) included.
    """
    _assert_matches_strict(STACK_MODEL, STACK_N, seed, backend, stack)


@pytest.mark.parametrize("backend", CHALLENGERS)
def test_backend_matches_strict_all_stacks_at_once(backend):
    """The full pile-up: journal + supervision + overload + obs together."""
    shares = workload_shares(STACK_MODEL, STACK_N)
    kwargs = dict(resilience=True, overload=True, obs=True)
    reference = _run_challenger(
        "strict", shares, seed=0, horizon_us=HORIZON_US, **kwargs
    )
    challenger = _run_challenger(
        backend, shares, seed=0, horizon_us=HORIZON_US, **kwargs
    )
    assert challenger == reference, describe_difference(
        reference, challenger, left="strict", right=backend
    )


@pytest.mark.parametrize("backend", CHALLENGERS)
def test_stacked_layers_remain_schedule_invisible_on_soa_backends(backend):
    """obs/journal/overload/sharetree must not perturb the resident
    kernel's schedules either (the invisibility contract each layer
    already holds on strict)."""
    bare = _fingerprint(STACK_MODEL, STACK_N, 0, backend, "plain")
    for stack in STACKS:
        stacked = _fingerprint(STACK_MODEL, STACK_N, 0, backend, stack)
        assert stacked == bare, (
            f"stack={stack} perturbed the {backend} schedule: "
            + describe_difference(bare, stacked, left="bare", right=stack)
        )


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        KernelConfig(backend="vectorized").resolve_backend()
    # Rejected when the config is built, before any kernel exists.
    for retired in ("optimized", "batch"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            KernelConfig(backend=retired)


def test_kernel_config_rejects_zero_cpus():
    with pytest.raises(ValueError, match="ncpus"):
        KernelConfig(ncpus=0)
    with pytest.raises(ValueError, match="ncpus"):
        KernelConfig(ncpus=-1)


def test_auto_backend_picks_by_process_count():
    auto = KernelConfig()
    assert auto.resolve_backend() == "strict"
    assert auto.resolve_backend(RESIDENT_MIN_PROCS - 1) == "strict"
    assert auto.resolve_backend(RESIDENT_MIN_PROCS) == "resident"
    # An explicit backend wins over the count.
    assert KernelConfig(backend="strict").resolve_backend(10**6) == "strict"
    assert KernelConfig(backend="resident").resolve_backend(1) == "resident"


def test_make_kernel_switches_to_resident_at_the_crossover():
    below = make_kernel(Engine(seed=0), KernelConfig(), RESIDENT_MIN_PROCS - 1)
    at = make_kernel(Engine(seed=0), KernelConfig(), RESIDENT_MIN_PROCS)
    assert type(below) is Kernel
    assert type(at) is ResidentKernel
    # No count (e.g. the sharded plane's shared kernel): strict.
    assert type(make_kernel(Engine(seed=0))) is Kernel
    # build_controlled_workload counts its shares.
    for n, expected in (
        (RESIDENT_MIN_PROCS - 1, Kernel),
        (RESIDENT_MIN_PROCS, ResidentKernel),
    ):
        cw = build_controlled_workload([1] * n, AlpsConfig(quantum_us=ms(10)))
        assert type(cw.kernel) is expected


#: Twenty simulated seconds complete several ALPS cycles at the
#: crossover-sized workloads below.
CROSSOVER_HORIZON_US = sec(20)


@pytest.mark.parametrize(
    "n", (RESIDENT_MIN_PROCS - 1, RESIDENT_MIN_PROCS), ids=("below", "at")
)
def test_auto_fingerprint_matches_strict_either_side_of_crossover(n):
    shares = [1] * n
    auto = fingerprint_run(
        shares, backend="auto", horizon_us=CROSSOVER_HORIZON_US
    )
    strict = fingerprint_run(
        shares, backend="strict", horizon_us=CROSSOVER_HORIZON_US
    )
    assert auto == strict, describe_difference(strict, auto, right="auto")


@pytest.mark.parametrize("ncpus", (2, 4))
def test_resident_matches_strict_on_smp_above_crossover(ncpus):
    """``auto`` sends large SMP workloads to resident: the SMP dispatch
    paths (idle-CPU fill, worst-CPU preemption) must agree too."""
    shares = [1] * (RESIDENT_MIN_PROCS + 100)
    kwargs = dict(ncpus=ncpus, horizon_us=CROSSOVER_HORIZON_US)
    strict = fingerprint_run(shares, backend="strict", **kwargs)
    resident = fingerprint_run(shares, backend="resident", **kwargs)
    assert resident == strict, describe_difference(strict, resident)
