"""Performance instrumentation for the simulation substrate.

Three concerns, kept deliberately separate:

* :mod:`repro.perf.counters` — cheap named counters/timers that hot
  components account into at call granularity (never per event);
* :mod:`repro.perf.profiler` — cProfile and wall-clock helpers for
  ad-hoc investigation of the hot path;
* :mod:`repro.perf.differential` — the equivalence harness that runs
  the same workload over the strict and resident kernel backends and
  asserts byte-identical schedules;
* :mod:`repro.perf.report` — collection and rendering of a run's
  counter snapshot (the ``repro perf report`` CLI subcommand).

See docs/performance.md for the methodology.
"""

from repro.perf.counters import PerfCounters

__all__ = ["PerfCounters"]
