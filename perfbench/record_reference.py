#!/usr/bin/env python3
"""Write ``reference.json``: the checked outputs of every simulated workload.

    python3 perfbench/record_reference.py

Records one pass per workload for each seed in ``run.REFERENCE_SEEDS``.
Run it only when the benchmark itself is redefined.  A benchmark run
that disagrees with the reference has found a behaviour change in the
program; that is never a reason to record the reference again.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    run.OUT.mkdir(exist_ok=True)
    reference: dict[str, dict[str, dict]] = {}
    for name, cls in WORKLOADS.items():
        if not cls.simulated:
            continue
        wl = cls(str(run.OUT))
        per_seed = reference[name] = {}
        for seed in run.REFERENCE_SEEDS:
            wl.setup(seed)
            result = wl.run_pass(seed)
            if result.failures:
                raise SystemExit(f"{name} seed {seed}: {result.failures}")
            per_seed[str(seed)] = result.ops
        wl.close()
        print(f"recorded {name}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
