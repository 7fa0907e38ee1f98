"""Pin the fingerprints of every workload for seeds 0-19.

    python3 perfbench/pin.py

Runs each workload once per seed through the same gate the benchmark uses
(cost identities, no divergence) and writes perfbench/pins.json, keyed by
the environment's numerics key, since floating-point bits can differ with
the CPU features numpy dispatches on and with the BLAS build. Re-pin only
when a change is meant to alter trajectories, and say so.
"""

from __future__ import annotations

import json
import sys

import run as bench  # pins BLAS threads before numpy loads


# The seeds the benchmark's ten-run checks use, and so the ones it expects pinned.
SEEDS = range(20)


def main() -> int:
    decenopt = bench.import_decenopt()
    checks, workloads = bench.checks, bench.workloads

    fingerprints = {}
    with bench.scratch_dir("pin-") as work:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workload = workloads.make(name, seed)
                workdir = work / f"{name}-{seed}"
                workdir.mkdir()
                workload.prepare(decenopt, workdir)
                gate = checks.Gate(None)
                bench.measure(decenopt, workload, seconds=0.0, trace=False, gate=gate)
                if gate.failed:
                    print("\n".join(gate.failures), file=sys.stderr)
                    return 1
                fingerprints.setdefault(name, {})[str(seed)] = gate.fingerprints
                print(f"pinned {name} seed {seed}")
    env_key = checks.environment_key()
    pins = {"environment": env_key, "recorded_on": bench.environment(env_key),
            "fingerprints": fingerprints}
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
