"""Correctness gate applied to every run of every repeat.

A run passes when
- it finished (a deterministic divergence passes only if a pinned
  fingerprint records exactly that outcome);
- the cost counters on the last row of its CSV obey the exact identities
  (gt-sarah: rounds = S(q+1), grads = S*n(m+2qB); dsgd: rounds = steps,
  grads = steps*nB; dsgt: rounds = steps, grads = (steps+1)*nB), with S and
  steps worked out here from the run's budget, not read from the engine;
- its fingerprint, SHA-256 over the CSV bytes followed by final_x.tobytes(),
  equals the reference: the pinned value when this environment and seed
  are pinned, otherwise the value of the first repeat in this process.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


@dataclass
class RunOutput:
    """What one engine.run call left behind, as the benchmark saw it."""

    key: str                 # "<section>_r<replicate>", as the CLI names its CSV
    algorithm: str
    n: int
    m: int
    B: int
    q: int | None
    epochs: float
    run_s: float
    status: str              # "ok", "diverged" or "error: ..."
    csv: bytes = b""
    final_x: bytes = b""
    passed: bool = False     # set by Gate.check

    @property
    def usable(self) -> bool:
        """Completed and passed the gate, so its counters and time count."""
        return self.passed and self.status == "ok"

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256(self.csv)
        h.update(self.final_x)
        if self.status != "ok":
            h.update(self.status.encode())
        return h.hexdigest()

    def counters(self) -> tuple[int, int]:
        """(grads_total, comm_rounds) from the last row of the CSV."""
        last = self.csv.decode().rstrip("\n").rsplit("\n", 1)[-1].split(",")
        return int(last[5]), int(last[6])


def expected_cost(run: RunOutput) -> tuple[int, int]:
    """(grads, rounds) the budget implies, by the paper's accounting."""
    n, m, B = run.n, run.m, run.B
    if run.algorithm == "gt-sarah":
        q = run.q if run.q is not None else m
        S = max(1, round(run.epochs * m / (m + 2 * q * B)))
        return S * n * (m + 2 * q * B), S * (q + 1)
    steps = max(1, round(run.epochs * m / B))
    if run.algorithm == "dsgd":
        return steps * n * B, steps
    return (steps + 1) * n * B, steps


def check_run(run: RunOutput, reference: str | None) -> str | None:
    """None if the run passes, else a one-line reason."""
    if run.status.startswith("error"):
        return run.status
    if run.status == "ok":
        try:
            got = run.counters()
        except (ValueError, IndexError, UnicodeDecodeError):
            return "CSV last row does not parse"
        want = expected_cost(run)
        if got != want:
            return f"cost identity: (grads, rounds) = {got}, expected {want}"
    if reference is None:
        return None if run.status == "ok" else f"{run.status} with no pinned outcome"
    if run.fingerprint != reference:
        return f"fingerprint {run.fingerprint[:16]} != reference {reference[:16]}"
    return None


def environment_key() -> str:
    """Identifies the numerics: floating-point bits may differ across these."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:         # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    parts = [platform.machine(), ".".join(map(str, sys.version_info[:2])), np.__version__,
             blas.get("name", ""), blas.get("openblas configuration", ""),
             ",".join(sorted(k for k, on in __cpu_features__.items() if on))]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def load_pins(env_key: str, workload: str, seed: int) -> dict | None:
    """Pinned fingerprints for (workload, seed) on this environment, if any."""
    if not PINS_PATH.exists():
        return None
    pins = json.loads(PINS_PATH.read_text())
    if pins.get("environment") != env_key:
        return None
    return pins["fingerprints"].get(workload, {}).get(str(seed))


class Gate:
    """Checks every run of every repeat and keeps the tally.

    Without pins, the first passing run under each key becomes the
    reference, so every later repeat, traced or not, must reproduce it.
    """

    def __init__(self, pinned: dict | None):
        self.reference = dict(pinned or {})
        self.fingerprints: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, repeat, tag: str) -> None:
        for run in repeat.runs:
            self.attempted += 1
            ref = self.reference.get(run.key)
            reason = check_run(run, ref)
            run.passed = reason is None
            if reason is None and ref is None:
                self.reference[run.key] = run.fingerprint
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{tag} {run.key}: {reason}")
            self.fingerprints.setdefault(run.key, run.fingerprint)
