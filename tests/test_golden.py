"""Golden trajectory fingerprints: refactors of the round code must not move a bit.

Each case runs one algorithm on a tiny logistic problem and hashes the CSV
bytes followed by ``final_x.tobytes()``. The hashes were recorded with
Python 3.11.7 and numpy 2.4.6 on x86_64; another platform or numpy build
may round differently, so a mismatch there is not by itself a regression.
"""

import hashlib
import io

import pytest

from decenopt.algorithms import RunConfig
from decenopt.data import synthesize
from decenopt.engine import run
from decenopt.graph import build_topology, lazy_metropolis_weights

BUDGETS = {"gt-sarah": dict(S=2), "dsgt": dict(steps=48), "dsgd": dict(steps=48)}

GOLDEN = {
    ("gt-sarah", "default"):
        "fcdf29bfbd79956700b3f5024908610666e40473ddf1cc1da64b4e25205a421f",
    ("gt-sarah", "every"):
        "5b2cc56d07804749748a0d1ea92b9d890d13ed4c33f03533294d4aed3e0ee968",
    ("dsgt", "default"):
        "40a552c568b6fde959287e1df7141d99f328844df3ea432f433c2289a6cdb521",
    ("dsgt", "every"):
        "60f6528b9dc739eabcd0f99c7a18b0d6aff3f1f84bd35ff16ab721ebf14282d4",
    ("dsgd", "default"):
        "b9d33a6e5e10c38e53e5b09ada7b7101d277fb8b442e22cd83af41e59c33aae8",
    ("dsgd", "every"):
        "2f19b972ed352033a8f560c1dfccfc5ccd3449f79b8567fe03ed804dd0c5205d",
}


def fingerprint(trace) -> str:
    buf = io.StringIO()
    trace.to_csv(buf)
    h = hashlib.sha256(buf.getvalue().encode())
    h.update(trace.final_x.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm, cadence", sorted(GOLDEN))
def test_trajectory_fingerprint(algorithm, cadence):
    prob = synthesize("heterogeneous", 4, 6, 3, seed=11, family="logistic")
    mix = lazy_metropolis_weights(build_topology("ring", 4))
    every = dict(record_every=1, def33_every=1) if cadence == "every" else {}
    cfg = RunConfig(algorithm=algorithm, alpha=0.3, B=2, seed=4,
                    **BUDGETS[algorithm], **every)
    assert fingerprint(run(prob, mix, cfg)) == GOLDEN[(algorithm, cadence)]
