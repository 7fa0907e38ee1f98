"""Golden trajectory fingerprints: refactors of the round code must not move a bit.

Each case runs one algorithm on a tiny logistic problem and hashes the CSV
bytes followed by ``final_x.tobytes()``. ``GOLDEN`` starts every node at the
origin; ``GOLDEN_X0`` starts them at a common nonzero x0 on three nodes,
where the mean of the equal rows differs from x0 in the last bit. The
hashes were recorded with Python 3.11.7 and numpy 2.4.6 on x86_64; another
platform or numpy build may round differently, so a mismatch there is not
by itself a regression.
"""

import hashlib
import io

import numpy as np
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

# Recorded before def33_term shared one full gradient between equal rows, so
# these pin that the sharing changed no bit of a run that starts at x0.
GOLDEN_X0 = {
    ("gt-sarah", "default"):
        "48ede3a0fe94e4725eeaa380434e4ccb2fa3e1920a0dc60c5c22c6c5f0d1874f",
    ("gt-sarah", "every"):
        "13f54c6c9bda01f5d895e87685338737ebcc68d035535bc91386f3ee8956ff2d",
    ("dsgt", "default"):
        "d8d8e306b7dd753b1837b8f916b716e6e22e9188dc4b5e520acd49c232c585bd",
    ("dsgt", "every"):
        "e6669fb2d36d56c58c1beb860bec5006423bc0a5cb500b4e536c5f6bf570a199",
    ("dsgd", "default"):
        "582b9329e8d278c8f33d64ff07f739c96214ac892bcc707af7dfdbee054bf44c",
    ("dsgd", "every"):
        "351d2b9bbf6c4a50dc067a7c5f4a9f96e066a88c679b94ae621c892fc90b5d48",
}
X0 = np.array([0.1, -0.7, 1 / 3])


def fingerprint(trace) -> str:
    buf = io.StringIO()
    trace.to_csv(buf)
    h = hashlib.sha256(buf.getvalue().encode())
    h.update(trace.final_x.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm, cadence", sorted(GOLDEN))
def test_trajectory_fingerprint(algorithm, cadence):
    assert fingerprint(golden_run(algorithm, cadence, n=4)) == GOLDEN[(algorithm, cadence)]


@pytest.mark.parametrize("algorithm, cadence", sorted(GOLDEN_X0))
def test_trajectory_fingerprint_from_nonzero_x0(algorithm, cadence):
    assert np.any(np.tile(X0, (3, 1)).mean(axis=0) != X0)
    trace = golden_run(algorithm, cadence, n=3, x0=X0)
    assert fingerprint(trace) == GOLDEN_X0[(algorithm, cadence)]


def golden_run(algorithm, cadence, n, x0=None):
    prob = synthesize("heterogeneous", n, 6, 3, seed=11, family="logistic")
    mix = lazy_metropolis_weights(build_topology("ring", n))
    every = dict(record_every=1, def33_every=1) if cadence == "every" else {}
    cfg = RunConfig(algorithm=algorithm, alpha=0.3, B=2, seed=4, x0=x0,
                    **BUDGETS[algorithm], **every)
    return run(prob, mix, cfg)
