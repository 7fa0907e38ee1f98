"""Fast self-test of the benchmark's own machinery on tiny configs.

    python3 perfbench/selftest.py

Checks that spans nest (within their own thread, also with the CLI's
worker threads) with every self time inside its span, that the traced run
reproduces the untraced fingerprints, that a CSV with one byte flipped
counts as a failed run, that a divergence with no pinned outcome does
too, and that a traced function a refactor removed is skipped rather than
failing the run. Exits 0 when all hold.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from types import SimpleNamespace

import run as bench  # pins BLAS threads before numpy loads
from run import checks, tracing, workloads

decenopt = bench.import_decenopt()

TINY = """[experiment]
seed = 5
replicates = {replicates}

[topology]
kind = ring
n = 4

[data]
source = {source}
family = logistic
m = 20
p = 3

[gt-sarah]
alpha = 0.1
B = 2
q = 5
epochs = 3

[dsgt]
alpha = 0.1
B = 2
epochs = 3

[dsgd]
alpha = {dsgd_alpha}
B = 2
epochs = 3
"""


def traced_run(workload, workdir):
    gate = checks.Gate(None)
    workdir.mkdir(parents=True)
    workload.prepare(decenopt, workdir)
    result = bench.measure(decenopt, workload, seconds=0.0, trace=True, gate=gate)
    return gate, result


def check_nesting(spans):
    by_id = {sp.id: sp for sp in spans}
    assert spans, "no spans recorded"
    for sp in spans:
        assert 0.0 <= sp.self_s <= sp.s, f"{sp.name}: self {sp.self_s} outside [0, {sp.s}]"
        if sp.parent is None:
            continue
        parent = by_id[sp.parent]
        assert parent.thread == sp.thread, f"{sp.name} nested under another thread's span"
        assert parent.start <= sp.start and sp.end <= parent.end, \
            f"{sp.name} not inside its parent {parent.name}"


def check_traced_matches_untraced(result):
    untraced = {run.key: run.fingerprint for run in result["untraced"][0].runs}
    traced = {run.key: run.fingerprint for run in result["traced"][0].runs}
    assert untraced == traced, "traced fingerprints differ from untraced"


def check_flipped_byte_fails(gate, result):
    good = result["untraced"][0]
    victim = good.runs[0]
    pos = len(victim.csv) // 2
    flipped = victim.csv[:pos] + bytes([victim.csv[pos] ^ 0x01]) + victim.csv[pos + 1:]
    tampered = workloads.Repeat(good.wall_s, good.setup_s,
                                [replace(victim, csv=flipped)] + good.runs[1:])
    fresh = checks.Gate(gate.reference)
    fresh.check(tampered, "tampered")
    assert (fresh.failed, fresh.attempted) == (1, len(good.runs)), fresh.failures


def check_missing_target_skipped():
    """A target a refactor removed is skipped, and its metrics read 0."""
    def sample_indices():
        return None
    package = SimpleNamespace(algorithms=SimpleNamespace(sample_indices=sample_indices))
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        assert package.algorithms.sample_indices is not sample_indices, "target not wrapped"
        assert len(tracer.skipped) == len(tracing.targets()) - 1, tracer.skipped
        assert "decenopt.engine.run" in tracer.skipped, tracer.skipped
    finally:
        tracer.uninstall()
    assert package.algorithms.sample_indices is sample_indices, "original not restored"
    stats = tracing.aggregate([])
    assert all(value == 0 for value in stats.values()), stats


def main() -> int:
    check_missing_target_skipped()
    with bench.scratch_dir("selftest-") as work:
        inproc = workloads.InProcess(TINY.format(replicates=1, source="synthetic",
                                                 dsgd_alpha=0.1))
        gate, result = traced_run(inproc, work / "inproc")
        assert gate.failed == 0, gate.failures
        check_nesting(result["spans"])
        check_traced_matches_untraced(result)
        check_flipped_byte_fails(gate, result)

        cli = workloads.CommandLine(TINY.format(replicates=2, source="{data}", dsgd_alpha=0.1),
                                    dict(seed=5, rows=80, p=6, nnz=3), workers=2)
        gate, result = traced_run(cli, work / "cli")
        assert gate.failed == 0, gate.failures
        check_nesting(result["spans"])
        check_traced_matches_untraced(result)
        threads = {sp.thread for sp in result["spans"] if sp.name == "engine.run"}
        main_thread = {sp.thread for sp in result["spans"] if sp.name == "cli.main"}
        assert threads and not threads & main_thread, "jobs did not run on worker threads"

        diverging = workloads.InProcess(TINY.format(replicates=1, source="synthetic",
                                                    dsgd_alpha=1e15))
        gate, _ = traced_run(diverging, work / "diverging")
        assert gate.failed == 2 and all("dsgd_r0" in f for f in gate.failures), gate.failures
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
