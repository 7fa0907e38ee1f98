"""Layered benchmark for decenopt.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from its
``src/``). The workload repeats until ``--seconds`` have passed, every run
of every repeat goes through the correctness gate in ``checks.py``, and the
last line of standard output is one JSON object:

- ``--trace 0``: end-to-end metrics (medians over repeats) with tracing off;
- ``--trace 1``: untraced and traced repeats alternate; per-layer metrics
  (medians over traced repeats) plus the tracing overhead.

See perfbench/README.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)      # before numpy loads BLAS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"     # scratch files, removed before exit
ALGORITHMS = ("gt-sarah", "dsgt", "dsgd")


def import_decenopt():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "decenopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no decenopt sources under {src}")
    sys.path.insert(0, str(src))
    import decenopt
    import decenopt.cli
    if Path(decenopt.__file__).resolve().parent != (src / "decenopt").resolve():
        raise SystemExit(f"perfbench: imported decenopt from {decenopt.__file__}, not {src}")
    return decenopt


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORKDIR, removed with WORKDIR (if empty) on exit."""
    WORKDIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORKDIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()


def environment(env_key: str) -> dict:
    """Recorded next to each result; none of it is gated."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_PIN,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_lines": src_lines,
        "numerics_key": env_key,
    }


def describe(name, values, unit):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return (f"  {name:<20} median={q2:.6g} {unit} p25={q1:.6g} "
            f"p75={q3:.6g} min={min(values):.6g} max={max(values):.6g} n={len(values)} "
            f"samples={[round(v, 6) for v in values]}")


def end_to_end(repeats, peak_rss_mb) -> tuple[dict, list[str]]:
    """Medians over many short repeats, which on a shared host are steadier
    than any single long measurement.

    wall_s, setup_s and the rates have one sample per repeat (a rate's
    interval is wall_s - setup_s of the same repeat); round_us.<algorithm>
    has one sample per engine.run call of that algorithm.
    """
    series = {"wall_s": [], "setup_s": [], "rounds_per_s": [], "grads_per_s": []}
    for alg in ALGORITHMS:
        series[f"round_us.{alg}"] = []
    for rep in repeats:
        jobs_s = rep.wall_s - rep.setup_s
        ok = [run for run in rep.runs if run.usable]
        series["wall_s"].append(rep.wall_s)
        series["setup_s"].append(rep.setup_s)
        series["rounds_per_s"].append(sum(run.counters()[1] for run in ok) / jobs_s)
        series["grads_per_s"].append(sum(run.counters()[0] for run in ok) / jobs_s)
        for run in ok:
            series[f"round_us.{run.algorithm}"].append(1e6 * run.run_s / run.counters()[1])
    metrics, lines = {}, []
    for name, values in series.items():
        unit = {"wall_s": "s", "setup_s": "s"}.get(name, "1/s" if name.endswith("per_s") else "us")
        if not values:          # every run of this algorithm failed the gate
            metrics[name] = {"value": None, "unit": unit}
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(describe(name, values, unit))
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    lines.append(f"  {'peak_rss_mb':<20} {peak_rss_mb:.6g} MB (whole process)")
    return metrics, lines


PER_LAYER_UNITS = {"calls": "count", "bytes": "bytes", "bytes_gathered": "bytes",
                   "bytes_read": "bytes", "overlap": "ratio", "rounds": "count",
                   "grads": "count"}


def per_layer(untraced, traced, layer_stats) -> tuple[dict, list[str]]:
    """Medians over traced repeats, plus the exact counters and the overhead."""
    series = {name: [stats[name] for stats in layer_stats] for name in layer_stats[0]}
    for i, name in enumerate(("algorithms.grads", "algorithms.rounds")):
        series[name] = [sum(run.counters()[i] for run in rep.runs if run.usable)
                        for rep in traced]
    metrics, lines = {}, []
    for name, values in series.items():
        unit = PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        # counts repeat exactly, so report one of them rather than a mean of two
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = {"value": pick(values), "unit": unit}
        lines.append(describe(name, values, unit))
    plain = statistics.median(rep.wall_s for rep in untraced)
    overhead = statistics.median(rep.wall_s for rep in traced) - plain
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(f"  {'trace.overhead_s':<20} {overhead:.6g} s (median traced wall_s "
                 f"minus median untraced wall_s {plain:.6g} s, repeats alternating)")
    return metrics, lines


def measure(decenopt, workload, seconds: float, trace: bool, gate) -> dict:
    """Repeat the workload until ``seconds`` have passed; gate every repeat.

    With ``trace``, untraced and traced repeats alternate, so the tracing
    overhead compares repeats taken under the same conditions.
    """
    out = {"untraced": [], "traced": [], "layer_stats": [], "spans": [], "skipped": []}
    tracer = tracing.Tracer()
    with workloads.RunLog(decenopt.engine) as log:
        start = perf_counter()
        while True:
            out["untraced"].append(workload.repeat(decenopt, log))
            gate.check(out["untraced"][-1], f"repeat {len(out['untraced'])}")
            if trace:
                tracer.install(decenopt)
                out["skipped"] = tracer.skipped
                try:
                    out["traced"].append(workload.repeat(decenopt, log))
                finally:
                    tracer.uninstall()
                out["spans"] = tracer.take()
                out["layer_stats"].append(tracing.aggregate(out["spans"]))
                gate.check(out["traced"][-1], f"traced repeat {len(out['traced'])}")
            if perf_counter() - start >= seconds:
                break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    decenopt = import_decenopt()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    env_key = checks.environment_key()
    pins = checks.load_pins(env_key, args.workload, args.seed)
    print("environment " + json.dumps(environment(env_key), sort_keys=True))
    print("reference fingerprints: " + ("pinned for this seed and environment" if pins else
                                        "none pinned here, so the first repeat of this run"))

    workload = workloads.make(args.workload, args.seed)
    gate = checks.Gate(pins)
    with scratch_dir(f"{args.workload}-") as workdir:
        workload.prepare(decenopt, workdir)
        result = measure(decenopt, workload, args.seconds, bool(args.trace), gate)

    untraced, traced = result["untraced"], result["traced"]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced repeats")
    print("fingerprints " + json.dumps(gate.fingerprints, sort_keys=True))
    for target in result["skipped"]:
        print(f"tracer: {target} not found, so its per-layer metrics read 0")
    if args.trace:
        metrics, lines = per_layer(untraced, traced, result["layer_stats"])
        layers = tracing.layer_times({name: m["value"] for name, m in metrics.items()})
        predicted = workloads.PREDICTED_DOMINANT[args.workload]
        verdict = "holds" if layers[0][0] == predicted else "does not hold"
        lines.append(f"  dominant layer: {layers[0][0]} (predicted {predicted}: {verdict})")
        lines += [f"    {layer:<40} {s:.4f} s" for layer, s in layers]
        lines.append("  spans of the last traced repeat (name, calls, s, self_s):")
        lines += [f"    {name:<40} {calls:<8} {s:.4f} {self_s:.4f}"
                  for name, calls, s, self_s in tracing.span_table(result["spans"])]
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, lines = end_to_end(untraced, peak_mb)
    for failure in gate.failures:
        print("FAILED " + failure)
    print(f"failed_ratio {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.6g}")
    print("\n".join(lines))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
