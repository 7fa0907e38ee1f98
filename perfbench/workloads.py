"""The benchmark's workloads: inputs made from a seed, and one timed repeat.

Each workload is an experiment config (INI text, the format users write).
The in-process workloads parse it with ``cli.parse_experiment``, build the
topology, mixing matrix and problem, then call ``engine.run`` once per
section and write each trace as CSV, as a library user would. The CLI
workload hands the same kind of file to ``cli.main(["run", ...])``.

Why these three (each puts a different layer on top):
- paper-sweep: the paper's own setting (a cut-down acceptance criterion 09:
  logistic, heterogeneous, n=10, m=1000, p=10, exponential graph, B=1,
  alpha grid x three algorithms, recording off). Rounds are small-array
  Python overhead, most of it index sampling, then per-call oracle cost.
- wide-minibatch: n=20, m=2000, p=128, B=64, q=ceil(m/B). The local oracle
  (minibatch and batch gradients) dominates; sampling is a minor share.
- cli-libsvm: the user's real path. A LIBSVM file is parsed in pure Python,
  the jobs run on the CLI's thread pool with default recording (so the
  full-gradient recorder takes most of the time) and write CSV files.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import RunOutput

PAPER_ALPHAS = (0.01, 0.03, 0.1, 0.3, 1.0)
RECORDING_OFF = 10 ** 9


@dataclass
class Repeat:
    """One timed execution of a workload."""

    wall_s: float
    setup_s: float
    runs: list            # RunOutput per expected job, in config order


class RunLog:
    """Wraps ``engine.run`` to time each call and keep what it produced.

    Installed for the whole benchmark, traced or not: it is one wrapper per
    run, and it is where final_x and the run's wall time come from when the
    CLI owns the call.
    """

    def __init__(self, engine):
        self.engine = engine
        self.records = []

    def __enter__(self):
        self.original = self.engine.__dict__["run"]
        original, records, DivergenceError = self.original, self.records, self.engine.DivergenceError

        def logged(problem, weights, config):
            start = perf_counter()
            trace, status = None, "ok"
            try:
                trace = original(problem, weights, config)
                return trace
            except DivergenceError as exc:
                trace, status = exc.trace, "diverged"
                raise
            except Exception as exc:
                status = f"error: {type(exc).__name__}: {exc}"
                raise
            finally:
                records.append((config, problem.n, problem.m, start, perf_counter(),
                                trace, status))

        self.engine.run = logged
        return self

    def __exit__(self, *exc):
        self.engine.run = self.original

    def take(self):
        out = list(self.records)
        self.records.clear()
        return out


def run_key(label: str, replicate: int) -> str:
    return f"{label.replace(':', '-').replace('/', '-')}_r{replicate}"


def _outputs(cfg, log_records, csvs: dict) -> list:
    """Match logged engine.run calls to config sections and CSV bytes."""
    labels = {}
    for label, rc in cfg.algorithms:
        labels[(rc.algorithm, repr(rc.alpha), rc.B, rc.q, rc.epochs)] = label
    outs = {}
    for config, n, m, start, end, trace, status in log_records:
        label = labels[(config.algorithm, repr(config.alpha), config.B, config.q, config.epochs)]
        key = run_key(label, config.replicate)
        final_x = b"" if trace is None or trace.final_x is None else trace.final_x.tobytes()
        outs[key] = RunOutput(key=key, algorithm=config.algorithm, n=n, m=m, B=config.B,
                              q=config.q, epochs=config.epochs, run_s=end - start,
                              status=status, csv=csvs.get(key, b""), final_x=final_x)
    result = []
    for label, rc in cfg.algorithms:
        for r in range(cfg.replicates):
            key = run_key(label, r)
            result.append(outs.get(key) or RunOutput(
                key=key, algorithm=rc.algorithm, n=0, m=0, B=rc.B, q=rc.q,
                epochs=rc.epochs or 0.0, run_s=0.0, status="error: did not run"))
    return result


class InProcess:
    """Library path: parse the config, build the world, run every section."""

    def __init__(self, ini_text: str):
        self.ini_text = ini_text

    def prepare(self, decenopt, workdir: Path) -> None:
        self.ini_path = workdir / "experiment.ini"
        self.ini_path.write_text(self.ini_text)

    def repeat(self, decenopt, log: RunLog) -> Repeat:
        cli, engine, graph = decenopt.cli, decenopt.engine, decenopt.graph
        t0 = perf_counter()
        cfg = cli.parse_experiment(str(self.ini_path))
        mix = graph.lazy_metropolis_weights(cfg.topology())
        problem = cfg.problem()
        t1 = perf_counter()
        csvs = {}
        for label, rc in cfg.algorithms:
            try:
                trace = engine.run(problem, mix, rc)
            except engine.DivergenceError as exc:
                trace = exc.trace
            except Exception:       # recorded by the RunLog as a failed run
                continue
            buf = io.StringIO()
            trace.to_csv(buf)
            csvs[run_key(label, rc.replicate)] = buf.getvalue().encode()
        t2 = perf_counter()
        return Repeat(wall_s=t2 - t0, setup_s=t1 - t0, runs=_outputs(cfg, log.take(), csvs))


class CommandLine:
    """User path: ``decenopt run --config ... --out ... --workers W``."""

    def __init__(self, ini_text: str, libsvm: dict, workers: int):
        self.ini_text = ini_text
        self.libsvm = libsvm
        self.workers = workers

    def prepare(self, decenopt, workdir: Path) -> None:
        self.workdir = workdir
        data_path = workdir / "data.libsvm"
        write_libsvm(data_path, **self.libsvm)
        self.ini_path = workdir / "experiment.ini"
        self.ini_path.write_text(self.ini_text.format(data=data_path))
        self.config = decenopt.cli.parse_experiment(str(self.ini_path))
        self.count = 0

    def repeat(self, decenopt, log: RunLog) -> Repeat:
        cli = decenopt.cli
        out = self.workdir / f"out{self.count}"
        self.count += 1
        argv = ["run", "--config", str(self.ini_path), "--out", str(out),
                "--workers", str(self.workers)]
        printed = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            try:
                code = cli.main(argv)
            except Exception as exc:    # a crash fails every job of this repeat
                code = f"a traceback ({type(exc).__name__}: {exc})"
        t1 = perf_counter()
        records = log.take()
        csvs = {p.stem: p.read_bytes() for p in out.glob("*.csv")} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        # set-up is everything cli.main does before its first job starts
        first = min((rec[3] for rec in records), default=t1)
        runs = _outputs(self.config, records, csvs)
        if code != cli.EXIT_OK:
            reason = f"error: decenopt run exited {code}: {printed.getvalue().strip()[-200:]}"
            for run in runs:
                run.status = reason
        return Repeat(wall_s=t1 - t0, setup_s=first - t0, runs=runs)


def write_libsvm(path: Path, seed: int, rows: int, p: int, nnz: int) -> None:
    """Sparse two-class data: nnz nonzeros per row, labels from a hidden plane."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=p)
    idx = np.argsort(rng.random((rows, p)), axis=1)[:, :nnz]
    idx.sort(axis=1)
    val = rng.normal(size=(rows, nnz))
    labels = np.where(np.einsum("rk,rk->r", val, w[idx]) > 0, 1, -1)
    with open(path, "w") as f:
        for y, ix, vx in zip(labels, idx, val):
            f.write(f"{y} " + " ".join(f"{i + 1}:{v:.6f}" for i, v in zip(ix, vx)) + "\n")


def _paper_sweep_ini(seed: int) -> str:
    sections = []
    for alg in ("gt-sarah", "dsgt", "dsgd"):
        for alpha in PAPER_ALPHAS:
            q = "q = 1000\n" if alg == "gt-sarah" else ""
            sections.append(f"[{alg}:a{alpha}]\nalpha = {alpha}\nB = 1\n{q}epochs = 1\n")
    return (f"[experiment]\nseed = {seed}\nrecord_every = {RECORDING_OFF}\n\n"
            "[topology]\nkind = exponential\nn = 10\n\n"
            "[data]\nsource = synthetic\nfamily = logistic\nkind = heterogeneous\n"
            "m = 1000\np = 10\n\n" + "\n".join(sections))


def _wide_minibatch_ini(seed: int) -> str:
    sections = "".join(f"[{alg}]\nalpha = 0.1\nB = 64\nq = 32\nepochs = 30\n\n"
                       for alg in ("gt-sarah", "dsgt", "dsgd"))
    return (f"[experiment]\nseed = {seed}\nrecord_every = {RECORDING_OFF}\n\n"
            "[topology]\nkind = exponential\nn = 20\n\n"
            "[data]\nsource = synthetic\nfamily = logistic\nkind = heterogeneous\n"
            "m = 2000\np = 128\n\n" + sections)


def _cli_libsvm_ini(seed: int) -> str:
    sections = "".join(f"[{alg}]\nalpha = 0.05\nB = 4\n{q}epochs = 2\n\n"
                       for alg, q in (("gt-sarah", "q = 250\n"), ("dsgt", ""), ("dsgd", "")))
    return (f"[experiment]\nseed = {seed}\nreplicates = 2\n\n"
            "[topology]\nkind = ring\nn = 16\n\n"
            "[data]\nsource = {data}\nformat = libsvm\n\n" + sections)


def make(name: str, seed: int):
    """The workload called ``name``, with its inputs derived from ``seed``."""
    if name == "paper-sweep":
        return InProcess(_paper_sweep_ini(seed))
    if name == "wide-minibatch":
        return InProcess(_wide_minibatch_ini(seed))
    if name == "cli-libsvm":
        return CommandLine(_cli_libsvm_ini(seed),
                           dict(seed=seed, rows=16000, p=100, nnz=20), workers=2)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-sweep", "wide-minibatch", "cli-libsvm")

# The layer each workload was built to put on top (names as in tracer.LAYERS).
PREDICTED_DOMINANT = {"paper-sweep": "sampling", "wide-minibatch": "local oracle",
                      "cli-libsvm": "recorder"}
