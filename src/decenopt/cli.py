"""Command line entry point: weights / run / plan subcommands.

Experiments are driven by an INI-style config with [experiment],
[topology] and [data] sections plus one section per algorithm (section
name = algorithm, optionally suffixed ":tag" to run the same algorithm
under several settings). Exit codes: 0 success, 1 config error,
2 divergence guard.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import algorithms, data, engine, graph, theory
from .objective import LogisticProblem

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weights

def _parse_size(token: str):
    if "x" in token:
        r, c = token.split("x", 1)
        return int(r) * int(c), int(r), int(c)
    return int(token), None, None


def _build_topology_from_spec(kind: str, size: str) -> graph.Topology:
    if kind == "custom":
        return graph.read_edge_list(size)
    n, rows, cols = _parse_size(size)
    return graph.build_topology(kind, n, rows=rows, cols=cols)


def cmd_weights(args) -> int:
    try:
        topo = _build_topology_from_spec(args.kind, args.size)
        mix = graph.lazy_metropolis_weights(topo)
        report = graph.validate_mixing(mix.entries)
        print(f"kind={topo.kind}")
        print(f"n={topo.n}")
        print(f"edges={len(topo.edges)}")
        print(f"lambda={mix.lam!r}")
        print(f"spectral_gap={mix.spectral_gap!r}")
        for line in report.lines():
            print(line)
        if args.export_csv:
            graph.write_weights_csv(mix.entries, args.export_csv)
            print(f"wrote {args.export_csv}")
        if args.export_edges:
            graph.write_edge_list(topo, args.export_edges)
            print(f"wrote {args.export_edges}")
    except (ValueError, OSError) as exc:    # a bad spec or edge list, an unwritable export
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment config

# The config schema: each key with its type and default (None: unset), in
# dump order. An algorithm section passes only the keys it sets, so RunConfig's
# own defaults apply; [data] keeps its file or its synthetic keys, by source.
_SECTIONS = {
    "experiment": {"seed": (int, 0), "replicates": (int, 1), "out": (str, "runs"),
                   "workers": (int, 1), "record_every": (int, None)},
    "topology": {"kind": (str, None), "n": (int, None), "path": (str, None),
                 "rows": (int, None), "cols": (int, None)},
    "data": {"source": (str, "synthetic"), "reg": (float, 1e-3), "seed": (int, None),
             "kind": (str, "heterogeneous"), "family": (str, "quadratic"),
             "m": (int, None), "p": (int, None), "heterogeneity": (float, 1.0),
             "format": (str, "libsvm"), "label_rule": (str, "sign"),
             "max_samples": (int, None)},
}
# the [topology] keys each kind reads; custom takes its n from the edge list
_KIND_KEYS = {"grid": ("kind", "n", "rows", "cols"), "custom": ("kind", "path"),
              **dict.fromkeys(("complete", "ring", "path", "exponential"), ("kind", "n"))}
_SYNTHETIC_KEYS = ("kind", "family", "m", "p", "heterogeneity")
_FILE_KEYS = ("format", "label_rule", "max_samples")


def auto_or_float(raw: str):
    return raw if raw == "auto" else float(raw)


_ALGORITHM_KEYS = {"alpha": (auto_or_float, None), "B": (int, None), "q": (int, None),
                   "S": (int, None), "steps": (int, None), "record_every": (int, None),
                   "epochs": (float, None)}


@dataclass
class ExperimentConfig:
    """Parsed experiment: topology + data + one RunConfig per algorithm."""

    topology_spec: dict         # [topology] keys; a custom graph ("graph") and its n come from its file
    data_spec: dict             # [data] keys that apply to its source
    algorithms: list            # (label, RunConfig) pairs
    seed: int
    replicates: int
    out: str
    workers: int
    record_every: int | None

    def __post_init__(self):
        for key in ("replicates", "workers"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")

    def topology(self) -> graph.Topology:
        t = self.topology_spec
        if t["kind"] == "custom":
            return t["graph"]
        return graph.build_topology(t["kind"], t["n"], rows=t["rows"], cols=t["cols"])

    def problem(self):
        d, n = self.data_spec, self.topology_spec["n"]
        if d["source"] == "synthetic":
            return data.synthesize(d["kind"], n, d["m"], d["p"], seed=d["seed"],
                                   family=d["family"], heterogeneity=d["heterogeneity"],
                                   reg=d["reg"])
        raw = data.parse_libsvm(d["source"]) if d["format"] == "libsvm" else data.parse_csv(d["source"])
        rule = _label_rule(d["label_rule"])
        dataset, _ = data.prepare(raw, n, seed=d["seed"], label_rule=rule, reg=d["reg"],
                                  max_samples=d["max_samples"])
        return LogisticProblem(dataset)


def _label_rule(spec: str):
    if spec == "sign":
        return data.sign_rule
    if spec.startswith("pair:"):
        try:
            pos, neg = map(float, spec[5:].split(","))
        except ValueError:          # not two numbers
            pass
        else:
            if math.isfinite(pos) and math.isfinite(neg):     # NaN matches no label
                return data.pair_rule(pos, neg)
    raise ConfigError(f"unknown label rule {spec!r} (use 'sign' or 'pair:POS,NEG')")


def _read(cp, section, table) -> dict:
    """Every key of ``table`` as [section] sets it, cast to its type, or else its default."""
    names = {key.lower(): key for key in table}
    values = {key: default for key, (_, default) in table.items()}
    for key, raw in cp.items(section) if cp.has_section(section) else ():
        if key not in names:
            raise ConfigError(f"section [{section}]: unknown key {key!r}")
        cast = table[names[key]][0]
        try:
            values[names[key]] = cast(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from None
    return values


def parse_experiment(path_or_file) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"))
    try:
        with data._open_text(path_or_file) as f:
            cp.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path_or_file}") from None
    except configparser.Error as exc:       # duplicate key, no section header, ...
        raise ConfigError(" ".join(str(exc).split())) from None
    for sec in ("topology", "data"):
        if not cp.has_section(sec):
            raise ConfigError(f"missing [{sec}] section")
    exp = _read(cp, "experiment", _SECTIONS["experiment"])

    topo = _read(cp, "topology", _SECTIONS["topology"])
    if topo["kind"] is None:
        raise ConfigError("[topology] needs kind")
    if topo["kind"] not in _KIND_KEYS:
        raise ConfigError(f"unknown topology kind {topo['kind']!r}; "
                          f"expected one of {graph.TOPOLOGY_KINDS}")
    for key, value in topo.items():
        if value is not None and key not in _KIND_KEYS[topo["kind"]]:
            raise ConfigError(f"section [topology]: key {key!r} does not apply to kind = {topo['kind']}")
    if topo["kind"] == "custom":
        if topo["path"] is None:
            raise ConfigError("[topology] kind=custom needs path")
        if not os.path.exists(topo["path"]):
            raise ConfigError(f"topology edge list not found: {topo['path']}")
        topo["graph"] = graph.read_edge_list(topo["path"])
        topo["n"] = topo["graph"].n
    elif topo["n"] is None:
        raise ConfigError("[topology] needs n")

    spec = _read(cp, "data", _SECTIONS["data"])
    if spec["seed"] is None:
        spec["seed"] = exp["seed"]
    for sec, seed in (("experiment", exp["seed"]), ("data", spec["seed"])):
        if seed < 0:        # numpy seeds only nonnegative ints
            raise ConfigError(f"[{sec}] seed must be at least 0, got {seed}")
    synthetic = spec["source"] == "synthetic"
    for key in _FILE_KEYS if synthetic else _SYNTHETIC_KEYS:
        del spec[key]
    if synthetic and (spec["m"] is None or spec["p"] is None):
        raise ConfigError("[data] synthetic source needs m and p")
    if not synthetic and spec["format"] not in ("libsvm", "csv"):
        raise ConfigError(f"[data] format = {spec['format']!r} is not 'libsvm' or 'csv'")
    if not synthetic and not os.path.exists(spec["source"]):
        raise ConfigError(f"data file not found: {spec['source']}")

    algs = []
    for sec in cp.sections():
        if sec in _SECTIONS:
            continue
        name = sec.split(":", 1)[0]
        if name not in algorithms.ALGORITHMS:
            raise ConfigError(f"section [{sec}] does not name an algorithm "
                              f"(expected one of {algorithms.ALGORITHMS})")
        given = {key: v for key, v in _read(cp, sec, _ALGORITHM_KEYS).items() if v is not None}
        given.setdefault("record_every", exp["record_every"])
        try:
            rc = algorithms.RunConfig(algorithm=name, seed=exp["seed"], **given)
        except ValueError as exc:
            raise ConfigError(f"section [{sec}]: {exc}") from None
        algs.append((sec, rc))
    if not algs:
        raise ConfigError("config defines no algorithm sections")
    return ExperimentConfig(topology_spec=topo, data_spec=spec, algorithms=algs, **exp)


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text that re-parses to an equivalent experiment."""
    topo = dict(cfg.topology_spec)
    if topo["kind"] == "custom":
        topo["n"] = topo["graph"] = None        # read from the edge list on parse
    sections = [("experiment", {key: getattr(cfg, key) for key in _SECTIONS["experiment"]}),
                ("topology", topo), ("data", cfg.data_spec)]
    sections += [(label, {key: getattr(rc, key) for key in _ALGORITHM_KEYS})
                 for label, rc in cfg.algorithms]
    cp = configparser.ConfigParser(interpolation=None)
    for sec, values in sections:
        cp[sec] = {key: repr(v) if isinstance(v, float) else str(v)
                   for key, v in values.items() if v is not None}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _safe_name(label: str) -> str:
    return label.replace(":", "-").replace("/", "-")


def cmd_run(args) -> int:
    try:
        cfg = parse_experiment(args.config)
        overrides = {key: getattr(args, key) for key in _SECTIONS["experiment"]
                     if getattr(args, key, None) is not None}     # --seed, --out, ...
        cfg = replace(cfg, **overrides)     # re-checks replicates and workers
        cfg.algorithms = [(lbl, replace(rc, seed=cfg.seed)) for lbl, rc in cfg.algorithms]
        topo = cfg.topology()
        mix = graph.lazy_metropolis_weights(topo)
        problem = cfg.problem()
        for label, rc in cfg.algorithms:
            try:
                engine.resolve(rc, problem, mix.lam)
            except ValueError as exc:
                raise ConfigError(f"section [{label}]: {exc}") from None
        if args.dump_config:        # every check above has passed; no job starts
            sys.stdout.write(dump_config(cfg))
            return EXIT_OK
        os.makedirs(cfg.out, exist_ok=True)     # a file in the way is a config error
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    jobs = [(label, replace(rc, replicate=r))
            for label, rc in cfg.algorithms for r in range(cfg.replicates)]

    def one(job):
        # a diverged job keeps its partial trace; the other jobs still finish
        label, rc = job
        try:
            return label, rc.replicate, engine.run(problem, mix, rc), None
        except engine.DivergenceError as exc:
            return label, rc.replicate, exc.trace, exc

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]

    print(f"{'algorithm':<16}{'replicate':>10}{'epochs':>10}{'final_gap':>14}")
    finals = {}
    diverged = False
    for label, rep, trace, exc in results:
        trace.to_csv(os.path.join(cfg.out, f"{_safe_name(label)}_r{rep}.csv"))
        if exc is not None:
            print(f"diverged: section [{label}] replicate {rep}: {exc}", file=sys.stderr)
            diverged = True
            continue
        fin = trace.final
        finals.setdefault(label, []).append(fin.stationary_gap)
        print(f"{label:<16}{rep:>10}{fin.epochs:>10.2f}{fin.stationary_gap:>14.6g}")
    if cfg.replicates > 1:
        for label, gaps in finals.items():
            print(f"{label:<16}{'mean':>10}{'':>10}{sum(gaps) / len(gaps):>14.6g}")
    return EXIT_DIVERGED if diverged else EXIT_OK


# ---------------------------------------------------------------------------
# plan

def cmd_plan(args) -> int:
    try:
        B_R, q_R = theory.recommend_parameters(args.n, args.m, args.lam, "gradient")
        B_C, q_C = theory.recommend_parameters(args.n, args.m, args.lam, "communication")
        B, q = (B_R, q_R) if args.goal == "gradient" else (B_C, q_C)
        est = theory.predicted_complexity(args.n, args.m, B, args.lam,
                                          Delta=args.delta, epsilon=args.epsilon)
        alpha_c = theory.max_stepsize(args.n, B, q, args.lam, args.L, "complexity")
        alpha_a = theory.max_stepsize(args.n, B, q, args.lam, args.L, "asymptotic")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"n={args.n}")
    print(f"m={args.m}")
    print(f"lambda={args.lam!r}")
    print(f"epsilon={args.epsilon!r}")
    print(f"goal={args.goal}")
    print(f"regime={est.regime}")
    print(f"B_gradient={B_R}")
    print(f"B_communication={B_C}")
    print(f"B={B}")
    print(f"q={q}")
    print(f"alpha_complexity={alpha_c!r}")
    print(f"alpha_asymptotic={alpha_a!r}")
    print(f"grad_computations={est.H!r}")
    print(f"comm_rounds={est.K!r}")
    print("note=grad/comm totals assume Delta="
          f"{args.delta!r}; supply --delta from problem data for calibrated numbers")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="decenopt",
                                 description="decentralized stochastic optimization lab")
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="build a topology and report its mixing spectrum")
    w.add_argument("kind", help="complete|ring|path|grid|exponential|custom")
    w.add_argument("size", help="node count, RxC for grid, or edge-list path for custom")
    w.add_argument("--export-csv", help="write the mixing matrix as CSV")
    w.add_argument("--export-edges", help="write the topology edge list")
    w.set_defaults(func=cmd_weights)

    r = sub.add_parser("run", help="run the experiment described by a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--out", help="output directory (overrides config)")
    r.add_argument("--seed", type=int,
                   help="master seed of the sampling streams (overrides [experiment] seed; "
                        "[data] seed still defaults to the file's [experiment] seed)")
    r.add_argument("--replicates", type=int, help="replicate count (overrides config)")
    r.add_argument("--workers", type=int, help="threads running the jobs (overrides config)")
    r.add_argument("--dump-config", action="store_true",
                   help="run every check a run makes, echo the canonical config and exit")
    r.set_defaults(func=cmd_run)

    p = sub.add_parser("plan", help="recommended parameters and predicted complexity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--goal", choices=("gradient", "communication"), default="gradient")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(func=cmd_plan)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
