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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import algorithms, data, engine, graph

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment config

_RESERVED_SECTIONS = ("experiment", "topology", "data")


@dataclass
class ExperimentConfig:
    """Parsed experiment: topology + data + one RunConfig per algorithm."""

    topology_kind: str
    topology_n: int
    topology_rows: int | None
    topology_cols: int | None
    topology_path: str | None
    data_spec: dict
    algorithms: list            # (label, RunConfig) pairs
    seed: int
    replicates: int
    out: str
    workers: int
    record_every: int | None

    def topology(self) -> graph.Topology:
        if self.topology_kind == "custom":
            return graph.read_edge_list(self.topology_path)
        return graph.build_topology(self.topology_kind, self.topology_n,
                                    rows=self.topology_rows, cols=self.topology_cols)

    def problem(self):
        d = self.data_spec
        if d["source"] == "synthetic":
            return data.synthesize(d["kind"], self.topology_n, d["m"], d["p"],
                                   seed=d["data_seed"], family=d["family"],
                                   heterogeneity=d["heterogeneity"], reg=d["reg"])
        raw = data.parse_libsvm(d["path"]) if d["format"] == "libsvm" else data.parse_csv(d["path"])
        rule = _label_rule(d["label_rule"])
        dataset, _ = data.prepare(raw, self.topology_n, seed=d["data_seed"],
                                  label_rule=rule, reg=d["reg"],
                                  max_samples=d["max_samples"])
        from .objective import LogisticProblem
        return LogisticProblem(dataset)


def _label_rule(spec: str):
    if spec == "sign":
        return data.sign_rule
    if spec.startswith("pair:"):
        pos, neg = spec[5:].split(",")
        return data.pair_rule(float(pos), float(neg))
    raise ConfigError(f"unknown label rule {spec!r} (use 'sign' or 'pair:POS,NEG')")


def _get(cp, section, key, default=None, cast=str):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {cast.__name__}") from None
    return default


def parse_experiment(path_or_file) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"))
    if hasattr(path_or_file, "read"):
        cp.read_file(path_or_file)
    else:
        if not os.path.exists(path_or_file):
            raise ConfigError(f"config file not found: {path_or_file}")
        cp.read(path_or_file)
    for sec in ("topology", "data"):
        if not cp.has_section(sec):
            raise ConfigError(f"missing [{sec}] section")

    kind = _get(cp, "topology", "kind")
    if kind is None:
        raise ConfigError("[topology] needs kind")
    rows = _get(cp, "topology", "rows", cast=int)
    cols = _get(cp, "topology", "cols", cast=int)
    path = _get(cp, "topology", "path")
    if kind == "custom":
        if path is None:
            raise ConfigError("[topology] kind=custom needs path")
        if not os.path.exists(path):
            raise ConfigError(f"topology edge list not found: {path}")
        n = graph.read_edge_list(path).n
    else:
        n = _get(cp, "topology", "n", cast=int)
        if n is None:
            raise ConfigError("[topology] needs n")

    seed = _get(cp, "experiment", "seed", 0, int)
    src = _get(cp, "data", "source", "synthetic")
    spec = {"source": src,
            "reg": _get(cp, "data", "reg", 1e-3, float),
            "data_seed": _get(cp, "data", "seed", seed, int)}
    if src == "synthetic":
        spec.update(kind=_get(cp, "data", "kind", "heterogeneous"),
                    family=_get(cp, "data", "family", "quadratic"),
                    m=_get(cp, "data", "m", cast=int),
                    p=_get(cp, "data", "p", cast=int),
                    heterogeneity=_get(cp, "data", "heterogeneity", 1.0, float))
        if spec["m"] is None or spec["p"] is None:
            raise ConfigError("[data] synthetic source needs m and p")
    else:
        spec.update(path=src,
                    format=_get(cp, "data", "format", "libsvm"),
                    label_rule=_get(cp, "data", "label_rule", "sign"),
                    max_samples=_get(cp, "data", "max_samples", cast=int))
        if not os.path.exists(src):
            raise ConfigError(f"data file not found: {src}")

    record_every = _get(cp, "experiment", "record_every", cast=int)
    algs = []
    for sec in cp.sections():
        if sec in _RESERVED_SECTIONS:
            continue
        name = sec.split(":", 1)[0]
        if name not in algorithms.ALGORITHMS:
            raise ConfigError(f"section [{sec}] does not name an algorithm "
                              f"(expected one of {algorithms.ALGORITHMS})")
        alpha_raw = _get(cp, sec, "alpha", "auto")
        alpha = alpha_raw if alpha_raw == "auto" else float(alpha_raw)
        try:
            rc = algorithms.RunConfig(
                algorithm=name, alpha=alpha,
                B=_get(cp, sec, "B", 1, int),
                q=_get(cp, sec, "q", cast=int),
                S=_get(cp, sec, "S", cast=int),
                steps=_get(cp, sec, "steps", cast=int),
                epochs=_get(cp, sec, "epochs", cast=float),
                epsilon=_get(cp, sec, "epsilon", 0.1, float),
                record_every=_get(cp, sec, "record_every", record_every, int),
                seed=seed)
        except ValueError as exc:
            raise ConfigError(f"section [{sec}]: {exc}") from None
        algs.append((sec, rc))
    if not algs:
        raise ConfigError("config defines no algorithm sections")

    return ExperimentConfig(
        topology_kind=kind, topology_n=n, topology_rows=rows, topology_cols=cols,
        topology_path=path, data_spec=spec, algorithms=algs, seed=seed,
        replicates=_get(cp, "experiment", "replicates", 1, int),
        out=_get(cp, "experiment", "out", "runs"),
        workers=_get(cp, "experiment", "workers", 1, int),
        record_every=record_every)


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical INI text that re-parses to an equivalent experiment."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["experiment"] = {"seed": str(cfg.seed), "replicates": str(cfg.replicates),
                        "out": cfg.out, "workers": str(cfg.workers)}
    if cfg.record_every is not None:
        cp["experiment"]["record_every"] = str(cfg.record_every)
    topo = {"kind": cfg.topology_kind}
    if cfg.topology_kind == "custom":
        topo["path"] = cfg.topology_path
    else:
        topo["n"] = str(cfg.topology_n)
    if cfg.topology_rows is not None:
        topo["rows"] = str(cfg.topology_rows)
        topo["cols"] = str(cfg.topology_cols)
    cp["topology"] = topo
    d = dict(cfg.data_spec)
    sec = {"source": d["source"] if d["source"] == "synthetic" else d["path"],
           "reg": repr(d["reg"]), "seed": str(d["data_seed"])}
    if d["source"] == "synthetic":
        sec.update(kind=d["kind"], family=d["family"], m=str(d["m"]), p=str(d["p"]),
                   heterogeneity=repr(d["heterogeneity"]))
    else:
        sec.update(format=d["format"], label_rule=d["label_rule"])
        if d["max_samples"] is not None:
            sec["max_samples"] = str(d["max_samples"])
    cp["data"] = sec
    for label, rc in cfg.algorithms:
        alg = {"alpha": rc.alpha if isinstance(rc.alpha, str) else repr(rc.alpha),
               "B": str(rc.B), "epsilon": repr(rc.epsilon)}
        for key in ("q", "S", "steps", "record_every"):
            if getattr(rc, key) is not None:
                alg[key] = str(getattr(rc, key))
        if rc.epochs is not None:
            alg["epochs"] = repr(rc.epochs)
        cp[label] = alg
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _safe_name(label: str) -> str:
    return label.replace(":", "-").replace("/", "-")


def cmd_run(args) -> int:
    try:
        cfg = parse_experiment(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.algorithms = [(lbl, replace(rc, seed=args.seed)) for lbl, rc in cfg.algorithms]
        if args.replicates is not None:
            cfg.replicates = args.replicates
        if args.out is not None:
            cfg.out = args.out
        if args.workers is not None:
            cfg.workers = args.workers
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return EXIT_OK
        topo = cfg.topology()
        mix = graph.lazy_metropolis_weights(topo)
        problem = cfg.problem()
        for label, rc in cfg.algorithms:
            try:
                engine.resolve(rc, problem, mix.lam)
            except ValueError as exc:
                raise ConfigError(f"section [{label}]: {exc}") from None
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(cfg.out, exist_ok=True)
    jobs = [(label, replace(rc, replicate=r))
            for label, rc in cfg.algorithms for r in range(cfg.replicates)]

    def one(job):
        label, rc = job
        return label, rc.replicate, engine.run(problem, mix, rc)

    try:
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(one, jobs))
        else:
            results = [one(j) for j in jobs]
    except engine.DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    print(f"{'algorithm':<16}{'replicate':>10}{'epochs':>10}{'final_gap':>14}")
    finals = {}
    for label, rep, trace in results:
        path = os.path.join(cfg.out, f"{_safe_name(label)}_r{rep}.csv")
        trace.to_csv(path)
        fin = trace.final
        finals.setdefault(label, []).append(fin.stationary_gap)
        print(f"{label:<16}{rep:>10}{fin.epochs:>10.2f}{fin.stationary_gap:>14.6g}")
    if cfg.replicates > 1:
        for label, gaps in finals.items():
            print(f"{label:<16}{'mean':>10}{'':>10}{sum(gaps) / len(gaps):>14.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan

def cmd_plan(args) -> int:
    try:
        B_R, q_R = algorithms.recommend_parameters(args.n, args.m, args.lam, "gradient")
        B_C, q_C = algorithms.recommend_parameters(args.n, args.m, args.lam, "communication")
        B, q = (B_R, q_R) if args.goal == "gradient" else (B_C, q_C)
        est = algorithms.predicted_complexity(args.n, args.m, B, args.lam,
                                              Delta=args.delta, epsilon=args.epsilon)
        alpha_c = algorithms.max_stepsize(args.n, B, q, args.lam, args.L, "complexity")
        alpha_a = algorithms.max_stepsize(args.n, B, q, args.lam, args.L, "asymptotic")
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
    r.add_argument("--seed", type=int, help="master seed (overrides config)")
    r.add_argument("--replicates", type=int, help="replicate count (overrides config)")
    r.add_argument("--workers", type=int, help="parallel replicate workers")
    r.add_argument("--dump-config", action="store_true",
                   help="echo the canonical config and exit")
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
