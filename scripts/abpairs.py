"""Alternating A/B pairs of perfbench runs in two checkouts.

    python3 scripts/abpairs.py PARENT CHANGE --workload paper-sweep --seeds 10-19 --seconds 30

Each seed is one pair: ``perfbench/run.py --trace 0`` runs once in each
checkout, parent first on even pairs and change first on odd ones, so a
drift in host speed does not favour one side. Every run's JSON line is
checked for ``correct`` and ``failed``. For each end-to-end metric that
PARENT's ``BENCHMARK.json`` declares, the script prints the per-pair
values, each side's median and quartiles, the change in the median, how
many pairs the change won (ties count for neither side) and the
metric's verdict (see ``verdict``). After the table it prints each
checkout's ``src/decenopt/*.py`` line counts, as ``wc -l`` counts them,
per module and in total, and the number of CPUs the runs may use. The
last line of its output is one JSON object with all of that: the
workload, seeds and seconds, every pair's values, each metric's
quartiles, change, wins and verdict, both line totals (``src_lines``) and
per-module counts (``module_lines``), the CPU count, each side's
``environment`` line from its first run (host, numpy, cores, commit) and
whether every run was correct.

It exits 1 if any run fails the correctness gate, else 2 if any metric's
verdict is ``worse``, since no end-to-end metric may get worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    """'10-19' or '3,5,8' (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    out = json.loads(lines[-1])
    env = [line.split(" ", 1)[1] for line in lines if line.startswith("environment ")]
    out["environment"] = json.loads(env[0]) if env else None
    return out


def cpus() -> int:
    """The CPUs this process, and so every run it starts, may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def module_lines(tree: Path) -> dict[str, int]:
    """Each ``src/decenopt/*.py`` file's line count, as ``wc -l`` counts it, by file name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "decenopt").glob("*.py"))}


def src_lines(tree: Path) -> int:
    """A checkout's ``src/decenopt/*.py`` line count, as ``wc -l`` totals it."""
    return sum(module_lines(tree).values())


def module_table(parent: Path, change: Path) -> str:
    """Both sides' line counts per module, '-' where a side has no such file."""
    a, b = module_lines(parent), module_lines(change)
    rows = [f"{'module':<20}{'parent':>8}{'change':>8}"]
    rows += [f"{name:<20}{a.get(name, '-'):>8}{b.get(name, '-'):>8}" for name in sorted(a | b)]
    return "\n".join(rows)


def line_counts(parent: Path, change: Path) -> str:
    a, b = src_lines(parent), src_lines(change)
    return f"src/decenopt/*.py lines: parent {a}, change {b} ({b - a:+d})"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change read better; ties count for neither side."""
    sign = -1.0 if better == "lower" else 1.0
    return sum(sign * (y - x) > 0 for x, y in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's pairs judged against its relative ``bound``.

    - ``gain``: the change won at least 9 in 10 pairs (ties count for
      neither side), and its median is better than the parent's by more
      than the parent's p25-p75 spread;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - ``unresolved``: the parent's spread exceeds ``bound`` times its
      median, and not every change run beats every parent run;
    - ``no change``: anything else.
    """
    sign = -1.0 if better == "lower" else 1.0
    p25, p_med, p75 = quartiles(parent)
    c_med = quartiles(change)[1]
    if (10 * won(parent, change, better) >= 9 * len(parent)
            and sign * (c_med - p_med) > p75 - p25):
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    if p75 - p25 > bound * abs(p_med) and not all(
            sign * (y - x) > 0 for x in parent for y in change):
        return "unresolved"
    return "no change"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 10-19 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = ("parent", "change")
    values = {side: {name: [] for name, _, _ in metrics} for side in sides}
    pairs = []
    environment = {}
    ok = True
    for k, seed in enumerate(args.seeds):
        order = sides if k % 2 == 0 else sides[::-1]
        pairs.append({"seed": seed, "first": order[0]})
        for side in order:
            out = bench(getattr(args, side), args.workload, seed, args.seconds)
            ok &= bool(out["correct"]) and out["failed"] == 0
            environment.setdefault(side, out["environment"])
            pairs[-1][side] = {name: out["metrics"][name]["value"] for name, _, _ in metrics}
            for name, _, _ in metrics:
                values[side][name].append(out["metrics"][name]["value"])
            print(f"pair {k} seed {seed} {side}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} "
                  + " ".join(f"{name}={out['metrics'][name]['value']:.4g}"
                             for name, _, _ in metrics), flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs of {args.seconds:g} s runs, "
          f"seeds {','.join(map(str, args.seeds))}")
    print(f"{'metric':<20} {'parent p25/med/p75':>30} {'change p25/med/p75':>30} "
          f"{'change':>8} {'won':>6}  verdict")
    worse = []
    summary = {}
    for name, unit, better in metrics:
        a, b = values["parent"][name], values["change"][name]
        qa, qb = quartiles(a), quartiles(b)
        rel = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        judged = verdict(a, b, better, bounds[name])
        if judged == "worse":
            worse.append(name)
        summary[name] = {"unit": unit, "better": better, "bound": bounds[name],
                         "parent_p25_med_p75": qa, "change_p25_med_p75": qb,
                         "median_change": rel if qa[1] else None,
                         "won": won(a, b, better), "pairs": len(a), "verdict": judged}
        print(f"{name:<20} {'/'.join(f'{v:.4g}' for v in qa):>30} "
              f"{'/'.join(f'{v:.4g}' for v in qb):>30} {rel:>+8.1%} "
              f"{won(a, b, better):>3}/{len(a)}  {judged} ({unit})")
    print(module_table(args.parent, args.change))
    print(line_counts(args.parent, args.change))
    n_cpus = cpus()
    print(f"CPUs available to the runs: {n_cpus}")
    print("every run correct with 0 failed" if ok else "SOME RUNS FAILED THE CORRECTNESS GATE")
    if worse:
        print("WORSE THAN THE PARENT BEYOND ITS BOUND: " + ", ".join(worse))
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                      "pairs": pairs, "metrics": summary,
                      "src_lines": {"parent": src_lines(args.parent),
                                    "change": src_lines(args.change)},
                      "module_lines": {"parent": module_lines(args.parent),
                                       "change": module_lines(args.change)},
                      "cpus": n_cpus, "environment": environment, "correct": ok}))
    return 1 if not ok else 2 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
