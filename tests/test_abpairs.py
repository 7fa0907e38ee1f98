import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "abpairs", Path(__file__).resolve().parents[1] / "scripts" / "abpairs.py")
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0]   # p25-p75: 1.0


@pytest.mark.parametrize("change, better, want", [
    # 10/10 pairs won, medians 10 apart against a spread of 1
    ([x - 10.0 for x in PARENT], "lower", "gain"),
    ([x + 10.0 for x in PARENT], "higher", "gain"),
    # 9/10 still gains; a tie counts for neither side, so 8 wins and a tie do not
    ([x - 10.0 for x in PARENT[:9]] + [101.0], "lower", "gain"),
    ([x - 10.0 for x in PARENT[:8]] + [100.0, 101.0], "lower", "no change"),
    # every pair won, but the medians 0.5 apart inside the parent's spread of 1
    ([x - 0.5 for x in PARENT], "lower", "no change"),
    # 30 % worse against a 0.24 bound; 20 % worse is within it
    ([x * 1.3 for x in PARENT], "lower", "worse"),
    ([x * 0.7 for x in PARENT], "higher", "worse"),
    ([x * 1.2 for x in PARENT], "lower", "no change"),
])
def test_verdict_on_hand_made_runs(change, better, want):
    assert abpairs.verdict(PARENT, change, better, 0.24) == want


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    parent = [60.0, 140.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 100.0]  # p25-p75: 35
    overlapping = [x - 5.0 for x in parent]          # 10/10 won, medians 5 apart
    assert abpairs.verdict(parent, overlapping, "lower", 0.24) == "unresolved"
    # every change run below every parent run: resolved even so
    assert abpairs.verdict(parent, [50.0] * 10, "lower", 0.24) == "gain"
    # worse by more than the bound is worse, however wide the spread
    assert abpairs.verdict(parent, [x * 1.5 for x in parent], "lower", 0.24) == "worse"


def test_won_counts_ties_for_neither_side():
    assert abpairs.won([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert abpairs.won([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1


def test_line_counts_of_two_trees(tmp_path):
    # src/decenopt/*.py only, as wc -l counts: a last line with no newline is none
    for side, files in (("parent", {"a.py": "1\n2\n", "b.py": "3", "sub/c.py": "4\n"}),
                        ("change", {"a.py": "1\n", "notes.txt": "2\n"})):
        for name, text in files.items():
            path = tmp_path / side / "src" / "decenopt" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert (abpairs.line_counts(tmp_path / "parent", tmp_path / "change")
            == "src/decenopt/*.py lines: parent 2, change 1 (-1)")
    assert abpairs.module_lines(tmp_path / "parent") == {"a.py": 2, "b.py": 0}
    assert abpairs.module_lines(tmp_path / "change") == {"a.py": 1}
    assert abpairs.module_table(tmp_path / "parent", tmp_path / "change").splitlines() == [
        "module                parent  change",
        "a.py                       2       1",
        "b.py                       0       -",
    ]


@pytest.mark.parametrize("change, correct, want", [
    ({"wall_s": 1.0, "rounds_per_s": 100.0}, True, 0),
    ({"wall_s": 1.5, "rounds_per_s": 100.0}, True, 2),       # wall_s 50 % worse
    ({"wall_s": 1.0, "rounds_per_s": 50.0}, True, 2),        # half the rate
    ({"wall_s": 1.5, "rounds_per_s": 100.0}, False, 1),      # a failed run outranks it
])
def test_exit_code_for_worse_metric_and_failed_runs(tmp_path, monkeypatch, capsys,
                                                    change, correct, want):
    (tmp_path / "parent").mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]}))
    runs = {"parent": {"wall_s": 1.0, "rounds_per_s": 100.0}, "change": change}
    seen = []

    def bench(checkout, workload, seed, seconds):
        side = checkout.name
        seen.append(side)
        return {"correct": correct or side == "parent", "failed": 0, "attempted": 1,
                "metrics": {name: {"value": v} for name, v in runs[side].items()},
                "environment": {"side": side, "run": len(seen)}}

    monkeypatch.setattr(abpairs, "bench", bench)
    monkeypatch.setattr(abpairs, "cpus", lambda: 3)
    code = abpairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--workload", "toy", "--seeds", "0-9"])
    assert code == want
    out = capsys.readouterr().out
    assert ("WORSE THAN THE PARENT" in out) == (change != runs["parent"])
    # the last line sums the run up as one JSON object
    summary = json.loads(out.splitlines()[-1])
    assert (summary["workload"], summary["seeds"], summary["seconds"]) == \
        ("toy", list(range(10)), 30.0)
    assert summary["correct"] is correct
    assert summary["src_lines"] == {"parent": 0, "change": 0}
    assert summary["module_lines"] == {"parent": {}, "change": {}}
    # each side's environment from its first run: pair 0 runs parent, then change
    assert summary["environment"] == {"parent": {"side": "parent", "run": 1},
                                      "change": {"side": "change", "run": 2}}
    assert summary["cpus"] == 3
    assert "CPUs available to the runs: 3" in out.splitlines()
    assert [pair["first"] for pair in summary["pairs"][:2]] == ["parent", "change"]
    assert all(pair["parent"] == runs["parent"] and pair["change"] == change
               for pair in summary["pairs"])
    wall = summary["metrics"]["wall_s"]
    assert wall["parent_p25_med_p75"] == [1.0, 1.0, 1.0]
    assert wall["change_p25_med_p75"] == [change["wall_s"]] * 3
    assert wall["median_change"] == pytest.approx(change["wall_s"] - 1.0)
    assert (wall["won"], wall["pairs"]) == (0, 10)
    assert wall["verdict"] == ("worse" if change["wall_s"] > 1.0 else "no change")
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == \
        {"wall_s": "s", "rounds_per_s": "1/s"}


def test_bench_reads_the_environment_line(tmp_path, monkeypatch):
    env = {"numpy": "2.0", "nproc": 2}
    stdout = ("environment " + json.dumps(env) + "\nreference fingerprints: none\n"
              + json.dumps({"correct": True, "failed": 0, "metrics": {}}) + "\n")
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(abpairs.subprocess, "run", fake_run)
    out = abpairs.bench(tmp_path, "toy", 4, 2.0)
    assert out == {"correct": True, "failed": 0, "metrics": {}, "environment": env}
    assert calls[0][1] == tmp_path
    assert calls[0][0][1:] == ["perfbench/run.py", "--workload", "toy", "--seed", "4",
                               "--seconds", "2.0", "--trace", "0"]


def test_cpus_counts_those_this_process_may_use():
    assert 1 <= abpairs.cpus() <= os.cpu_count()


def stub_checkout(root, name, test_body):
    """A checkout holding one test module, its BENCHMARK.json and a src/ to import from."""
    tree = root / name
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "stubpkg.py").write_text(f"SIDE = {name!r}\n")
    (tree / "tests").mkdir()
    (tree / "tests" / "test_stub.py").write_text(
        "import stubpkg\n\n\ndef test_side():\n" + test_body)
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24}]}))
    return tree


def test_pytest_mode_runs_each_checkout_with_its_own_src(tmp_path, monkeypatch, capsys):
    # the same assertion passes on the parent's src and fails on the change's
    body = "    assert stubpkg.SIDE == 'parent'\n"
    parent, change = (stub_checkout(tmp_path, side, body) for side in ("parent", "change"))
    monkeypatch.setattr(abpairs, "PAIRS", 2)
    code = abpairs.main([str(parent), str(change), "--pytest", "tests/test_stub.py -k side"])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in out[:4]] == [
        "pair 0 parent", "pair 0 change", "pair 1 change", "pair 1 parent"]
    assert ["correct=False" in line for line in out[:4]] == [False, True, True, False]
    summary = json.loads(out[-1])
    assert (summary["pytest"], len(summary["pairs"]), summary["correct"]) == \
        ("tests/test_stub.py -k side", 2, False)
    assert all(pair[side]["wall_s"] > 0 for pair in summary["pairs"]
               for side in ("parent", "change"))
    assert summary["metrics"]["wall_s"]["bound"] == 0.24


@pytest.mark.parametrize("change_wall, passed, want, judged", [
    (1.0, True, 0, "no change"),
    (1.5, True, 2, "worse"),
    (0.5, True, 0, "gain"),
    (1.0, False, 1, "no change"),      # a failed run outranks the timing
])
def test_pytest_mode_verdict_and_exit_code(tmp_path, monkeypatch, capsys,
                                           change_wall, passed, want, judged):
    # wall_s is the one metric judged, whatever else BENCHMARK.json declares
    (tmp_path / "parent").mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]}))
    calls = []

    def pytest_run(checkout, selector):
        calls.append((checkout.name, selector))
        wall, ok = (1.0, True) if checkout.name == "parent" else (change_wall, passed)
        return {"correct": ok, "failed": int(not ok), "attempted": 1,
                "metrics": {"wall_s": {"value": wall}}, "environment": None}

    monkeypatch.setattr(abpairs, "pytest_run", pytest_run)
    code = abpairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--pytest", "tests/test_x.py"])
    assert code == want
    assert len(calls) == 20 and {selector for _, selector in calls} == {"tests/test_x.py"}
    assert [side for side, _ in calls[:4]] == ["parent", "change", "change", "parent"]
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert [(pair["parent"], pair["change"]) for pair in summary["pairs"]] == \
        [({"wall_s": 1.0}, {"wall_s": change_wall})] * 10
    assert list(summary["metrics"]) == ["wall_s"]
    assert summary["metrics"]["wall_s"]["verdict"] == judged
    assert summary["metrics"]["wall_s"]["won"] == (10 if change_wall < 1.0 else 0)
    assert summary["correct"] is passed
    assert "pytest -q tests/test_x.py, 10 pairs" in out.splitlines()


def test_workload_mode_needs_seeds(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    with pytest.raises(SystemExit):
        abpairs.main([str(tmp_path), str(tmp_path), "--workload", "toy"])
    assert "--workload needs --seeds" in capsys.readouterr().err
