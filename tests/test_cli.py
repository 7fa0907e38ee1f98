import configparser
import io
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from decenopt.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, dump_config, main,
                          parse_experiment)
from decenopt import data, engine, graph
from decenopt.engine import CSV_HEADER
from decenopt.graph import build_topology, write_edge_list

BASE_CONFIG = """\
[experiment]
seed = 42
replicates = 1
out = {out}

[topology]
kind = ring
n = 4

[data]
source = synthetic
family = quadratic
kind = heterogeneous
m = 8
p = 3

[gt-sarah]
alpha = 0.05
B = 1
q = 8
S = 3

[dsgt]
alpha = 0.1
B = 2
epochs = 3
"""


def write_config(tmp_path, text=None, name="exp.ini", out=None):
    out = out or str(tmp_path / "runs")
    path = tmp_path / name
    path.write_text((text or BASE_CONFIG).format(out=out))
    return str(path), out


# ---------------------------------------------------------------------------
# weights

def test_weights_complete4(capsys):
    # lazy Metropolis on complete-4 has eigenvalues {1, 1/2, 1/2, 1/2}
    assert main(["weights", "complete", "4"]) == EXIT_OK
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
               if "=" in line)
    assert float(out["lambda"]) == pytest.approx(0.5, abs=1e-12)
    assert int(out["edges"]) == 6


def test_weights_grid_spec(capsys):
    assert main(["weights", "grid", "3x4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n=12" in out


def test_weights_reference_spectra(capsys):
    # the two reference networks land on their known spectra
    assert main(["weights", "exponential", "10"]) == EXIT_OK
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
               if "=" in line)
    assert 0.68 <= float(out["lambda"]) <= 0.74
    assert main(["weights", "grid", "10x10"]) == EXIT_OK
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
               if "=" in line)
    assert 0.985 <= float(out["lambda"]) <= 0.995


def test_weights_invalid_spec(capsys):
    assert main(["weights", "grid", "10"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_weights_exports(tmp_path, capsys):
    csv = tmp_path / "w.csv"
    edges = tmp_path / "t.edges"
    assert main(["weights", "ring", "5", "--export-csv", str(csv),
                 "--export-edges", str(edges)]) == EXIT_OK
    assert len(csv.read_text().splitlines()) == 5
    assert edges.read_text().splitlines()[0] == "5"


@pytest.mark.parametrize("flag", ["--export-csv", "--export-edges"])
def test_weights_unwritable_export_is_an_error(tmp_path, capsys, flag):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "out.txt"                # under a file: never writable
    assert main(["weights", "ring", "5", flag, str(target)]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err.startswith("error: [Errno ") and printed.err.endswith(f"{target}'\n")
    assert printed.err.count("\n") == 1 and "wrote" not in printed.out


@pytest.mark.parametrize("line", ["1 x", "1 2.0"])
def test_edge_list_non_integer_node_is_an_error(tmp_path, capsys, line):
    # through the weights command and through a kind = custom config alike
    edges = tmp_path / "bad.edges"
    edges.write_text(f"3\n0 1\n{line}\n")
    message = f"line 3: expected 'i j', got {line!r}"
    assert main(["weights", "custom", str(edges)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace("kind = ring\nn = 4",
                                                          f"kind = custom\npath = {edges}"))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err == f"config error: {message}\n" and printed.out == ""
    assert not os.path.exists(out)


def test_weights_custom_edge_list(tmp_path, capsys):
    topo = build_topology("path", 3)
    path = tmp_path / "p3.edges"
    write_edge_list(topo, str(path))
    assert main(["weights", "custom", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n=3" in out and "edges=2" in out


# ---------------------------------------------------------------------------
# run

def test_run_end_to_end(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "gt-sarah" in printed and "dsgt" in printed
    for name in ("gt-sarah_r0.csv", "dsgt_r0.csv"):
        lines = (tmp_path / "runs" / name).read_text().splitlines()
        assert lines[0] == CSV_HEADER


def test_run_missing_config(capsys):
    assert main(["run", "--config", "/nonexistent/exp.ini"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: config file not found: /nonexistent/exp.ini\n"


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_run_out_blocked_by_a_file_is_config_error(tmp_path, capsys, monkeypatch, where):
    cfg, _ = write_config(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "runs"
    monkeypatch.setattr(engine, "run", None)    # no job may start
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err.startswith("config error: [Errno ") and printed.err.endswith(f"{out}'\n")
    assert printed.err.count("\n") == 1 and printed.out == ""
    assert blocker.read_text() == ""


def test_run_bad_section(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, BASE_CONFIG.replace("[dsgt]", "[warp-drive]"))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_run_no_algorithms(tmp_path):
    text = BASE_CONFIG.split("[gt-sarah]")[0]
    cfg, _ = write_config(tmp_path, text)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


def test_run_oversized_minibatch_is_config_error(tmp_path, capsys, monkeypatch):
    text = BASE_CONFIG.replace("m = 8", "m = 4").replace("B = 2", "B = 8")
    cfg, out = write_config(tmp_path, text)
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == "config error: section [dsgt]: minibatch size 8 exceeds m=4\n"
        assert printed.out == ""
    assert not os.path.exists(out)


def test_run_missing_budget_is_config_error(tmp_path, capsys, monkeypatch):
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace("S = 3\n", ""))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == "config error: section [gt-sarah]: gt-sarah needs S or epochs\n"
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, message", [
    ("S = 3", "S = 0", "section [gt-sarah]: S must be at least 1, got 0"),
    ("epochs = 3", "steps = 0", "section [dsgt]: steps must be at least 1, got 0"),
    ("epochs = 3", "epochs = -1", "section [dsgt]: epochs must be positive, got -1.0"),
    ("replicates = 1", "record_every = 0",
     "section [gt-sarah]: record_every must be at least 1, got 0"),
], ids=["S=0", "steps=0", "epochs=-1", "record_every=0"])
def test_run_nonpositive_budget_or_cadence_is_config_error(tmp_path, capsys, old, new, message):
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, message", [
    ("[topology]\nkind = ring\nn = 4\n\n", "", "missing [topology] section"),
    ("kind = ring\nn = 4", "n = 4", "[topology] needs kind"),
    ("kind = ring\nn = 4", "kind = custom", "[topology] kind=custom needs path"),
    ("kind = ring\nn = 4", "kind = custom\npath = /nonexistent/ring.edges",
     "topology edge list not found: /nonexistent/ring.edges"),
    ("kind = ring\nn = 4", "kind = ring", "[topology] needs n"),
    ("m = 8\n", "", "[data] synthetic source needs m and p"),
    ("n = 4", "n = ten", "[topology] n = 'ten' is not a valid int"),
    ("n = 4", "n = 4\nrows = 7\ncols = 3",
     "section [topology]: key 'rows' does not apply to kind = ring"),
    ("n = 4", "n = 4\nrows = 7\ncols = 3\npath = nowhere.edges",
     "section [topology]: key 'path' does not apply to kind = ring"),
    ("kind = ring\nn = 4", "kind = exponential\nn = 4\ncols = 4",
     "section [topology]: key 'cols' does not apply to kind = exponential"),
    ("kind = ring\nn = 4", "kind = grid\nn = 4\nrows = 2\ncols = 2\npath = grid.edges",
     "section [topology]: key 'path' does not apply to kind = grid"),
    ("kind = ring\nn = 4", "kind = custom\nn = 99\npath = /nonexistent/ring.edges",
     "section [topology]: key 'n' does not apply to kind = custom"),
    ("kind = ring", "kind = torus",
     "unknown topology kind 'torus'; expected one of "
     "('complete', 'ring', 'path', 'grid', 'exponential', 'custom')"),
], ids=["no-topology", "no-kind", "custom-no-path", "custom-missing-file", "no-n", "no-m",
        "n=ten", "ring-rows", "ring-path", "exponential-cols", "grid-path", "custom-n",
        "unknown-kind"])
def test_incomplete_or_mistyped_config_is_config_error(tmp_path, capsys, old, new, message):
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == f"config error: {message}\n"
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, message", [
    ("alpha = 0.1", "alpha = nan", "section [dsgt]: alpha must be finite, got nan"),
    ("alpha = 0.05", "alpha = inf", "section [gt-sarah]: alpha must be finite, got inf"),
    ("epochs = 3", "epochs = inf", "section [dsgt]: epochs must be finite, got inf"),
    ("epochs = 3", "epochs = nan", "section [dsgt]: epochs must be finite, got nan"),
    ("family = quadratic", "family = logistic\nreg = nan", "reg must be finite, got nan"),
    ("family = quadratic", "family = logistic\nreg = inf", "reg must be finite, got inf"),
    ("family = quadratic", "family = logistic\nheterogeneity = nan",
     "heterogeneity must be finite, got nan"),
    ("p = 3", "p = 3\nheterogeneity = inf", "heterogeneity must be finite, got inf"),
], ids=["alpha=nan", "alpha=inf", "epochs=inf", "epochs=nan", "reg=nan", "logistic-reg=inf",
        "logistic-heterogeneity=nan", "heterogeneity=inf"])
def test_non_finite_number_is_config_error(tmp_path, capsys, monkeypatch, old, new, message):
    # each used to run and diverge, crash, or fail with a message naming another value
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == f"config error: {message}\n"
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, section, key", [
    ("epochs = 3", "epochs = 3\nS = 5", "dsgt", "S"),
    ("S = 3", "S = 3\nsteps = 7", "gt-sarah", "steps"),
    ("epochs = 3", "epochs = 3\n\n[dsgd]\nalpha = 0.1\nS = 5\nepochs = 1", "dsgd", "S"),
], ids=["dsgt-S", "gt-sarah-steps", "dsgd-S"])
def test_budget_key_of_other_method_is_config_error(tmp_path, capsys, old, new, section, key):
    # a budget the method does not use would be silently ignored
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == (f"config error: section [{section}]: "
                               f"{key} does not apply to {section}\n")
        assert printed.out == ""
    assert not os.path.exists(out)


BIG = 10 ** 400      # an int beyond the float range


@pytest.mark.parametrize("old, new, section, key", [
    ("q = 8", f"q = {BIG}", "gt-sarah", "q"),
    ("S = 3", f"S = {BIG}", "gt-sarah", "S"),
    ("B = 2", f"B = {BIG}", "dsgt", "B"),
    ("epochs = 3", f"steps = {BIG}", "dsgt", "steps"),
    ("S = 3", f"S = 3\nrecord_every = {BIG}", "gt-sarah", "record_every"),
], ids=["q", "S", "B", "steps", "record_every"])
def test_count_beyond_float_range_is_config_error(tmp_path, capsys, monkeypatch,
                                                  old, new, section, key):
    # q and steps used to end in an OverflowError traceback, S to run on
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in (["--dump-config"], []):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == (f"config error: section [{section}]: "
                               f"{key} exceeds the float range, got {key}={BIG}\n")
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, section, key", [
    ("S = 3", "S = 3\nepochs = 50", "gt-sarah", "S"),
    ("epochs = 3", "epochs = 3\n\n[dsgd]\nalpha = 0.1\nsteps = 5\nepochs = 50", "dsgd", "steps"),
], ids=["gt-sarah", "dsgd"])
def test_budget_given_twice_is_config_error(tmp_path, capsys, monkeypatch, old, new, section, key):
    # epochs used to be ignored next to the method's own count
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == (f"config error: section [{section}]: "
                               f"give {key} or epochs, not both\n")
        assert printed.out == ""
    assert not os.path.exists(out)


MAXSIZE = f"exceeds sys.maxsize = {sys.maxsize}"


@pytest.mark.parametrize("old, new, flags, message", [
    ("kind = ring\nn = 4", "kind = grid\nn = 4\nrows = 2\ncols = 3", [],
     "grid dimensions 2x3 do not match n=4"),
    ("n = 4", "n = 0", [], "node count must be positive, got 0"),
    ("family = quadratic", "family = cubic", [], "unknown family 'cubic'"),
    ("kind = heterogeneous", "kind = mixed", [], "unknown kind 'mixed'"),
    ("m = 8", "m = 0", [], "n, m, p must be positive"),
    ("family = quadratic", "family = logistic\nreg = -1", [],
     "regularization weight must be nonnegative"),
    ("epochs = 3", "epochs = 1e300", [], f"section [dsgt]: round count steps = 4e+300 {MAXSIZE}"),
    ("epochs = 3", "epochs = 1e308", [], f"section [dsgt]: round count steps = inf {MAXSIZE}"),
    ("S = 3", "epochs = 1e308", [],
     f"section [gt-sarah]: round count S * (q + 1) = inf {MAXSIZE}"),
    ("q = 8", f"q = {10 ** 30}", [],
     f"section [gt-sarah]: round count S * (q + 1) = {3 * (10 ** 30 + 1)} {MAXSIZE}"),
    ("", "", ["--seed", "-1"], "seed must be at least 0, got -1"),
    ("seed = 42", "seed = -1", [], "[experiment] seed must be at least 0, got -1"),
    ("p = 3", "p = 3\nseed = -2", [], "[data] seed must be at least 0, got -2"),
], ids=["grid-4-as-2x3", "n=0", "family=cubic", "kind=mixed", "m=0", "reg=-1",
        "epochs=1e300", "dsgt-epochs=1e308", "gt-sarah-epochs=1e308", "q=1e30", "--seed=-1",
        "seed=-1", "data-seed=-2"])
def test_dump_config_stops_where_the_run_stops(tmp_path, capsys, monkeypatch,
                                               old, new, flags, message):
    # --dump-config used to pass each of these with exit 0 while the run failed or crashed
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *flags, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == f"config error: {message}\n"
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, rule", [
    ("reg = -1", "family = quadratic"),
    ("format = csv", "source = synthetic"),
    ("label_rule = sign", "source = synthetic"),
    ("max_samples = 5", "source = synthetic"),
], ids=["quadratic-reg", "synthetic-format", "synthetic-label_rule", "synthetic-max_samples"])
def test_data_key_the_source_does_not_read_is_config_error(tmp_path, capsys, monkeypatch,
                                                            key, rule):
    # each used to pass with exit 0 and change nothing
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace("p = 3", f"p = 3\n{key}"))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    name = key.split(" = ")[0]
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == (f"config error: section [data]: key {name!r} "
                               f"does not apply to {rule}\n")
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, section, key", [
    ("alpha = 0.1", "alfa = 0.1", "dsgt", "alfa"),
    ("q = 8", "q = 8\ndef33_every = 1", "gt-sarah", "def33_every"),
    ("m = 8", "m = 8\nsamples = 8", "data", "samples"),
    ("n = 4", "n = 4\nsize = 4", "topology", "size"),
    ("replicates = 1", "replicate = 1", "experiment", "replicate"),
    ("B = 2", "B = 2\nepsilon = 0.1", "dsgt", "epsilon"),
], ids=["alfa", "def33_every", "samples", "size", "replicate", "epsilon"])
def test_unknown_key_is_config_error(tmp_path, capsys, old, new, section, key):
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == f"config error: section [{section}]: unknown key {key!r}\n"
        assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("text", [
    BASE_CONFIG.replace("B = 2", "B = 2\nB = 4"),
    "seed = 1\n" + BASE_CONFIG,
], ids=["duplicate-key", "no-section-header"])
def test_config_syntax_error_is_config_error(tmp_path, capsys, text):
    cfg, out = write_config(tmp_path, text)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err.startswith("config error: ") and printed.err.count("\n") == 1
    assert printed.out == ""
    assert not os.path.exists(out)


def test_config_syntax_error_names_the_file(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, BASE_CONFIG.replace("B = 2", "B = 2\nB = 4"))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    assert f"While reading from {cfg!r}" in capsys.readouterr().err


def test_run_divergence_exit_code(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, BASE_CONFIG.replace("alpha = 0.05", "alpha = 1e6"))
    assert main(["run", "--config", cfg]) == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_divergence_keeps_finished_jobs(tmp_path, capsys, workers):
    sane = BASE_CONFIG.split("[gt-sarah]")[0] + "[dsgd]\nalpha = 0.1\nB = 2\nsteps = 30\n"
    diverging = "\n[gt-sarah]\nalpha = 1e6\nB = 1\nq = 8\nS = 3\n"
    alone, _ = write_config(tmp_path, sane, name="alone.ini", out=str(tmp_path / "alone"))
    both, out = write_config(tmp_path, sane + diverging)
    assert main(["run", "--config", alone]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--config", both, "--workers", workers]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("diverged: section [gt-sarah] replicate 0: ") and err.count("\n") == 1
    assert ((tmp_path / "runs" / "dsgd_r0.csv").read_bytes()
            == (tmp_path / "alone" / "dsgd_r0.csv").read_bytes())
    partial = (tmp_path / "runs" / "gt-sarah_r0.csv").read_text().splitlines()
    assert partial[0] == CSV_HEADER and len(partial) > 1


@pytest.mark.parametrize("key, value, flag", [
    ("replicates", "0", False), ("replicates", "-1", True),
    ("workers", "0", False), ("workers", "-3", True),
], ids=["replicates=0", "--replicates=-1", "workers=0", "--workers=-3"])
def test_run_replicates_or_workers_below_one_is_config_error(tmp_path, capsys, key, value, flag):
    text = BASE_CONFIG if flag else BASE_CONFIG.replace("replicates = 1", f"{key} = {value}")
    cfg, out = write_config(tmp_path, text)
    for extra in ([], ["--dump-config"]):
        argv = ["run", "--config", cfg, *extra] + ([f"--{key}", value] if flag else [])
        assert main(argv) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == f"config error: {key} must be at least 1, got {value}\n"
        assert printed.out == ""
    assert not os.path.exists(out)


def test_run_same_seed_byte_identical(tmp_path):
    cfg, _ = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", out2]) == EXIT_OK
    for name in ("gt-sarah_r0.csv", "dsgt_r0.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_run_workers_do_not_change_output(tmp_path):
    cfg, _ = write_config(tmp_path)
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w4")
    assert main(["run", "--config", cfg, "--out", out1, "--replicates", "3",
                 "--workers", "1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", out2, "--replicates", "3",
                 "--workers", "4"]) == EXIT_OK
    for r in range(3):
        for alg in ("gt-sarah", "dsgt"):
            name = f"{alg}_r{r}.csv"
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()


def test_run_replicates_differ_from_each_other(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--replicates", "2"]) == EXIT_OK
    a = (tmp_path / "runs" / "dsgt_r0.csv").read_text()
    b = (tmp_path / "runs" / "dsgt_r1.csv").read_text()
    assert a != b
    # replicate-mean summary row appears when replicates > 1
    assert "mean" in capsys.readouterr().out


def test_run_seed_override_changes_output(tmp_path):
    cfg, _ = write_config(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["run", "--config", cfg, "--out", out1, "--seed", "1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", out2, "--seed", "2"]) == EXIT_OK
    assert ((tmp_path / "s1" / "dsgt_r0.csv").read_bytes()
            != (tmp_path / "s2" / "dsgt_r0.csv").read_bytes())


def test_dump_config_roundtrip(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--dump-config"]) == EXIT_OK
    dumped = capsys.readouterr().out
    reparsed = parse_experiment(io.StringIO(dumped))
    assert dump_config(reparsed) == dumped
    original = parse_experiment(cfg)
    assert reparsed.seed == original.seed
    assert reparsed.topology_spec["kind"] == original.topology_spec["kind"]
    assert [rc for _, rc in reparsed.algorithms] == [rc for _, rc in original.algorithms]


def test_run_reads_custom_edge_list_once(tmp_path, monkeypatch, capsys):
    # n and the graph come from one read, so they cannot disagree
    edges = tmp_path / "ring4.edges"
    write_edge_list(build_topology("ring", 4), str(edges))
    cfg, _ = write_config(tmp_path, BASE_CONFIG.replace("kind = ring\nn = 4",
                                                        f"kind = custom\npath = {edges}"))
    calls = []
    read = graph.read_edge_list
    monkeypatch.setattr(graph, "read_edge_list", lambda path: calls.append(path) or read(path))
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert calls == [str(edges)]
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--dump-config"]) == EXIT_OK
    dumped = configparser.ConfigParser()
    dumped.read_string(capsys.readouterr().out)
    assert dict(dumped["topology"]) == {"kind": "custom", "path": str(edges)}


def test_seed_flag_reseeds_streams_not_data(tmp_path, capsys):
    # --seed overrides [experiment] seed; [data] seed keeps its default,
    # the [experiment] seed written in the file
    cfg, _ = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--seed", "7", "--dump-config"]) == EXIT_OK
    dumped = configparser.ConfigParser()
    dumped.read_string(capsys.readouterr().out)
    assert dumped["experiment"]["seed"] == "7"
    assert dumped["data"]["seed"] == "42"


def test_readme_config_example_parses_and_round_trips():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    parsed = parse_experiment(io.StringIO(blocks[0]))
    dumped = dump_config(parsed)
    reparsed = parse_experiment(io.StringIO(dumped))
    assert dump_config(reparsed) == dumped
    assert reparsed.algorithms == parsed.algorithms
    assert (reparsed.topology_spec, reparsed.data_spec) == (parsed.topology_spec, parsed.data_spec)


def test_dump_config_does_not_run(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--dump-config"]) == EXIT_OK
    assert not os.path.exists(out)


def test_multiple_sections_same_algorithm(tmp_path):
    text = BASE_CONFIG + "\n[dsgt:slow]\nalpha = 0.01\nB = 2\nepochs = 2\n"
    cfg, out = write_config(tmp_path, text)
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "dsgt-slow_r0.csv"))


def file_source_config(tmp_path, keys="format = libsvm\nlabel_rule = sign"):
    """BASE_CONFIG on a 40-row, 3-feature LIBSVM file, with ``keys`` in [data]."""
    data_path = tmp_path / "toy.libsvm"
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(40):
        y = rng.choice([-1, 1])
        lines.append(f"{y} 1:{rng.normal():.4f} 2:{rng.normal():.4f} 3:{rng.normal():.4f}")
    data_path.write_text("\n".join(lines) + "\n")
    text = BASE_CONFIG.replace(
        "source = synthetic\nfamily = quadratic\nkind = heterogeneous\nm = 8\np = 3",
        f"source = {data_path}\n{keys}")
    return write_config(tmp_path, text)


def test_minibatch_beyond_the_dealt_m_is_config_error(tmp_path, capsys, monkeypatch):
    # 40 samples dealt to 4 nodes give m = 10; only a read of the file can tell
    cfg, out = file_source_config(tmp_path)
    Path(cfg).write_text(Path(cfg).read_text().replace("B = 2", "B = 11"))
    monkeypatch.setattr(engine, "run", None)    # no job may start
    for extra in ([], ["--dump-config"]):
        assert main(["run", "--config", cfg, *extra]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.err == "config error: section [dsgt]: minibatch size 11 exceeds m=10\n"
        assert printed.out == ""
    assert not os.path.exists(out)


def test_config_file_data_source(tmp_path):
    # libsvm-backed experiment end to end
    cfg, out = file_source_config(tmp_path)
    assert main(["run", "--config", cfg]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "gt-sarah_r0.csv"))


def test_run_twice_on_one_libsvm_file_reads_the_parse_cache(tmp_path, monkeypatch):
    cfg, _ = file_source_config(tmp_path)
    data_path = tmp_path / "toy.libsvm"

    def run(out, config=cfg):
        assert main(["run", "--config", config, "--out", str(tmp_path / out)]) == EXIT_OK
        return {p.name: p.read_bytes() for p in (tmp_path / out).glob("*.csv")}

    def parsed(*args):
        raise AssertionError("the LIBSVM file was parsed again")

    first = run("first")
    assert sorted(first) == ["dsgt_r0.csv", "gt-sarah_r0.csv"]
    with monkeypatch.context() as m:
        m.setattr(data, "_parse_canonical", parsed)
        m.setattr(data, "_parse_lines", parsed)
        assert run("second") == first
    # an edit between runs gives the edited data's CSVs, as from a fresh file
    edited = "".join(data_path.read_text().splitlines(keepends=True)[1:])
    data_path.write_text(edited)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    fresh_cfg, _ = file_source_config(fresh)
    (fresh / "toy.libsvm").write_text(edited)
    assert not (fresh / "toy.libsvm.decenopt.npz").exists()
    assert run("edited") == run("fresh", fresh_cfg) != first


@pytest.mark.parametrize("keys, message", [
    ("format = json", "[data] format = 'json' is not 'libsvm' or 'csv'"),
    ("max_samples = -1", "max_samples must be at least 1, got -1"),
    ("max_samples = 0", "max_samples must be at least 1, got 0"),
] + [(f"label_rule = {rule}", f"unknown label rule {rule!r} (use 'sign' or 'pair:POS,NEG')")
     for rule in ("pair:1", "pair:a,b", "pair:1,2,3", "pair:nan,1", "pair:1,-inf")],
    ids=["format=json", "max_samples=-1", "max_samples=0", "pair:1", "pair:a,b", "pair:1,2,3",
         "pair:nan,1", "pair:1,-inf"])
def test_bad_file_source_key_is_config_error(tmp_path, capsys, keys, message):
    cfg, out = file_source_config(tmp_path, keys)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err == f"config error: {message}\n"
    assert printed.out == ""
    assert not os.path.exists(out)


def test_unnormalizable_sample_is_config_error(tmp_path, capsys):
    # a row whose squares are subnormal, not zero, cannot be scaled to unit length
    data_path = tmp_path / "tiny.libsvm"
    data_path.write_text("1 1:1e-160\n-1 1:1\n1 2:1\n-1 2:2\n")
    text = BASE_CONFIG.replace(
        "source = synthetic\nfamily = quadratic\nkind = heterogeneous\nm = 8\np = 3",
        f"source = {data_path}")
    cfg, out = write_config(tmp_path, text)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err == ("config error: sample 0 (0-based, in file order) "
                           "cannot be unit-normalized\n")
    assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("fmt", ["libsvm", "csv"])
def test_non_finite_feature_in_a_data_file_is_config_error(tmp_path, capsys, fmt):
    rows = [(1, 1.0, 0.0), (-1, 0.5, 2.0), (1, float("nan"), 1.0), (-1, 2.0, 1.0)]
    if fmt == "libsvm":
        text = "".join(f"{y} 1:{a} 2:{b}\n" for y, a, b in rows)
    else:
        text = "a,b,y\n" + "".join(f"{a},{b},{y}\n" for y, a, b in rows)
    data_path = tmp_path / f"nan.{fmt}"
    data_path.write_text(text)
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(
        "source = synthetic\nfamily = quadratic\nkind = heterogeneous\nm = 8\np = 3",
        f"source = {data_path}\nformat = {fmt}").replace("n = 4", "n = 2"))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err == ("config error: sample 2 (0-based, in file order) "
                           "cannot be unit-normalized\n")
    assert printed.out == ""
    assert not os.path.exists(out)


@pytest.mark.parametrize("fmt", ["libsvm", "csv"])
def test_nan_label_in_a_data_file_is_config_error(tmp_path, capsys, fmt):
    rows = [(1, 1.0, 0.0), (-1, 0.5, 2.0), ("nan", 1.0, 1.0), (-1, 2.0, 1.0), ("nan", 1.0, 3.0)]
    if fmt == "libsvm":
        text = "".join(f"{y} 1:{a} 2:{b}\n" for y, a, b in rows)
    else:
        text = "a,b,y\n" + "".join(f"{a},{b},{y}\n" for y, a, b in rows)
    data_path = tmp_path / f"nan-label.{fmt}"
    data_path.write_text(text)
    cfg, out = write_config(tmp_path, BASE_CONFIG.replace(
        "source = synthetic\nfamily = quadratic\nkind = heterogeneous\nm = 8\np = 3",
        f"source = {data_path}\nformat = {fmt}").replace("n = 4", "n = 2"))
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err == "config error: sample 2 (0-based, in file order) has a NaN label\n"
    assert printed.out == ""
    assert not os.path.exists(out)


def test_pair_label_rule_runs_from_a_config(tmp_path):
    # on +1/-1 labels, pair:1,-1 keeps every sample with its sign's class
    def run(keys, out):
        cfg, _ = file_source_config(tmp_path, keys)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == EXIT_OK
        return {p.name: p.read_bytes() for p in (tmp_path / out).glob("*.csv")}

    pair = run("format = libsvm\nlabel_rule = pair:1,-1", "pair")
    assert sorted(pair) == ["dsgt_r0.csv", "gt-sarah_r0.csv"]
    assert pair == run("format = libsvm\nlabel_rule = sign", "sign")


def test_run_auto_alpha_convergence_smoke(tmp_path, capsys):
    # auto step size on a ring-8 heterogeneous problem: gap drops >= 10x
    text = """\
[experiment]
seed = 13
out = {out}

[topology]
kind = ring
n = 8

[data]
source = synthetic
family = quadratic
kind = heterogeneous
m = 8
p = 3
seed = 101

[gt-sarah]
alpha = auto
B = 1
q = 8
S = 1500
record_every = 1000000000
"""
    cfg, out = write_config(tmp_path, text)
    assert main(["run", "--config", cfg]) == EXIT_OK
    lines = (tmp_path / "runs" / "gt-sarah_r0.csv").read_text().splitlines()
    header = lines[0].split(",")
    gap_col = header.index("stationary_gap")
    first = float(lines[1].split(",")[gap_col])
    last = float(lines[-1].split(",")[gap_col])
    assert last <= first / 10.0


def test_config_missing_data_file(tmp_path):
    text = BASE_CONFIG.replace(
        "source = synthetic\nfamily = quadratic\nkind = heterogeneous\nm = 8\np = 3",
        "source = /nonexistent.libsvm\nformat = libsvm")
    cfg, _ = write_config(tmp_path, text)
    assert main(["run", "--config", cfg]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# plan

def plan_dict(capsys, *args):
    assert main(["plan", *args]) == EXIT_OK
    return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())


def test_plan_large_network_batch_one(capsys):
    out = plan_dict(capsys, "--n", "100", "--m", "100", "--lam", "0.99")
    assert out["B_gradient"] == "1"
    assert out["B_communication"] == "1"
    assert out["regime"] == "large-network"


def test_plan_big_data_regime(capsys):
    out = plan_dict(capsys, "--n", "10", "--m", "1000000", "--lam", "0.0")
    assert out["regime"] == "big-data"


def test_plan_epsilon_scaling(capsys):
    a = plan_dict(capsys, "--n", "8", "--m", "64", "--lam", "0.5", "--epsilon", "0.25")
    b = plan_dict(capsys, "--n", "8", "--m", "64", "--lam", "0.5", "--epsilon", "0.125")
    assert float(b["grad_computations"]) == 4.0 * float(a["grad_computations"])
    assert float(b["comm_rounds"]) == 4.0 * float(a["comm_rounds"])


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "n and m must be at least 1, got n=0, m=10"),
    (["--m", "0"], "n and m must be at least 1, got n=4, m=0"),
    (["--n", "-1"], "n and m must be at least 1, got n=-1, m=10"),
    (["--epsilon", "nan"], "n, m, B, Delta, epsilon must be positive"),
    (["--delta", "nan"], "n, m, B, Delta, epsilon must be positive"),
    (["--L", "nan"], "smoothness modulus must be positive"),
    (["--epsilon", "inf"], "Delta and epsilon must be finite, got Delta=1.0, epsilon=inf"),
    (["--delta", "inf"], "Delta and epsilon must be finite, got Delta=inf, epsilon=0.1"),
    (["--L", "inf"], "smoothness modulus must be finite, got inf"),
    (["--L", "1e-320"], "step size bound is not finite for L=1e-320"),
    (["--epsilon", "1e-200"], "predicted totals are not finite for Delta=1.0, epsilon=1e-200"),
    (["--delta", "1e308"], "predicted totals are not finite for Delta=1e+308, epsilon=0.1"),
    (["--n", str(10 ** 400)], f"n * m exceeds the float range, got n={10 ** 400}, m=10"),
    (["--m", str(10 ** 400)], f"n * m exceeds the float range, got n=4, m={10 ** 400}"),
], ids=["n=0", "m=0", "n=-1", "epsilon=nan", "delta=nan", "L=nan", "epsilon=inf", "delta=inf",
        "L=inf", "L=1e-320", "epsilon=1e-200", "delta=1e308", "n=1e400", "m=1e400"])
def test_plan_degenerate_input_is_an_error(capsys, args, message):
    assert main(["plan", "--n", "4", "--m", "10", "--lam", "0.5", *args]) == EXIT_CONFIG
    printed = capsys.readouterr()
    assert printed.err == f"error: {message}\n"
    assert printed.out == ""


def test_plan_rejects_bad_lambda(capsys):
    assert main(["plan", "--n", "4", "--m", "10", "--lam", "1.0"]) == EXIT_CONFIG
