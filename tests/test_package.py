import re
from functools import reduce
from pathlib import Path

import decenopt
import decenopt.cli


def test_every_export_resolves():
    missing = [name for name in decenopt.__all__ if not hasattr(decenopt, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert decenopt.__all__ == [
        "ComplexityEstimate", "DivergenceError", "LogisticDataset", "LogisticProblem",
        "MixingMatrix", "NetworkState", "QuadraticProblem", "RunConfig", "RunTrace", "Topology",
        "build_topology", "lazy_metropolis_weights", "max_stepsize", "outer_iteration_bound",
        "parse_csv", "parse_libsvm", "predicted_complexity", "prepare", "recommend_parameters",
        "run", "spectral_quantities", "synthesize", "validate_mixing",
    ]


def test_readme_path_or_file_functions_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"leaves open:(.*?)\.\s+A\s+path", readme, re.DOTALL).group(1)
    names = re.findall(r"`([\w.]+)`", listed)
    modules = (decenopt, decenopt.cli, decenopt.data, decenopt.engine, decenopt.graph)
    found = {name for name in names for mod in modules
             if callable(reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."), mod))}
    assert len(names) >= 7 and found == set(names)
