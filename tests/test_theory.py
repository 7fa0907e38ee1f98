import sys

import pytest

from decenopt import algorithms, engine, theory
from decenopt.theory import max_stepsize, outer_iteration_bound, predicted_complexity

BIG = 10 ** 400      # an int beyond the float range


@pytest.mark.parametrize("call, message", [
    (lambda: predicted_complexity(10, 10, BIG, 0.5), f"n * B exceeds the float range, got n=10, B={BIG}"),
    (lambda: predicted_complexity(BIG, 1, 1, 0.5), f"n * m exceeds the float range, got n={BIG}, m=1"),
    (lambda: max_stepsize(BIG, 1, 1, 0.5, 1.0), f"n * B exceeds the float range, got n={BIG}, B=1"),
    (lambda: max_stepsize(10, BIG, 1, 0.5, 1.0), f"n * B exceeds the float range, got n=10, B={BIG}"),
    (lambda: max_stepsize(10, 1, BIG, 0.5, 1.0), f"q exceeds the float range, got q={BIG}"),
    (lambda: outer_iteration_bound(1.5, 1.0, 0.3, 0.01, BIG, 2.0, 0.1),
     f"q exceeds the float range, got q={BIG}"),
], ids=["predicted-B", "predicted-n", "stepsize-n", "stepsize-B", "stepsize-q", "outer-q"])
def test_count_beyond_float_range_is_a_value_error(call, message):
    # each used to end in OverflowError: int too large to convert to float
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_float_range_edge_is_exact():
    top = int(sys.float_info.max)
    theory._check_float_range(n=top, m=1)
    with pytest.raises(ValueError, match="^n \\* m exceeds the float range"):
        theory._check_float_range(n=top + 1, m=1)
    assert 0 < max_stepsize(2 ** 1000, 1, 1, 0.5, 1.0) < 1


def test_formulas_live_only_in_theory():
    names = ("max_stepsize", "recommend_parameters", "ComplexityEstimate", "predicted_complexity",
             "outer_iteration_bound", "_check_float_range", "gradient_optimal_batch",
             "communication_optimal_batch")
    assert [name for name in names if hasattr(algorithms, name)] == []
    # engine imports the one formula resolve calls
    assert [name for name in names if hasattr(engine, name)] == ["max_stepsize"]
    assert engine.max_stepsize is theory.max_stepsize


def test_complexity_estimate_holds_only_its_totals():
    est = predicted_complexity(10, 1000, 1, 0.5)
    assert list(vars(est)) == ["H", "K", "regime"]
