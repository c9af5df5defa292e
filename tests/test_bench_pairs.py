import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _metric(better, parent, change):
    # a metric's summary from its per-pair values, as workload_summary writes it
    return {"better": better, "parent": bench_pairs.summarize(parent), "change": bench_pairs.summarize(change),
            "per_seed": {"parent": parent, "change": change}}


@pytest.mark.parametrize("better, parent, change, verdict", [
    # a median 30% worse than the parent's, past a 25% bound, either way round
    ("higher", [100, 100, 100, 100], [70, 70, 70, 70], "worse"),
    ("lower", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "worse"),
    # 20% worse, inside the bound, on a tight parent
    ("higher", [100, 101, 99, 100], [80, 80, 80, 80], "held"),
    # a parent spread wider than the bound, and a change inside it
    ("higher", [50, 150, 60, 140], [100, 100, 100, 100], "unresolved"),
    ("higher", [50, 150, 60, 140], [140, 200, 160, 160], "unresolved"),
    # the same spread, and every run of the change better than every run of the parent
    ("higher", [50, 150, 60, 140], [160, 160, 160, 160], "held"),
    ("lower", [5.0, 15.0, 6.0, 14.0], [4.0, 4.0, 4.0, 4.0], "held"),
    # one pair: its own median and quartiles
    ("lower", [2.0], [2.1], "held"),
    ("lower", [2.0], [3.0], "worse"),
])
def test_regression_verdicts(better, parent, change, verdict):
    assert bench_pairs.regression(_metric(better, parent, change), 0.25) == verdict


def test_one_run_is_its_own_median_and_quartiles():
    assert bench_pairs.summarize([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}
