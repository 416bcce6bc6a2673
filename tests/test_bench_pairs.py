"""The no-regression verdict that tools/bench_pairs.py writes per metric."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# Parent runs with median 10.0 and quartiles 9.625 and 10.375 (IQR 0.75).
PARENT = [9.0, 9.5, 9.5, 10.0, 10.0, 10.0, 10.0, 10.5, 10.5, 11.0]


def shifted(by):
    return [v + by for v in PARENT]


@pytest.mark.parametrize(
    "change, direction, bound, expected",
    [
        (shifted(2.6), "lower", 0.25, "worse"),  # 2.6 over a 2.5 allowance
        (shifted(2.4), "lower", 0.25, "ok"),
        (shifted(-2.6), "higher", 0.25, "worse"),
        (shifted(2.6), "higher", 0.25, "ok"),  # better by any amount
        (shifted(0.0), "lower", 0.05, "unresolved"),  # IQR 0.75 over a 0.5 allowance
        (shifted(-0.3), "lower", 0.05, "unresolved"),  # better, but not in every run
        ([8.0] * 10, "lower", 0.05, "ok"),  # every change run beats every parent run
        ([12.0] * 10, "higher", 0.05, "ok"),
        (shifted(0.6), "lower", 0.05, "worse"),  # worse is decided before the spread
    ],
)
def test_verdict(change, direction, bound, expected):
    assert bench_pairs.verdict(PARENT, change, direction, bound) == expected


def test_verdict_with_a_zero_parent_median():
    assert bench_pairs.verdict([0.0] * 10, [0.0] * 10, "lower", 0.25) == "ok"
    assert bench_pairs.verdict([0.0] * 10, [1.0] * 10, "lower", 0.25) == "worse"
