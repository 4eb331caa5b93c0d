"""The summary statistics of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_median_and_quartiles():
    s = bench_pairs.summarise([5.0, 1.0, 3.0, 2.0, 4.0], [1.0] * 5, "lower")
    assert s["parent_median"] == 3.0
    assert s["parent_quartiles"] == [2.0, 4.0]
    assert s["change_median"] == 1.0
    assert s["change_quartiles"] == [1.0, 1.0]
    assert s["ratio"] == pytest.approx(1 / 3)
    assert s["pairs"] == 5


def test_even_count_quartiles_interpolate():
    s = bench_pairs.summarise([1.0, 2.0, 3.0, 4.0], [1.0] * 4, "lower")
    assert s["parent_median"] == 2.5
    assert s["parent_quartiles"] == [1.75, 3.25]


@pytest.mark.parametrize("better,wins", [("lower", 2), ("higher", 1)])
def test_wins_exclude_ties(better, wins):
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 10.0, 11.0, 8.0]
    s = bench_pairs.summarise(parent, change, better)
    assert s["change_wins"] == wins
    assert s["ties"] == 1


def test_one_pair_has_equal_quartiles():
    s = bench_pairs.summarise([2.0], [1.0], "lower")
    assert s["parent_quartiles"] == [2.0, 2.0]
    assert s["change_wins"] == 1


@pytest.mark.parametrize("text,seeds", [("1001-1003", [1001, 1002, 1003]),
                                        ("7", [7])])
def test_seed_ranges(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
