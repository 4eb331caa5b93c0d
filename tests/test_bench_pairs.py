"""tools/bench_pairs.py: run schedule, checkouts, summary statistics;
tools/inprocess_ab.py: both trees in one process, on one small cell."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
inprocess_ab = _tool("inprocess_ab")


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


@pytest.mark.parametrize("better,parent,change,flagged", [
    ("lower", [1.0, 1.0, 1.0], [1.2, 1.2, 1.2], False),
    ("lower", [1.0, 1.0, 1.0], [1.3, 1.3, 1.3], True),
    ("lower", [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], False),
    ("higher", [1.0, 1.0, 1.0], [0.8, 0.8, 0.8], False),
    ("higher", [1.0, 1.0, 1.0], [0.7, 0.7, 0.7], True),
    ("higher", [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], False),
    # medians decide: one slow pair does not move the flag
    ("lower", [1.0, 1.0, 1.0], [1.0, 9.0, 1.0], False),
])
def test_bound_flags_median_loss(better, parent, change, flagged):
    s = bench_pairs.summarise(parent, change, better, bound=0.25)
    assert s["bound"] == 0.25
    assert s["beyond_bound"] is flagged


def test_unbounded_metric_is_not_flagged():
    s = bench_pairs.summarise([1.0], [5.0], "lower")
    assert s["bound"] is None
    assert s["beyond_bound"] is None


@pytest.mark.parametrize("text,seeds", [("1001-1003", [1001, 1002, 1003]),
                                        ("7", [7])])
def test_seed_ranges(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_working_tree_copied_like_a_revision(tmp_path):
    tree = bench_pairs.checkout(".", tmp_path)
    assert tree.is_relative_to(tmp_path)
    assert (tree / "perfbench" / "run.py").is_file()
    assert (tree / "src" / "addergen" / "__init__.py").is_file()
    assert not (tree / ".git").exists()


def test_schedule_alternates_first_side():
    firsts = [bench_pairs.schedule(i)[0][0] for i in range(4)]
    assert firsts == ["parent", "change", "parent", "change"]


@pytest.mark.parametrize("start", range(6))
def test_schedule_balances_directories(start):
    window = [bench_pairs.schedule(i) for i in range(start, start + 4)]
    for side in bench_pairs.SIDES:
        dirs = sorted(where[side] for _, where in window)
        assert dirs == ["a", "a", "b", "b"]
        assert sum(order[0] == side for order, _ in window) == 2
    for order, where in window:
        assert sorted(order) == sorted(bench_pairs.SIDES)
        assert where["parent"] != where["change"]
    # equal depth and name length: the two trees differ only in place
    assert len({len(d) for d in bench_pairs.DIRS}) == 1


@pytest.mark.parametrize("text,cell", [("ripple:8", ("ripple", 8, False)),
                                       ("mig:5:full", ("mig", 5, True))])
def test_inprocess_cells(text, cell):
    assert inprocess_ab.parse_cell(text) == cell


def test_inprocess_ab_times_both_sides_alternately(tmp_path):
    out = tmp_path / "ab.json"
    assert inprocess_ab.main(["--parent", ".", "--change", ".", "--rounds",
                              "3", "--cell", "ripple:8", "--out",
                              str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["rounds"] == 3
    assert result["change"].startswith("working tree at ")
    for side in bench_pairs.SIDES:
        assert f"addergen_{side}" in sys.modules
    for function in inprocess_ab.FUNCTIONS:
        seconds = result["times"]["ripple:8"][function]
        assert [len(seconds[side]) for side in bench_pairs.SIDES] == [3, 3]
        for cell in ("ripple:8", "total"):
            s = result["summary"][function][cell]
            assert s["pairs"] == 3 and s["ratio"] > 0
        total = result["summary"][function]["total"]
        assert total["parent"] == seconds["parent"]


def test_inprocess_ab_times_the_build_and_dumps():
    assert inprocess_ab.FUNCTIONS == ("build", "dumps_netlist",
                                      "loads_netlist", "verify")


def test_inprocess_ab_rejects_sides_that_build_differently(tmp_path,
                                                           monkeypatch):
    steps = inprocess_ab.steps

    def skewed(pkg, family, n, full):  # the change side builds n + 1 bits
        return steps(pkg, family, n + (pkg.__name__ == "addergen_change"),
                     full)

    monkeypatch.setattr(inprocess_ab, "steps", skewed)
    with pytest.raises(SystemExit, match="^error: ripple:8: the sides' "
                       "build differ$"):
        inprocess_ab.main(["--parent", ".", "--change", ".", "--rounds", "1",
                           "--cell", "ripple:8", "--out",
                           str(tmp_path / "ab.json")])
