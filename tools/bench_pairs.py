"""Run the benchmark on two commits in alternating pairs and summarise.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change . \
        --workload gen-large --workload verify-large --seeds 1001-1010 \
        --seconds 20 --out BENCH_5.json

Each side is a `git archive` of its revision unpacked into a temporary
directory; `--change .` runs the working tree as it is instead.  For every
seed and workload, `perfbench/run.py` runs once on each side, and the side
that runs first alternates from pair to pair.  The JSON written to --out
holds every run's metrics and, per workload and metric, both sides' values,
median and quartiles, the pairs the change wins and ties (ties count as no
win) and the change/parent ratio of the medians.  The direction in which a
metric is better comes from BENCHMARK.json.  Standard library only.  The
exit code is 1 if any run reports a failed op or gives no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """"A-B" (inclusive) or a single seed, as a list of ints."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def checkout(rev, into):
    """The directory holding rev's files: the working tree for ".", else
    a `git archive` of rev unpacked under into."""
    if rev == ".":
        return ROOT
    into.mkdir(parents=True)
    tar = into / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev],
                   check=True)
    tree = into / "tree"
    with tarfile.open(tar) as tf:
        tf.extractall(tree, filter="data")
    tar.unlink()
    return tree


def resolve(rev):
    """The commit id of rev; "." is the working tree over HEAD."""
    if rev == ".":
        return "working tree at " + resolve("HEAD")
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def run_once(tree, workload, seed, seconds):
    """The final JSON object of one benchmark run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {workload} seed {seed} in {tree} gave no "
                         f"result (exit {proc.returncode})") from None


def quartiles(values):
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(parent, change, better):
    """Summary of one metric over paired runs.

    parent[i] and change[i] come from the same pair; better is "lower" or
    "higher".  A pair whose values are equal is a tie and no win.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": pq[1],
        "parent_quartiles": [pq[0], pq[2]],
        "change_median": cq[1],
        "change_quartiles": [cq[0], cq[2]],
        "pairs": len(parent),
        "change_wins": wins,
        "ties": ties,
        "ratio": cq[1] / pq[1] if pq[1] else None,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True,
                   help='changed revision, or "." for the working tree')
    p.add_argument("--workload", required=True, action="append",
                   help="perfbench workload; may be given more than once")
    p.add_argument("--seeds", required=True, type=parse_seeds,
                   help="seed range A-B, one pair per seed")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = ("parent", "change")
    runs = []
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: checkout(getattr(args, side), Path(tmp) / side)
                 for side in sides}
        for i, seed in enumerate(args.seeds):
            order = sides if i % 2 == 0 else sides[::-1]
            for workload in args.workload:
                run = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    result = run_once(trees[side], workload, seed,
                                      args.seconds)
                    run[side] = result
                    failed |= result["failed"] > 0
                    print(f"{workload} seed {seed} {side}: failed "
                          f"{result['failed']}/{result['attempted']}",
                          file=sys.stderr)
                runs.append(run)
    workloads = {}
    for workload in args.workload:
        mine = [r for r in runs if r["workload"] == workload]
        names = mine[0]["parent"]["metrics"]
        workloads[workload] = {
            name: summarise(
                [r["parent"]["metrics"][name]["value"] for r in mine],
                [r["change"]["metrics"][name]["value"] for r in mine],
                better.get(name, "lower"))
            for name in names}
    args.out.write_text(json.dumps({
        "parent": resolve(args.parent),
        "change": resolve(args.change),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "summary": workloads,
        "runs": runs,
    }, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
