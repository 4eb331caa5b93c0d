"""Run the benchmark on two commits in alternating pairs and summarise.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change . \
        --workload gen-large --workload verify-large --seeds 1001-1010 \
        --seconds 20 --out BENCH_5.json

Each side is a `git archive` of its revision unpacked into a temporary
directory; `--change .` copies the working tree's files there instead.
The two trees sit in <tmp>/a/tree and <tmp>/b/tree, of equal depth and
name length, because where a tree sits can move a run's peak_rss_mib.
For every seed and workload, `perfbench/run.py` runs once on each side.
The side that runs first alternates from pair to pair, and the trees
trade directories every two pairs, so any four consecutive pairs run each
side twice from each directory (see schedule).  The JSON written to --out
holds every run's metrics and the directory each side ran from ("dirs"),
and, per workload and metric, both sides' values,
median and quartiles, the pairs the change wins and ties (ties count as no
win), the change/parent ratio of the medians, and the metric's bound with
a flag set where the change median is worse than the parent median by
more than that bound, relative to the parent median.  The direction in
which a metric is better and its bound come from BENCHMARK.json.
Standard library only.  The exit code is 1 if any run reports a failed
op or gives no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DIRS = ("a", "b")


def parse_seeds(text):
    """"A-B" (inclusive) or a single seed, as a list of ints."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def checkout(rev, into):
    """The directory into/tree holding rev's files: a `git archive` of rev
    unpacked, or for "." a copy of the working tree's files, tracked or
    untracked but not ignored."""
    tree = into / "tree"
    if rev == ".":
        listed = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"],
            stdout=subprocess.PIPE, check=True).stdout.decode()
        for name in filter(None, listed.split("\0")):
            src = ROOT / name
            if src.is_file():  # skips paths deleted from the working tree
                (tree / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, tree / name)
        return tree
    into.mkdir(parents=True)
    tar = into / "src.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev],
                   check=True)
    with tarfile.open(tar) as tf:
        tf.extractall(tree, filter="data")
    tar.unlink()
    return tree


def schedule(i):
    """Pair i's run order and the directory each side runs from: the
    first side alternates every pair and the directories swap every two
    pairs, so any four consecutive pairs run each side twice first and
    twice from each directory."""
    order = SIDES if i % 2 == 0 else SIDES[::-1]
    dirs = DIRS if i // 2 % 2 == 0 else DIRS[::-1]
    return order, dict(zip(SIDES, dirs))


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


def summarise(parent, change, better, bound=None):
    """Summary of one metric over paired runs.

    parent[i] and change[i] come from the same pair; better is "lower" or
    "higher".  A pair whose values are equal is a tie and no win.  bound
    is the largest relative loss of the change median against the parent
    median, in the better direction, that the metric allows; None where
    the metric has no bound, and then nothing is flagged.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    loss = sign * (pq[1] - cq[1])
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
        "bound": bound,
        "beyond_bound": None if bound is None else loss > bound * abs(pq[1]),
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
    declared = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        at = dict(zip(SIDES, DIRS))
        for side in SIDES:
            checkout(getattr(args, side), tmp / at[side])
        for i, seed in enumerate(args.seeds):
            order, where = schedule(i)
            if where != at:  # the two trees trade directories
                (tmp / DIRS[0]).rename(tmp / "swap")
                (tmp / DIRS[1]).rename(tmp / DIRS[0])
                (tmp / "swap").rename(tmp / DIRS[1])
                at = where
            for workload in args.workload:
                run = {"workload": workload, "seed": seed, "first": order[0],
                       "dirs": where}
                for side in order:
                    result = run_once(tmp / where[side] / "tree", workload,
                                      seed, args.seconds)
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
                declared.get(name, {}).get("better", "lower"),
                declared.get(name, {}).get("bound"))
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
