"""Time two revisions' build, dumps, loads and verifiers in one process,
alternately.

Usage, from the repository root:

    python3 tools/inprocess_ab.py --parent HEAD --change . --rounds 12 \
        --cell mig:4096 --cell mig:2048 --out BENCH_31_inprocess.json

Each side is unpacked as `tools/bench_pairs.py` unpacks it (`checkout`),
and its `src/addergen` is imported under its own package name, so both
sides live in one process and see the same heap and the same caches.
Every round times, per cell (by default perfbench's verify-large cells),
each side's build (`build_full_adder` for a full adder, `build_adder`
otherwise), its `dumps_netlist` of what it built, its `loads_netlist` of
that text, then the verifier `perfbench` calls on its loaded circuit
(`verify_full_adder` or `verify_adder`; auto mode, default samples, a
fixed seed).  The side that goes first alternates from round to round,
and the sides' built arrays and output ids, texts, and loaded circuits
and reports must be equal.  The JSON written to --out holds every call's
seconds and, per cell, per function and for the sum over the cells,
`bench_pairs.summarise` of the two sides (medians, quartiles, change
wins, ratio).  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402

VERIFY_LARGE = [("mig", 1024, False), ("kogge-stone", 4096, False),
                ("ripple", 4096, False), ("nandnor", 4096, False),
                ("linear", 16384, False), ("linear", 4096, True),
                ("brent-kung", 1024, True)]
FUNCTIONS = ("build", "dumps_netlist", "loads_netlist", "verify")
SEED = 2727


def import_tree(tree, name):
    """tree/src/addergen imported as the package `name`, afresh: modules
    left by an earlier import under that name would be reused unbound."""
    for stale in [m for m in sys.modules if m.partition(".")[0] == name]:
        del sys.modules[stale]
    init = Path(tree) / "src" / "addergen" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def parse_cell(text):
    """"family:n" or "family:n:full" as a (family, n, full) cell."""
    family, n, *full = text.split(":")
    return family, int(n), full == ["full"]


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def arrays(c):
    """A circuit's arrays and output ids, comparable across sides."""
    return repr((c._codes, c._f0, c._f1, c.output_ids))


def steps(pkg, family, n, full):
    """One side's timed calls on one cell, {function: (call, key)} in
    FUNCTIONS order: call takes the previous call's result, and key makes
    its own result comparable across sides."""
    spec = pkg.AdderSpec(family, n)
    build = pkg.build_full_adder if full else pkg.build_adder
    check = pkg.verify_full_adder if full else pkg.verify_adder
    return {
        "build": (lambda _: build(spec), arrays),
        "dumps_netlist": (
            lambda c: pkg.netlist.dumps_netlist(c, spec, full), str),
        "loads_netlist": (pkg.netlist.loads_netlist,
                          lambda nf: arrays(nf.circuit)),
        "verify": (lambda nf: check(nf.circuit, n, seed=SEED),
                   lambda report: repr((report, report.proof))),
    }


def compare(trees, cells, rounds):
    """Per-call seconds of both sides over rounds, as
    {cell name: {function: {side: [seconds, ...]}}}; trees maps each side
    to its tree.  Each call's result must equal the other side's."""
    pkgs = {side: import_tree(tree, f"addergen_{side}")
            for side, tree in trees.items()}
    names = {f"{family}:{n}" + (":full" if full else ""): (family, n, full)
             for family, n, full in cells}
    times = {name: {f: {side: [] for side in bench_pairs.SIDES}
                    for f in FUNCTIONS} for name in names}
    for r in range(rounds):
        order = bench_pairs.SIDES if r % 2 == 0 else bench_pairs.SIDES[::-1]
        for name, cell in names.items():
            calls = {side: steps(pkgs[side], *cell) for side in order}
            last = dict.fromkeys(order)  # each side's latest result
            for f in FUNCTIONS:
                seen = set()
                for side in order:
                    call, key = calls[side][f]
                    t, last[side] = timed(call, last[side])
                    times[name][f][side].append(t)
                    seen.add(key(last[side]))
                if len(seen) > 1:
                    raise SystemExit(f"error: {name}: the sides' {f} differ")
    return times


def summary(times):
    """bench_pairs.summarise of every cell and function, and of the sum
    over the cells per round, lower being better."""
    out = {}
    for f in FUNCTIONS:
        per = {name: bench_pairs.summarise(
            fs[f]["parent"], fs[f]["change"], "lower")
            for name, fs in times.items()}
        sums = {side: [sum(col) for col in zip(
            *(fs[f][side] for fs in times.values()))]
            for side in bench_pairs.SIDES}
        per["total"] = bench_pairs.summarise(sums["parent"], sums["change"],
                                             "lower")
        out[f] = per
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True,
                   help='changed revision, or "." for the working tree')
    p.add_argument("--rounds", type=int, default=12)
    p.add_argument("--cell", action="append", type=parse_cell,
                   help="family:n or family:n:full; may be given more than "
                   "once (default: perfbench's verify-large cells)")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: bench_pairs.checkout(getattr(args, side),
                                            Path(tmp) / side)
                 for side in bench_pairs.SIDES}
        times = compare(trees, args.cell or VERIFY_LARGE, args.rounds)
    args.out.write_text(json.dumps({
        "parent": bench_pairs.resolve(args.parent),
        "change": bench_pairs.resolve(args.change),
        "rounds": args.rounds,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "summary": summary(times),
        "times": times,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
