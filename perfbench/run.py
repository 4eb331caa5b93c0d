"""Benchmark of addergen's gen, verify and compare actions.

Usage, from the repository root:

    python3 perfbench/run.py --workload gen-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see BENCHMARK.json for why each was chosen):
  gen-large     gen ops on large cells: build, metrics, netlist text
  verify-large  verify ops on netlist texts built during set-up
  sweep         compare ops over every family at widths 1..16 plus drawn
                mid widths, each also as a full adder

Each run imports the package from src/ and sets up several times
(setup_s is the median).  With tracing off it runs the workload's op list
a fixed number of rounds (a heavy op only in the middle round), so each
op's runs are spread across the measurement; an op's latency is the
median of its runs (see Run.run_rounds), and op_p50_s and op_tail_s are
Harrell-Davis estimates over all op runs.  It reads the process's peak
RSS after the rounds and checks every output outside the timed region.
With --trace 1 it sets up once and runs one untraced round, one round
with spans around every public function of each module (tracing.py),
and a memory pass under tracemalloc over the ops sized within
harness.MEMORY_PASS_GATES; it reports the per-layer metrics instead.
The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}.  The exit code is 1 if any op failed,
and 2 on a usage error or when the program is missing.  One process runs
one workload; --workload all runs each in turn in its own process and
prints one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from tracing import BLIND_SPOTS, Tracer  # noqa: E402

WORKLOADS = ("gen-large", "verify-large", "sweep")
# set up at least this many times, and until SETUP_MIN_S has gone by
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15

# spans whose self time is reported as "<span>.self_s"
SELF_SPANS = (
    "circuit.prune_dead", "circuit.validate", "circuit.metrics",
    "circuit.node_depths", "circuit.constant_fold", "mig.build_mig_adder",
    "netlist.dumps_netlist", "netlist.loads_netlist",
    "semantics.simulate_packed", "semantics.verify_adder",
    "semantics.packed_ripple", "families.verify_full_adder",
    "families.build_adder", "families.build_full_adder",
    "prefix.expand_to_logic", "reduction.apply_reduction",
    "techmap.levelize", "techmap.build_nandnor_adder", "cli.compare_rows",
)
GRAPH_SPANS = ("prefix.serial_prefix", "prefix.sklansky",
               "prefix.kogge_stone", "prefix.brent_kung")


def setup(workload, seed):
    """Import the program and make the workload's inputs; returns
    (program, ops, seconds)."""
    t0 = perf_counter()
    prog = harness.import_program()
    ops = harness.make_ops(prog, workload, seed)
    return prog, ops, perf_counter() - t0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def end_to_end(run, setup_s, records, peak_rss_kib):
    samples = [x for t in run.times for x in t]  # every op run's latency
    q = harness.tail_quantile(len(samples))
    gpb, depth = harness.structure_metrics(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(run.latencies()), "s"),
        "op_p50_s": (harness.harrell_davis(samples, 0.5), "s"),
        "op_tail_s": (harness.harrell_davis(samples, q), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
        "gates_per_bit": (gpb, "gates/bit"),
        "depth_mean": (depth, "levels"),
    }
    rounds = max(len(t) for t in run.times)
    heavy = sum(op.heavy for op in run.ops)
    notes = [f"op_p50_s and op_tail_s are Harrell-Davis estimates of the "
             f"p50 and p{100 * q:.1f} of {len(samples)} op runs ({rounds} "
             f"rounds of {len(run.ops)} ops, {heavy} of them run once)",
             "op latencies (median of runs): "
             + " ".join(f"{x:.4g}" for x in run.latencies()) + " s"]
    return metrics, notes


def per_layer(tr, wall_traced, wall_untraced, memory, n_ops):
    s, c = tr.self_s, tr.counts
    metrics = {f"{name}.self_s": (s(name), "s") for name in SELF_SPANS}
    metrics["prefix.graph.self_s"] = (s(*GRAPH_SPANS), "s")
    metrics["circuit.prune_dead.kept_ratio"] = (
        _ratio(c["prune_out"], c["prune_in"]), "ratio")
    metrics["netlist.dumps_netlist.bytes_per_s"] = (
        _ratio(c["dumps_bytes"], s("netlist.dumps_netlist")), "B/s")
    metrics["netlist.loads_netlist.nodes_per_s"] = (
        _ratio(c["loads_nodes"], s("netlist.loads_netlist")), "nodes/s")
    metrics["semantics.simulate_packed.calls"] = (
        tr.calls("semantics.simulate_packed"), "count")
    metrics["semantics.simulate_packed.gate_evals_per_s"] = (
        _ratio(c["gate_evals"], s("semantics.simulate_packed")), "evals/s")
    per_gate, measured = memory
    metrics["tracemalloc.peak_bytes_per_gate"] = (per_gate, "B/gate")
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    covered = sum(stat[2] for stat in tr.spans.values())
    metrics["trace.coverage"] = (_ratio(covered, wall_traced), "ratio")
    notes = [f"blind spot: {b}" for b in BLIND_SPOTS]
    lo, hi = harness.MEMORY_PASS_GATES
    notes.append(f"tracemalloc pass ran {measured} of {n_ops} ops, "
                 f"those of {lo} to {hi} gates")
    notes.append(f"traced round {wall_traced:.3f} s, untraced round "
                 f"{wall_untraced:.3f} s")
    return metrics, notes


def setup_repeated(workload, seed):
    """Set up SETUP_REPEATS times or more; returns (program, ops, median
    set-up seconds)."""
    times = []
    t_end = perf_counter() + SETUP_MIN_S
    while len(times) < SETUP_REPEATS or (perf_counter() < t_end and
                                         len(times) < SETUP_MAX_REPEATS):
        prog, ops, setup_s = setup(workload, seed)
        times.append(setup_s)
    return prog, ops, statistics.median(times)


def run_workload(workload, seed, seconds, trace):
    prog, ops, setup_s = (setup(workload, seed) if trace
                          else setup_repeated(workload, seed))
    run = harness.Run(prog, ops)
    if trace:
        wall_untraced = run.run_rounds(1)
        with Tracer() as tr:
            wall_traced = run.run_rounds(1)
    else:
        run.run_rounds(harness.rounds_for(seconds, ops))
        # read before the checks, which parse every circuit again
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    records = run.check(seed)
    if trace:
        # after the checks, which count the gates each op produces
        memory = run.memory_pass()
        metrics, notes = per_layer(tr, wall_traced, wall_untraced, memory,
                                   len(ops))
    else:
        metrics, notes = end_to_end(run, setup_s, records, peak_rss_kib)
    return run, records, metrics, notes


def _row(workload, run, metrics):
    fields = [f"{name}={value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    fields.append(f"failed_ops={_ratio(len(run.failed), run.attempted):.6g}"
                  f" ratio ({len(run.failed)}/{run.attempted})")
    return f"row {workload}: " + " ".join(fields)


def main_one(args):
    print(f"# addergen perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" {platform.machine()} {platform.system()}")
    run, records, metrics, notes = run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    for rec in records:
        print("cell " + json.dumps(rec, sort_keys=True))
    for i in sorted(run.reasons):
        print(f"FAILED {run.ops[i].label}: {run.reasons[i]}")
    for note in notes:
        print(f"note: {note}")
    print(_row(args.workload, run, metrics))
    failed = len(run.failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main_all(args):
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(ln for ln in lines
                        if ln.startswith(("row ", "FAILED ", "# machine"))))
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (harness.SRC / "addergen" / "__init__.py").is_file():
        print(f"error: no addergen package under {harness.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    return main_all(args) if args.workload == "all" else main_one(args)


if __name__ == "__main__":
    sys.exit(main())
