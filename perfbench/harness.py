"""Workloads, ops and checks of the addergen benchmark.

An op is one user action of the ``addergen`` CLI, driven through the
package's public functions with netlists kept as in-memory text:

* gen:     build_adder / build_full_adder -> metrics -> dumps_netlist
* verify:  loads_netlist -> verify_adder / verify_full_adder (CLI defaults)
* compare: cli.compare_rows for one (family, n), plus the full adder's
           build_full_adder -> verify_full_adder

Every output is checked outside the timed region: each distinct circuit
goes through the independent oracle (oracle.py) and a
dumps -> loads -> dumps round trip that must be byte-exact, and the
program's own structural figures must match the oracle's.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import math
import random
import statistics
import sys
import tracemalloc
import zlib
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from oracle import check_netlist
from tracing import LAYERS

SRC = Path(__file__).resolve().parent.parent / "src"
# fixed here rather than read from the package's registry, so a new family
# does not change the workloads
FAMILY_NAMES = ("brent-kung", "kogge-stone", "linear", "mig", "nandnor",
                "ripple", "sklansky")
# one mid width per family is drawn from each stratum; the strata are
# narrow and clear of powers of two, so every draw pads alike and the seed
# moves the workload's size and structure little
SWEEP_STRATA = ((20, 28), (44, 52), (92, 100), (188, 196), (284, 292))
# rounds per 10 s of --seconds: a fixed count, so the number of latency
# samples (and the tail percentile) never depends on the host
ROUNDS_PER_10S = 2
TAIL_BEYOND = 10
# tracemalloc slows the program 10-13x (gen mig 4096: 66 s instead of 5 s),
# so the memory pass runs only the ops whose circuits have this many gates
# in all: it leaves out mig 2048 and 4096, kogge-stone 4096, nandnor 16384,
# and sweep's small widths, whose bytes per gate are fixed overhead
MEMORY_PASS_GATES = (1_000, 100_000)


class Program(NamedTuple):
    """The imported package modules the ops call through."""

    circuit: object
    families: object
    netlist: object
    cli: object


class Op(NamedTuple):
    action: str  # "gen", "verify" or "compare"
    family: str
    n: int
    full: bool = False  # compare ops always do both
    seed: int = 0  # verification seed
    text: str = ""  # verify input netlist
    heavy: bool = False  # runs once, in the middle round, not every round

    @property
    def label(self):
        kind = ("carry+full" if self.action == "compare"
                else "full" if self.full else "carry")
        return f"{self.action} {self.family} {self.n} {kind}"


class Cell(NamedTuple):
    family: str
    n: int
    full: bool


def import_program():
    """Import addergen afresh from src/."""
    for name in [m for m in sys.modules
                 if m == "addergen" or m.startswith("addergen.")]:
        del sys.modules[name]
    pkg = importlib.import_module("addergen")
    mods = {m: importlib.import_module(f"addergen.{m}") for m in LAYERS}
    if Path(pkg.__file__).resolve().parent != SRC / "addergen":
        raise ImportError(f"addergen imported from {pkg.__file__}, not {SRC}")
    return Program(mods["circuit"], mods["families"], mods["netlist"],
                   mods["cli"])


def build_text(prog, family, n, full):
    fam = prog.families
    spec = fam.AdderSpec(family=family, n=n)
    c = fam.build_full_adder(spec) if full else fam.build_adder(spec)
    return prog.netlist.dumps_netlist(c, spec, full_adder=full)


def make_ops(prog, workload, seed):
    """The workload's fixed op list; every choice comes from the seed."""
    rng = random.Random(seed)
    if workload == "gen-large":
        cells = [(f, 4096) for f in FAMILY_NAMES] + [
            ("mig", 2048), ("linear", 16384), ("nandnor", 16384),
            ("linear", 3000)]
        return [Op("gen", f, n, heavy=f == "mig") for f, n in cells]
    if workload == "verify-large":
        cells = [("mig", 1024, False), ("kogge-stone", 4096, False),
                 ("ripple", 4096, False), ("nandnor", 4096, False),
                 ("linear", 16384, False), ("linear", 4096, True),
                 ("brent-kung", 1024, True)]
        return [Op("verify", f, n, full, rng.getrandbits(32),
                   build_text(prog, f, n, full)) for f, n, full in cells]
    if workload == "sweep":
        ops = []
        for f in FAMILY_NAMES:
            widths = list(range(1, 17)) + [rng.randint(lo, hi)
                                           for lo, hi in SWEEP_STRATA]
            ops.extend(Op("compare", f, n, seed=rng.getrandbits(32))
                       for n in widths)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


class Outcome(NamedTuple):
    ok: bool  # the program's own verdict (gen ops have none: True)
    text: str | None = None  # netlist a gen op wrote
    struct: tuple | None = None  # program's (gates, depth, max fan-out)
    loaded: object = None  # NetlistFile a verify op read


def run_op(prog, op):
    """One user action; returns its Outcome.

    struct is the program's own figure for the circuit a gen op built, or
    for the carry circuit a compare op measured, to be checked against the
    oracle.
    """
    fam, cli = prog.families, prog.cli
    if op.action == "gen":
        spec = fam.AdderSpec(family=op.family, n=op.n)
        c = fam.build_full_adder(spec) if op.full else fam.build_adder(spec)
        m = prog.circuit.metrics(c)
        text = prog.netlist.dumps_netlist(c, spec, full_adder=op.full)
        return Outcome(True, text, (m.size, m.depth, m.max_fanout))
    if op.action == "verify":
        nf = prog.netlist.loads_netlist(op.text)
        check = fam.verify_full_adder if nf.full_adder else cli.verify_adder
        report = check(nf.circuit, op.n, mode="auto",
                       samples=cli.DEFAULT_SAMPLES, seed=op.seed)
        return Outcome(report.ok, loaded=nf)
    row = cli.compare_rows([op.family], [op.n])[0]
    spec = fam.AdderSpec(family=op.family, n=op.n)
    full = fam.build_full_adder(spec)
    report = fam.verify_full_adder(full, op.n, mode="auto",
                                   samples=cli.DEFAULT_SAMPLES, seed=op.seed)
    return Outcome(row.verified and report.ok,
                   struct=(row.size, row.depth, row.max_fanout))


class Run:
    """Op latencies, failures and first outputs across rounds of one list."""

    def __init__(self, prog, ops):
        self.prog = prog
        self.ops = ops
        self.times = [[] for _ in ops]  # per op: latency of each run, s
        self.failed = set()  # (op index, run index)
        self.reasons = {}  # op index -> first failure reason
        self.first = {}  # op index -> (zlib'd text, sha256, structure)
        self.op_gates = {}  # op index -> gates of the circuits it produced

    def _fail(self, i, k, reason):
        self.failed.add((i, k))
        self.reasons.setdefault(i, reason)

    def run_rounds(self, rounds):
        """Run the op list `rounds` times, a heavy op only in the middle
        round; returns the summed latency of the runs made.

        The host's speed drifts over seconds, so every op's runs are spread
        across the whole measurement rather than made back to back.
        """
        total = 0.0
        for r in range(rounds):
            for i, op in enumerate(self.ops):
                if not op.heavy or r == rounds // 2:
                    total += self._execute(i, op)
        return total

    def latencies(self):
        """Each op's latency: the median of its runs (0 if it never ran)."""
        return [statistics.median(t) if t else 0.0 for t in self.times]

    def _execute(self, i, op):
        """Run op i once more and record its latency; returns it."""
        k = len(self.times[i])
        gc.collect()
        t0 = perf_counter()
        try:
            out = run_op(self.prog, op)
        except Exception as e:  # a failing op is counted, not fatal
            dt = perf_counter() - t0
            self.times[i].append(dt)
            self._fail(i, k, f"{type(e).__name__}: {e}")
            return dt
        dt = perf_counter() - t0
        self.times[i].append(dt)
        if not out.ok:
            self._fail(i, k, "program reported a verification mismatch")
        raw = out.text.encode() if out.text else None
        sha = hashlib.sha256(raw).hexdigest() if raw else None
        if i not in self.first:
            # held compressed, so the texts weigh little in peak RSS
            packed = zlib.compress(raw, 1) if raw else None
            self.first[i] = (packed, sha, out.struct)
            if out.loaded is not None:
                # the netlist a verify op read is checked here, while it is
                # loaded, rather than parsed again later
                try:
                    self._check_loaded(op, out.loaded, op.text)
                except ValueError as e:
                    self._fail(i, k, str(e))
        elif self.first[i][1:] != (sha, out.struct):
            self._fail(i, k, "output differs from the op's first run")
        return dt

    def memory_pass(self):
        """Peak traced bytes per gate over the ops whose checked circuits
        have MEMORY_PASS_GATES gates; returns (ratio, ops measured)."""
        lo, hi = MEMORY_PASS_GATES
        peak = gates = measured = 0
        tracemalloc.start()
        try:
            for i, op in enumerate(self.ops):
                if not lo <= self.op_gates.get(i, 0) <= hi:
                    continue
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_op(self.prog, op)
                peak += tracemalloc.get_traced_memory()[1] - base
                gates += self.op_gates[i]
                measured += 1
        finally:
            tracemalloc.stop()
        return (peak / gates if gates else 0.0), measured

    def check(self, seed):
        """Check every distinct circuit; returns the per-cell records."""
        records = []
        for i, op in enumerate(self.ops):
            packed, _, struct = self.first.get(i, (None, None, None))
            text = zlib.decompress(packed).decode() if packed else None
            if op.action == "verify":
                cells = [(Cell(op.family, op.n, op.full), op.text, None)]
            elif op.action == "gen":
                cells = [(Cell(op.family, op.n, op.full), text, struct)]
            else:
                cells = [(Cell(op.family, op.n, False), None, struct),
                         (Cell(op.family, op.n, True), None, None)]
            for cell, cell_text, want in cells:
                try:
                    if cell_text is None:
                        cell_text = build_text(self.prog, *cell)
                    rec = self._check_cell(cell, cell_text, want, seed,
                                           op.action == "verify")
                except Exception as e:  # any failure is the op's failure
                    for k in range(len(self.times[i])):
                        self._fail(i, k, f"{cell}: {type(e).__name__}: {e}")
                    continue
                records.append(rec)
                self.op_gates[i] = self.op_gates.get(i, 0) + rec["gates"]
        return records

    def _check_loaded(self, cell, nf, text):
        """The header names the cell and dumps -> loads -> dumps is exact."""
        if nf.spec is None or (nf.spec.family, nf.spec.n) != (cell.family,
                                                             cell.n):
            raise ValueError(f"header spec {nf.spec} does not name the cell")
        nl = self.prog.netlist
        if nl.dumps_netlist(nf.circuit, nf.spec, nf.full_adder) != text:
            raise ValueError("dumps -> loads -> dumps is not byte-exact")

    def _check_cell(self, cell, text, want, seed, verify_input=False):
        rng = random.Random(f"{seed}/{cell.family}/{cell.n}/{cell.full}")
        got = check_netlist(text, cell.n, cell.full, rng)
        if want is not None and tuple(want) != tuple(got):
            raise ValueError(f"program measured {tuple(want)}, "
                             f"oracle measured {tuple(got)}")
        if not verify_input:
            self._check_loaded(cell, self.prog.netlist.loads_netlist(text),
                               text)
        return {"family": cell.family, "n": cell.n,
                "kind": "full" if cell.full else "carry",
                "gates": got.gates, "depth": got.depth,
                "max_fanout": got.max_fanout,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}

    @property
    def attempted(self):
        return sum(len(t) for t in self.times)


def rounds_for(seconds, ops):
    """Fixed round count, enough for TAIL_BEYOND runs beyond the tail."""
    light = sum(not op.heavy for op in ops)
    heavy = len(ops) - light
    need = math.ceil(max(TAIL_BEYOND + 1 - heavy, 0) / max(light, 1))
    return max(need, 1, round(ROUNDS_PER_10S * seconds / 10))


def tail_quantile(n):
    """The highest nearest-rank quantile of n samples with TAIL_BEYOND
    samples beyond it (1 when there are too few)."""
    return (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 1.0


def harrell_davis(xs, q, steps=16):
    """Harrell-Davis estimate of the q-quantile of xs.

    A weighted mean of all order statistics, weighted by the mass the
    Beta((n+1)q, (n+1)(1-q)) distribution puts on each [(i-1)/n, i/n]
    (integrated by the midpoint rule, `steps` points per interval).  It
    averages the samples near the quantile instead of picking one, so it
    varies less from run to run than a sample quantile.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1 or q >= 1:
        return xs[-1]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    m = n * steps
    log_pdf = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
               for x in ((j + 0.5) / m for j in range(m))]
    top = max(log_pdf)  # scaled, so that no weight underflows
    weights = [0.0] * n
    for j, lp in enumerate(log_pdf):
        weights[j // steps] += math.exp(lp - top)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def structure_metrics(records):
    gates = sum(r["gates"] for r in records)
    bits = sum(r["n"] for r in records)
    return gates / bits, statistics.fmean(r["depth"] for r in records)
