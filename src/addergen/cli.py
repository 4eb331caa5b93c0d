"""Command-line front end: generate, verify, compare, and export adders.

Subcommands:
  gen      build one adder and write it as a netlist file
  verify   check a netlist against the carry (or integer-sum) semantics
  compare  measure families across widths into a CSV table
  export   render a netlist as DOT graph text

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import islice
from typing import NamedTuple

from .circuit import metrics
from .families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder, verify_full_adder,
)
from .netlist import _dot_blocks, load_netlist, save_netlist
from .semantics import (
    DEFAULT_SAMPLES, DEFAULT_SEED, MAX_COUNTEREXAMPLES, verify_adder,
)


class ComparisonRow(NamedTuple):
    """One measured table entry; verified means 0 mismatches in its run."""

    family: str
    n: int
    depth: int
    size: int
    max_fanout: int
    verified: bool


CSV_COLUMNS = list(ComparisonRow._fields)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="addergen",
        description="Generate, verify, and measure gate-level adder circuits.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an adder netlist")
    g.add_argument("--family", required=True, choices=sorted(FAMILIES),
                   help="adder family to build")
    g.add_argument("--n", required=True, type=int, help="width in bits")
    g.add_argument("--r", type=int, help="window rank (mig only)")
    g.add_argument("--k", type=int, help="window count (mig only)")
    g.add_argument("--tau", type=int, help="halving levels (linear only)")
    g.add_argument("--full-adder", action="store_true", help="add XOR and "
                   "AND preparation and sum stages to the carry circuit")
    g.add_argument("--out", required=True, help="netlist file to write")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="verify a netlist file")
    v.add_argument("--in", dest="infile", required=True,
                   help="netlist file to check")
    mode = v.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="sweep every input pattern")
    mode.add_argument("--samples", type=int,
                      help="random patterns to draw (default auto)")
    v.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                   help="random seed (default 0xC0FFEE)")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("compare", help="tabulate families across widths")
    c.add_argument("--families", required=True,
                   help="comma-separated family names")
    c.add_argument("--n", required=True,
                   help="comma-separated widths, e.g. 2,4,8")
    c.add_argument("--out", help="CSV file to write (default stdout)")
    c.set_defaults(func=cmd_compare)

    e = sub.add_parser("export", help="render a netlist as DOT")
    e.add_argument("--in", dest="infile", required=True,
                   help="netlist file to read")
    e.add_argument("--dot", required=True, help="DOT file to write")
    e.set_defaults(func=cmd_export)
    return p


def cmd_gen(args) -> int:
    spec = AdderSpec(family=args.family, n=args.n, r=args.r, k=args.k,
                     tau=args.tau)
    c = build_full_adder(spec) if args.full_adder else build_adder(spec)
    save_netlist(c, args.out, spec=spec, full_adder=args.full_adder)
    m = metrics(c)
    kind = "full adder" if args.full_adder else "carry circuit"
    print(f"{args.out}: {spec.family} n={spec.n} {kind} "
          f"size={m.size} depth={m.depth} max_fanout={m.max_fanout}")
    return 0


def cmd_verify(args) -> int:
    nf = load_netlist(args.infile)
    c = nf.circuit
    if nf.full_adder:
        n = nf.spec.n if nf.spec else len(c.output_ids) - 1
        checker = verify_full_adder
    else:
        n = nf.spec.n if nf.spec else len(c.input_ids) // 2
        checker = verify_adder
    if args.exhaustive:
        mode, samples = "exhaustive", DEFAULT_SAMPLES
    elif args.samples is not None:
        mode, samples = "random", args.samples
    else:
        mode, samples = "auto", DEFAULT_SAMPLES
    report = checker(c, n, mode=mode, samples=samples, seed=args.seed)
    # only a sampled report, auto's fallback included, drew from the seed
    seed = f" seed={args.seed:#x}" if report.mode == "random" else ""
    print(f"{args.infile}: {report.summary()}{seed}")
    shown = ((phase, ce) for phase in report.phases
             for ce in phase.counterexamples)
    for phase, ce in islice(shown, MAX_COUNTEREXAMPLES):
        pairs = " ".join(f"({a},{b})" for a, b in ce.pairs)
        print(f"counterexample #{ce.index} [{phase.name}]: "
              f"inputs {pairs} expected {ce.expected} got {ce.got}")
    return 0 if report.ok else 1


def compare_rows(families, widths):
    """Build and measure each (family, n); verification uses the defaults."""
    rows = []
    for family in families:
        for n in widths:
            spec = AdderSpec(family=family, n=n)
            c = build_adder(spec)
            m = metrics(c)
            ok = verify_adder(c, n).ok
            rows.append(ComparisonRow(family, n, m.depth, m.size,
                                      m.max_fanout, ok))
    return rows


def cmd_compare(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    try:
        widths = [int(s) for s in args.n.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"bad width list {args.n!r}") from None
    if not families or not widths:
        raise ValueError("need at least one family and one width")
    rows = compare_rows(families, widths)

    def emit(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow([row.family, row.n, row.depth, row.size,
                        row.max_fanout, str(row.verified).lower()])

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        print(f"{args.out}: {len(rows)} rows")
    else:
        emit(sys.stdout)
    return 0


def cmd_export(args) -> int:
    nf = load_netlist(args.infile)
    with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_dot_blocks(nf.circuit))
    print(f"{args.dot}: {len(nf.circuit)} nodes")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
