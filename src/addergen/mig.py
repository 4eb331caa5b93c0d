"""Fan-out-two carry circuits built from multi-input generate gates.

Instead of combining two-position signals pairwise, a generate gate merges
up to 2**r carry candidates at once: given block carries g_1..g_q (low to
high) and block propagate windows x_2..x_q between them, it computes

    g_q  or  (g_{q-1} and x_q)  or  ...  or  (g_1 and x_2 and ... and x_q)

— the carry out of the concatenated range.  Stacking k such rows over
blocks whose width multiplies by 2**r per row yields every carry of an
n = 2**(r*k) bit addition in depth O(k*r + r + k) at fan-out two.

The supporting cast keeps every wire at fan-out two:
  * pools     each produced value is emitted as 2**(r-1) duplicate copies,
              every copy serving at most two consumers;
  * boxes     rooted buffer trees that refill a pool for columns whose
              value is already final at the current row;
  * taps      rooted buffer trees over backward AND-windows of the
              propagate inputs, one pool of 2**r single-use leaves per
              column and row, supplying the gates' propagate ports;
  * windows   a shared AND-prefix lattice computing all the backward
              windows, one buffered repeat row plus r doubling rows per
              block so every tap leaf lands at its exact target depth.

Columns can be truncated: building only columns 1..w of the full
2**(r*k)-wide structure yields a w-bit carry circuit, which is how widths
that are not of the form 2**(r*k) are served.  The raw structure, whose
size the closed formulas state, contains dead scaffolding (unread copies
and leaves, unread AND chains); it lives in tests/reference.py.  The
build here sizes every pool to the takes it will serve and so emits the
pruned raw structure itself.  It records each shape of buffer tree and
generate gate once as a circuit, running _replicate or _generate_gate on
its input ports, and inlines that circuit for every block of the shape;
so their gates depend on their shape arguments and which ports are None,
never on the port ids.
"""

from __future__ import annotations

import math
from operator import or_
from typing import NamedTuple

from .circuit import AND, BUF, OR, CircuitBuilder, Pool, _check_ints, lsb_carry


class MigParams(NamedTuple):
    r: int
    k: int
    full_width: int


def choose_params(n: int) -> MigParams:
    """Balanced block parameters: r = k = ceil(sqrt(ceil(ld n)))."""
    _check_ints(n=n)
    if n < 1:
        raise ValueError("width must be positive")
    ld = (n - 1).bit_length()
    side = 1 if ld <= 1 else math.isqrt(ld - 1) + 1
    return MigParams(side, side, 1 << (side * side))


def _replicate(b: CircuitBuilder, src: int, leaves: int, rooted: bool,
               live: int):
    """Buffer tree turning one value into `leaves` copies (a power of two),
    of which only the first `live` and their ancestors are emitted.

    Rooted trees spend one fan-out slot of src and cost 2*leaves - 1
    buffers in full; unrooted trees split src directly (both its slots)
    and cost 2*leaves - 2, with the single-leaf case returning src itself.
    """
    if not live:
        return []
    cur = [b.add_gate(BUF, src)] if rooted else [src]
    width = 1
    while width < leaves:
        width *= 2
        cur = [b.add_gate(BUF, cur[i // 2])
               for i in range(-(-live * width // leaves))]
    return cur


def _and_suffix(b: CircuitBuilder, ports):
    """Running ANDs T_j = ports[j] & ... & ports[q-1] by recursive doubling.

    Every level touches every position (combine or buffer) except that
    finished positions pass through the last level untouched, so each
    port feeds at most two gates.  T_0 is never consumed by a minterm;
    a None ports[0] skips its chain.  A position that would reach the
    output untouched is buffered once to keep raw ports off the result
    list."""
    q = len(ports)
    prev = list(ports)
    levels = (q - 1).bit_length()
    touched = [False] * q
    for i in range(1, levels + 1):
        d = 1 << (i - 1)
        final = i == levels
        cur = []
        for j in range(q):
            if prev[j] is None:
                cur.append(None)
            elif j + d < q:
                cur.append(b.add_gate(AND, prev[j], prev[j + d]))
                touched[j] = True
            elif not final or not touched[j]:
                cur.append(b.add_gate(BUF, prev[j]))
                touched[j] = True
            else:
                cur.append(prev[j])
        prev = cur
    return prev


def _dup_or(b: CircuitBuilder, leaves, copies: int, live: int):
    """The first `live` of `copies` duplicates of OR(leaves), each
    consumable at most twice.

    The leaf list splits contiguously at the largest power of two below
    its length; each recursion level emits `copies` ORs fed by half as
    many copies of either half, so the full case costs r * 2**(r-1) ORs
    and a single-copy request degenerates to a balanced OR tree.  The
    shape follows `copies`; `live` only truncates each level."""
    if len(leaves) == 1:
        if copies == 1:
            return list(leaves)
        sub = _dup_or(b, leaves, (copies + 1) // 2, (live + 1) // 2)
        return [b.add_gate(BUF, sub[i // 2]) for i in range(live)]
    h = 1 << ((len(leaves) - 1).bit_length() - 1)
    need, sub_live = (copies + 1) // 2, (live + 1) // 2
    left = _dup_or(b, leaves[:h], need, sub_live)
    right = _dup_or(b, leaves[h:], need, sub_live)
    return [b.add_gate(OR, left[i // 2], right[i // 2]) for i in range(live)]


def _generate_gate(b: CircuitBuilder, gen_ports, prop_ports, copies: int,
                   live: int):
    """One multi-input generate gate over q = len(gen_ports) >= 2 blocks:
    the first `live` of `copies` output copies.

    gen_ports[i] carries the carry out of block i (low to high), and
    prop_ports[i] the AND-window between block i-1 and block i; the
    window below the lowest block (prop_ports[0]) is structurally dead,
    and a None there skips its AND-suffix position."""
    q = len(gen_ports)
    suffix = _and_suffix(b, prop_ports)
    minterms = [b.add_gate(AND, gen_ports[j], suffix[j + 1])
                for j in range(q - 1)]
    last = gen_ports[q - 1]
    if copies > 1:
        # the duplication tree may wire a raw leaf twice; the highest gen
        # port was dispensed for a single wiring, so shield it
        last = b.add_gate(BUF, last)
    minterms.append(last)
    return _dup_or(b, minterms, copies, live)


def _windows(b: CircuitBuilder, xs, r: int, k: int, leaves, replicate):
    """Backward AND-windows of the propagate inputs, pooled for tapping.

    The tap (c, lam) is a pool of 2**r single-use buffer leaves, made by
    replicate (as _replicate), over the AND of columns (c - 2**(r*lam), c],
    of which only the first leaves(c, lam) are emitted, and of the lattice
    only the nodes those read.  Level-0 taps root directly on the inputs;
    level lam >= 1 taps root on the last doubling row of block lam.  Each
    block is a buffered repeat row followed by r doubling rows (columns
    whose window already reaches column 1 are buffered through), which
    places every level-lam leaf at depth exactly (lam + 1) * (r + 1).
    Returns the taps and the last row (None where dead).
    """
    w = len(xs)
    # one backward pass from the live tap roots: a doubling-row node reads
    # its own column and the one `length` below, a repeat-row node its own
    rows = []  # per lattice row, 1 where live, last row first
    live = bytes(w)
    for lam in range(k - 1, 0, -1):
        live = bytes(x | (leaves(c, lam) > 0)
                     for c, x in enumerate(live, start=1))
        for i in range(r - 1, -1, -1):
            rows.append(live)
            length = 1 << (r * (lam - 1) + i)
            live = bytes(map(or_, live, live[length:] + bytes(min(length, w))))
        rows.append(live)
    rows.reverse()

    def tap(c, lam, root):
        return Pool(replicate(b, root, 1 << r, True, leaves(c, lam)),
                    takes_per_item=1)

    taps = {(c, 0): tap(c, 0, xs[c - 1]) for c in range(1, w + 1)}
    cur = list(xs)
    length = 1
    rows = iter(rows)
    for lam in range(1, k):
        cur = [b.add_gate(BUF, v) if keep else None  # repeat row
               for v, keep in zip(cur, next(rows))]
        for _ in range(r):  # doubling rows; the right side reads the old cur
            cur = [None if not keep else b.add_gate(BUF, v) if j < length
                   else b.add_gate(AND, v, cur[j - length])
                   for j, (v, keep) in enumerate(zip(cur, next(rows)))]
            length *= 2
        for c in range(1, w + 1):
            taps[(c, lam)] = tap(c, lam, cur[c - 1])
    return taps, cur


def build_mig_adder(n: int, r: int | None = None, k: int | None = None):
    """Carry circuit over n positions built from multi-input generate gates.

    Parameters r (block merge width 2**r) and k (rows) default to the
    balanced choice; any n up to 2**(r*k) is built by column truncation.
    Row l works over blocks of width 2**(r*(l-1)): columns beyond one
    block boundary get a gate merging up to 2**r pooled block carries,
    columns inside the first block re-pool their final value through a
    box (or surrender it to the output on the last row).

    Only live gates are emitted, the raw structure's pruned form: pools
    are cut to the takes that reach an output, and a gate skips its
    lowest column's tap, which feeds only its dead AND-suffix position.
    The result validates cleanly at fan-out two.
    """
    if r is None and k is None:
        r, k, _ = choose_params(n)
    if r is None or k is None:
        raise ValueError("give both r and k, or neither")
    _check_ints(n=n, r=r, k=k)
    if r < 1 or k < 1:
        raise ValueError("r and k must be positive")
    if n < 1 or n > 1 << (r * k):
        raise ValueError(f"width {n} outside 1..2**(r*k)")
    b = CircuitBuilder(f"mig{n}-r{r}k{k}")
    ids = [b.add_input() for _ in range(2 * n)]
    xs, ys = ids[0::2], ids[1::2]
    full = 1 << r
    half = full >> 1
    blocks = {}  # (helper, shape) -> its circuit, recorded once per build

    # Column c's carry pool on a row of block width delta serves the gates
    # at columns c + m*delta > delta (m < 2**r), plus its own box or output
    # if c <= delta: 1 + min(2**r - 1, (n - c) // delta) takes, two per
    # copy.  Its tap serves the same gates bar those whose lowest column
    # it is: all of them if c <= delta, else the one at m = 2**r - 1.
    def copies(c, delta):
        return (2 + min(full - 1, (n - c) // delta)) // 2

    def leaves(c, lam):  # taps of level lam are read on row lam + 1
        delta = 1 << (r * lam)
        return min(full - 1, (n - c) // delta + 1) if c > delta else 0

    def stamped(key, ports, emit):  # emit(builder, ports) has key's shape
        if key not in blocks:
            blocks[key] = CircuitBuilder.record(emit, len(ports))
        return b.inline(blocks[key], ports)

    def replicate(_b, src, size, rooted, live):  # src may be a dead node
        return stamped((_replicate, size, rooted, live), [src], lambda rec, p:
                       _replicate(rec, *p, size, rooted, live)) if live else []

    def generate_gate(gens, props, n_out, live):  # props skip the dead one
        return stamped((_generate_gate, q := len(gens), n_out, live),
                       gens + props, lambda rec, p: _generate_gate(
                           rec, p[:q], [None, *p[q:]], n_out, live))

    taps, _ = _windows(b, xs, r, k, leaves, replicate)
    pools = {t: Pool(replicate(b, ys[t - 1], half, False, copies(t, 1)))
             for t in range(1, n + 1)}
    carries = [None] * n
    for l in range(1, k + 1):
        delta = 1 << (r * (l - 1))
        final = l == k
        nxt = {}
        for t in range(1, n + 1):
            if t <= delta:
                src = pools[t].take()
                if final:
                    carries[t - 1] = src
                else:
                    nxt[t] = Pool(replicate(b, src, half, True,
                                            copies(t, delta << r)))
            else:
                q = min(full, -(-t // delta))
                cols = [t - (q - i) * delta for i in range(1, q + 1)]
                gens = [pools[c].take() for c in cols]
                props = [taps[(c, l - 1)].take() for c in cols[1:]]
                n_out = 1 if final else half
                outs = generate_gate(gens, props, n_out,
                                     min(n_out, copies(t, delta << r)))
                if final:
                    carries[t - 1] = outs[0]
                else:
                    nxt[t] = Pool(outs)
        pools = nxt
    # the lowest carry is a plain copy of y_1; terminate it through the
    # absorbing y-or-(x-and-y) form so x_1 keeps a consumer after pruning
    carries[0] = lsb_carry(b, xs[0], carries[0])
    for cid in carries:
        b.mark_output(cid)
    return b.build()
