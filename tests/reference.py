"""Reference semantics, prefix-graph figures and the raw mig structure,
beside the tests that compare against them.

The scalar semantics fold over bit lists and integers independently of
any circuit, so a circuit's carries and sums are checked against a
computation that shares none of its structure.

The raw mig structure is the paper's construction at full size, and the
closed size formulas state its size: every carry pool holds 2**(r-1)
copies, every tap 2**r leaves, and every generate gate reads its lowest
column's tap.  The library builds only its pruned form, and the tests
check that `prune_dead` of the raw structure is exactly that build.  The
pruned form's former body, which emitted every gate through add_gate,
is kept too: the build that inlines recorded blocks must equal it array
for array.

A prefix graph's own depth, size and fan-out are read off a circuit with
one node per graph node, through the walks `metrics` uses.

The line-by-line netlist parse runs every line through the whole chain of
per-line checks in order, and the reference prover rules spell their
interval tests through a helper and `min`/`max`; the library's fast
paths and inline comparisons must agree with both exactly.
"""

import json
import re
from array import array

from addergen.circuit import (
    AND, BUF, INPUT, KIND_ARITY, Circuit, CircuitBuilder, CircuitError, Pool,
    lsb_carry, node_depths,
)
from addergen.families import AdderSpec, _spec_type_problem
from addergen.mig import _generate_gate, _replicate, _windows, choose_params
from addergen.netlist import (
    _CODES, FORMAT_NAME, FORMAT_VERSION, NetlistFile, _header_line,
    _interface_names, _Lines,
)
from addergen.prefix import OP, PAIR

# ---------------------------------------------------------------------------
# scalar reference semantics


def gp_prepare(a_bits, b_bits):
    """Propagate/generate pairs (x_i, y_i) from two summand bit lists."""
    if len(a_bits) != len(b_bits):
        raise ValueError("summands differ in length")
    return [(a ^ b, a & b) for a, b in zip(a_bits, b_bits)]


def ripple_carries(pairs):
    """Carries c_2..c_{n+1} from (x, y) pairs by the serial recurrence."""
    carries = []
    c = 0
    for x, y in pairs:
        c = y | (x & c)
        carries.append(c)
    return carries


def sum_bits(pairs):
    """Sum bits s_1..s_{n+1} of an addition given its (x, y) pairs."""
    carries = [0] + ripple_carries(pairs)
    xs = [x for x, _ in pairs]
    return [c ^ x for c, x in zip(carries, xs)] + [carries[-1]]


def prefix_op(upper, lower):
    """Combine two (x, y) range signals, upper covering the higher bits."""
    xi, yi = upper
    xj, yj = lower
    return (xi & xj, yi | (xi & yj))


def block_signals(pairs, i, j):
    """Range propagate/generate of bits i..j (1-based, inclusive)."""
    acc = pairs[i - 1]
    for k in range(i, j):
        acc = prefix_op(pairs[k], acc)
    return acc


def int_to_bits(value, n):
    return [(value >> i) & 1 for i in range(n)]


def bits_to_int(bits):
    out = 0
    for i, bit in enumerate(bits):
        out |= (bit & 1) << i
    return out


# ---------------------------------------------------------------------------
# prefix-graph figures


def graph_circuit(g):
    """One circuit node per node of prefix graph g, with the same ids: an
    input per pair, an AND per op and a BUF per repeater, outputs marked.
    An output may be a pair, so `metrics` would reject the circuit."""
    b = CircuitBuilder(g.name)
    for v in g.nodes:
        if v.kind == PAIR:
            b.add_input()
        elif v.kind == OP:
            b.add_gate(AND, v.upper.id, v.lower.id)
        else:
            b.add_gate(BUF, v.upper.id)
    for v in g.outputs:
        b.mark_output(v.id)
    return b.build()


def graph_figures(g):
    """(size, depth, max fan-out) of prefix graph g: its combines and
    repeaters, its longest node path, and its most consumers of a node,
    an output marker counting as one."""
    c = graph_circuit(g)
    return c.num_gates, max(node_depths(c)), max(c.consumer_counts())


# ---------------------------------------------------------------------------
# the raw mig structure


def generate_gate(b: CircuitBuilder, r: int, gens, props, final_level=False):
    """One full-size generate gate over q = len(gens) blocks: 2**(r-1)
    pooled output copies on inner rows, a single balanced-tree output when
    final_level is set."""
    if len(gens) != len(props) or len(gens) < 2:
        raise ValueError("need matching gen/prop ports, at least two blocks")
    copies = 1 if final_level else 1 << (r - 1)
    return _generate_gate(b, gens, props, copies, copies)


def augmented_and_prefix(b: CircuitBuilder, xs, r: int, k: int,
                         omit_last_block=True):
    """The window lattice with every tap at its full 2**r leaves, as
    {(c, lam): Pool}.  The final block would only feed taps no gate
    reads; omit_last_block=False keeps its dead repeat row, completing the
    unpruned size formula w*r*(k-1) + w*k*2**(r+1)."""
    taps, cur = _windows(b, xs, r, k, lambda c, lam: 1 << r, _replicate)
    if not omit_last_block:
        for v in cur:
            b.add_gate(BUF, v)
    return taps


def raw_mig_adder(n: int, r=None, k=None):
    """The raw mig carry circuit over n positions: build_mig_adder's row
    loop with every pool, tap and gate at full size."""
    if r is None and k is None:
        r, k, _ = choose_params(n)
    b = CircuitBuilder(f"mig{n}-r{r}k{k}")
    ids = [b.add_input() for _ in range(2 * n)]
    xs, ys = ids[0::2], ids[1::2]
    full = 1 << r
    half = full >> 1
    taps = augmented_and_prefix(b, xs, r, k)
    pools = {t: Pool(_replicate(b, ys[t - 1], half, False, half))
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
                    nxt[t] = Pool(_replicate(b, src, half, True, half))
            else:
                q = min(full, -(-t // delta))
                cols = [t - (q - i) * delta for i in range(1, q + 1)]
                gens = [pools[c].take() for c in cols]
                props = [taps[(c, l - 1)].take() for c in cols]
                outs = generate_gate(b, r, gens, props, final)
                if final:
                    carries[t - 1] = outs[0]
                else:
                    nxt[t] = Pool(outs)
        pools = nxt
    carries[0] = lsb_carry(b, xs[0], carries[0])
    for cid in carries:
        b.mark_output(cid)
    return b.build()


def direct_mig_adder(n: int, r=None, k=None):
    """build_mig_adder as it emitted every gate through add_gate, before it
    inlined repeated blocks from one recording per shape; both must give
    equal arrays and output ids."""
    if r is None and k is None:
        r, k, _ = choose_params(n)
    b = CircuitBuilder(f"mig{n}-r{r}k{k}")
    ids = [b.add_input() for _ in range(2 * n)]
    xs, ys = ids[0::2], ids[1::2]
    full = 1 << r
    half = full >> 1

    def copies(c, delta):
        return (2 + min(full - 1, (n - c) // delta)) // 2

    def leaves(c, lam):
        delta = 1 << (r * lam)
        return min(full - 1, (n - c) // delta + 1) if c > delta else 0

    taps, _ = _windows(b, xs, r, k, leaves, _replicate)
    pools = {t: Pool(_replicate(b, ys[t - 1], half, False, copies(t, 1)))
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
                    nxt[t] = Pool(_replicate(b, src, half, True,
                                             copies(t, delta << r)))
            else:
                q = min(full, -(-t // delta))
                cols = [t - (q - i) * delta for i in range(1, q + 1)]
                gens = [pools[c].take() for c in cols]
                props = [None] + [taps[(c, l - 1)].take() for c in cols[1:]]
                n_out = 1 if final else half
                outs = _generate_gate(b, gens, props, n_out,
                                      min(n_out, copies(t, delta << r)))
                if final:
                    carries[t - 1] = outs[0]
                else:
                    nxt[t] = Pool(outs)
        pools = nxt
    carries[0] = lsb_carry(b, xs[0], carries[0])
    for cid in carries:
        b.mark_output(cid)
    return b.build()


# ---------------------------------------------------------------------------
# the line-by-line netlist parse


def reference_loads(text):
    """loads_netlist with every line checked by the one chain of per-line
    checks, in order, and no fast path."""
    lines = _Lines([text])
    rows = iter(lines)
    first = next(rows, None)
    if first is None:
        raise ValueError("empty netlist")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"bad netlist header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError("not an addergen netlist")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported netlist version {version!r}")
    spec = None
    raw_spec = header.get("spec")
    if raw_spec is not None:
        try:
            spec = AdderSpec(**raw_spec)
        except TypeError as e:
            raise ValueError(f"bad spec in header: {e}") from None
        problem = _spec_type_problem(spec)
        if problem:
            raise ValueError(f"bad spec in header: {problem}")
    codes, f0, f1 = array("b"), array("i"), array("i")
    outputs = []
    for ln, line in enumerate(rows, start=2):
        if not line:
            raise ValueError(f"line {ln}: blank line")
        parts = line.split(" ")
        if parts[0] == "output":
            if len(parts) != 2:
                raise ValueError(f"line {ln}: malformed output record")
            outputs.append(parts[1])
            continue
        if outputs:
            raise ValueError(f"line {ln}: node record after output records")
        nid = len(codes)
        if parts[0] != str(nid):
            got = parts[0]
            if got.isascii() and got.isdigit() and (
                    got.lstrip("0") == got or got == "0"):
                raise ValueError(f"line {ln}: node id {got} out of sequence")
            raise ValueError(f"line {ln}: bad node id {got!r}")
        kind = parts[1] if len(parts) > 1 else ""
        code = _CODES.get(kind)
        if code is None:
            raise ValueError(f"line {ln}: unknown gate kind {kind!r}")
        want = KIND_ARITY[code]
        if len(parts) != want + 2:
            raise ValueError(f"line {ln}: input with fanins" if code == INPUT
                             else f"line {ln}: {kind} expects {want} fanins, "
                             f"got {len(parts) - 2}")
        if code == INPUT:
            a = b = -1
        else:
            fans = parts[2:]
            if not all(re.fullmatch(r"0|-?[1-9][0-9]*", f) for f in fans):
                raise ValueError(f"line {ln}: bad fanin id")
            for f in fans:  # more digits than nid has: no earlier node
                if f[0] == "-" or len(f) > len(str(nid)) or int(f) >= nid:
                    raise ValueError(
                        f"line {ln}: fanin {f} not an earlier node")
            a = int(fans[0])
            b = int(fans[1]) if want == 2 else -1
        codes.append(code)
        f0.append(a)
        f1.append(b)
    output_ids = []
    for oid in outputs:
        try:
            nid = int(oid) if oid.isascii() and oid.isdigit() else -1
        except ValueError:  # more digits than int() converts
            nid = -1
        if str(nid) != oid or not 0 <= nid < len(codes):
            raise ValueError(f"bad output id {oid!r}")
        output_ids.append(nid)
    c = Circuit(str(header.get("name", "")), codes, f0, f1, tuple(output_ids))
    try:
        c.check()
    except CircuitError as e:
        raise ValueError(
            f"invalid circuit in netlist: {e.violations[0]}") from None
    full_adder = bool(header.get("full_adder", False))
    names = header.get("inputs"), header.get("outputs")
    if names != _interface_names(c, full_adder):
        raise ValueError("header inputs/outputs do not match the circuit")
    if first != _header_line(c, spec, full_adder):
        raise ValueError("header is not the one this circuit saves with")
    if not lines.ended:
        raise ValueError("netlist does not end with a newline")
    return NetlistFile(version, spec, full_adder, c)


# ---------------------------------------------------------------------------
# the prover's meet and join rules, spelled through helpers


def touch(s1, t1, s2, t2):
    """Whether intervals [s1, t1] and [s2, t2] overlap or are adjacent."""
    return s1 <= t2 + 1 and s2 <= t1 + 1


def meet(p, q):
    """Label of p and q, or None where no rule covers the pair."""
    if q[0] == "X":
        p, q = q, p
    if p[0] == "X":
        if q[0] == "X":
            if touch(p[1], p[2], q[1], q[2]):
                return ("X", min(p[1], q[1]), max(p[2], q[2]))
        elif q[0] == "G":
            # each y_j x_{j+1..v} of q, j <= b, takes x_{u..t} into one
            # window when b < u <= v + 1
            if q[2] < p[1] <= q[3] + 1:
                return ("G", q[1], q[2], max(q[3], p[2]))
            return ("K", p, q)
    elif p[0] + q[0] in ("AB", "BA") and p[1] == q[1]:
        return ("G", p[1], p[1], p[1])
    return None


def join(p, q):
    """Label of p or q, or None where no rule covers the pair."""
    if p[0] == "G" and q[0] == "G":
        if p[3] == q[3] and touch(p[1], p[2], q[1], q[2]):
            return ("G", min(p[1], q[1]), max(p[2], q[2]), p[3])
    elif q[0] == "K" and q[2] == p:
        return p
    elif p[0] == "K" and p[2] == q:
        return q
    return None
