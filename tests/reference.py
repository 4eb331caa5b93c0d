"""Reference semantics, prefix-graph figures and the raw mig structure,
beside the tests that compare against them.

The scalar semantics fold over bit lists and integers independently of
any circuit, so a circuit's carries and sums are checked against a
computation that shares none of its structure.

The raw mig structure is the paper's construction at full size, and the
closed size formulas state its size: every carry pool holds 2**(r-1)
copies, every tap 2**r leaves, and every generate gate reads its lowest
column's tap.  The library builds only its pruned form, and the tests
check that `prune_dead` of the raw structure is exactly that build.

A prefix graph's own depth, size and fan-out are read off a circuit with
one node per graph node, through the walks `metrics` uses.
"""

from addergen.circuit import (
    AND, BUF, CircuitBuilder, Pool, lsb_carry, node_depths,
)
from addergen.mig import _generate_gate, _replicate, _windows, choose_params
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
    taps, cur = _windows(b, xs, r, k, lambda c, lam: 1 << r)
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
