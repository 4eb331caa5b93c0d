"""Parallel-prefix carry graphs and their expansion to gate-level logic.

The carry recurrence is an associative fold: position signals (x, y) combine
by (x_hi, y_hi) ∘ (x_lo, y_lo) = (x_hi and x_lo, y_hi or (x_hi and y_lo)),
and the carry out of positions 1..i is the y-component of the fold over that
range.  A prefix graph fixes, for every output range [1, i], a parenthesis
structure over the fold; the shape alone determines depth, size, and fan-out
once each combine node expands to at most three gates (two where nothing
reads its x-component).

Graph node kinds:
  pair      an input position carrying (x_i, y_i)
  op        a combine producing both components
  repeater  a buffered copy used to spread fan-out

Four classical shapes are provided: the serial chain, the minimum-depth /
high-fan-out divide-and-conquer tree, the minimum-depth fan-out-two grid
with repeater columns, and the fan-out-two double-tree with distribution
repeater chains.
"""

from __future__ import annotations

from .circuit import AND, BUF, OR, CircuitBuilder, FanoutChain, lsb_carry
from .circuit import _check_ints
from .reduction import _carry_demand

PAIR = "pair"
OP = "op"
REPEATER = "repeater"


class PrefixNode:
    __slots__ = ("id", "kind", "s", "t", "upper", "lower")

    def __init__(self, nid, kind, s, t, upper=None, lower=None):
        self.id = nid
        self.kind = kind
        self.s = s
        self.t = t
        self.upper = upper
        self.lower = lower

    def __repr__(self):
        return f"<{self.kind}[{self.s},{self.t}]#{self.id}>"


class PrefixGraph:
    """A DAG of combine/repeat nodes over n input positions; output slot
    i holds the node covering [1, i]."""

    def __init__(self, n, name=""):
        _check_ints(n=n)
        if n < 1:
            raise ValueError("need at least one position")
        self.n = n
        self.name = name
        self.nodes = []
        self.pairs = [self._new(PAIR, i, i) for i in range(1, n + 1)]
        self.outputs = [None] * n

    def _new(self, kind, s, t, upper=None, lower=None):
        node = PrefixNode(len(self.nodes), kind, s, t, upper, lower)
        self.nodes.append(node)
        return node

    def op(self, upper, lower):
        if upper.s != lower.t + 1:
            raise ValueError(f"ranges do not concatenate: {upper} over {lower}")
        return self._new(OP, lower.s, upper.t, upper, lower)

    def repeater(self, src):
        return self._new(REPEATER, src.s, src.t, src)

    def set_output(self, i, node):
        if node.s != 1 or node.t != i:
            raise ValueError(f"output {i} must cover [1,{i}], got {node}")
        if self.outputs[i - 1] is not None:
            raise ValueError(f"output {i} already set")
        self.outputs[i - 1] = node


def _pow2_graph(n, name):
    """An empty graph over n positions, n a power of two, and ld n."""
    _check_ints(n=n)
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    return PrefixGraph(n, name), n.bit_length() - 1


# ---------------------------------------------------------------------------
# constructions


def serial_prefix(n) -> PrefixGraph:
    """Chain of n-1 combines; minimum size, depth n-1, fan-out two."""
    g = PrefixGraph(n, "ripple")
    acc = g.pairs[0]
    g.set_output(1, acc)
    for i in range(2, n + 1):
        acc = g.op(g.pairs[i - 1], acc)
        g.set_output(i, acc)
    return g


def sklansky(n) -> PrefixGraph:
    """Divide-and-conquer tree: depth ld n, size n/2 * ld n, but the block
    midpoints fan out to half a block plus the output marker."""
    g, L = _pow2_graph(n, "sklansky")
    prev = list(g.pairs)
    for i in range(1, L + 1):
        half = 1 << (i - 1)
        for base in range(0, n, 2 * half):
            mid = prev[base + half - 1]
            for j in range(base + half, base + 2 * half):
                prev[j] = g.op(prev[j], mid)
    for i in range(1, n + 1):
        g.set_output(i, prev[i - 1])
    return g


def kogge_stone(n) -> PrefixGraph:
    """Recursive-doubling grid: depth ld n at fan-out two, with a repeater
    column keeping the already-finished prefixes in step at every
    non-final level."""
    g, L = _pow2_graph(n, "kogge-stone")
    prev = list(g.pairs)
    for i in range(1, L + 1):
        d = 1 << (i - 1)
        final = i == L
        cur = []
        for j in range(1, n + 1):
            if j > d:
                cur.append(g.op(prev[j - 1], prev[j - d - 1]))
            elif final:
                cur.append(prev[j - 1])
            else:
                cur.append(g.repeater(prev[j - 1]))
        prev = cur
    for i in range(1, n + 1):
        g.set_output(i, prev[i - 1])
    return g


def brent_kung(n) -> PrefixGraph:
    """Fan-out-two double tree: a halving reduction builds the power-of-two
    prefixes, then corrections peel back down, each combining one reduction
    node with an already-finished prefix drawn through a repeater chain.

    Corrections are never the upper operand of a combine, so expansion
    emits no x gate for them.  Each chain serves its corrections
    largest-stride-first — the order the descending correction phases
    consume them — and its output marker last.  This is the reduction
    wrapper taken to tau = ld n, so chains are sized by its demand count,
    and a chain source's own consumers are known without counting: a
    halving node feeds the next halving step, a correction nothing yet.
    """
    g, L = _pow2_graph(n, "brent-kung")
    levels = [list(g.pairs)]
    for _ in range(L):
        prev = levels[-1]
        levels.append([g.op(prev[2 * i + 1], prev[2 * i])
                       for i in range(len(prev) // 2)])
    P = {1: g.pairs[0]}
    chains = {}

    def chain(m, used):
        return FanoutChain(P[m], used, _carry_demand(m, n, L), g.repeater)

    for ell in range(1, L + 1):
        m = 1 << ell
        P[m] = levels[ell][0]
        chains[m] = chain(m, int(ell < L))
    for s in range(L - 1, -1, -1):
        stride = 1 << s
        for j in range(3, n // stride + 1, 2):
            m = j * stride
            P[m] = g.op(levels[s][j - 1], chains[m - stride].take())
            if s >= 1:
                chains[m] = chain(m, 0)
    for m in range(1, n + 1):
        if m == 1:
            g.set_output(1, P[1])
        elif m % 2 == 0:
            g.set_output(m, chains[m].take())
        else:
            g.set_output(m, P[m])
    return g


# ---------------------------------------------------------------------------
# expansion to logic


def _liveness(g: PrefixGraph):
    """Which components each node must actually produce when only the carry
    outputs are extracted: y flows from every output, and x is needed only
    where a value serves as the upper operand of a live combine."""
    x_live = [False] * len(g.nodes)
    y_live = [False] * len(g.nodes)
    for i, out in enumerate(g.outputs, start=1):
        if out is None:
            raise ValueError(f"output {i} not set")
        y_live[out.id] = True
    for v in reversed(g.nodes):
        if v.kind == PAIR:
            continue
        if v.kind == REPEATER:
            if y_live[v.id]:
                y_live[v.upper.id] = True
            if x_live[v.id]:
                x_live[v.upper.id] = True
            continue
        if y_live[v.id]:
            x_live[v.upper.id] = True
            y_live[v.upper.id] = True
            y_live[v.lower.id] = True
        if x_live[v.id]:
            x_live[v.upper.id] = True
            x_live[v.lower.id] = True
    return x_live, y_live


def expand_to_logic(g: PrefixGraph) -> "Circuit":
    """Turn a prefix graph into a gate-level carry circuit: 2n inputs in
    position order, n carry outputs, and only the gates those carries
    need (see _liveness).  The lowest carry is terminated through the
    absorbing y-or-(x-and-y) form so the otherwise dead x_1 keeps a
    consumer.  The circuit is named after the graph and its width."""
    b = CircuitBuilder(f"{g.name or 'prefix'}{g.n}")
    x_live, y_live = _liveness(g)
    xv = [None] * len(g.nodes)
    yv = [None] * len(g.nodes)
    for v in g.pairs:
        xv[v.id], yv[v.id] = b.add_input(), b.add_input()
    for v in g.nodes:
        if v.kind == PAIR:
            continue
        if v.kind == REPEATER:
            if x_live[v.id]:
                xv[v.id] = b.add_gate(BUF, xv[v.upper.id])
            if y_live[v.id]:
                yv[v.id] = b.add_gate(BUF, yv[v.upper.id])
            continue
        ux = xv[v.upper.id]
        if x_live[v.id]:
            xv[v.id] = b.add_gate(AND, ux, xv[v.lower.id])
        if y_live[v.id]:
            inner = b.add_gate(AND, ux, yv[v.lower.id])
            yv[v.id] = b.add_gate(OR, yv[v.upper.id], inner)
    carries = [yv[v.id] for v in g.outputs]
    carries[0] = lsb_carry(b, xv[g.pairs[0].id], carries[0])
    for cid in carries:
        b.mark_output(cid)
    return b.build()
