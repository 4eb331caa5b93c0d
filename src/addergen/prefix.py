"""Parallel-prefix carry graphs and their expansion to gate-level logic.

The carry recurrence is an associative fold: position signals (x, y) combine
by (x_hi, y_hi) ∘ (x_lo, y_lo) = (x_hi and x_lo, y_hi or (x_hi and y_lo)),
and the carry out of positions 1..i is the y-component of the fold over that
range.  A prefix graph fixes, for every output range [1, i], a parenthesis
structure over the fold; the shape alone determines depth, size, and fan-out
once each combine node expands to at most three gates.

Graph node kinds:
  pair      an input position carrying (x_i, y_i)
  op        a full combine producing both components
  reduced   a combine whose x-component is never consumed (two gates)
  repeater  a buffered copy used to spread fan-out

Four classical shapes are provided: the serial chain, the minimum-depth /
high-fan-out divide-and-conquer tree, the minimum-depth fan-out-two grid
with repeater columns, and the fan-out-two double-tree with distribution
repeater chains.
"""

from __future__ import annotations

from .circuit import AND, BUF, OR, CircuitBuilder, FanoutChain, lsb_carry
from .reduction import _carry_demand

PAIR = "pair"
OP = "op"
REDUCED = "reduced"
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
    """A DAG of combine/repeat nodes over n input positions.

    Output slot i holds the node covering [1, i]; marking an output counts
    as one consumer, so fan-out figures include the marker exactly as the
    logic level counts its output wires.
    """

    def __init__(self, n, name=""):
        if n < 1:
            raise ValueError("need at least one position")
        self.n = n
        self.name = name
        self.nodes = []
        self.uses = []
        self.pairs = [self._new(PAIR, i, i) for i in range(1, n + 1)]
        self.outputs = [None] * n

    def _new(self, kind, s, t, upper=None, lower=None):
        node = PrefixNode(len(self.nodes), kind, s, t, upper, lower)
        self.nodes.append(node)
        self.uses.append(0)
        if upper is not None:
            self.uses[upper.id] += 1
        if lower is not None:
            self.uses[lower.id] += 1
        return node

    def op(self, upper, lower, reduced=False):
        if upper.s != lower.t + 1:
            raise ValueError(f"ranges do not concatenate: {upper} over {lower}")
        return self._new(REDUCED if reduced else OP,
                         lower.s, upper.t, upper, lower)

    def repeater(self, src):
        return self._new(REPEATER, src.s, src.t, src)

    def set_output(self, i, node):
        if node.s != 1 or node.t != i:
            raise ValueError(f"output {i} must cover [1,{i}], got {node}")
        if self.outputs[i - 1] is not None:
            raise ValueError(f"output {i} already set")
        self.outputs[i - 1] = node
        self.uses[node.id] += 1

    # -- measurements ------------------------------------------------------

    def size(self):
        return sum(1 for v in self.nodes if v.kind != PAIR)

    def counts(self):
        out = {}
        for v in self.nodes:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def depth(self):
        d = [0] * len(self.nodes)
        best = 0
        for v in self.nodes:
            if v.kind == PAIR:
                continue
            dd = d[v.upper.id]
            if v.lower is not None and d[v.lower.id] > dd:
                dd = d[v.lower.id]
            d[v.id] = dd + 1
            if d[v.id] > best:
                best = d[v.id]
        return best

    def max_fanout(self):
        return max(self.uses, default=0)

    def __repr__(self):
        return (f"<PrefixGraph {self.name or '?'} n={self.n} "
                f"size={self.size()} depth={self.depth()}>")


def _ld(n):
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# constructions


def serial_prefix(n) -> PrefixGraph:
    """Chain of n-1 combines; minimum size, depth n-1, fan-out two."""
    g = PrefixGraph(n, "serial")
    acc = g.pairs[0]
    g.set_output(1, acc)
    for i in range(2, n + 1):
        acc = g.op(g.pairs[i - 1], acc)
        g.set_output(i, acc)
    return g


def sklansky(n) -> PrefixGraph:
    """Divide-and-conquer tree: depth ld n, size n/2 * ld n, but the block
    midpoints fan out to half a block plus the output marker."""
    L = _ld(n)
    g = PrefixGraph(n, "sklansky")
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
    L = _ld(n)
    g = PrefixGraph(n, "kogge-stone")
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

    Corrections are never consumed as the upper operand and never need
    their x-component, so they are emitted as reduced nodes.  Each chain
    serves its corrections largest-stride-first — the order the descending
    correction phases consume them — and its output marker last.  This is
    the reduction wrapper taken to tau = ld n, so chains are sized by its
    demand count.
    """
    L = _ld(n)
    g = PrefixGraph(n, "brent-kung")
    levels = [list(g.pairs)]
    for _ in range(L):
        prev = levels[-1]
        levels.append([g.op(prev[2 * i + 1], prev[2 * i])
                       for i in range(len(prev) // 2)])
    P = {1: g.pairs[0]}
    chains = {}

    def chain(m):
        return FanoutChain(P[m], g.uses[P[m].id], _carry_demand(m, n, L),
                           g.repeater)

    for ell in range(1, L + 1):
        m = 1 << ell
        P[m] = levels[ell][0]
        chains[m] = chain(m)
    for s in range(L - 1, -1, -1):
        stride = 1 << s
        for j in range(3, n // stride + 1, 2):
            m = j * stride
            P[m] = g.op(levels[s][j - 1], chains[m - stride].next(),
                        reduced=True)
            if s >= 1:
                chains[m] = chain(m)
    for m in range(1, n + 1):
        if m == 1:
            g.set_output(1, P[1])
        elif m % 2 == 0:
            g.set_output(m, chains[m].next())
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
    for out in g.outputs:
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
        if v.kind == REDUCED and x_live[v.id]:
            raise AssertionError(f"x-component of reduced node requested: {v}")
        if y_live[v.id]:
            x_live[v.upper.id] = True
            y_live[v.upper.id] = True
            y_live[v.lower.id] = True
        if x_live[v.id]:
            x_live[v.upper.id] = True
            x_live[v.lower.id] = True
    return x_live, y_live


def _expand_onto(b: CircuitBuilder, g: PrefixGraph, pair_ids):
    """Emit the live gates of a prefix graph onto an existing builder.

    pair_ids[i] holds the (x, y) node ids for position i+1, which may be
    raw inputs or gates from an enclosing construction.  Returns the carry
    ids c_2..c_{n+1}; the lowest carry is terminated through the absorbing
    y-or-(x-and-y) form so the otherwise dead x_1 keeps a consumer.
    """
    x_live, y_live = _liveness(g)
    xv = [None] * len(g.nodes)
    yv = [None] * len(g.nodes)
    for i, v in enumerate(g.pairs):
        xv[v.id], yv[v.id] = pair_ids[i]
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
        if v.kind == OP and x_live[v.id]:
            xv[v.id] = b.add_gate(AND, ux, xv[v.lower.id])
        if y_live[v.id]:
            inner = b.add_gate(AND, ux, yv[v.lower.id])
            yv[v.id] = b.add_gate(OR, yv[v.upper.id], inner)
    carries = []
    for i, v in enumerate(g.outputs, start=1):
        if i == 1:
            carries.append(lsb_carry(b, pair_ids[0][0], yv[v.id]))
        else:
            carries.append(yv[v.id])
    return carries


def expand_to_logic(g: PrefixGraph, name="") -> "Circuit":
    """Turn a prefix graph into a gate-level carry circuit: 2n inputs in
    position order, n carry outputs, and only the gates those carries
    need (see _liveness)."""
    b = CircuitBuilder(name or f"{g.name or 'prefix'}{g.n}")
    pair_ids = [(b.add_input(), b.add_input()) for _ in range(g.n)]
    for cid in _expand_onto(b, g, pair_ids):
        b.mark_output(cid)
    return b.build()
