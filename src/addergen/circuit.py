"""Gate-level combinational circuits as append-only DAGs.

A circuit is a dense, topologically ordered sequence of nodes.  Nodes 0..N-1
each carry a kind (input or one of seven gate types) and up to two fanin
references that must point at earlier nodes.  Output markers name the nodes
whose values leave the circuit; a marker counts as one consumer in all
fan-out accounting so that an output wire occupies one fan-out slot exactly
like an internal edge.

Internally nodes live in parallel arrays (kind codes plus two fanin arrays)
so that million-node circuits stay cheap to build, walk, and simulate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import not_

INPUT = "input"
AND = "and"
OR = "or"
XOR = "xor"
NOT = "not"
BUF = "buf"
NAND = "nand"
NOR = "nor"

GATE_ARITY = {AND: 2, OR: 2, XOR: 2, NAND: 2, NOR: 2, NOT: 1, BUF: 1}

# stable small codes used by the array representation and the netlist format
KIND_CODES = {INPUT: 0, AND: 1, OR: 2, XOR: 3, NOT: 4, BUF: 5, NAND: 6, NOR: 7}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}
_ARITY = {code: GATE_ARITY.get(name, 0) for name, code in KIND_CODES.items()}


@dataclass(frozen=True)
class Violation:
    rule: str
    node: int  # -1 for circuit-level problems
    detail: str


class CircuitError(ValueError):
    """Raised when an operation requires a valid circuit and got violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ", ".join(f"{v.rule}@{v.node}" for v in self.violations[:8])
        super().__init__(f"invalid circuit: {lines}")


class CircuitBuilder:
    """Append-only constructor; tracks live fan-out counts while building."""

    __slots__ = ("name", "_codes", "_f0", "_f1", "_inputs", "_outputs", "uses")

    def __init__(self, name=""):
        self.name = name
        self._codes = array("b")
        self._f0 = array("i")
        self._f1 = array("i")
        self._inputs = []
        self._outputs = []
        self.uses = []  # consumer count per node, output markers included

    def __len__(self):
        return len(self._codes)

    def add_input(self) -> int:
        nid = len(self._codes)
        self._codes.append(0)
        self._f0.append(-1)
        self._f1.append(-1)
        self._inputs.append(nid)
        self.uses.append(0)
        return nid

    def add_gate(self, kind: str, a: int, b: int | None = None) -> int:
        nid = len(self._codes)
        arity = GATE_ARITY[kind]
        if not 0 <= a < nid:
            raise ValueError(f"fanin {a} out of range for node {nid}")
        uses = self.uses
        uses[a] += 1
        if arity == 2:
            if b is None or not 0 <= b < nid:
                raise ValueError(f"fanin {b} out of range for node {nid}")
            uses[b] += 1
            self._f1.append(b)
        else:
            if b is not None:
                raise ValueError(f"{kind} takes one fanin")
            self._f1.append(-1)
        self._codes.append(KIND_CODES[kind])
        self._f0.append(a)
        uses.append(0)
        return nid

    def mark_output(self, nid: int):
        if not 0 <= nid < len(self._codes):
            raise ValueError(f"output id {nid} out of range")
        self._outputs.append(nid)
        self.uses[nid] += 1

    def fanout(self, nid: int) -> int:
        return self.uses[nid]

    def inline(self, c: "Circuit", leaves) -> list:
        """Append c's gates in id order with c.input_ids bound to leaves.

        Returns remap, where remap[old id] is the id the node got here.
        Only leaves are checked: c's fanins were checked when c was built.
        Output markers are not copied; callers mark what they need.
        """
        nid = len(self._codes)
        if len(leaves) != len(c.input_ids):
            raise ValueError(
                f"need {len(c.input_ids)} leaves, got {len(leaves)}")
        remap = [-1] * len(c)
        for old, leaf in zip(c.input_ids, leaves):
            if not 0 <= leaf < nid:
                raise ValueError(f"leaf {leaf} out of range")
            remap[old] = leaf
        codes, f0, f1, uses = self._codes, self._f0, self._f1, self.uses
        src_f0, src_f1 = c._f0, c._f1
        for old, code in enumerate(c._codes):
            if code == 0:
                continue
            a = remap[src_f0[old]]
            uses[a] += 1
            b = src_f1[old]
            if b >= 0:
                b = remap[b]
                uses[b] += 1
            codes.append(code)
            f0.append(a)
            f1.append(b)
            uses.append(0)
            remap[old] = nid
            nid += 1
        return remap

    def build(self) -> "Circuit":
        return Circuit(
            self.name, self._codes, self._f0, self._f1,
            tuple(self._inputs), tuple(self._outputs),
        )


class Circuit:
    """Immutable view of a built circuit."""

    __slots__ = ("name", "_codes", "_f0", "_f1", "input_ids", "output_ids",
                 "_consumers")

    def __init__(self, name, codes, f0, f1, input_ids, output_ids):
        self.name = name
        self._codes = codes
        self._f0 = f0
        self._f1 = f1
        self.input_ids = input_ids
        self.output_ids = output_ids
        self._consumers = None

    def __len__(self):
        return len(self._codes)

    @property
    def num_gates(self) -> int:
        return len(self._codes) - len(self.input_ids)

    def kind(self, nid: int) -> str:
        return KIND_NAMES[self._codes[nid]]

    def is_input(self, nid: int) -> bool:
        return self._codes[nid] == 0

    def fanins(self, nid: int) -> tuple:
        f0 = self._f0[nid]
        if f0 < 0:
            return ()
        f1 = self._f1[nid]
        return (f0,) if f1 < 0 else (f0, f1)

    def consumer_counts(self) -> list:
        """Consumers per node; output markers count once each.

        Absent fanins must be -1, as in every circuit the builder makes.
        """
        if self._consumers is None:
            counts = [0] * (len(self._codes) + 1)  # slot -1 absorbs fanin -1
            for a in self._f0:
                counts[a] += 1
            for b in self._f1:
                counts[b] += 1
            for oid in self.output_ids:
                counts[oid] += 1
            del counts[-1]
            self._consumers = counts
        return self._consumers


@dataclass(frozen=True)
class Metrics:
    depth: int
    size: int
    max_fanout: int
    histogram: dict


def validate(c: Circuit) -> list:
    """Structural checks; returns violations as data, empty list when clean.

    A fanin that is not an earlier node, and an output id out of range, is
    reported and then counts as no consumer.
    """
    codes, f0, f1 = c._codes, c._f0, c._f1
    n = len(codes)
    input_set = set(c.input_ids)
    out = []
    if c.num_gates == 0:
        out.append(Violation("no-gates", -1, "circuit has no gates"))
    # suspects: nodes whose marking or fanins (earlier ids, -1 where absent)
    # do not fit their kind; only they get the per-rule report below
    suspects = []
    for nid, code, a, b in zip(count(), codes, f0, f1):
        if code:
            if (not -1 < a < nid or b >= nid or nid in input_set
                    or (b < 0 if _ARITY[code] == 2 else b != -1)):
                suspects.append(nid)
        elif a != -1 or b != -1 or nid not in input_set:
            suspects.append(nid)
    if suspects:
        f0, f1 = array("i", f0), array("i", f1)
    for nid in suspects:
        code, a, b = codes[nid], f0[nid], f1[nid]
        fans = () if a < 0 else (a,) if b < 0 else (a, b)
        if code == 0:
            if nid not in input_set:
                out.append(Violation("input-marking", nid,
                                     "input-kind node missing from input list"))
            if fans:
                out.append(Violation("arity", nid, "input with fanins"))
        else:
            if len(fans) != _ARITY[code]:
                out.append(Violation(
                    "arity", nid, f"{KIND_NAMES[code]} has {len(fans)} fanins"))
            for f in fans:
                if not 0 <= f < nid:
                    out.append(Violation("ordering", nid,
                                         f"fanin {f} not earlier"))
            if nid in input_set:
                out.append(Violation("input-marking", nid,
                                     "gate listed as input"))
        kept = [f for f in fans if 0 <= f < nid] + [-1, -1]
        f0[nid], f1[nid] = kept[0], kept[1]
    outputs = []
    for oid in c.output_ids:
        if not 0 <= oid < n:
            out.append(Violation("output-range", oid, "output id out of range"))
            continue
        if codes[oid] == 0:
            out.append(Violation("output-on-input", oid,
                                 "output marker must name a gate"))
        outputs.append(oid)
    counted = c
    if suspects or len(outputs) != len(c.output_ids):
        # consumers are counted over the references that passed the checks
        counted = Circuit(c.name, codes, f0, f1, c.input_ids, tuple(outputs))
    for nid in compress(count(), map(not_, counted.consumer_counts())):
        if codes[nid] == 0:
            out.append(Violation("dangling-input", nid, "input drives nothing"))
        else:
            out.append(Violation("dangling-gate", nid,
                                 "gate has no consumer and is not an output"))
    return out


def node_depths(c: Circuit) -> list:
    """Longest gate count from any input to each node (inputs are 0)."""
    depths = [0] * (len(c) + 1)  # slot -1 stays 0 for an absent fanin
    for nid, a, b in zip(count(), c._f0, c._f1):
        if a >= 0:
            da, db = depths[a], depths[b]
            depths[nid] = (da if da > db else db) + 1
    del depths[-1]
    return depths


def metrics(c: Circuit) -> Metrics:
    """Depth, size, max fan-out, and gate histogram of a valid circuit."""
    violations = validate(c)
    if violations:
        raise CircuitError(violations)
    depths = node_depths(c)
    codes = c._codes.tobytes()  # one byte per kind code
    # kinds in order of first occurrence, as a node-by-node count lists them
    firsts = sorted((codes.index(k), k) for k in KIND_NAMES
                    if k and k in codes)
    return Metrics(
        depth=max(depths) if depths else 0,
        size=c.num_gates,
        max_fanout=max(c.consumer_counts()),
        histogram={KIND_NAMES[k]: codes.count(k) for _, k in firsts},
    )


def fanout_table(c: Circuit) -> dict:
    """Map of node id -> consumer count, output markers included."""
    counts = c.consumer_counts()
    return {nid: counts[nid] for nid in range(len(c))}


def prune_dead(c: Circuit) -> Circuit:
    """Drop gates that cannot reach an output marker; inputs always survive."""
    n = len(c)
    live = bytearray(n + 1)  # slot -1 absorbs the absent fanin -1
    for oid in c.output_ids:
        live[oid] = 1
    for nid, a, b in zip(range(n - 1, -1, -1), reversed(c._f0),
                         reversed(c._f1)):
        if live[nid]:
            live[a] = 1
            live[b] = 1
    del live[-1]
    for nid in c.input_ids:
        live[nid] = 1
    # survivors keep their relative order, so a survivor's new id is the
    # number of survivors before it; every fanin of a survivor survives
    remap = array("i", accumulate(live, initial=0))
    remap[-1] = -1  # absent fanins stay -1
    f0 = array("i", map(remap.__getitem__, compress(c._f0, live)))
    f1 = array("i", map(remap.__getitem__, compress(c._f1, live)))
    codes = array("b", bytes(compress(c._codes, live)))
    return Circuit(c.name, codes, f0, f1,
                   tuple(remap[nid] for nid in c.input_ids),
                   tuple(remap[oid] for oid in c.output_ids))


# two-input gate -> (absorbing constant, result when absorbed)
_FOLD2 = {AND: (0, 0), OR: (1, 1), NAND: (0, 1), NOR: (1, 0)}


def constant_fold(c: Circuit, assignment: dict, keep_outputs=None) -> Circuit:
    """Propagate constants bound to some inputs and rebuild the rest.

    assignment maps input ids to 0/1.  Gates touching constants simplify
    (And with 1 becomes an alias, And with 0 a constant, Xor with 1 a Not,
    and so on).  keep_outputs selects which original output markers survive;
    a kept output must not fold to a constant.  Dead logic is pruned.
    """
    for nid in assignment:
        if not c.is_input(nid):
            raise ValueError(f"assignment target {nid} is not an input")
    b = CircuitBuilder(c.name)
    const = {}  # old id -> 0/1
    remap = {}  # old id -> new id
    for nid in range(len(c)):
        if c.is_input(nid):
            if nid in assignment:
                const[nid] = assignment[nid] & 1
            else:
                remap[nid] = b.add_input()
            continue
        kind = c.kind(nid)
        fans = c.fanins(nid)
        vals = [const.get(f) for f in fans]
        if all(v is not None for v in vals):
            if kind == BUF:
                const[nid] = vals[0]
            elif kind == NOT:
                const[nid] = 1 - vals[0]
            elif kind == AND:
                const[nid] = vals[0] & vals[1]
            elif kind == OR:
                const[nid] = vals[0] | vals[1]
            elif kind == XOR:
                const[nid] = vals[0] ^ vals[1]
            elif kind == NAND:
                const[nid] = 1 - (vals[0] & vals[1])
            else:
                const[nid] = 1 - (vals[0] | vals[1])
            continue
        if len(fans) == 1:
            remap[nid] = b.add_gate(kind, remap[fans[0]])
            continue
        if vals[0] is None and vals[1] is None:
            remap[nid] = b.add_gate(kind, remap[fans[0]], remap[fans[1]])
            continue
        cv = vals[0] if vals[0] is not None else vals[1]
        live = remap[fans[1] if vals[0] is not None else fans[0]]
        if kind == XOR:
            if cv == 0:
                remap[nid] = live
            else:
                remap[nid] = b.add_gate(NOT, live)
        else:
            absorb, absorbed = _FOLD2[kind]
            if cv == absorb:
                const[nid] = absorbed
            elif kind in (AND, OR):
                remap[nid] = live
            else:
                remap[nid] = b.add_gate(NOT, live)
    wanted = list(c.output_ids) if keep_outputs is None else list(keep_outputs)
    for oid in wanted:
        if oid in const:
            raise ValueError(f"kept output {oid} folded to constant {const[oid]}")
        nid = remap[oid]
        if b._codes[nid] == 0:  # alias collapsed onto an input; outputs are gates
            nid = b.add_gate(BUF, nid)
        b.mark_output(nid)
    return prune_dead(b.build())


def lsb_carry(b: CircuitBuilder, x1: int, ysrc: int) -> int:
    """Emit the lowest carry as y or (x and y), which equals y.

    The redundant conjunction gives the otherwise unused lowest propagate
    input a consumer, so the circuit satisfies the every-input-drives-
    something rule without changing the computed function.
    """
    y = b.add_gate(BUF, ysrc)
    both = b.add_gate(AND, x1, y)
    return b.add_gate(OR, y, both)


class FanoutChain:
    """Serve many consumers from one value while keeping fan-out at two.

    The source usually has spare fan-out capacity below the number of
    pending requests; the gap is bridged with a chain of repeaters, each
    passing the value along while serving one consumer (the final link
    serves two).  Callers must request outlets in consumption order so the
    earliest consumer lands closest to the source.

    The chain works on any DAG under construction: `used` is the number
    of consumers the source already has, and `link(prev)` appends one
    repeater reading prev and returns it — a buffer or inverter gate on a
    CircuitBuilder, a repeater node on a prefix graph.
    """

    def __init__(self, source, used: int, total: int, link):
        free = max(0, 2 - used)
        if total <= free:
            outlets = [source] * total
            self.links = 0
        else:
            if free == 0:
                raise ValueError("fan-out chain source has no free slot")
            # source feeds free-1 consumers plus the first repeater; each
            # repeater feeds one consumer and the next link, the last feeds two
            self.links = total - free
            outlets = [source] * (free - 1)
            cur = source
            for _ in range(self.links):
                cur = link(cur)
                outlets.append(cur)
            outlets.append(cur)
        self._outlets = outlets
        self._pos = 0

    def next(self):
        nid = self._outlets[self._pos]
        self._pos += 1
        return nid
