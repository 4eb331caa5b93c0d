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

import re
from array import array
from itertools import accumulate, compress, count
from operator import not_
from typing import NamedTuple

# kind codes, as stored in the circuit arrays; names appear only in text
INPUT, AND, OR, XOR, NOT, BUF, NAND, NOR = range(8)
KIND_NAMES = ("input", "and", "or", "xor", "not", "buf", "nand", "nor")
KIND_ARITY = (0, 2, 2, 2, 1, 1, 2, 2)  # fanins per kind code
_INPUT_CODE = re.compile(b"\0")  # INPUT as a byte of an array("b") of codes
# fanins per code of an array("b"), -1 where the code names no kind; a
# negative code reads from the end, so -1 is not NOR's slot
_ARITY = KIND_ARITY + (-1,) * (256 - len(KIND_ARITY))


def _check_ints(**params):
    """Raise ValueError naming a parameter that is not an int; a bool is not."""
    for key, value in params.items():
        if type(value) is not int:
            raise ValueError(f"{key} must be an int, got {value!r}")


def _unknown_kinds(codes) -> list:
    """(node, code) for each of an array("b")'s codes that names no kind."""
    # deleting every kind code's byte leaves one only where a code names no
    # kind; only then are the codes walked in Python
    if not codes.tobytes().translate(None, bytes(range(INPUT, NOR + 1))):
        return []
    return [(nid, code) for nid, code in enumerate(codes)
            if not INPUT <= code <= NOR]


def _check_kinds(c: "Circuit"):
    """Raise ValueError naming the first node of c whose code names no kind."""
    for nid, code in _unknown_kinds(c._codes):
        raise ValueError(f"node {nid} has unknown kind code {code}")


class Violation(NamedTuple):
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
    """Append-only constructor holding only the circuit arrays; consumers
    are counted by Circuit.consumer_counts on a built circuit."""

    __slots__ = ("name", "_codes", "_f0", "_f1", "_outputs")

    def __init__(self, name=""):
        self.name = name
        self._codes = array("b")
        self._f0 = array("i")
        self._f1 = array("i")
        self._outputs = []

    def __len__(self):
        return len(self._codes)

    def add_input(self) -> int:
        nid = len(self._codes)
        self._codes.append(INPUT)
        self._f0.append(-1)
        self._f1.append(-1)
        return nid

    def add_gate(self, kind: int, a: int, b: int | None = None) -> int:
        nid = len(self._codes)
        if type(kind) is not int or not INPUT < kind <= NOR:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = KIND_ARITY[kind]
        if not 0 <= a < nid:
            raise ValueError(f"fanin {a} out of range for node {nid}")
        if arity == 1 and b is not None:
            raise ValueError(f"{KIND_NAMES[kind]} takes one fanin")
        if arity == 2 and (b is None or not 0 <= b < nid):
            raise ValueError(f"fanin {b} out of range for node {nid}")
        try:  # the arrays take ints only; a float fanin passes the checks
            self._f0.append(a)
            self._f1.append(-1 if b is None else b)
        except TypeError:
            del self._f0[nid:]
            raise ValueError(f"fanins must be ints, got {a!r}, {b!r}") from None
        self._codes.append(kind)
        return nid

    def mark_output(self, nid: int):
        if not 0 <= nid < len(self._codes):
            raise ValueError(f"output id {nid} out of range")
        self._outputs.append(nid)

    def inline(self, c: "Circuit", leaves) -> list:
        """Append c's gates in id order with c's inputs bound to leaves, and
        return the ids c's output markers name here, in marking order.

        c's inputs must be its first nodes, as every builder adds them.
        Only leaves are checked: c's fanins were checked when c was built.
        """
        nid = len(self._codes)
        k = len(c.input_ids)
        if k and c.input_ids[-1] != k - 1:
            raise ValueError("inlined circuit must have its inputs first")
        if len(leaves) != k or k and not (
                0 <= min(leaves) <= max(leaves) < nid):
            raise ValueError(f"need {k} leaves below {nid}, got {leaves}")
        where = [*leaves, *range(nid, nid + len(c._codes) - k), -1]
        try:  # a float leaf passes the checks; the arrays take ints only
            self._codes.extend(c._codes[k:])
            self._f0.extend(map(where.__getitem__, c._f0[k:]))
            self._f1.extend(map(where.__getitem__, c._f1[k:]))
        except TypeError:
            del self._codes[nid:], self._f0[nid:], self._f1[nid:]
            raise ValueError(f"leaves must be ints, got {leaves}") from None
        return list(map(where.__getitem__, c.output_ids))

    @staticmethod
    def record(emit, n) -> "Circuit":
        """emit(builder, ports) run on n input ports, as a circuit to inline:
        the ports, the emitted gates, and emit's result ids as outputs."""
        rec = CircuitBuilder()
        out = emit(rec, [rec.add_input() for _ in range(n)])
        return Circuit(rec.name, rec._codes, rec._f0, rec._f1, tuple(out))

    def build(self) -> "Circuit":
        """The circuit so far, on copies that later appends leave alone."""
        return Circuit(self.name, self._codes[:], self._f0[:], self._f1[:],
                       tuple(self._outputs))


class Circuit:
    """Immutable view of a built circuit; its inputs are its input nodes."""

    __slots__ = ("name", "_codes", "_f0", "_f1", "input_ids", "output_ids",
                 "_consumers", "_violations")

    def __init__(self, name, codes, f0, f1, output_ids):
        self.name = name
        self._codes = codes
        self._f0 = f0
        self._f1 = f1
        # the INPUT codes' offsets, found in place in the codes' buffer
        self.input_ids = tuple(map(re.Match.start, _INPUT_CODE.finditer(codes)))
        self.output_ids = output_ids
        self._consumers = None
        self._violations = None

    def __len__(self):
        return len(self._codes)

    @property
    def num_gates(self) -> int:
        return len(self._codes) - len(self.input_ids)

    def _id(self, nid) -> int:
        """nid, once checked to name a node of this circuit."""
        if type(nid) is not int or not 0 <= nid < len(self._codes):
            raise ValueError(f"node id {nid!r} outside 0..{len(self) - 1}")
        return nid

    def kind(self, nid: int) -> int:
        return self._codes[self._id(nid)]

    def is_input(self, nid: int) -> bool:
        return self._codes[self._id(nid)] == INPUT

    def fanins(self, nid: int) -> tuple:
        f0 = self._f0[self._id(nid)]
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

    def check(self):
        """Raise CircuitError unless the circuit validates; the walk runs
        once per circuit and its violations are kept."""
        if self._violations is None:
            self._violations = validate(self)
        if self._violations:
            raise CircuitError(self._violations)


class Metrics(NamedTuple):
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
    out = []
    if c.num_gates == 0:
        out.append(Violation("no-gates", -1, "circuit has no gates"))
    out.extend(Violation("kind", nid, f"unknown kind code {code}")
               for nid, code in _unknown_kinds(codes))
    # suspects: nodes whose fanins (earlier ids, -1 where absent) do not
    # fit their kind; only they get the per-rule report below
    suspects = []
    arity = _ARITY
    for nid, code, a, b in zip(count(), codes, f0, f1):
        if code:
            if (not -1 < a < nid or b >= nid
                    or (b < 0 if arity[code] == 2 else b != -1)):
                suspects.append(nid)
        elif a != -1 or b != -1:
            suspects.append(nid)
    if suspects:
        f0, f1 = array("i", f0), array("i", f1)
    for nid in suspects:
        code, a, b = codes[nid], f0[nid], f1[nid]
        fans = () if a < 0 else (a,) if b < 0 else (a, b)
        if code == INPUT:
            # a suspect input has some fanin slot that is not -1
            out.append(Violation("arity", nid, "input with fanins"))
        else:
            want = arity[code]  # -1 for an unknown kind: no arity to check
            if len(fans) != want >= 0:
                out.append(Violation(
                    "arity", nid, f"{KIND_NAMES[code]} has {len(fans)} fanins"))
            elif want == 1 and b != -1:
                out.append(Violation(
                    "arity", nid, f"{KIND_NAMES[code]} has f1 {b}, not -1"))
            for f in fans:
                if not 0 <= f < nid:
                    out.append(Violation("ordering", nid,
                                         f"fanin {f} not earlier"))
        kept = [f for f in fans if 0 <= f < nid] + [-1, -1]
        f0[nid], f1[nid] = kept[0], kept[1]
    outputs = []
    for oid in c.output_ids:
        if not 0 <= oid < n:
            out.append(Violation("output-range", oid, "output id out of range"))
            continue
        if codes[oid] == INPUT:
            out.append(Violation("output-on-input", oid,
                                 "output marker must name a gate"))
        outputs.append(oid)
    counted = c
    if suspects or len(outputs) != len(c.output_ids):
        # consumers are counted over the references that passed the checks
        counted = Circuit(c.name, codes, f0, f1, tuple(outputs))
    for nid in compress(count(), map(not_, counted.consumer_counts())):
        if codes[nid] == INPUT:
            out.append(Violation("dangling-input", nid, "input drives nothing"))
        else:
            out.append(Violation("dangling-gate", nid,
                                 "gate has no consumer and is not an output"))
    return out


def node_depths(c: Circuit, input_rows=None) -> list:
    """Longest gate count from any input to each node, the inputs sitting
    at 0 or, when input_rows is given, one row per input of c.input_ids."""
    depths = [0] * (len(c) + 1)  # slot -1 stays 0 for an absent fanin
    if input_rows is not None:
        if len(input_rows) != len(c.input_ids):
            raise ValueError("need one row per input")
        for nid, row in zip(c.input_ids, input_rows):
            _check_ints(input_row=row)
            depths[nid] = row
    for nid, a, b in zip(count(), c._f0, c._f1):
        if a >= 0:
            da, db = depths[a], depths[b]
            depths[nid] = (da if da > db else db) + 1
    del depths[-1]
    return depths


def metrics(c: Circuit) -> Metrics:
    """Depth, size, max fan-out, and gate histogram of a valid circuit."""
    c.check()
    depths = node_depths(c)
    codes = c._codes.tobytes()  # one byte per kind code
    # kinds in order of first occurrence, as a node-by-node count lists them
    firsts = sorted((codes.index(k), k) for k in range(AND, NOR + 1)
                    if k in codes)
    return Metrics(
        depth=max(depths) if depths else 0,
        size=c.num_gates,
        max_fanout=max(c.consumer_counts()),
        histogram={KIND_NAMES[k]: codes.count(k) for _, k in firsts},
    )


def prune_dead(c: Circuit) -> Circuit:
    """Drop gates that cannot reach an output marker; inputs always survive."""
    return _cut(c, c.output_ids, c.input_ids)


def _cut(c: Circuit, outputs, inputs) -> Circuit:
    """c with only the given input ids and output markers, and the gates
    that reach those markers, all in id order.

    Raises ValueError if a kept gate reads an input that is not kept:
    no renumbering could wire that fanin to the node it read.
    """
    n = len(c)
    live = bytearray(n + 1)  # slot -1 absorbs the absent fanin -1
    for oid in outputs:
        live[oid] = 1
    for nid, a, b in zip(range(n - 1, -1, -1), reversed(c._f0),
                         reversed(c._f1)):
        if live[nid]:
            live[a] = 1
            live[b] = 1
    del live[-1]
    kept = set(inputs)
    for nid in c.input_ids:
        if nid in kept:
            live[nid] = 1
        elif live[nid]:
            raise ValueError(f"a kept gate reads dropped input {nid}")
    # survivors keep their relative order, so a survivor's new id is the
    # number of survivors before it; every fanin of a survivor survives
    remap = array("i", accumulate(live, initial=0))
    remap[-1] = -1  # absent fanins stay -1
    f0 = array("i", map(remap.__getitem__, compress(c._f0, live)))
    f1 = array("i", map(remap.__getitem__, compress(c._f1, live)))
    codes = array("b", bytes(compress(c._codes, live)))
    return Circuit(c.name, codes, f0, f1, tuple(remap[oid] for oid in outputs))


def lsb_carry(b: CircuitBuilder, x1: int, ysrc: int) -> int:
    """Emit the lowest carry as y or (x and y), which equals y.

    The redundant conjunction gives the otherwise unused lowest propagate
    input a consumer, so the circuit satisfies the every-input-drives-
    something rule without changing the computed function.
    """
    y = b.add_gate(BUF, ysrc)
    both = b.add_gate(AND, x1, y)
    return b.add_gate(OR, y, both)


class Pool:
    """Duplicate copies of one value, each dispensed a bounded number of
    times so that no copy ever exceeds fan-out two."""

    __slots__ = ("_items", "_takes", "_used")

    def __init__(self, items, takes_per_item=2):
        self._items = list(items)
        self._takes = takes_per_item
        self._used = 0

    def take(self):
        idx = self._used // self._takes
        if idx >= len(self._items):
            raise ValueError("pool exhausted: demand exceeded capacity")
        self._used += 1
        return self._items[idx]


class FanoutChain(Pool):
    """Serve many consumers from one value while keeping fan-out at two.

    The source usually has spare fan-out capacity below the number of
    pending requests; the gap is bridged with a chain of repeaters, each
    passing the value along while serving one consumer (the final link
    serves two).  The chain is a pool of its outlets, one take each, in
    consumption order, so the earliest consumer lands closest to the
    source.

    The chain works on any DAG under construction: `used` is the number
    of consumers the source already has, and `link(prev)` appends one
    repeater reading prev and returns it — a buffer or inverter gate on a
    CircuitBuilder, a repeater node on a prefix graph.
    """

    __slots__ = ()

    def __init__(self, source, used: int, total: int, link):
        free = max(0, 2 - used)
        if total <= free:
            outlets = [source] * total
        else:
            if free == 0:
                raise ValueError("fan-out chain source has no free slot")
            # source feeds free-1 consumers plus the first repeater; each
            # repeater feeds one consumer and the next link, the last feeds two
            outlets = [source] * (free - 1)
            cur = source
            for _ in range(total - free):
                cur = link(cur)
                outlets.append(cur)
            outlets.append(cur)
        super().__init__(outlets, takes_per_item=1)
