"""Rebuild AND/OR/BUF carry circuits from inverting gates only.

Levelization ties every wire to a single clock of rows: gates are
placed on numbered rows such that each gate reads only the row directly
above it.  Gaps are bridged by buffer chains shared per source and
tapped at each consumer row, so the fan-out-two discipline survives.
Placement is as-soon-as-possible followed by one reverse slack pass
that drops every gate to just above its earliest consumer, which
removes most chain buffers.  Output rows equal original node depths, so
levelization never increases depth.  Inputs sit on row 0 by default;
`input_rows` lets a caller pre-skew them to the depths at which the
surrounding circuit will actually deliver those signals.

The alternating mapping then rewrites a levelized AND/OR/BUF circuit
over {NAND, NOR, NOT}: signals on odd rows are represented inverted, so
an odd-row AND becomes a NAND of true inputs, an even-row AND becomes a
NOR of inverted inputs, OR dually, and every buffer becomes an
inverter.  Gate count, rows, and fan-out are carried over one-for-one;
demorgan_map restores polarity with one trailing inverter per odd-row
output, while the internal entry point reports output polarities for a
caller to absorb.  A circuit mapped with skewed input rows expects its
odd-row inputs to be delivered in inverted form.

build_nandnor_adder reuses the carry-reduction control flow with an
inverting-gate vocabulary instead of mapping the finished adder, so no
global buffer padding is needed: the halving step keeps the block
carry at two gate levels per step while its block propagate alternates
polarity down the levels at one inverting gate each; corrections come
in true-carry and inverted-carry forms at two levels; distribution
chains run over inverters and hand each tap its polarity.  The
multi-input-generate core is levelized with its propagate inputs
skewed to the polarity and depth the halving steps deliver, then
mapped and inlined.  Output markers take one final inverter where the
carry arrives inverted - the single extra level over the AND/OR adder.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .circuit import (
    AND,
    BUF,
    KIND_CODES,
    NAND,
    NOR,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    FanoutChain,
    prune_dead,
)
from .mig import build_mig_adder, choose_params
from .reduction import apply_reduction, reduction_depth_for


@dataclass(frozen=True)
class LevelizedCircuit:
    """A circuit whose every gate reads only the row directly above it."""

    circuit: Circuit
    levels: tuple

    @property
    def depth(self) -> int:
        return max(self.levels) if self.levels else 0


def levelize(c: Circuit, input_rows=None) -> LevelizedCircuit:
    """Equivalent circuit with unit-span wires (see module docstring).

    input_rows, when given, assigns one row per input (aligned with
    c.input_ids) instead of placing all inputs on row 0.
    """
    n = len(c)
    lvl = [0] * n
    if input_rows is not None:
        if len(input_rows) != len(c.input_ids):
            raise ValueError("need one row per input")
        for nid, row in zip(c.input_ids, input_rows):
            lvl[nid] = row
    consumers = [[] for _ in range(n)]
    for nid in range(n):
        if c.is_input(nid):
            continue
        fs = c.fanins(nid)
        lvl[nid] = 1 + max(lvl[f] for f in fs)
        for f in fs:
            consumers[f].append(nid)
    # one reverse slack pass: drop every non-output gate to just above its
    # earliest consumer (consumers have higher ids, hence settled levels);
    # outputs stay put so their rows equal their original depths
    pinned = set(c.output_ids)
    for nid in range(n - 1, -1, -1):
        if c.is_input(nid) or nid in pinned or not consumers[nid]:
            continue
        lvl[nid] = min(lvl[x] for x in consumers[nid]) - 1

    b = CircuitBuilder(c.name)
    remap = {}
    newlvl = {}
    chain = {}

    for nid in c.input_ids:
        remap[nid] = b.add_input()
        newlvl[remap[nid]] = lvl[nid]

    def alias_at(src: int, row: int) -> int:
        """The (shared) copy of src's signal sitting on `row`."""
        cur = remap[src]
        for rr in range(lvl[src] + 1, row + 1):
            key = (src, rr)
            nxt = chain.get(key)
            if nxt is None:
                nxt = b.add_gate(BUF, cur)
                chain[key] = nxt
                newlvl[nxt] = rr
            cur = nxt
        return cur

    order = sorted((nid for nid in range(n) if not c.is_input(nid)),
                   key=lambda nid: (lvl[nid], nid))
    for nid in order:
        fs = tuple(alias_at(f, lvl[nid] - 1) for f in c.fanins(nid))
        remap[nid] = b.add_gate(c.kind(nid), *fs)
        newlvl[remap[nid]] = lvl[nid]
    for oid in c.output_ids:
        b.mark_output(remap[oid])
    built = b.build()
    return LevelizedCircuit(built, tuple(newlvl[i] for i in range(len(built))))


_ODD_ROW = {AND: NAND, OR: NOR, BUF: NOT}
_EVEN_ROW = {AND: NOR, OR: NAND, BUF: NOT}


def _demorgan(lc: LevelizedCircuit, normalize: bool = True, name: str = ""):
    """Map a levelized AND/OR/BUF circuit onto {NAND, NOR, NOT}.

    Returns (circuit, parities): parities[i] is True where output i is
    delivered inverted.  With normalize=True an inverter is appended to
    every odd-row output so each parity is False.  Inputs sitting on
    odd rows are expected in inverted form.

    The mapping only relabels gate kinds, so the result shares the
    wiring of lc.circuit; normalizing copies it (inputs first, as
    levelize places them) to append the inverters.
    """
    c = lc.circuit
    codes = array("b", c._codes)
    for nid in range(len(c)):
        if c.is_input(nid):
            continue
        table = _ODD_ROW if lc.levels[nid] % 2 else _EVEN_ROW
        kind = table.get(c.kind(nid))
        if kind is None:
            raise ValueError(
                f"cannot map {c.kind(nid)!r} gates; expected and/or/buf")
        codes[nid] = KIND_CODES[kind]
    mapped = Circuit(name or c.name, codes, c._f0, c._f1,
                     c.input_ids, c.output_ids)
    parities = tuple(bool(lc.levels[oid] % 2) for oid in c.output_ids)
    if not normalize:
        return mapped, parities
    b = CircuitBuilder(mapped.name)
    remap = b.inline(mapped, [b.add_input() for _ in mapped.input_ids])
    for oid, inverted in zip(mapped.output_ids, parities):
        b.mark_output(b.add_gate(NOT, remap[oid]) if inverted else remap[oid])
    return b.build(), (False,) * len(parities)


def demorgan_map(lc: LevelizedCircuit, name: str = "") -> Circuit:
    """Inverting-gate equivalent of a levelized circuit, outputs true."""
    mapped, _ = _demorgan(lc, normalize=True, name=name)
    return mapped


def _signal(x):
    """Normalize a wire reference to (node, inverted)."""
    return x if isinstance(x, tuple) else (x, False)


class _NotChain:
    """Fan-out chain over inverters; outlets carry their polarity."""

    __slots__ = ("_chain", "_inverted")

    def __init__(self, b: CircuitBuilder, token, total: int):
        node, neg = token
        inverted = {node: neg}

        def link(prev):
            nid = b.add_gate(NOT, prev)
            inverted[nid] = not inverted[prev]
            return nid

        self._chain = FanoutChain(node, b.uses[node], total, link)
        self._inverted = inverted

    def next(self):
        nid = self._chain.next()
        return nid, self._inverted[nid]


class NandNorStyle:
    """Carry-reduction vocabulary over {NAND, NOR, NOT}.

    Carry tokens and pair propagates are (node, inverted) wires; pair
    generates stay true-polarity throughout.  The propagate half of a
    halved pair alternates polarity with each halving level, costing a
    single inverting gate per level, which is what keeps the depth in
    step with the AND/OR vocabulary.
    """

    def combine(self, b: CircuitBuilder, upper, lower):
        ux, uneg = _signal(upper[0])
        lx, lneg = _signal(lower[0])
        if uneg != lneg:
            raise ValueError("combine requires same-polarity propagates")
        uy, ly = upper[1], lower[1]
        if uneg:
            # propagates arrive inverted: recover the upper one for the
            # carry term, conjoin the inverted pair for the propagate
            conj = b.add_gate(NAND, b.add_gate(NOT, ux), ly)
            x = (b.add_gate(NOR, ux, lx), False)
        else:
            conj = b.add_gate(NAND, ux, ly)
            x = (b.add_gate(NAND, ux, lx), True)
        y = b.add_gate(NAND, conj, b.add_gate(NOT, uy))
        return (x, y)

    def correction(self, b: CircuitBuilder, x, y, token):
        xn, xneg = _signal(x)
        cn, cneg = token
        if cneg:
            # y or (x and c) == not( y nor (x' nor c') ) for inverted x', c'
            xinv = xn if xneg else b.add_gate(NOT, xn)
            return b.add_gate(NOR, y, b.add_gate(NOR, xinv, cn)), True
        xtrue = b.add_gate(NOT, xn) if xneg else xn
        return b.add_gate(
            NAND, b.add_gate(NAND, xtrue, cn), b.add_gate(NOT, y)), False

    def chain(self, b: CircuitBuilder, token, total):
        return _NotChain(b, token, total)

    def lift(self, b: CircuitBuilder, node):
        return node, False

    def lowest_carry(self, b: CircuitBuilder, x1, y1):
        return b.add_gate(NOT, y1), True

    def finalize(self, b: CircuitBuilder, token):
        node, neg = token
        return b.add_gate(NOT, node) if neg else node


def build_nandnor_adder(n: int) -> Circuit:
    """Linear-size fan-out-two carry circuit over {NAND, NOR, NOT}.

    Structured exactly like the linear-size adder; only the final
    polarity-restoring inverters can deepen it, so the result is at
    most one level deeper.
    """
    tau = reduction_depth_for(n)
    w = n >> tau
    r, k, _ = choose_params(w)
    core = build_mig_adder(w, r, k)
    # skew the core onto the rows at which the halving levels deliver
    # its inputs: propagates at depth tau (inverted there when tau is
    # odd, matching odd-row polarity), generates at depth 2*tau
    skew = [tau if i % 2 == 0 else 2 * tau
            for i in range(len(core.input_ids))]
    mapped, parities = _demorgan(levelize(core, input_rows=skew),
                                 normalize=False)

    def inner(b, coarse_pairs):
        leaves = []
        for pair in coarse_pairs:
            xn, _ = _signal(pair[0])
            leaves += [xn, pair[1]]
        remap = b.inline(mapped, leaves)
        return [(remap[o], p) for o, p in zip(mapped.output_ids, parities)]

    raw = apply_reduction(n, tau, inner, style=NandNorStyle(),
                          name=f"nandnor{n}")
    return prune_dead(raw)
