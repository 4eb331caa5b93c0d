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
carry at two gate levels per step while its block propagate, a bare
id, is inverted exactly at odd scales, one inverting gate per level;
corrections take true or inverted carries at two levels; distribution
chains run over inverters and hand each tap its polarity.  The
multi-input-generate core is levelized with its propagate inputs
skewed to the polarity and depth the halving steps deliver, then
mapped and inlined.  Output markers take one final inverter where the
carry arrives inverted - the single extra level over the AND/OR adder.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import NamedTuple

from .circuit import (
    AND,
    BUF,
    INPUT,
    KIND_NAMES,
    NAND,
    NOR,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    node_depths,
)
from .mig import build_mig_adder
from .reduction import apply_reduction, reduction_depth_for


class LevelizedCircuit(NamedTuple):
    """A circuit whose every gate reads only the row directly above it."""

    circuit: Circuit
    levels: tuple


def levelize(c: Circuit, input_rows=None) -> LevelizedCircuit:
    """Equivalent circuit with unit-span wires (see module docstring).

    input_rows, when given, assigns one row per input (aligned with
    c.input_ids) instead of placing all inputs on row 0.
    """
    n = len(c)
    codes, f0, f1 = c._codes, c._f0, c._f1
    lvl = node_depths(c, input_rows)
    # one reverse slack pass: drop every non-output gate to just above its
    # earliest consumer row, final by then since consumers have higher ids;
    # outputs stay put so their rows equal their original depths
    pinned = set(c.output_ids)
    top = max(lvl, default=0) + 1
    first = [top] * (n + 1)
    for nid in range(n - 1, -1, -1):
        if not codes[nid]:
            continue
        if first[nid] < top and nid not in pinned:
            lvl[nid] = first[nid] - 1
        for f in (f0[nid], f1[nid]):
            first[f] = min(first[f], lvl[nid])

    b = CircuitBuilder(c.name)
    remap = [-1] * n
    chains = {}  # source -> its copies on rows lvl[src], lvl[src] + 1, ...

    for nid in c.input_ids:
        remap[nid] = b.add_input()

    def alias_at(src: int, row: int) -> int:
        """The (shared) copy of src's signal sitting on `row`."""
        chain = chains.setdefault(src, [remap[src]])
        while len(chain) <= row - lvl[src]:
            chain.append(b.add_gate(BUF, chain[-1]))
        return chain[row - lvl[src]]

    # a stable sort keeps id order within a row
    for nid in sorted(compress(range(n), codes), key=lvl.__getitem__):
        fs = (f0[nid],) if f1[nid] < 0 else (f0[nid], f1[nid])
        fs = [alias_at(f, lvl[nid] - 1) for f in fs]
        remap[nid] = b.add_gate(codes[nid], *fs)
    for oid in c.output_ids:
        b.mark_output(remap[oid])
    # every gate reads the row right above it, so rows are arrival depths
    result = b.build()
    return LevelizedCircuit(result, tuple(node_depths(result, input_rows)))


_ODD_ROW = {AND: NAND, OR: NOR, BUF: NOT}
_EVEN_ROW = {AND: NOR, OR: NAND, BUF: NOT}


def _demorgan(lc: LevelizedCircuit):
    """Map a levelized AND/OR/BUF circuit onto {NAND, NOR, NOT}.

    Returns (circuit, parities): parities[i] is True where output i is
    delivered inverted.  Inputs sitting on odd rows are expected in
    inverted form.  The mapping only relabels gate kinds, so the result
    shares the wiring of lc.circuit.
    """
    c = lc.circuit
    codes = array("b", c._codes)
    for nid, (code, row) in enumerate(zip(c._codes, lc.levels)):
        if code == INPUT:
            continue
        kind = (_ODD_ROW if row % 2 else _EVEN_ROW).get(code)
        if kind is None:
            raise ValueError(
                f"cannot map {KIND_NAMES[code]!r} gates; expected and/or/buf")
        codes[nid] = kind
    mapped = Circuit(c.name, codes, c._f0, c._f1, c.output_ids)
    return mapped, tuple(bool(lc.levels[oid] % 2) for oid in c.output_ids)


def demorgan_map(lc: LevelizedCircuit) -> Circuit:
    """Inverting-gate equivalent of a levelized circuit, outputs true.

    The relabelled circuit is copied (inputs first, as levelize places
    them) and an inverter is appended to every odd-row output.
    """
    mapped, parities = _demorgan(lc)
    b = CircuitBuilder(mapped.name)
    outs = b.inline(mapped, [b.add_input() for _ in mapped.input_ids])
    for oid, inverted in zip(outs, parities):
        b.mark_output(b.add_gate(NOT, oid) if inverted else oid)
    return b.build()


class NandNorStyle:
    """Carry-reduction vocabulary over {NAND, NOR, NOT}, with inverter
    distribution chains.

    Pair propagates are bare node ids whose polarity is a rule per scale:
    at scale s they are inverted exactly when s is odd, alternating with
    each halving level at a single inverting gate per level, which keeps
    the depth in step with the AND/OR vocabulary.  Pair generates stay
    true-polarity throughout.
    """

    repeater = NOT

    def combine(self, b: CircuitBuilder, upper, lower, s: int):
        (ux, uy), (lx, ly) = upper, lower
        if s % 2:
            # propagates arrive inverted: recover the upper one for the
            # carry term, conjoin the inverted pair for a true propagate
            conj = b.add_gate(NAND, b.add_gate(NOT, ux), ly)
            x = b.add_gate(NOR, ux, lx)
        else:
            conj = b.add_gate(NAND, ux, ly)
            x = b.add_gate(NAND, ux, lx)
        return x, b.add_gate(NAND, conj, b.add_gate(NOT, uy))

    def correction(self, b: CircuitBuilder, x, y, token, s: int):
        cn, cneg = token
        if cneg:
            # y or (x and c) == not( y nor (x' nor c') ) for inverted x', c'
            xinv = x if s % 2 else b.add_gate(NOT, x)
            return b.add_gate(NOR, y, b.add_gate(NOR, xinv, cn)), True
        xtrue = b.add_gate(NOT, x) if s % 2 else x
        return b.add_gate(
            NAND, b.add_gate(NAND, xtrue, cn), b.add_gate(NOT, y)), False

    def core(self, c: Circuit, tau: int):
        """The AND/OR core levelized and mapped, with output parities.

        The core is skewed onto the rows at which the halving levels
        deliver its inputs: propagates at depth tau (inverted there when
        tau is odd, matching odd-row polarity), generates at depth 2*tau.
        """
        skew = [tau if i % 2 == 0 else 2 * tau
                for i in range(len(c.input_ids))]
        return _demorgan(levelize(c, input_rows=skew))


def build_nandnor_adder(n: int) -> Circuit:
    """Linear-size fan-out-two carry circuit over {NAND, NOR, NOT}.

    Structured exactly like the linear-size adder; only the final
    polarity-restoring inverters can deepen it, so the result is at
    most one level deeper.
    """
    tau = reduction_depth_for(n)
    return apply_reduction(n, tau, build_mig_adder(n >> tau), NandNorStyle(),
                           name=f"nandnor{n}")
