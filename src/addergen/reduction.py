"""Scale reduction: wrap any carry core in halving steps and corrections.

One reduction step combines adjacent position pairs into half as many
coarse pairs with the usual range composition

    X = x_hi and x_lo,     Y = y_hi or (x_hi and y_lo),

so after tau steps an inner carry circuit over n / 2**tau coarse
positions supplies every carry at granularity 2**tau.  The missing fine
carries come back one scale at a time: at scale s the carry out of an
odd block j >= 3 is

    carry(j * 2**s) = y_j  or  (x_j and carry((j-1) * 2**s))

using the scale-s pair of block j, while even blocks reuse the coarser
carry unchanged.  Every carry value therefore serves one correction per
finer scale that needs it plus its own output marker; these consumers
are fed through buffer chains so no node exceeds fan-out two.

The inner core is a carry circuit of its own, copied once onto the
coarsest pairs.  The arithmetic shape is fixed, but the gate vocabulary
is pluggable: a style supplies the combine and correction forms (handed
the scale of their pairs: propagates are bare ids, and their polarity is
the style's rule per scale), its chains' repeater gate and the core's
mapping into its gates.  Every carry is a (node, inverted) token: a NOT
link flips the polarity of the outlets after it, a BUF link keeps it,
and an output marker takes one NOT where its carry arrives inverted.

Cost of the wrapper, beyond the inner core: 3 gates per coarse pair,
2 per correction, and at most ~n/2 chain buffers — under 5.5n total —
at a depth overhead of at most 4 * tau.
"""

from __future__ import annotations

import math

from .circuit import AND, BUF, NOT, OR, Circuit, CircuitBuilder, FanoutChain
from .circuit import _check_ints
from .mig import build_mig_adder


class OrAndStyle:
    """Default gate vocabulary: AND/OR logic, buffer distribution chains.
    Its corrections read a carry token's node as is, so the inner core
    must deliver true-polarity carries."""

    repeater = BUF

    def core(self, c: Circuit, tau: int):
        """The inner core as this style inlines it, with output parities:
        an AND/OR core is used as is."""
        return c, (False,) * len(c.output_ids)

    def combine(self, b: CircuitBuilder, upper, lower, s: int):
        """Coarse (X, Y) pair from two adjacent scale-s pairs."""
        x = b.add_gate(AND, upper[0], lower[0])
        carry_through = b.add_gate(AND, upper[0], lower[1])
        y = b.add_gate(OR, upper[1], carry_through)
        return x, y

    def correction(self, b: CircuitBuilder, x, y, carry, s: int):
        """Carry across an odd block: y or (x and carry-in)."""
        return b.add_gate(OR, y, b.add_gate(AND, x, carry[0])), False


def _link(b: CircuitBuilder, token, repeater: str):
    """One repeater gate on a carry token, flipping it for NOT.  Chains
    grow by links; the lowest carry is one link on y_1, off the raw input."""
    return b.add_gate(repeater, token[0]), token[1] ^ (repeater == NOT)


def _chain(b: CircuitBuilder, token, used: int, total: int, repeater: str):
    """FanoutChain serving total consumers of a (node, inverted) carry
    whose node already has used consumers, through repeater links."""
    return FanoutChain(token, used, total, lambda t: _link(b, t, repeater))


def _carry_demand(m: int, n: int, tau: int) -> int:
    """Consumers of the carry out of positions 1..m: one correction per
    finer scale whose odd-block target m + 2**(sigma-1) exists, plus the
    output marker."""
    v2 = (m & -m).bit_length() - 1
    count = 1
    for sigma in range(1, min(v2, tau) + 1):
        if m + (1 << (sigma - 1)) <= n:
            count += 1
    return count


def apply_reduction(n: int, tau: int, core: Circuit, style=None, name=""):
    """Carry circuit over n positions: tau halving steps around a core.

    core is a carry circuit over the n >> tau coarse positions: inputs
    x, y per position and one carry output per position, lowest first,
    with the lowest already safe to consume (the cores here terminate it
    through an absorbing form themselves).  style.core maps it into the
    style's gates, and the mapped core is inlined onto the coarsest pairs.

    The wrapper adds no dead gates of its own, so the result has none
    when the core has none, as the cores here do.  With tau = 0 this is
    exactly the core plus output markers.
    """
    style = style or OrAndStyle()
    _check_ints(n=n, tau=tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if n % (1 << tau):
        raise ValueError(f"width {n} not divisible by 2**{tau}")
    mapped, parities = style.core(core, tau)
    if len(mapped.output_ids) != n >> tau:
        raise ValueError(f"core has {len(mapped.output_ids)} carries, "
                         f"need {n >> tau}")
    b = CircuitBuilder(name or f"reduced{n}-t{tau}")

    levels = [[(b.add_input(), b.add_input()) for _ in range(n)]]
    for s in range(tau):
        prev = levels[-1]
        levels.append([style.combine(b, prev[2 * i + 1], prev[2 * i], s)
                       for i in range(len(prev) // 2)])

    # levels are popped coarsest first, so each is freed once its scale is done
    carries = b.inline(mapped, [v for xy in levels.pop() for v in xy])

    # consumers are counted once, here: inner carries have what the core gave
    # them, each scale's lowest y its coarser combine from halving; later
    # sources (corrections, the lowest carry) are fresh gates with none yet
    counts = b.build().consumer_counts()
    chains = {}

    def chain(m, token):
        used = counts[token[0]] if token[0] < len(counts) else 0
        chains[m] = _chain(b, token, used, _carry_demand(m, n, tau),
                           style.repeater)

    for i, (o, p) in enumerate(zip(carries, parities), start=1):
        if counts[o] >= 2:
            raise ValueError(f"core carry {i} already has {counts[o]} "
                             "consumers inside the core; the wrapper needs "
                             "one free fan-out slot on each core carry")
        chain(i << tau, (o, p))
    for s in range(tau - 1, -1, -1):
        level = levels.pop()
        lowest = (level[0][1], False)
        chain(1 << s, _link(b, lowest, style.repeater) if s == 0 else lowest)
        for j in range(3, (n >> s) + 1, 2):
            carry_in = chains[(j - 1) << s].take()
            chain(j << s, style.correction(b, *level[j - 1], carry_in, s))

    for m in range(1, n + 1):
        node, inverted = chains[m].take()
        b.mark_output(b.add_gate(NOT, node) if inverted else node)
    return b.build()


def reduction_depth_for(n: int) -> int:
    """The halving count used by build_linear_adder: enough steps that the
    inner core's superlinear size washes out, few enough that the depth
    overhead stays within the target bound."""
    _check_ints(n=n)
    if n < 2 or n & (n - 1):
        raise ValueError("width must be a power of two, at least 2")
    ld = n.bit_length() - 1
    side = math.ceil(math.sqrt(ld))
    tau = math.ceil(math.sqrt(ld) + 2 * math.log2(side)) if side > 1 else 1
    return max(0, min(tau, ld - 1))


def build_linear_adder(n: int, tau=None):
    """Linear-size, fan-out-two carry circuit: reduction steps around a
    multi-input-generate core on the surviving coarse positions.

    tau overrides the halving count; the default balances size against
    depth per reduction_depth_for.
    """
    default = reduction_depth_for(n)  # rejects widths outside the domain
    tau = default if tau is None else tau
    _check_ints(tau=tau)
    ld = n.bit_length() - 1
    if not 0 <= tau <= ld - 1:
        raise ValueError(f"tau must lie in [0, {ld - 1}] for width {n}")
    return apply_reduction(n, tau, build_mig_adder(n >> tau),
                           name=f"linear{n}")
