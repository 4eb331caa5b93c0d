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

The arithmetic shape is fixed, but the gate vocabulary is pluggable: a
style object supplies the combine / correction / chain / low-carry
forms, letting an inverting-gate rebuild share this exact control flow.
Carries travel through the unstep machinery as opaque style tokens (the
default style uses bare node ids).

Cost of the wrapper, beyond the inner core: 3 gates per coarse pair,
2 per correction, and at most ~n/2 chain buffers — under 5.5n total —
at a depth overhead of at most 4 * tau.
"""

from __future__ import annotations

import math
from functools import partial

from .circuit import AND, BUF, OR, CircuitBuilder, FanoutChain, prune_dead
from .mig import _mig_carries, choose_params


class OrAndStyle:
    """Default gate vocabulary: AND/OR logic, buffer distribution chains,
    bare node ids as carry tokens."""

    def combine(self, b: CircuitBuilder, upper, lower):
        """Coarse (X, Y) pair from two adjacent finer pairs."""
        x = b.add_gate(AND, upper[0], lower[0])
        carry_through = b.add_gate(AND, upper[0], lower[1])
        y = b.add_gate(OR, upper[1], carry_through)
        return x, y

    def correction(self, b: CircuitBuilder, x, y, carry):
        """Carry across an odd block: y or (x and carry-in)."""
        return b.add_gate(OR, y, b.add_gate(AND, x, carry))

    def chain(self, b: CircuitBuilder, token, total):
        return FanoutChain(token, b.uses[token], total,
                           partial(b.add_gate, BUF))

    def lift(self, b: CircuitBuilder, node):
        """Wrap a pair's Y node as a carry token."""
        return node

    def lowest_carry(self, b: CircuitBuilder, x1, y1):
        """Token for the carry out of position 1 (= y_1, buffered so the
        output marker never lands on a raw input)."""
        return b.add_gate(BUF, y1)

    def finalize(self, b: CircuitBuilder, token):
        """The node id to mark as an output for a carry token."""
        return token


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


def apply_reduction(n: int, tau: int, inner_fn, style=None, name=""):
    """Carry circuit over n positions: tau halving steps around inner_fn.

    inner_fn(b, coarse_pairs) must return one carry token per coarse
    position, lowest first, with the lowest already safe to consume (the
    cores here terminate it through an absorbing form themselves).

    The result is returned unpruned; wrappers add no dead gates of their
    own, but an inner core may carry dead scaffolding worth removing.
    With tau = 0 this is exactly the inner core plus output markers.
    """
    style = style or OrAndStyle()
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if n % (1 << tau):
        raise ValueError(f"width {n} not divisible by 2**{tau}")
    b = CircuitBuilder(name or f"reduced{n}-t{tau}")

    levels = [[(b.add_input(), b.add_input()) for _ in range(n)]]
    for _ in range(tau):
        prev = levels[-1]
        levels.append([style.combine(b, prev[2 * i + 1], prev[2 * i])
                       for i in range(len(prev) // 2)])

    tokens = inner_fn(b, levels[tau])
    if len(tokens) != n >> tau:
        raise ValueError("inner core returned wrong carry count")

    chains = {}
    for i, token in enumerate(tokens, start=1):
        m = i << tau
        chains[m] = style.chain(b, token, _carry_demand(m, n, tau))

    for s in range(tau - 1, -1, -1):
        stride = 1 << s
        level = levels[s]
        if s:
            low = style.lift(b, level[0][1])
        else:
            low = style.lowest_carry(b, level[0][0], level[0][1])
        chains[stride] = style.chain(b, low, _carry_demand(stride, n, tau))
        for j in range(3, (n >> s) + 1, 2):
            x, y = level[j - 1]
            token = style.correction(b, x, y, chains[(j - 1) << s].take())
            chains[j << s] = style.chain(b, token,
                                         _carry_demand(j << s, n, tau))

    for m in range(1, n + 1):
        b.mark_output(style.finalize(b, chains[m].take()))
    return b.build()


def reduction_depth_for(n: int) -> int:
    """The halving count used by build_linear_adder: enough steps that the
    inner core's superlinear size washes out, few enough that the depth
    overhead stays within the target bound."""
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
    if tau is None:
        tau = reduction_depth_for(n)
    else:
        reduction_depth_for(n)  # reject widths outside the domain
        ld = n.bit_length() - 1
        if not 0 <= tau <= ld - 1:
            raise ValueError(f"tau must lie in [0, {ld - 1}] for width {n}")
    w = n >> tau
    r, k, _ = choose_params(w)

    def inner(b, coarse_pairs):
        return _mig_carries(b, coarse_pairs, r, k)

    raw = apply_reduction(n, tau, inner, name=f"linear{n}")
    return prune_dead(raw)
