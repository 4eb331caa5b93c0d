"""Adder family registry, arbitrary-width support, and full adders.

Every generator in the package builds a carry circuit: 2n inputs
x_1,y_1,...,x_n,y_n and n outputs c_2..c_{n+1}.  This module gives them
one front door:

* AdderSpec names a family plus its parameters and fully determines a
  circuit.
* build_adder dispatches on the family and extends each one to every
  width n >= 1.  A family whose construction needs a power of two is
  built at the next power, the extra high-order positions are pinned to
  the neutral pair (x, y) = (1, 0), constants are folded out, and only
  the first n carries stay marked.
* build_full_adder wraps a carry circuit into a complete adder: inputs
  a_1,b_1,...,a_n,b_n, per-bit preparation x_i = a_i xor b_i and
  y_i = a_i and b_i, and sum outputs s_1..s_{n+1} where s_1 = x_1,
  s_i = x_i xor c_i, and s_{n+1} is the carry-out.
* verify_full_adder checks a full adder against integer addition with
  the same report shape verify_adder uses for carry circuits.  It lives
  in semantics, next to verify_adder, and is re-exported here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .circuit import AND, XOR, Circuit, CircuitBuilder, constant_fold
from .mig import build_mig_adder
from .prefix import (
    brent_kung,
    expand_to_logic,
    kogge_stone,
    serial_prefix,
    sklansky,
)
from .reduction import build_linear_adder
from .semantics import verify_full_adder  # noqa: F401  (re-export)
from .techmap import build_nandnor_adder


class AdderSpec(NamedTuple):
    """Family tag plus parameters; fully determines a generated circuit."""

    family: str
    n: int
    r: int | None = None
    k: int | None = None
    tau: int | None = None
    # read by no family, but netlist v1 headers serialise every spec
    # field: dropping it would change every netlist byte and make the
    # existing files fail to load
    seed: int | None = None


class Family(NamedTuple):
    name: str
    build: Callable  # (n, spec) -> Circuit, n already in native domain
    native: Callable  # n -> bool: buildable directly at this width?
    takes: frozenset  # optional AdderSpec parameters the family accepts


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _next_pow2(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


FAMILIES = {
    "ripple": Family(
        "ripple",
        lambda n, spec: expand_to_logic(serial_prefix(n), name=f"ripple{n}"),
        lambda n: n >= 1,
        frozenset()),
    "sklansky": Family(
        "sklansky",
        lambda n, spec: expand_to_logic(sklansky(n), name=f"sklansky{n}"),
        _is_pow2,
        frozenset()),
    "kogge-stone": Family(
        "kogge-stone",
        lambda n, spec: expand_to_logic(kogge_stone(n),
                                        name=f"kogge-stone{n}"),
        _is_pow2,
        frozenset()),
    "brent-kung": Family(
        "brent-kung",
        lambda n, spec: expand_to_logic(brent_kung(n), name=f"brent-kung{n}"),
        _is_pow2,
        frozenset()),
    "mig": Family(
        "mig",
        lambda n, spec: build_mig_adder(n, spec.r, spec.k),
        lambda n: n >= 1,
        frozenset({"r", "k"})),
    "linear": Family(
        "linear",
        lambda n, spec: build_linear_adder(n, tau=spec.tau),
        _is_pow2,
        frozenset({"tau"})),
    "nandnor": Family(
        "nandnor",
        lambda n, spec: build_nandnor_adder(n),
        _is_pow2,
        frozenset()),
}


def _check_spec(spec: AdderSpec) -> Family:
    fam = FAMILIES.get(spec.family)
    if fam is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {spec.family!r} (known: {known})")
    if spec.n < 1:
        raise ValueError("width must be at least 1")
    for param in ("r", "k", "tau"):
        if getattr(spec, param) is not None and param not in fam.takes:
            raise ValueError(
                f"family {fam.name!r} does not take parameter {param!r}")
    return fam


def build_adder(spec: AdderSpec) -> Circuit:
    """Carry circuit for the spec; any width n >= 1 (see module docstring)."""
    fam = _check_spec(spec)
    if fam.native(spec.n):
        return fam.build(spec.n, spec)
    m = _next_pow2(spec.n)
    core = fam.build(m, spec)
    ins = core.input_ids
    pinned = {}
    for i in range(spec.n, m):
        pinned[ins[2 * i]] = 1  # high-order propagate
        pinned[ins[2 * i + 1]] = 0  # high-order generate
    return constant_fold(core, pinned,
                         keep_outputs=core.output_ids[:spec.n])


def build_full_adder(spec: AdderSpec) -> Circuit:
    """Complete adder over summand inputs a_i, b_i with outputs s_1..s_{n+1}.

    Wraps the spec's carry circuit with the constant-depth preparation
    and sum stages; a_i and b_i each feed one XOR and one AND, and each
    internal carry feeds exactly one sum gate.
    """
    core = build_adder(spec)
    n = spec.n
    b = CircuitBuilder(f"full-{spec.family}{n}")
    xs = []
    leaves = []
    for _ in range(n):
        ai = b.add_input()
        bi = b.add_input()
        x = b.add_gate(XOR, ai, bi)
        xs.append(x)
        leaves += [x, b.add_gate(AND, ai, bi)]
    remap = b.inline(core, leaves)
    carries = [remap[o] for o in core.output_ids]
    b.mark_output(xs[0])  # lowest sum equals the lowest propagate
    for i in range(1, n):
        b.mark_output(b.add_gate(XOR, xs[i], carries[i - 1]))
    b.mark_output(carries[n - 1])  # carry-out
    return b.build()
