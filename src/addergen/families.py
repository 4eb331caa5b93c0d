"""Adder family registry, arbitrary-width support, and full adders.

Every generator in the package builds a carry circuit: 2n inputs
x_1,y_1,...,x_n,y_n and n outputs c_2..c_{n+1}.  This module gives them
one front door:

* AdderSpec names a family plus its parameters and fully determines a
  circuit.
* build_adder dispatches on the family and extends each one to every
  width n >= 1.  A family whose construction needs a power of two is
  built at the next power and cut to its first n carries, the gates that
  reach them, and its first 2n inputs: carry c_{i+1} reads positions 1..i
  only, so the cut drops every high-order input.
* build_full_adder wraps a carry circuit into a complete adder: inputs
  a_1,b_1,...,a_n,b_n, per-bit preparation x_i = a_i xor b_i and
  y_i = a_i and b_i, and sum outputs s_1..s_{n+1} where s_1 = x_1,
  s_i = x_i xor c_i, and s_{n+1} is the carry-out.
* verify_full_adder checks a full adder against integer addition with
  the same report shape verify_adder uses for carry circuits, and
  prove_full_adder proves one as prove_adder proves a carry circuit.
  Both live in semantics, next to their carry-circuit siblings, and are
  re-exported here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .circuit import AND, XOR, Circuit, CircuitBuilder, _cut
from .mig import build_mig_adder
from .prefix import (
    brent_kung,
    expand_to_logic,
    kogge_stone,
    serial_prefix,
    sklansky,
)
from .reduction import build_linear_adder
from .semantics import (  # noqa: F401  (re-export)
    prove_full_adder, verify_full_adder,
)
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
    build: Callable  # (n, spec) -> Circuit, n already in native domain
    native: Callable  # n -> bool: buildable directly at this width?
    takes: frozenset  # optional AdderSpec parameters the family accepts


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _next_pow2(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


FAMILIES = {
    "ripple": Family(
        lambda n, spec: expand_to_logic(serial_prefix(n)),
        lambda n: n >= 1,
        frozenset()),
    "sklansky": Family(
        lambda n, spec: expand_to_logic(sklansky(n)),
        _is_pow2,
        frozenset()),
    "kogge-stone": Family(
        lambda n, spec: expand_to_logic(kogge_stone(n)),
        _is_pow2,
        frozenset()),
    "brent-kung": Family(
        lambda n, spec: expand_to_logic(brent_kung(n)),
        _is_pow2,
        frozenset()),
    "mig": Family(
        lambda n, spec: build_mig_adder(n, spec.r, spec.k),
        lambda n: n >= 1,
        frozenset({"r", "k"})),
    "linear": Family(
        lambda n, spec: build_linear_adder(n, tau=spec.tau),
        _is_pow2,
        frozenset({"tau"})),
    "nandnor": Family(
        lambda n, spec: build_nandnor_adder(n),
        _is_pow2,
        frozenset()),
}


def _spec_type_problem(spec: AdderSpec) -> str | None:
    """Name the spec fields no netlist header can hold (bools are not ints)."""
    if not isinstance(spec.family, str) or type(spec.n) is not int:
        return "family/n types"
    if any(v is not None and type(v) is not int for v in spec[2:]):
        return "r/k/tau/seed types"
    return None


def _check_spec(spec: AdderSpec) -> Family:
    problem = _spec_type_problem(spec)
    if problem:
        raise ValueError(f"bad spec: {problem}")
    fam = FAMILIES.get(spec.family)
    if fam is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {spec.family!r} (known: {known})")
    if spec.n < 1:
        raise ValueError("width must be at least 1")
    for param in ("r", "k", "tau"):
        if getattr(spec, param) is not None and param not in fam.takes:
            raise ValueError(
                f"family {spec.family!r} does not take parameter {param!r}")
    return fam


def build_adder(spec: AdderSpec) -> Circuit:
    """Carry circuit for the spec; any width n >= 1 (see module docstring)."""
    fam = _check_spec(spec)
    if fam.native(spec.n):
        return fam.build(spec.n, spec)
    core = fam.build(_next_pow2(spec.n), spec)
    return _cut(core, core.output_ids[:spec.n], core.input_ids[:2 * spec.n])


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
    carries = b.inline(core, leaves)
    b.mark_output(xs[0])  # lowest sum equals the lowest propagate
    for i in range(1, n):
        b.mark_output(b.add_gate(XOR, xs[i], carries[i - 1]))
    b.mark_output(carries[n - 1])  # carry-out
    return b.build()
