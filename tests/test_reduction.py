"""Reduction wrapper and the linear-size adder built on it.

Layer accounting expected below (derived by hand from the construction,
with w = n >> tau coarse positions):
  * combine steps: one 3-gate composition per coarse pair over all
    steps = 3 * (n - w) gates, of which 2 * (n - w) are ANDs;
  * corrections: one AND + one OR for every odd block >= 3 at each of
    the tau scales = (n - w) - tau of each;
  * distribution: buffer chains totalling at most n / 2 gates.
So the wrapper alone costs exactly 3(n-w) - tau ANDs and 2(n-w) - tau
ORs beyond the inner core, staying under 5.5n gates with chains.
"""

import hashlib
from collections import Counter

import pytest

from addergen.circuit import (
    AND,
    BUF,
    Circuit,
    CircuitBuilder,
    metrics,
    prune_dead,
    validate,
)
from addergen.families import AdderSpec, build_adder
from addergen.mig import build_mig_adder, choose_params
from addergen.netlist import dumps_netlist
from addergen.prefix import brent_kung, expand_to_logic, serial_prefix
from addergen.reduction import (
    OrAndStyle,
    _carry_demand,
    _chain,
    apply_reduction,
    build_linear_adder,
    reduction_depth_for,
)
from addergen.semantics import verify_adder
from addergen.techmap import NandNorStyle, build_nandnor_adder


def serial_inner(w):
    """Serial-prefix inner core over w coarse positions."""
    return expand_to_logic(serial_prefix(w))


def bk_inner(w):
    """Brent-Kung inner core over w coarse positions."""
    return expand_to_logic(brent_kung(w))


class TestCarryDemand:
    def test_hand_derived_values(self):
        # n=16, tau=2: carry at 4 feeds corrections at 5 and 6 plus marker
        assert _carry_demand(4, 16, 2) == 3
        # top carry never feeds a correction
        assert _carry_demand(16, 16, 2) == 1
        # odd positions are only ever marked
        assert _carry_demand(1, 16, 2) == 1
        assert _carry_demand(7, 16, 3) == 1
        # n=16, tau=3: carry at 8 feeds 9, 10, 12
        assert _carry_demand(8, 16, 3) == 4
        # truncation by n: carry at 12 (v2=2) feeds 13, 14 within n=14
        assert _carry_demand(12, 14, 2) == 3
        assert _carry_demand(12, 13, 2) == 2

    def test_scale_cap(self):
        # v2 may exceed tau; only tau scales of corrections exist
        assert _carry_demand(8, 32, 1) == 2  # just sigma=1 (target 9)


class TestCarryChain:
    def test_buffer_links_keep_polarity(self):
        b = CircuitBuilder()
        i0, i1 = b.add_input(), b.add_input()
        g = b.add_gate(AND, i0, i1)
        ch = _chain(b, (g, False), b.build().consumer_counts()[g], 3, BUF)
        assert len(b) == 4 and b._codes[3] == BUF
        outlets = [ch.take() for _ in range(3)]
        assert outlets == [(g, False), (3, False), (3, False)]


class TestReductionStructure:
    def test_zero_steps_is_the_inner_core(self):
        base = metrics(expand_to_logic(brent_kung(8)))
        red = metrics(apply_reduction(8, 0, bk_inner(8)))
        assert (red.size, red.depth, red.max_fanout) == (
            base.size, base.depth, base.max_fanout)

    # (n, tau, size, depth) with the serial core, frozen from first build
    FROZEN = [(4, 1, 14, 7), (8, 1, 30, 9), (8, 2, 34, 11), (6, 1, 22, 7),
              (12, 2, 53, 11)]

    @pytest.mark.parametrize("n, tau, size, depth", FROZEN)
    def test_frozen_serial_wrapping(self, n, tau, size, depth):
        c = apply_reduction(n, tau, serial_inner(n >> tau))
        m = metrics(c)
        assert (m.size, m.depth, m.max_fanout) == (size, depth, 2)

    @pytest.mark.parametrize("n, tau", [(8, 1), (16, 2), (32, 3), (64, 2)])
    def test_layer_gate_accounting(self, n, tau):
        w = n >> tau
        core = serial_inner(w)
        whole = Counter(metrics(apply_reduction(n, tau, core)).histogram)
        layer = whole - Counter(metrics(core).histogram)
        assert layer["and"] == 3 * (n - w) - tau
        assert layer["or"] == 2 * (n - w) - tau
        assert layer["buf"] <= n // 2
        assert layer["xor"] == layer["not"] == 0

    @pytest.mark.parametrize("n, tau", [(8, 1), (8, 2), (16, 2), (12, 2)])
    def test_wrapper_adds_no_dead_gates(self, n, tau):
        c = apply_reduction(n, tau, serial_inner(n >> tau))
        assert not validate(c)
        assert prune_dead(c).num_gates == c.num_gates

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError, match="^tau must be nonnegative$"):
            apply_reduction(8, -1, serial_inner(8))

    def test_width_must_divide(self):
        with pytest.raises(ValueError):
            apply_reduction(6, 2, serial_inner(1))

    # sha256 of the netlist text; most inner carries of these cores arrive
    # with one consumer already, which the wrapper must count before it
    # chains them (brent_kung needs a power-of-two core, so no bk 12/2)
    PINNED = [
        (serial_inner, 8, 1,
         "c65e7528bf8774578a9945150e6cd22560595f90a6eb44870c463ee117a1b75b"),
        (serial_inner, 12, 2,
         "b5b41548abb255e9c3c69e206f804b0f14d8c6d9d8a45b2e2561554458e3e616"),
        (serial_inner, 16, 2,
         "a1efddd7e5d2c31de8d4a349d1db9f358e6973a20b768e44d03c0bebae5ab02c"),
        (serial_inner, 64, 3,
         "bf1b7d0778dab188fe2d05a9d81170db81aa81bee5672d7cba5c96b85b3ef718"),
        (bk_inner, 8, 1,
         "31c734b8f0bf8f1d3e26c03be89e32efe33a4c13e87d489eda86eca2312723dd"),
        (bk_inner, 16, 2,
         "161edb7553a7150b8b078b0d9dc0197e20075eef64f0f703d8f0f7a356712bbd"),
        (bk_inner, 64, 3,
         "979de6fe1f3067ee216eebfcb751f0471fa88a4837dfe2e7752801e500af536a"),
    ]

    @pytest.mark.parametrize("core, n, tau, sha", PINNED, ids=[
        f"{core.__name__}-{n}-{tau}" for core, n, tau, _ in PINNED])
    def test_pinned_netlists(self, core, n, tau, sha):
        text = dumps_netlist(apply_reduction(n, tau, core(n >> tau)))
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_inner_carry_count_checked(self):
        c = serial_inner(4)
        bad = Circuit(c.name, c._codes, c._f0, c._f1, c.output_ids[:-1])
        with pytest.raises(ValueError, match="^core has 3 carries, need 4$"):
            apply_reduction(8, 1, bad)

    @pytest.mark.parametrize("style", [OrAndStyle, NandNorStyle])
    def test_core_carry_without_free_slot_is_named(self, style):
        # sklansky 4's second carry feeds two gates besides its output
        core = build_adder(AdderSpec("sklansky", 4))
        with pytest.raises(ValueError, match=(
                "^core carry 2 already has 2 consumers inside the core; the "
                "wrapper needs one free fan-out slot on each core carry$")):
            apply_reduction(16, 2, core, style())


class TestReductionCorrectness:
    @pytest.mark.parametrize(
        "n, tau", [(4, 1), (8, 1), (8, 2), (8, 3), (6, 1), (12, 2), (10, 1)])
    def test_exhaustive_serial_core(self, n, tau):
        c = apply_reduction(n, tau, serial_inner(n >> tau))
        assert verify_adder(c, n, mode="exhaustive").ok

    @pytest.mark.parametrize("n, tau", [(8, 1), (8, 2)])
    def test_exhaustive_mig_core(self, n, tau):
        w = n >> tau
        r, k, _ = choose_params(w)
        c = prune_dead(apply_reduction(n, tau, build_mig_adder(w, r, k)))
        assert not validate(c)
        assert verify_adder(c, n, mode="exhaustive").ok
        assert metrics(c).max_fanout == 2


class TestLinearAdder:
    def test_step_counts(self):
        assert reduction_depth_for(2) == 0
        assert reduction_depth_for(4) == 1
        assert reduction_depth_for(16) == 3
        assert reduction_depth_for(64) == 5
        assert reduction_depth_for(256) == 6
        assert reduction_depth_for(1024) == 8
        assert reduction_depth_for(4096) == 8

    def test_rejects_bad_widths(self):
        for bad in (0, 1, 3, 6, 100):
            with pytest.raises(ValueError):
                reduction_depth_for(bad)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_small_exhaustive(self, n):
        c = build_linear_adder(n)
        assert not validate(c)
        assert verify_adder(c, n, mode="exhaustive").ok

    # frozen from first build: (n, size, depth)
    @pytest.mark.parametrize("n, size, depth",
                             [(256, 1419, 30), (1024, 5639, 38)])
    def test_frozen_structure(self, n, size, depth):
        m = metrics(build_linear_adder(n))
        assert (m.size, m.depth, m.max_fanout) == (size, depth, 2)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_size_stays_linear(self, n):
        assert metrics(build_linear_adder(n)).size <= 13.5 * n

    def test_depth_within_core_plus_wrapper_budget(self):
        for n in (64, 256, 1024):
            tau = reduction_depth_for(n)
            w = n >> tau
            r, k, _ = choose_params(w)
            d_inner = metrics(build_mig_adder(w, r, k)).depth
            assert metrics(build_linear_adder(n)).depth <= d_inner + 4 * tau

    @pytest.mark.parametrize(
        "n, tau", [(1 << j, t) for j in range(1, 11) for t in range(j)])
    def test_built_without_dead_gates(self, n, tau):
        c = build_linear_adder(n, tau)
        assert len(prune_dead(c)) == len(c)

    @pytest.mark.parametrize("n", [1 << j for j in range(1, 11)])
    def test_nandnor_built_without_dead_gates(self, n):
        c = build_nandnor_adder(n)
        assert len(prune_dead(c)) == len(c)

    def test_random_verification(self):
        c = build_linear_adder(256)
        assert verify_adder(c, 256, mode="random", samples=20000, seed=11).ok
