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

from collections import Counter

import pytest

from addergen.circuit import (
    CircuitBuilder,
    metrics,
    prune_dead,
    validate,
)
from addergen.mig import _mig_carries, build_mig_adder, choose_params
from addergen.prefix import _expand_onto, brent_kung, expand_to_logic, serial_prefix
from addergen.reduction import (
    _carry_demand,
    apply_reduction,
    build_linear_adder,
    reduction_depth_for,
)
from addergen.semantics import verify_adder

KIND_ORDER = ["input", "and", "or", "xor", "not", "buf", "nand", "nor"]


def serial_inner(b, pairs):
    return _expand_onto(b, serial_prefix(len(pairs)), pairs)


def bk_inner(b, pairs):
    return _expand_onto(b, brent_kung(len(pairs)), pairs)


def inner_histogram(inner_fn, w):
    """Gate-kind histogram of an inner core built standalone on w pairs."""
    b = CircuitBuilder()
    pairs = [(b.add_input(), b.add_input()) for _ in range(w)]
    inner_fn(b, pairs)
    hist = Counter()
    for nid in range(2 * w, len(b)):
        hist[KIND_ORDER[b._codes[nid]]] += 1
    return hist


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


class TestReductionStructure:
    def test_zero_steps_is_the_inner_core(self):
        base = metrics(expand_to_logic(brent_kung(8)))
        red = metrics(apply_reduction(8, 0, bk_inner))
        assert (red.size, red.depth, red.max_fanout) == (
            base.size, base.depth, base.max_fanout)

    # (n, tau, size, depth) with the serial core, frozen from first build
    FROZEN = [(4, 1, 14, 7), (8, 1, 30, 9), (8, 2, 34, 11), (6, 1, 22, 7),
              (12, 2, 53, 11)]

    @pytest.mark.parametrize("n, tau, size, depth", FROZEN)
    def test_frozen_serial_wrapping(self, n, tau, size, depth):
        c = apply_reduction(n, tau, serial_inner)
        m = metrics(c)
        assert (m.size, m.depth, m.max_fanout) == (size, depth, 2)

    @pytest.mark.parametrize("n, tau", [(8, 1), (16, 2), (32, 3), (64, 2)])
    def test_layer_gate_accounting(self, n, tau):
        w = n >> tau
        whole = Counter(metrics(apply_reduction(n, tau, serial_inner)).histogram)
        layer = whole - inner_histogram(serial_inner, w)
        assert layer["and"] == 3 * (n - w) - tau
        assert layer["or"] == 2 * (n - w) - tau
        assert layer["buf"] <= n // 2
        assert layer["xor"] == layer["not"] == 0

    @pytest.mark.parametrize("n, tau", [(8, 1), (8, 2), (16, 2), (12, 2)])
    def test_wrapper_adds_no_dead_gates(self, n, tau):
        c = apply_reduction(n, tau, serial_inner)
        assert not validate(c)
        assert prune_dead(c).num_gates == c.num_gates

    def test_width_must_divide(self):
        with pytest.raises(ValueError):
            apply_reduction(6, 2, serial_inner)

    def test_inner_carry_count_checked(self):
        def bad_inner(b, pairs):
            return serial_inner(b, pairs)[:-1]

        with pytest.raises(ValueError):
            apply_reduction(8, 1, bad_inner)


class TestReductionCorrectness:
    @pytest.mark.parametrize(
        "n, tau", [(4, 1), (8, 1), (8, 2), (8, 3), (6, 1), (12, 2), (10, 1)])
    def test_exhaustive_serial_core(self, n, tau):
        c = apply_reduction(n, tau, serial_inner)
        assert verify_adder(c, n, mode="exhaustive").ok

    @pytest.mark.parametrize("n, tau", [(8, 1), (8, 2)])
    def test_exhaustive_mig_core(self, n, tau):
        w = n >> tau
        r, k, _ = choose_params(w)
        c = prune_dead(apply_reduction(
            n, tau, lambda b, p: _mig_carries(b, p, r, k)))
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

    def test_random_verification(self):
        c = build_linear_adder(256)
        assert verify_adder(c, 256, mode="random", samples=20000, seed=11).ok
