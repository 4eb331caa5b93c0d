"""Family registry: dispatch, arbitrary-width padding, and full adders."""

import pytest

from addergen.circuit import fanout_table, metrics, validate
from addergen.families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder, verify_full_adder,
)
from addergen.semantics import simulate_packed, verify_adder

ALL_FAMILIES = sorted(FAMILIES)
POW2_ONLY = ["sklansky", "kogge-stone", "brent-kung", "linear", "nandnor"]


class TestRegistry:
    def test_all_families_registered(self):
        assert ALL_FAMILIES == ["brent-kung", "kogge-stone", "linear", "mig",
                                "nandnor", "ripple", "sklansky"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_adder(AdderSpec("carry-skip", 8))

    def test_nonpositive_width_rejected(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="width"):
                build_adder(AdderSpec("ripple", n))

    def test_foreign_parameters_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            build_adder(AdderSpec("mig", 8, tau=1))
        with pytest.raises(ValueError, match="does not take"):
            build_adder(AdderSpec("linear", 8, r=2))
        with pytest.raises(ValueError, match="does not take"):
            build_adder(AdderSpec("ripple", 8, k=2))

    def test_mig_needs_both_window_parameters(self):
        with pytest.raises(ValueError, match="both"):
            build_adder(AdderSpec("mig", 8, r=2))

    def test_mig_explicit_parameters_bound_width(self):
        c = build_adder(AdderSpec("mig", 8, r=2, k=2))
        assert verify_adder(c, 8, mode="exhaustive").ok
        with pytest.raises(ValueError, match="outside"):
            build_adder(AdderSpec("mig", 100, r=1, k=2))

    def test_linear_tau_override(self):
        c = build_adder(AdderSpec("linear", 8, tau=2))
        assert verify_adder(c, 8, mode="exhaustive").ok
        c = build_adder(AdderSpec("linear", 16, tau=2))
        assert verify_adder(c, 16, mode="random", samples=10_000).ok
        with pytest.raises(ValueError, match="tau"):
            build_adder(AdderSpec("linear", 16, tau=9))


class TestInterface:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_native_or_padded_shape(self, family, n):
        c = build_adder(AdderSpec(family, n))
        assert validate(c) == []
        assert len(c.input_ids) == 2 * n
        assert len(c.output_ids) == n
        assert verify_adder(c, n, mode="exhaustive").ok

    def test_width_one_carry_is_lowest_generate(self):
        for family in ALL_FAMILIES:
            c = build_adder(AdderSpec(family, 1))
            x, y = 0b0011, 0b0101
            assert simulate_packed(c, [x, y], 4) == [y], family


class TestPadding:
    @pytest.mark.parametrize("family", POW2_ONLY)
    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 100])
    def test_padded_first_carries_match_oracle(self, family, n):
        c = build_adder(AdderSpec(family, n))
        assert validate(c) == []
        assert len(c.input_ids) == 2 * n
        assert len(c.output_ids) == n
        report = verify_adder(c, n, mode="random", samples=10_000, seed=11)
        assert report.ok, (family, n, report.summary())

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 100])
    def test_truncated_mig_matches_oracle(self, n):
        c = build_adder(AdderSpec("mig", n))
        report = verify_adder(c, n, mode="random", samples=10_000, seed=11)
        assert report.ok and metrics(c).max_fanout == 2

    def test_padding_smaller_than_padded_power(self):
        small = metrics(build_adder(AdderSpec("brent-kung", 5))).size
        full = metrics(build_adder(AdderSpec("brent-kung", 8))).size
        assert small < full

    def test_fanout_two_families_stay_fanout_two_when_padded(self):
        for family in ("brent-kung", "linear", "nandnor"):
            for n in (5, 100):
                c = build_adder(AdderSpec(family, n))
                assert metrics(c).max_fanout == 2, (family, n)


# (size, depth, max_fanout) of build_adder at padded width 100
FROZEN_N100 = {
    "ripple": (201, 198, 2),
    "sklansky": (852, 14, 37),
    "kogge-stone": (1686, 13, 3),
    "brent-kung": (527, 24, 2),
    "mig": (9423, 17, 2),
    "linear": (533, 26, 2),
    "nandnor": (812, 26, 2),
}


class TestFrozenMeasurements:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_width_100(self, family):
        m = metrics(build_adder(AdderSpec(family, 100)))
        assert (m.size, m.depth, m.max_fanout) == FROZEN_N100[family]


class TestFullAdder:
    def test_worked_sum_example(self):
        # 1010 + 0110 = 10000
        c = build_full_adder(AdderSpec("brent-kung", 4))
        a, b = 0b1010, 0b0110
        words = []
        for i in range(4):
            words += [(a >> i) & 1, (b >> i) & 1]
        bits = simulate_packed(c, words, 1)
        assert sum(bit << i for i, bit in enumerate(bits)) == 0b10000

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_exhaustive_small(self, family):
        for n in (1, 3, 4):
            c = build_full_adder(AdderSpec(family, n))
            assert validate(c) == []
            assert len(c.input_ids) == 2 * n
            assert len(c.output_ids) == n + 1
            report = verify_full_adder(c, n)
            assert report.mode == "exhaustive"
            assert report.ok, (family, n, report.summary())

    @pytest.mark.parametrize("family", ["mig", "linear", "nandnor"])
    def test_random_medium(self, family):
        c = build_full_adder(AdderSpec(family, 33))
        report = verify_full_adder(c, 33, samples=20_000, seed=3)
        assert report.mode == "random" and report.ok

    @pytest.mark.parametrize("samples", [0, -5])
    def test_random_mode_needs_a_sample(self, samples):
        c = build_full_adder(AdderSpec("ripple", 4))
        with pytest.raises(ValueError, match="samples"):
            verify_full_adder(c, 4, mode="random", samples=samples)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_wrapper_cost_is_three_gates_per_bit(self, family):
        # n XOR + n AND of preparation plus n-1 sum XORs (the lowest sum
        # bit reuses the lowest propagate directly).
        for n in (1, 4, 8):
            core = metrics(build_adder(AdderSpec(family, n))).size
            full = metrics(build_full_adder(AdderSpec(family, n))).size
            assert full == core + 3 * n - 1, (family, n)

    def test_summand_inputs_feed_two_gates_each(self):
        for family in ("ripple", "nandnor"):
            c = build_full_adder(AdderSpec(family, 8))
            table = fanout_table(c)
            assert all(table[i] == 2 for i in c.input_ids), family

    def test_sum_stage_histogram(self):
        c = build_full_adder(AdderSpec("ripple", 8))
        hist = metrics(c).histogram
        assert hist["xor"] == 2 * 8 - 1
        assert hist["and"] == 8 + metrics(
            build_adder(AdderSpec("ripple", 8))).histogram["and"]

    def test_interface_checks(self):
        c = build_full_adder(AdderSpec("ripple", 4))
        with pytest.raises(ValueError, match="inputs"):
            verify_full_adder(c, 5)
        carry_only = build_adder(AdderSpec("ripple", 4))
        with pytest.raises(ValueError, match="outputs"):
            verify_full_adder(carry_only, 4)
        with pytest.raises(ValueError, match="mode"):
            verify_full_adder(c, 4, mode="bogus")

    def test_detects_broken_carry(self):
        # a full adder built over a width-4 core but verified as width-3
        # is an interface error, while a wrong wiring must show up as
        # mismatches: swap two sum outputs via a rebuilt marker order.
        from addergen.circuit import CircuitBuilder

        good = build_full_adder(AdderSpec("ripple", 3))
        b = CircuitBuilder("swapped")
        remap = {}
        for nid in range(len(good)):
            if good.is_input(nid):
                remap[nid] = b.add_input()
            else:
                remap[nid] = b.add_gate(
                    good.kind(nid), *(remap[f] for f in good.fanins(nid)))
        outs = list(good.output_ids)
        outs[0], outs[1] = outs[1], outs[0]
        for oid in outs:
            b.mark_output(remap[oid])
        report = verify_full_adder(b.build(), 3)
        assert not report.ok
        assert report.phases[0].counterexamples


class TestSpecDefaults:
    def test_positional_and_default_fields(self):
        spec = AdderSpec("ripple", 8)
        assert spec.r is None and spec.k is None
        assert spec.tau is None and spec.seed is None

    def test_specs_are_hashable_rows(self):
        seen = {AdderSpec("ripple", 8), AdderSpec("ripple", 8)}
        assert len(seen) == 1
