"""Prefix-graph layer: frozen size/depth/fan-out figures for the four
classical shapes (read through tests.reference.graph_circuit), structural
invariants, and expansion to verified logic."""

import pytest

from addergen.circuit import AND, BUF, INPUT, metrics, validate
from addergen.prefix import (
    PrefixGraph, brent_kung, expand_to_logic, kogge_stone, serial_prefix,
    sklansky,
)
from addergen.semantics import verify_adder
from tests.reference import graph_circuit, graph_figures

BUILDERS = {
    "serial": serial_prefix,
    "sklansky": sklansky,
    "kogge-stone": kogge_stone,
    "brent-kung": brent_kung,
}


class TestGraphBasics:
    def test_needs_a_position(self):
        with pytest.raises(ValueError, match="^need at least one position$"):
            PrefixGraph(0)

    def test_op_requires_adjacent_ranges(self):
        g = PrefixGraph(4)
        with pytest.raises(ValueError):
            g.op(g.pairs[2], g.pairs[0])  # [3,3] over [1,1] leaves a gap
        node = g.op(g.pairs[1], g.pairs[0])
        assert (node.s, node.t) == (1, 2)

    def test_output_must_cover_prefix(self):
        g = PrefixGraph(2)
        node = g.op(g.pairs[1], g.pairs[0])
        with pytest.raises(ValueError):
            g.set_output(1, node)
        g.set_output(2, node)
        with pytest.raises(ValueError):
            g.set_output(2, node)

    def test_marker_counts_as_consumer(self):
        g = serial_prefix(4)
        # every chain node feeds the next combine and carries a marker
        assert graph_figures(g)[2] == 2


# frozen prefix-level figures: (n, size, depth, max fan-out)
PREFIX_NUMBERS = {
    "serial": [(1, 0, 0, 1), (4, 3, 3, 2), (8, 7, 7, 2), (16, 15, 15, 2)],
    "sklansky": [(2, 1, 1, 2), (4, 4, 2, 3), (8, 12, 3, 5),
                 (16, 32, 4, 9), (32, 80, 5, 17)],
    "kogge-stone": [(2, 1, 1, 2), (4, 6, 2, 2), (8, 20, 3, 2),
                    (16, 56, 4, 2), (32, 144, 5, 2)],
    "brent-kung": [(2, 1, 1, 2), (4, 5, 3, 2), (8, 14, 5, 2),
                   (16, 33, 7, 2), (32, 72, 9, 2), (64, 151, 11, 2)],
}


class TestPrefixNumbers:
    @pytest.mark.parametrize("family,rows", sorted(PREFIX_NUMBERS.items()))
    def test_size_depth_fanout(self, family, rows):
        for n, size, depth, fanout in rows:
            figures = graph_figures(BUILDERS[family](n))
            assert figures == (size, depth, fanout), (family, n)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_size_formulas(self, n):
        L = n.bit_length() - 1
        assert graph_figures(kogge_stone(n))[0] == n * L - n // 2
        assert graph_figures(sklansky(n))[0] == n * L // 2
        assert graph_figures(serial_prefix(n))[0] == n - 1
        # the fan-out-two double tree stays within its size budget
        bound = -(-(5 * n - L - 8) // 2)
        assert graph_figures(brent_kung(n))[0] <= bound

    @pytest.mark.parametrize(
        "n", [2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096])
    def test_depth_formulas(self, n):
        L = n.bit_length() - 1
        assert graph_figures(kogge_stone(n))[1] == L
        assert graph_figures(sklansky(n))[1] == L
        assert graph_figures(brent_kung(n))[1] == 2 * L - 1

    @pytest.mark.parametrize(
        "n", [2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096])
    def test_fanout_two_families(self, n):
        assert graph_figures(kogge_stone(n))[2] == 2
        assert graph_figures(brent_kung(n))[2] == 2

    def test_sklansky_fanout_grows(self):
        for n in (4, 8, 16, 32, 64):
            assert graph_figures(sklansky(n))[2] == n // 2 + 1

    @staticmethod
    def node_mix(g):
        """(pairs, ops, repeaters) of g, as graph_circuit's kinds."""
        c = graph_circuit(g)
        kinds = [c.kind(nid) for nid in range(len(c))]
        return kinds.count(INPUT), kinds.count(AND), kinds.count(BUF)

    def test_brent_kung_node_mix(self):
        # 26 ops: 15 halving, 11 corrections (n - ld n - 1); 7 repeaters
        # in the distribution chains
        assert self.node_mix(brent_kung(16)) == (16, 26, 7)

    def test_kogge_stone_node_mix(self):
        assert self.node_mix(kogge_stone(16))[1:] == (49, 7)

    def test_power_of_two_required(self):
        for family in ("sklansky", "kogge-stone", "brent-kung"):
            with pytest.raises(ValueError):
                BUILDERS[family](12)

    def test_every_output_covers_its_prefix(self):
        for family, builder in BUILDERS.items():
            g = builder(16)
            for i, node in enumerate(g.outputs, start=1):
                assert (node.s, node.t) == (1, i), (family, i)


# frozen carry-extraction logic figures: (n, gates, depth, max fan-out)
LOGIC_NUMBERS = {
    "serial": [(1, 3, 3, 2), (8, 17, 14, 2), (16, 33, 30, 2)],
    "sklansky": [(8, 32, 6, 5), (16, 84, 8, 9)],
    "kogge-stone": [(4, 16, 4, 3), (8, 50, 6, 3), (16, 142, 8, 3)],
    "brent-kung": [(4, 13, 5, 2), (8, 32, 9, 2), (16, 73, 13, 2)],
}


class TestExpansion:
    @pytest.mark.parametrize("family,rows", sorted(LOGIC_NUMBERS.items()))
    def test_frozen_logic_numbers(self, family, rows):
        for n, size, depth, fanout in rows:
            c = expand_to_logic(BUILDERS[family](n))
            m = metrics(c)
            assert m.size == size, (family, n)
            assert m.depth == depth, (family, n)
            assert m.max_fanout == fanout, (family, n)

    @pytest.mark.parametrize("family", sorted(BUILDERS))
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_verified_exhaustively(self, family, n):
        if family != "serial" and n == 1:
            pytest.skip("power-of-two shapes start at n=2")
        c = expand_to_logic(BUILDERS[family](n))
        assert validate(c) == []
        assert verify_adder(c, n, mode="exhaustive").ok

    @pytest.mark.parametrize("family", sorted(BUILDERS))
    def test_verified_random_n64(self, family):
        c = expand_to_logic(BUILDERS[family](64))
        assert validate(c) == []
        assert verify_adder(c, 64, mode="random", samples=20_000).ok

    @pytest.mark.parametrize("family", sorted(BUILDERS))
    def test_lowest_propagate_has_consumer(self, family):
        c = expand_to_logic(BUILDERS[family](8))
        table = c.consumer_counts()
        x1 = c.input_ids[0]
        assert table[x1] == 1

    def test_repeater_as_upper_operand_keeps_its_x(self):
        # no built-in shape puts a repeater above a live combine, so none
        # needs the repeater's x component
        g = PrefixGraph(2)
        r = g.repeater(g.pairs[1])
        g.set_output(1, g.pairs[0])
        g.set_output(2, g.op(r, g.pairs[0]))
        c = expand_to_logic(g)
        assert validate(c) == []
        m = metrics(c)
        assert (m.size, m.histogram["buf"]) == (7, 3)
        assert verify_adder(c, 2, mode="exhaustive").ok

    def test_op_as_upper_operand_keeps_its_x(self):
        # op(p3, p2) is the upper operand of output 3, so its x gate is
        # live; the x gate of output 2's op is read by nothing and dropped
        g = PrefixGraph(3)
        p1, p2, p3 = g.pairs
        u = g.op(p3, p2)
        g.set_output(1, p1)
        g.set_output(2, g.op(p2, p1))
        g.set_output(3, g.op(u, p1))
        c = expand_to_logic(g)
        assert validate(c) == []
        m = metrics(c)
        assert m.size == 10
        assert m.histogram == {"and": 5, "or": 4, "buf": 1}
        assert verify_adder(c, 3, mode="exhaustive").ok

    def test_unset_output_rejected(self):
        g = PrefixGraph(3)
        g.set_output(2, g.op(g.pairs[1], g.pairs[0]))
        with pytest.raises(ValueError, match="^output 1 not set$"):
            expand_to_logic(g)
        g.set_output(1, g.pairs[0])
        with pytest.raises(ValueError, match="^output 3 not set$"):
            expand_to_logic(g)

    def test_brent_kung_logic_depth_bound(self):
        for n in (4, 8, 16, 32, 64, 128, 256):
            c = expand_to_logic(brent_kung(n))
            L = n.bit_length() - 1
            assert metrics(c).depth <= 4 * L - 2, n

    def test_kogge_stone_logic_depth_exact(self):
        for n in (4, 8, 16, 32, 64):
            c = expand_to_logic(kogge_stone(n))
            assert metrics(c).depth == 2 * (n.bit_length() - 1), n
