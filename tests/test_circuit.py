"""Structural-layer tests: builder invariants, validation, metrics,
fan-out accounting, pruning, constant folding, and repeater chains."""

from array import array
from functools import partial

import pytest

from addergen.circuit import (
    AND, BUF, NOT, OR, XOR,
    Circuit, CircuitBuilder, CircuitError, FanoutChain,
    constant_fold, fanout_table, lsb_carry, metrics, node_depths,
    prune_dead, validate,
)
from addergen.semantics import simulate


def tiny_carry2():
    """Hand-built two-bit carry circuit: c2 = y1, c3 = y2 or (x2 and c2)."""
    b = CircuitBuilder("tiny")
    x1 = b.add_input()
    y1 = b.add_input()
    x2 = b.add_input()
    y2 = b.add_input()
    c2 = lsb_carry(b, x1, y1)
    t = b.add_gate(AND, x2, c2)
    c3 = b.add_gate(OR, y2, t)
    b.mark_output(c2)
    b.mark_output(c3)
    return b.build()


class TestBuilder:
    def test_ids_are_dense_and_ordered(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        g = b.add_gate(AND, i0, i1)
        assert (i0, i1, g) == (0, 1, 2)
        c = b.build()
        assert len(c) == 3
        assert c.kind(g) == AND
        assert c.fanins(g) == (0, 1)

    def test_forward_reference_rejected(self):
        b = CircuitBuilder()
        b.add_input()
        with pytest.raises(ValueError):
            b.add_gate(NOT, 5)

    def test_arity_enforced(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        with pytest.raises(ValueError):
            b.add_gate(NOT, i0, i1)
        with pytest.raises(ValueError):
            b.add_gate(AND, i0)

    def test_live_fanout_counts(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        g = b.add_gate(AND, i0, i1)
        assert b.fanout(i0) == 1
        b.add_gate(NOT, i0)
        assert b.fanout(i0) == 2
        b.mark_output(g)
        assert b.fanout(g) == 1

    def test_inline_binds_inputs_to_leaves(self):
        core = tiny_carry2()
        b = CircuitBuilder()
        ins = [b.add_input() for _ in range(4)]
        leaves = [b.add_gate(NOT, i) for i in ins]
        remap = b.inline(core, leaves)
        assert [remap[i] for i in core.input_ids] == leaves
        # consumers are counted as for add_gate (inputs are no outputs)
        assert [b.fanout(x) for x in leaves] == [
            core.consumer_counts()[i] for i in core.input_ids]
        c = b.build()
        assert len(c) == 8 + core.num_gates
        for nid in range(len(core)):
            if not core.is_input(nid):
                assert c.kind(remap[nid]) == core.kind(nid)
                assert c.fanins(remap[nid]) == tuple(
                    remap[f] for f in core.fanins(nid))

    def test_inline_checks_leaves(self):
        core = tiny_carry2()
        b = CircuitBuilder()
        ins = [b.add_input() for _ in range(4)]
        with pytest.raises(ValueError, match="leaves"):
            b.inline(core, ins[:3])
        with pytest.raises(ValueError, match="out of range"):
            b.inline(core, ins[:3] + [4])
        assert len(b) == 4


class TestValidate:
    def test_clean_circuit(self):
        assert validate(tiny_carry2()) == []

    def test_dangling_input(self):
        b = CircuitBuilder()
        b.add_input()
        i1 = b.add_input()
        g = b.add_gate(NOT, i1)
        b.mark_output(g)
        rules = {v.rule for v in validate(b.build())}
        assert rules == {"dangling-input"}

    def test_dangling_gate(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        g = b.add_gate(NOT, i0)
        b.add_gate(NOT, g)  # consumes g, itself unused
        b.mark_output(g)
        rules = [v.rule for v in validate(b.build())]
        assert rules == ["dangling-gate"]

    def test_output_must_be_gate(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        g = b.add_gate(NOT, i0)
        b.mark_output(g)
        b.mark_output(i0)
        rules = {v.rule for v in validate(b.build())}
        assert rules == {"output-on-input"}

    def test_gateless_circuit_invalid(self):
        b = CircuitBuilder()
        b.add_input()
        rules = {v.rule for v in validate(b.build())}
        assert "no-gates" in rules

    def test_metrics_refuses_invalid(self):
        b = CircuitBuilder()
        b.add_input()
        with pytest.raises(CircuitError):
            metrics(b.build())


def raw_circuit(codes, f0, f1, inputs, outputs):
    """A Circuit straight from arrays, bypassing the builder's checks."""
    return Circuit("raw", array("b", codes), array("i", f0), array("i", f1),
                   tuple(inputs), tuple(outputs))


def found(c):
    return [(v.rule, v.node, v.detail) for v in validate(c)]


class TestViolationRules:
    """Every rule, with its exact node, detail text and report order."""

    def test_arity_input_with_fanins(self):
        c = raw_circuit([0, 0, 1], [-1, 0, 0], [-1, -1, 1], (0, 1), (2,))
        assert found(c) == [("arity", 1, "input with fanins")]

    def test_arity_wrong_gate_fanin_count(self):
        # node 2 is a two-fanin not, node 3 a one-fanin and
        c = raw_circuit([0, 0, 4, 1], [-1, -1, 0, 2], [-1, -1, 1, -1],
                        (0, 1), (3,))
        assert found(c) == [("arity", 2, "not has 2 fanins"),
                            ("arity", 3, "and has 1 fanins")]

    def test_ordering(self):
        # node 2 reads the later node 3, node 4 reads itself; both of
        # those nodes are outputs, so no consumer count hinges on the loop
        c = raw_circuit([0, 0, 1, 4, 3], [-1, -1, 0, 1, 2], [-1, -1, 3, -1, 4],
                        (0, 1), (2, 3, 4))
        assert found(c) == [("ordering", 2, "fanin 3 not earlier"),
                            ("ordering", 4, "fanin 4 not earlier")]

    def test_input_marking_both_ways(self):
        # node 1 is input-kind but unlisted, node 3 is a gate listed as input
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 2], [-1, -1, 1, -1],
                        (0, 3), (3,))
        assert found(c) == [
            ("input-marking", 1, "input-kind node missing from input list"),
            ("input-marking", 3, "gate listed as input")]

    def test_output_range(self):
        # -1 lands on the last node, which is an output anyway
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 1], (0, 1), (2, -1))
        assert found(c) == [("output-range", -1, "output id out of range")]

    def test_output_on_input(self):
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 1], (0, 1), (2, 0))
        assert found(c) == [
            ("output-on-input", 0, "output marker must name a gate")]

    def test_dangling_input(self):
        c = raw_circuit([0, 0, 4], [-1, -1, 1], [-1, -1, -1], (0, 1), (2,))
        assert found(c) == [("dangling-input", 0, "input drives nothing")]

    def test_dangling_gate(self):
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 0], [-1, -1, 1, -1],
                        (0, 1), (2,))
        assert found(c) == [
            ("dangling-gate", 3, "gate has no consumer and is not an output")]

    def test_no_gates(self):
        c = raw_circuit([0, 0], [-1, -1], [-1, -1], (0, 1), ())
        assert found(c) == [("no-gates", -1, "circuit has no gates"),
                            ("dangling-input", 0, "input drives nothing"),
                            ("dangling-input", 1, "input drives nothing")]

    def test_rules_report_in_pass_order(self):
        # node checks in id order (per node: marking or arity, then
        # ordering, then marking of gates), then outputs, then consumers
        c = raw_circuit([0, 0, 0, 4, 1, 5], [-1, 0, -1, 0, 3, 3],
                        [-1, -1, -1, 5, 4, -1], (0, 4), (4, 5, 0))
        assert found(c) == [
            ("input-marking", 1, "input-kind node missing from input list"),
            ("arity", 1, "input with fanins"),
            ("input-marking", 2, "input-kind node missing from input list"),
            ("arity", 3, "not has 2 fanins"),
            ("ordering", 3, "fanin 5 not earlier"),
            ("ordering", 4, "fanin 4 not earlier"),
            ("input-marking", 4, "gate listed as input"),
            ("output-on-input", 0, "output marker must name a gate"),
            ("dangling-input", 1, "input drives nothing"),
            ("dangling-input", 2, "input drives nothing"),
        ]


class TestValidateBadReferences:
    """A bad reference is reported and then counts as no consumer."""

    DANGLING_GATE = ("dangling-gate", 2,
                     "gate has no consumer and is not an output")

    def test_output_id_past_the_end(self):
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 1], (0, 1), (7,))
        assert found(c) == [("output-range", 7, "output id out of range"),
                            self.DANGLING_GATE]
        with pytest.raises(CircuitError, match="output-range@7"):
            metrics(c)

    def test_fanin_past_the_end(self):
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 9], (0, 1), (2,))
        assert found(c) == [("ordering", 2, "fanin 9 not earlier"),
                            ("dangling-input", 1, "input drives nothing")]
        with pytest.raises(CircuitError, match="ordering@2"):
            metrics(c)

    def test_negative_output_id_hides_no_dangling_gate(self):
        # -2 must not count as a consumer of node 2, the second to last
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 0], [-1, -1, 1, -1],
                        (0, 1), (3, -2))
        assert found(c) == [("output-range", -2, "output id out of range"),
                            self.DANGLING_GATE]

    def test_later_fanin_is_no_consumer(self):
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 1], [-1, -1, 3, -1],
                        (0, 1), (2,))
        assert found(c) == [
            ("ordering", 2, "fanin 3 not earlier"),
            ("dangling-gate", 3, "gate has no consumer and is not an output")]


class TestMetrics:
    def test_tiny_carry_numbers(self):
        m = metrics(tiny_carry2())
        assert m.size == 5
        # c2 = Or(Buf(y1), And(x1, Buf)) is 3 deep and feeds c3's And -> Or
        assert m.depth == 5
        assert m.max_fanout == 2
        assert m.histogram == {BUF: 1, AND: 2, OR: 2}

    def test_depths_per_node(self):
        c = tiny_carry2()
        d = node_depths(c)
        assert d[:4] == [0, 0, 0, 0]
        assert max(d) == 5

    def test_fanout_counts_markers(self):
        c = tiny_carry2()
        table = fanout_table(c)
        # c2 feeds the And gate and carries an output marker
        c2 = c.output_ids[0]
        assert table[c2] == 2
        c3 = c.output_ids[1]
        assert table[c3] == 1

    def test_buf_chain_depth(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        cur = i0
        for _ in range(7):
            cur = b.add_gate(BUF, cur)
        b.mark_output(cur)
        m = metrics(b.build())
        assert m.depth == 7 and m.size == 7 and m.max_fanout == 1


class TestPrune:
    def test_removes_unreachable(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        g = b.add_gate(AND, i0, i1)
        dead = b.add_gate(NOT, i0)
        b.add_gate(NOT, dead)
        b.mark_output(g)
        pruned = prune_dead(b.build())
        assert pruned.num_gates == 1
        assert len(pruned.input_ids) == 2
        assert simulate(pruned, {0: 1, 1: 1})[pruned.output_ids[0]] == 1

    def test_keeps_function(self):
        c = tiny_carry2()
        p = prune_dead(c)
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            a = dict(zip(c.input_ids, bits))
            b_ = dict(zip(p.input_ids, bits))
            got_c = [simulate(c, a)[o] for o in c.output_ids]
            got_p = [simulate(p, b_)[o] for o in p.output_ids]
            assert got_c == got_p


class TestConstantFold:
    def _fold_target(self):
        b = CircuitBuilder()
        x0 = b.add_input()
        x1 = b.add_input()
        x2 = b.add_input()
        g1 = b.add_gate(AND, x0, x1)
        g2 = b.add_gate(XOR, g1, x2)
        g3 = b.add_gate(OR, g1, x2)
        b.mark_output(g2)
        b.mark_output(g3)
        return b.build(), (x0, x1, x2), (g2, g3)

    def test_identity_and_absorption(self):
        c, (x0, x1, x2), (g2, g3) = self._fold_target()
        # x1 = 1 makes the And an alias of x0
        f = constant_fold(c, {x1: 1})
        assert len(f.input_ids) == 2
        for p in range(4):
            bits = {f.input_ids[0]: p & 1, f.input_ids[1]: (p >> 1) & 1}
            out = [simulate(f, bits)[o] for o in f.output_ids]
            ref = {0: (p & 1) & 1, 1: (p >> 1) & 1}
            want = [((p & 1) ^ ((p >> 1) & 1)), ((p & 1) | ((p >> 1) & 1))]
            assert out == want

    def test_xor_with_one_becomes_not(self):
        b = CircuitBuilder()
        x0 = b.add_input()
        x1 = b.add_input()
        g = b.add_gate(XOR, x0, x1)
        b.mark_output(g)
        f = constant_fold(b.build(), {x1: 1})
        assert f.kind(f.output_ids[0]) == NOT
        assert simulate(f, {0: 0})[f.output_ids[0]] == 1
        assert simulate(f, {0: 1})[f.output_ids[0]] == 0

    def test_folded_output_raises(self):
        b = CircuitBuilder()
        x0 = b.add_input()
        x1 = b.add_input()
        g = b.add_gate(AND, x0, x1)
        b.mark_output(g)
        with pytest.raises(ValueError):
            constant_fold(b.build(), {x0: 0, x1: 1})

    def test_alias_output_gets_buffer(self):
        b = CircuitBuilder()
        x0 = b.add_input()
        x1 = b.add_input()
        g = b.add_gate(AND, x0, x1)
        b.mark_output(g)
        f = constant_fold(b.build(), {x1: 1})
        assert validate(f) == []
        assert f.kind(f.output_ids[0]) == BUF

    def test_keep_outputs_subset(self):
        c, _, (g2, g3) = self._fold_target()
        f = constant_fold(c, {}, keep_outputs=[g3])
        assert len(f.output_ids) == 1
        assert f.kind(f.output_ids[0]) == OR


def buf_chain(b, src, total):
    return FanoutChain(src, b.uses[src], total, partial(b.add_gate, BUF))


class TestFanoutChain:
    def _consume(self, b, chain, count):
        sinks = []
        for _ in range(count):
            sinks.append(b.add_gate(NOT, chain.next()))
        return sinks

    @pytest.mark.parametrize("total", [1, 2, 3, 5, 9])
    def test_fanout_stays_at_two(self, total):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        src = b.add_gate(AND, i0, i1)
        chain = buf_chain(b, src, total)
        sinks = self._consume(b, chain, total)
        for s in sinks:
            b.mark_output(s)
        c = b.build()
        assert validate(c) == []
        assert max(fanout_table(c).values()) <= 2
        assert chain.links == max(0, total - 2)

    def test_direct_when_capacity_suffices(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        src = b.add_gate(BUF, i0)
        chain = buf_chain(b, src, 2)
        assert chain.next() == src and chain.next() == src
        assert chain.links == 0

    def test_earliest_consumer_closest(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        src = b.add_gate(BUF, i0)
        chain = buf_chain(b, src, 4)
        outlets = [chain.next() for _ in range(4)]
        # first outlet is the source itself, later ones sit deeper
        assert outlets[0] == src
        assert outlets[1] > src and outlets[2] > outlets[1]
        assert outlets[3] == outlets[2]  # final link serves two consumers

    def test_no_free_slot_raises(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        src = b.add_gate(BUF, i0)
        b.add_gate(NOT, src)
        b.add_gate(NOT, src)
        with pytest.raises(ValueError):
            buf_chain(b, src, 1)


class TestLsbCarry:
    def test_function_is_y(self):
        c = tiny_carry2()
        for pattern in range(16):
            bits = dict(zip(c.input_ids, [(pattern >> i) & 1 for i in range(4)]))
            out = simulate(c, bits)
            assert out[c.output_ids[0]] == bits[1]  # c2 == y1

    def test_every_input_used(self):
        assert validate(tiny_carry2()) == []
