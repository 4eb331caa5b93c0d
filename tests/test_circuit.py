"""Structural-layer tests: builder invariants, validation, metrics,
fan-out accounting, pruning and cutting, and repeater chains."""

from array import array
from functools import partial

import pytest

from addergen.circuit import (
    AND, BUF, INPUT, NOT, OR,
    Circuit, CircuitBuilder, CircuitError, FanoutChain,
    lsb_carry, metrics, node_depths, prune_dead, validate,
)
from addergen import circuit, netlist, semantics
from addergen.cli import compare_rows
from addergen.families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder,
)
from addergen.semantics import simulate, verify_adder


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

    @pytest.mark.parametrize("kind", ["foo", "input", "and", INPUT, 8, -1,
                                      True, 1.0])
    def test_unknown_kind_rejected(self, kind):
        b = CircuitBuilder()
        b.add_input()
        with pytest.raises(ValueError, match=f"^unknown gate kind {kind!r}$"):
            b.add_gate(kind, 0)
        assert len(b) == 1 and b.build().fanins(0) == ()

    def test_live_fanout_counts(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        g = b.add_gate(AND, i0, i1)
        assert b.build().consumer_counts()[i0] == 1
        b.add_gate(NOT, i0)
        assert b.build().consumer_counts()[i0] == 2
        b.mark_output(g)
        assert b.build().consumer_counts()[g] == 1

    def test_built_circuit_ignores_later_appends(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        g = b.add_gate(AND, i0, i1)
        c = b.build()
        b.add_gate(NOT, g)
        assert len(c) == len(c.consumer_counts()) == 3
        assert c.consumer_counts()[g] == 0

    @pytest.mark.parametrize("nid", [1, -1])
    def test_mark_output_out_of_range(self, nid):
        b = CircuitBuilder()
        b.add_input()
        with pytest.raises(ValueError, match=f"^output id {nid} out of range$"):
            b.mark_output(nid)

    @pytest.mark.parametrize("method", ["kind", "fanins", "is_input"])
    @pytest.mark.parametrize("nid", [-1, -9, 9, 1.0, True])
    def test_node_queries_reject_ids_outside_the_circuit(self, method, nid):
        # ripple 2 has nodes 0..8; a negative id must not count from the end
        c = build_adder(AdderSpec("ripple", 2))
        assert len(c) == 9
        with pytest.raises(ValueError,
                           match=rf"^node id {nid!r} outside 0\.\.8$"):
            getattr(c, method)(nid)

    @pytest.mark.parametrize("bad", [0.5, 0.0])
    @pytest.mark.parametrize("kind, fanins", [
        (BUF, ("bad",)), (AND, ("bad", 0)), (AND, (0, "bad"))],
        ids=["buf-a", "fanin-a", "fanin-b"])
    def test_non_int_fanin_appends_nothing(self, kind, fanins, bad):
        # a float passes the range checks; the arrays must stay in step
        b = CircuitBuilder()
        b.add_input()
        with pytest.raises(ValueError, match="^fanins must be ints"):
            b.add_gate(kind, *(bad if f == "bad" else f for f in fanins))
        assert len(b._codes) == len(b._f0) == len(b._f1) == 1

    @pytest.mark.parametrize("n", range(1, 18))
    @pytest.mark.parametrize("full", [False, True], ids=["carry", "full"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_inline_round_trips(self, family, full, n):
        # fresh inputs, the circuit inlined over them and its returned
        # output ids marked rebuild it; a full adder adds each position's
        # inputs before that position's gates, so past n = 1 it is refused
        c = (build_full_adder if full else build_adder)(AdderSpec(family, n))
        b = CircuitBuilder(c.name)
        ins = [b.add_input() for _ in c.input_ids]
        if c.input_ids != tuple(ins):
            assert full and n > 1
            with pytest.raises(ValueError, match="inputs first"):
                b.inline(c, ins)
            assert len(b._codes) == len(b._f0) == len(b._f1) == len(ins)
            return
        for oid in b.inline(c, ins):
            b.mark_output(oid)
        got = b.build()
        assert got.name == c.name
        assert got._codes == c._codes
        assert got._f0 == c._f0
        assert got._f1 == c._f1
        assert got.output_ids == c.output_ids

    def test_inline_checks_leaves(self):
        core = tiny_carry2()
        b = CircuitBuilder()
        ins = [b.add_input() for _ in range(4)]
        with pytest.raises(ValueError, match="leaves"):
            b.inline(core, ins[:3])
        with pytest.raises(ValueError, match="need 4 leaves below 4"):
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


@pytest.fixture
def walks(monkeypatch):
    """Circuits passed to `validate`, wherever a module holds that name."""
    calls = []

    def counted(c):
        calls.append(c)
        return validate(c)

    for mod in (circuit, netlist, semantics):
        monkeypatch.setattr(mod, "validate", counted, raising=False)
    return calls


class TestCheck:
    """Circuit.check walks each circuit once, however many callers ask."""

    def test_invalid_circuit_raises_every_time(self, walks):
        b = CircuitBuilder()
        b.add_input()
        c = b.build()
        for _ in range(2):
            with pytest.raises(CircuitError, match="no-gates@-1"):
                c.check()
        assert walks == [c]

    def test_loaded_netlist_is_walked_once(self, walks):
        spec = AdderSpec("linear", 64)
        text = netlist.dumps_netlist(build_adder(spec), spec)
        assert walks == []
        c = netlist.loads_netlist(text).circuit
        assert verify_adder(c, 64).ok
        assert walks == [c]

    def test_compare_rows_walks_each_circuit_once(self, walks):
        rows = compare_rows(["ripple"], [12])
        assert [r.verified for r in rows] == [True]
        assert len(walks) == 1


def raw_circuit(codes, f0, f1, outputs):
    """A Circuit straight from arrays, bypassing the builder's checks."""
    return Circuit("raw", array("b", codes), array("i", f0), array("i", f1),
                   tuple(outputs))


def found(c):
    return [(v.rule, v.node, v.detail) for v in validate(c)]


class TestViolationRules:
    """Every rule, with its exact node, detail text and report order."""

    def test_arity_input_with_fanins(self):
        c = raw_circuit([0, 0, 1], [-1, 0, 0], [-1, -1, 1], (2,))
        assert found(c) == [("arity", 1, "input with fanins")]

    @pytest.mark.parametrize("codes,f0,f1,outputs,want", [
        # input 1 with f1 = 4: metrics raised IndexError in consumer_counts
        ([0, 0, 3], [-1, -1, 0], [-1, 4, 1], (2,),
         ("arity", 1, "input with fanins")),
        # input 1 with f1 = -3: consumer_counts read [1, 2, 1]
        ([0, 0, 3], [-1, -1, 0], [-1, -3, 1], (2,),
         ("arity", 1, "input with fanins")),
        # not 4 with f1 = -4 read node 3's depth: depth 4 for a depth-3 circuit
        ([0, 0, 1, 1, 4, 2], [-1, -1, 0, 2, 0, 3], [-1, -1, 1, 1, -4, 4],
         (5,), ("arity", 4, "not has f1 -4, not -1")),
        # input 3 with f1 = 2: max_fanout 2 where every node has one consumer
        ([0, 0, 1, 0, 1], [-1, -1, 0, -1, 3], [-1, -1, 1, 2, 2], (4,),
         ("arity", 3, "input with fanins")),
        # input 0 with the forward f1 = 1 hid an ordering fault
        ([0, 7], [-1, 0], [1, 0], (1,), ("arity", 0, "input with fanins")),
    ])
    def test_hidden_fanins(self, codes, f0, f1, outputs, want):
        # every absent fanin slot must be -1, since the consumer count and
        # the depth walk index with it
        c = raw_circuit(codes, f0, f1, outputs)
        assert found(c) == [want]
        with pytest.raises(CircuitError, match="^invalid circuit: arity@"):
            metrics(c)

    def test_arity_wrong_gate_fanin_count(self):
        # node 2 is a two-fanin not, node 3 a one-fanin and
        c = raw_circuit([0, 0, 4, 1], [-1, -1, 0, 2], [-1, -1, 1, -1], (3,))
        assert found(c) == [("arity", 2, "not has 2 fanins"),
                            ("arity", 3, "and has 1 fanins")]

    @pytest.mark.parametrize("code", [-128, -1, 8, 127])
    def test_kind_unknown_code(self, code):
        # 8..127 and -128 made validate raise IndexError, and -1 validated
        # clean as a nor; node 3's earlier fanin still counts as node 2's
        # consumer, so node 2 is no dangling gate
        c = raw_circuit([0, 0, 1, code], [-1, -1, 0, 2], [-1, -1, 1, -1], (3,))
        assert found(c) == [("kind", 3, f"unknown kind code {code}")]
        with pytest.raises(CircuitError, match="^invalid circuit: kind@3$"):
            metrics(c)

    @pytest.mark.parametrize("code", [-128, -1, 8, 127])
    @pytest.mark.parametrize("run", [
        netlist.dumps_netlist, netlist.circuit_to_dot,
        partial(simulate, assignment={0: 1, 1: 0}),
        partial(semantics.simulate_packed, input_words=[0b0011, 0b0101],
                width=4)],
        ids=["dumps_netlist", "circuit_to_dot", "simulate",
             "simulate_packed"])
    def test_kind_unknown_code_outside_validate(self, run, code):
        # these do not validate, so they scan the codes themselves: no
        # code outside 0..7 may index the kind tables or the gate chain
        c = raw_circuit([0, 0, code], [-1, -1, 0], [-1, -1, 1], (2,))
        with pytest.raises(ValueError,
                           match=f"^node 2 has unknown kind code {code}$"):
            run(c)

    def test_save_netlist_names_an_unknown_code_before_writing(self,
                                                              tmp_path):
        c = raw_circuit([0, 0, 8], [-1, -1, 0], [-1, -1, 1], (2,))
        path = tmp_path / "raw.adder"
        with pytest.raises(ValueError,
                           match="^node 2 has unknown kind code 8$"):
            netlist.save_netlist(c, path)
        assert not path.exists()

    @pytest.mark.parametrize("code", [-128, -1, 8, 127])
    def test_kind_comes_before_ordering(self, code):
        # an unknown kind has no arity to check, but its fanins keep their
        # order rule: node 3 reads node 2 and the later node 4
        c = raw_circuit([0, 0, 1, code, 4], [-1, -1, 0, 2, 3],
                        [-1, -1, 1, 4, -1], (4,))
        assert found(c) == [("kind", 3, f"unknown kind code {code}"),
                            ("ordering", 3, "fanin 4 not earlier")]

    def test_ordering(self):
        # node 2 reads the later node 3, node 4 reads itself; both of
        # those nodes are outputs, so no consumer count hinges on the loop
        c = raw_circuit([0, 0, 1, 4, 3], [-1, -1, 0, 1, 2], [-1, -1, 3, -1, 4],
                        (2, 3, 4))
        assert found(c) == [("ordering", 2, "fanin 3 not earlier"),
                            ("ordering", 4, "fanin 4 not earlier")]

    def test_inputs_are_the_input_nodes(self):
        # no input list to disagree with: the inputs are the input-kind nodes
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 2], [-1, -1, 1, -1], (3,))
        assert c.input_ids == (0, 1)
        assert found(c) == []

    def test_output_range(self):
        # -1 lands on the last node, which is an output anyway
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 1], (2, -1))
        assert found(c) == [("output-range", -1, "output id out of range")]

    def test_output_on_input(self):
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 1], (2, 0))
        assert found(c) == [
            ("output-on-input", 0, "output marker must name a gate")]

    def test_dangling_input(self):
        c = raw_circuit([0, 0, 4], [-1, -1, 1], [-1, -1, -1], (2,))
        assert found(c) == [("dangling-input", 0, "input drives nothing")]

    def test_dangling_gate(self):
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 0], [-1, -1, 1, -1], (2,))
        assert found(c) == [
            ("dangling-gate", 3, "gate has no consumer and is not an output")]

    def test_no_gates(self):
        c = raw_circuit([0, 0], [-1, -1], [-1, -1], ())
        assert found(c) == [("no-gates", -1, "circuit has no gates"),
                            ("dangling-input", 0, "input drives nothing"),
                            ("dangling-input", 1, "input drives nothing")]

    def test_rules_report_in_pass_order(self):
        # node checks in id order (per node: arity, then ordering), then
        # outputs, then consumers
        c = raw_circuit([0, 0, 0, 4, 1, 5], [-1, 0, -1, 0, 3, 3],
                        [-1, -1, -1, 5, 4, -1], (4, 5, 0))
        assert found(c) == [
            ("arity", 1, "input with fanins"),
            ("arity", 3, "not has 2 fanins"),
            ("ordering", 3, "fanin 5 not earlier"),
            ("ordering", 4, "fanin 4 not earlier"),
            ("output-on-input", 0, "output marker must name a gate"),
            ("dangling-input", 1, "input drives nothing"),
            ("dangling-input", 2, "input drives nothing"),
        ]


class TestValidateBadReferences:
    """A bad reference is reported and then counts as no consumer."""

    DANGLING_GATE = ("dangling-gate", 2,
                     "gate has no consumer and is not an output")

    def test_output_id_past_the_end(self):
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 1], (7,))
        assert found(c) == [("output-range", 7, "output id out of range"),
                            self.DANGLING_GATE]
        with pytest.raises(CircuitError, match="output-range@7"):
            metrics(c)

    def test_fanin_past_the_end(self):
        c = raw_circuit([0, 0, 1], [-1, -1, 0], [-1, -1, 9], (2,))
        assert found(c) == [("ordering", 2, "fanin 9 not earlier"),
                            ("dangling-input", 1, "input drives nothing")]
        with pytest.raises(CircuitError, match="ordering@2"):
            metrics(c)

    def test_negative_output_id_hides_no_dangling_gate(self):
        # -2 must not count as a consumer of node 2, the second to last
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 0], [-1, -1, 1, -1], (3, -2))
        assert found(c) == [("output-range", -2, "output id out of range"),
                            self.DANGLING_GATE]

    def test_later_fanin_is_no_consumer(self):
        c = raw_circuit([0, 0, 1, 4], [-1, -1, 0, 1], [-1, -1, 3, -1], (2,))
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
        assert m.histogram == {"buf": 1, "and": 2, "or": 2}

    def test_depths_per_node(self):
        c = tiny_carry2()
        d = node_depths(c)
        assert d[:4] == [0, 0, 0, 0]
        assert max(d) == 5

    def test_fanout_counts_markers(self):
        c = tiny_carry2()
        table = c.consumer_counts()
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

    def test_cut_keeps_given_inputs_and_outputs(self):
        # tiny_carry2's c2 reads x1 and y1 only: the cut to c2 and the
        # first two inputs drops x2, y2 and c3's two gates
        c = tiny_carry2()
        cut = circuit._cut(c, c.output_ids[:1], c.input_ids[:2])
        assert validate(cut) == []
        assert (cut.input_ids, len(cut.output_ids)) == ((0, 1), 1)
        assert cut.num_gates == 3
        for x1 in (0, 1):
            for y1 in (0, 1):
                got = simulate(cut, {0: x1, 1: y1})
                assert got == {cut.output_ids[0]: y1}

    def test_cut_refuses_a_dropped_input_that_a_kept_gate_reads(self):
        # c3 reads y2 (input 3); dropping it would wire c3's Or to
        # whichever node took id 3
        c = tiny_carry2()
        with pytest.raises(ValueError,
                           match="^a kept gate reads dropped input 3$"):
            circuit._cut(c, c.output_ids, c.input_ids[:3])


def buf_chain(b, src, total):
    return FanoutChain(src, b.build().consumer_counts()[src], total,
                       partial(b.add_gate, BUF))


class TestFanoutChain:
    def _consume(self, b, chain, count):
        sinks = []
        for _ in range(count):
            sinks.append(b.add_gate(NOT, chain.take()))
        return sinks

    @pytest.mark.parametrize("total", [1, 2, 3, 5, 9])
    def test_fanout_stays_at_two(self, total):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        src = b.add_gate(AND, i0, i1)
        before = len(b)
        chain = buf_chain(b, src, total)
        assert len(b) - before == max(0, total - 2)  # one buffer per link
        sinks = self._consume(b, chain, total)
        for s in sinks:
            b.mark_output(s)
        c = b.build()
        assert validate(c) == []
        assert max(c.consumer_counts()) <= 2

    def test_direct_when_capacity_suffices(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        src = b.add_gate(BUF, i0)
        before = len(b)
        chain = buf_chain(b, src, 2)
        assert len(b) == before  # no links
        assert chain.take() == src and chain.take() == src

    def test_earliest_consumer_closest(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        src = b.add_gate(BUF, i0)
        chain = buf_chain(b, src, 4)
        outlets = [chain.take() for _ in range(4)]
        # first outlet is the source itself, later ones sit deeper
        assert outlets[0] == src
        assert outlets[1] > src and outlets[2] > outlets[1]
        assert outlets[3] == outlets[2]  # final link serves two consumers

    @pytest.mark.parametrize("total", [1, 2, 3, 5])
    def test_drawing_past_demand_raises(self, total):
        b = CircuitBuilder()
        i0 = b.add_input()
        src = b.add_gate(BUF, i0)
        chain = buf_chain(b, src, total)
        for _ in range(total):
            chain.take()
        with pytest.raises(ValueError, match="pool exhausted"):
            chain.take()

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
