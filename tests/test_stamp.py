"""Recorded blocks: CircuitBuilder.record, the circuits it returns and
inline over them, and the mig build that inlines its buffer trees and
generate gates, held to the body that emitted every gate through add_gate
(tests/reference.py)."""

import sys
from array import array
from collections import Counter

import pytest

from addergen import families
from addergen.circuit import AND, BUF, INPUT, NOT, Circuit, CircuitBuilder
from addergen.families import AdderSpec, build_full_adder
from addergen.mig import _generate_gate, _replicate, build_mig_adder
from tests.reference import direct_mig_adder


def same_circuit(got, want):
    assert got.name == want.name
    assert got._codes == want._codes
    assert got._f0 == want._f0
    assert got._f1 == want._f1
    assert got.output_ids == want.output_ids


def emitted_block(emit, ports, spread):
    """emit(builder, ports) run on real ports, ids of a builder whose
    spread inputs come first, as the circuit record makes: ports as its
    inputs, then the gates, renumbered block-locally."""
    b = CircuitBuilder()
    for _ in range(spread):
        b.add_input()
    start = len(b)
    out = emit(b, ports)
    local = {p: i for i, p in enumerate(ports)}
    local.update((nid, len(ports) + nid - start)
                 for nid in range(start, len(b)))
    local[-1] = -1
    absent = [-1] * len(ports)
    return Circuit("", array("b", [INPUT] * len(ports)) + b._codes[start:],
                   array("i", absent + [local[f] for f in b._f0[start:]]),
                   array("i", absent + [local[f] for f in b._f1[start:]]),
                   tuple(local[o] for o in out))


REPLICATE_SHAPES = [(size, rooted, live) for size in (1, 2, 4, 8)
                    for rooted in (False, True) for live in range(1, size + 1)]
GENERATE_SHAPES = [(q, copies, live) for q in range(2, 9)
                   for copies in (1, 2, 4, 8) for live in range(1, copies + 1)]


class TestRecord:
    @pytest.mark.parametrize("size, rooted, live", REPLICATE_SHAPES)
    def test_replicate_block_ignores_port_ids(self, size, rooted, live):
        def emit(b, p):
            return _replicate(b, p[0], size, rooted, live)
        block = CircuitBuilder.record(emit, 1)
        for ports in ([0], [6]):
            same_circuit(emitted_block(emit, ports, 7), block)

    @pytest.mark.parametrize("q, copies, live", GENERATE_SHAPES)
    def test_generate_block_ignores_port_ids(self, q, copies, live):
        # the lowest window is structurally dead, so no port stands for it
        def emit(b, p):
            return _generate_gate(b, p[:q], [None, *p[q:]], copies, live)
        block = CircuitBuilder.record(emit, 2 * q - 1)
        ascending = list(range(2 * q - 1))
        scattered = [3 * i + 1 for i in reversed(ascending)]
        for ports in (ascending, scattered):
            same_circuit(emitted_block(emit, ports, 6 * q), block)

    def test_block_ids_are_ports_then_gates(self):
        block = CircuitBuilder.record(
            lambda b, p: [b.add_gate(BUF, b.add_gate(AND, p[1], p[0])), p[0]],
            2)
        assert block._codes == array("b", [INPUT, INPUT, AND, BUF])
        assert block._f0 == array("i", [-1, -1, 1, 2])
        assert block._f1 == array("i", [-1, -1, 0, -1])
        assert block.input_ids == (0, 1)
        assert block.output_ids == (3, 0)


class TestInline:
    @staticmethod
    def block():
        return CircuitBuilder.record(
            lambda b, p: [b.add_gate(AND, p[0], p[1])], 2)

    @staticmethod
    def builder():
        b = CircuitBuilder()
        for _ in range(3):
            b.add_input()
        return b

    def test_appends_over_ports(self):
        b = CircuitBuilder()
        ins = [b.add_input() for _ in range(3)]
        assert b.inline(self.block(), [ins[2], ins[0]]) == [3]
        assert b.inline(self.block(), [3, ins[1]]) == [4]
        c = b.build()
        assert [c.fanins(nid) for nid in (3, 4)] == [(2, 0), (3, 1)]

    def test_returns_outputs_in_marking_order(self):
        # a result may be a port, and one id may be marked twice
        block = CircuitBuilder.record(
            lambda b, p: [p[1], b.add_gate(NOT, p[0]), p[1]], 2)
        b = self.builder()
        assert b.inline(block, [2, 0]) == [0, 3, 0]

    @pytest.mark.parametrize("ports", [[-1, 0], [0, 3], [0], [0, 1, 2]],
                             ids=["negative", "len", "too-few", "too-many"])
    def test_rejects_ports_before_appending(self, ports):
        b = self.builder()
        with pytest.raises(ValueError, match="need 2 leaves below 3"):
            b.inline(self.block(), ports)
        assert len(b) == 3
        assert len(b._f0) == len(b._f1) == 3

    def test_rejects_an_input_after_a_gate(self):
        # a loaded netlist may interleave them; no builder here does
        rec = CircuitBuilder()
        g = rec.add_gate(NOT, rec.add_input())
        rec.mark_output(rec.add_gate(AND, g, rec.add_input()))
        b = self.builder()
        with pytest.raises(ValueError, match="inputs first"):
            b.inline(rec.build(), [0, 1])
        assert len(b) == 3
        assert len(b._f0) == len(b._f1) == 3

    @pytest.mark.parametrize("bad", [0.5, 0.0])
    @pytest.mark.parametrize("slot", [0, 1], ids=["fanin-a", "fanin-b"])
    def test_non_int_port_appends_nothing(self, slot, bad):
        # the block reads port 0 as fanin a and port 1 as fanin b only
        ports = [2, 1]
        ports[slot] = bad
        b = self.builder()
        with pytest.raises(ValueError, match="leaves must be ints"):
            b.inline(self.block(), ports)
        assert len(b._codes) == len(b._f0) == len(b._f1) == 3


class TestStampedMigAdder:
    def test_only_the_window_lattice_goes_gate_by_gate(self, monkeypatch):
        # recordings run on unnamed builders; the build's own builder sees
        # add_gate only from the window lattice and the lowest carry
        callers = Counter()
        add_gate = CircuitBuilder.add_gate

        def spy(self, *args):
            if self.name:
                frame = sys._getframe(1)
                while frame.f_code.co_name.startswith("<"):  # comprehensions
                    frame = frame.f_back
                callers[frame.f_code.co_name] += 1
            return add_gate(self, *args)

        monkeypatch.setattr(CircuitBuilder, "add_gate", spy)
        c = build_mig_adder(300)
        assert set(callers) == {"_windows", "lsb_carry"}
        assert callers["lsb_carry"] == 3
        assert sum(callers.values()) < c.num_gates // 10

    @pytest.mark.parametrize("n", [*range(1, 301), 2048])
    def test_carry_equals_direct_emission(self, n):
        same_circuit(build_mig_adder(n), direct_mig_adder(n))

    @pytest.mark.parametrize("r, k, n", [
        (r, k, (1 << (r * k)) - m) for r in (1, 2, 3) for k in (1, 2, 3)
        for m in (0, 1)])
    @pytest.mark.parametrize("full", [False, True])
    def test_parameters_equal_direct_emission(self, r, k, n, full,
                                              monkeypatch):
        spec = AdderSpec("mig", n, r=r, k=k)
        if not full:
            same_circuit(build_mig_adder(n, r, k), direct_mig_adder(n, r, k))
            return
        got = build_full_adder(spec)
        monkeypatch.setattr(families, "build_mig_adder", direct_mig_adder)
        same_circuit(got, build_full_adder(spec))
