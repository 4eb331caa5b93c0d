"""Levelization, the alternating inverting-gate mapping, and the
NAND/NOR/NOT adder built from them."""

import itertools
import random
import re

import pytest

from addergen.circuit import (
    AND,
    NAND,
    NOR,
    NOT,
    OR,
    XOR,
    CircuitBuilder,
    metrics,
    node_depths,
)
from addergen.mig import build_mig_adder
from addergen.prefix import expand_to_logic, serial_prefix
from addergen.reduction import _chain, build_linear_adder
from addergen.semantics import simulate, simulate_packed, verify_adder
from addergen.techmap import (
    LevelizedCircuit,
    NandNorStyle,
    _demorgan,
    build_nandnor_adder,
    demorgan_map,
    levelize,
)

INVERTING = {"nand", "nor", "not"}


def paired_random_equivalence(a, b, samples, seed):
    """Drive two same-interface circuits with identical packed lanes."""
    assert len(a.input_ids) == len(b.input_ids)
    assert len(a.output_ids) == len(b.output_ids)
    rng = random.Random(seed)
    words = [rng.getrandbits(samples) for _ in a.input_ids]
    return simulate_packed(a, words, samples) == simulate_packed(
        b, words, samples)


class TestLevelize:
    def test_unit_spans_and_preserved_metrics(self):
        core = build_mig_adder(16, 2, 2)
        lc = levelize(core)
        c = lc.circuit
        for nid in range(len(c)):
            if c.is_input(nid):
                assert lc.levels[nid] == 0
            else:
                assert all(lc.levels[f] == lc.levels[nid] - 1
                           for f in c.fanins(nid))
        before, after = metrics(core), metrics(c)
        assert after.depth == before.depth
        assert after.max_fanout <= 2
        assert after.size == 622  # 451 gates + 171 shared bridging buffers
        assert verify_adder(c, 16).ok

    def test_output_rows_equal_original_depths(self):
        core = build_mig_adder(8, 2, 2)
        depths = node_depths(core)
        lc = levelize(core)
        for orig, new in zip(core.output_ids, lc.circuit.output_ids):
            assert lc.levels[new] == depths[orig]

    def test_interface_preserved(self):
        core = build_mig_adder(4, 1, 2)
        lc = levelize(core)
        assert len(lc.circuit.input_ids) == len(core.input_ids)
        assert len(lc.circuit.output_ids) == len(core.output_ids)
        assert lc.circuit.name == core.name

    def test_equivalence_on_prefix_expansion(self):
        c = expand_to_logic(serial_prefix(4))
        assert verify_adder(levelize(c).circuit, 4, mode="exhaustive").ok

    def test_input_row_skew(self):
        core = build_mig_adder(4, 2, 2)
        rows = [3 if i % 2 == 0 else 6 for i in range(8)]
        lc = levelize(core, input_rows=rows)
        assert [lc.levels[i] for i in lc.circuit.input_ids] == rows
        # gates still read exactly one row up
        c = lc.circuit
        assert all(c.is_input(nid)
                   or all(lc.levels[f] == lc.levels[nid] - 1
                          for f in c.fanins(nid))
                   for nid in range(len(c)))

    def test_input_row_count_checked(self):
        core = build_mig_adder(4, 2, 2)
        with pytest.raises(ValueError):
            levelize(core, input_rows=[0, 1])

    @pytest.mark.parametrize("row", [0.5, True, "1"])
    def test_input_rows_must_be_ints(self, row):
        core = build_mig_adder(4, 2, 2)
        with pytest.raises(ValueError, match=r"^input_row must be an int, "
                           rf"got {re.escape(repr(row))}$"):
            levelize(core, input_rows=[0] * 7 + [row])

    def test_kind_agnostic(self):
        b = CircuitBuilder("x")
        i0, i1, i2 = (b.add_input() for _ in range(3))
        g = b.add_gate(XOR, i0, i1)
        b.mark_output(b.add_gate(AND, g, i2))
        lc = levelize(b.build())
        got = simulate(lc.circuit, {0: 1, 1: 0, 2: 1})
        assert got[lc.circuit.output_ids[0]] == 1


class TestDemorgan:
    def test_single_and_row(self):
        b = CircuitBuilder()
        i0, i1 = b.add_input(), b.add_input()
        b.mark_output(b.add_gate(AND, i0, i1))
        mapped = demorgan_map(levelize(b.build()))
        assert sorted(metrics(mapped).histogram) == ["nand", "not"]
        for va in (0, 1):
            for vb in (0, 1):
                got = simulate(mapped, {0: va, 1: vb})
                assert got[mapped.output_ids[0]] == (va & vb)

    def test_two_and_rows_alternate(self):
        b = CircuitBuilder()
        i0, i1, i2 = (b.add_input() for _ in range(3))
        b.mark_output(b.add_gate(AND, b.add_gate(AND, i0, i1), i2))
        mapped = demorgan_map(levelize(b.build()))
        # row 1 becomes NAND, the bridged third input becomes NOT, and
        # the even row recombines them as NOR; output already true
        assert metrics(mapped).histogram == {"nand": 1, "not": 1, "nor": 1}
        for pattern in range(8):
            bits = [(pattern >> i) & 1 for i in range(3)]
            got = simulate(mapped, dict(enumerate(bits)))
            assert got[mapped.output_ids[0]] == (bits[0] & bits[1] & bits[2])

    def test_kinds_and_bookkeeping(self):
        lc = levelize(build_mig_adder(16, 2, 2))
        mapped = demorgan_map(lc)
        assert set(metrics(mapped).histogram) <= INVERTING
        odd_outputs = sum(1 for o in lc.circuit.output_ids
                          if lc.levels[o] % 2)
        assert len(mapped) == len(lc.circuit) + odd_outputs
        assert metrics(mapped).depth == metrics(lc.circuit).depth + 1

    def test_unnormalized_parities_follow_rows(self):
        lc = levelize(build_mig_adder(8, 1, 3))
        mapped, parities = _demorgan(lc)
        assert len(mapped) == len(lc.circuit)
        for oid, par in zip(lc.circuit.output_ids, parities):
            assert par == bool(lc.levels[oid] % 2)

    def test_rejects_other_kinds(self):
        b = CircuitBuilder()
        i0, i1 = b.add_input(), b.add_input()
        b.mark_output(b.add_gate(XOR, i0, i1))
        with pytest.raises(ValueError):
            demorgan_map(levelize(b.build()))

    def test_mapped_core_exhaustive(self):
        mapped = demorgan_map(levelize(build_mig_adder(4, 2, 2)))
        assert verify_adder(mapped, 4, mode="exhaustive").ok

    def test_paired_simulation_equivalence(self):
        core = build_mig_adder(16, 2, 2)
        mapped = demorgan_map(levelize(core))
        assert paired_random_equivalence(core, mapped, 10_000, seed=17)

    def test_mapped_linear_adder_256(self):
        mapped = demorgan_map(levelize(build_linear_adder(256)))
        report = verify_adder(mapped, 256, mode="random", samples=100_000)
        assert report.ok
        assert set(metrics(mapped).histogram) <= INVERTING

    def test_fanout_preserved_plus_final_inverters(self):
        core = build_mig_adder(16, 2, 2)
        mapped = demorgan_map(levelize(core))
        assert metrics(mapped).max_fanout <= 2


class TestNotChain:
    def test_alternating_parities(self):
        b = CircuitBuilder()
        i0, i1 = b.add_input(), b.add_input()
        g = b.add_gate(AND, i0, i1)
        ch = _chain(b, (g, False), b.build().consumer_counts()[g], 4, NOT)
        outlets = [ch.take() for _ in range(4)]
        # two free slots: the source itself, then inverter links with
        # flipping polarity, the last link serving twice
        assert outlets[0] == (g, False)
        assert outlets[1][1] is True
        assert outlets[2][1] is False
        assert outlets[3] == outlets[2]
        assert max(b.build().consumer_counts()) <= 2

    def test_saturated_source_rejected(self):
        b = CircuitBuilder()
        i0, i1 = b.add_input(), b.add_input()
        g = b.add_gate(AND, i0, i1)
        b.add_gate(NOT, g)
        b.add_gate(NOT, g)
        with pytest.raises(ValueError):
            _chain(b, (g, True), b.build().consumer_counts()[g], 1, NOT)

    def test_within_capacity_no_links(self):
        b = CircuitBuilder()
        i0, i1 = b.add_input(), b.add_input()
        g = b.add_gate(OR, i0, i1)
        ch = _chain(b, (g, True), b.build().consumer_counts()[g], 2, NOT)
        assert [ch.take(), ch.take()] == [(g, True), (g, True)]
        assert len(b) == 3  # no gates added


class TestNandNorStyle:
    """Propagates at scale s arrive inverted exactly when s is odd."""

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_combine_propagate_form_follows_scale(self, s):
        b = CircuitBuilder()
        x1, y1, x2, y2 = (b.add_input() for _ in range(4))
        x, y = NandNorStyle().combine(b, (x2, y2), (x1, y1), s)
        b.mark_output(x)
        b.mark_output(y)
        c = b.build()
        # even s: NAND of true propagates, inverted out; odd s: NOR of
        # inverted ones, true out
        assert c.kind(x) == (NOR if s % 2 else NAND)
        assert c.fanins(x) == (x2, x1)
        for p1, g1, p2, g2 in itertools.product((0, 1), repeat=4):
            got = simulate(c, {x1: p1 ^ s % 2, y1: g1,
                               x2: p2 ^ s % 2, y2: g2})
            assert got[x] == (p1 & p2) ^ (s % 2 == 0)
            assert got[y] == g2 | (p2 & g1)

    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("cneg", [False, True])
    def test_correction_inverts_x_only_on_mismatch(self, cneg, s):
        b = CircuitBuilder()
        x, y, cn = (b.add_input() for _ in range(3))
        out, inverted = NandNorStyle().correction(b, x, y, (cn, cneg), s)
        b.mark_output(out)
        c = b.build()
        # the inverted-carry form reads x inverted, the true-carry form
        # reads it true; x is inverted at odd s
        readers = [nid for nid in range(len(c))
                   if not c.is_input(nid) and x in c.fanins(nid)]
        assert len(readers) == 1
        assert (c.kind(readers[0]) == NOT) == (cneg != bool(s % 2))
        assert inverted == cneg
        for p, g, carry in itertools.product((0, 1), repeat=3):
            got = simulate(c, {x: p ^ s % 2, y: g, cn: carry ^ cneg})
            assert got[out] ^ inverted == g | (p & carry)


# measured once and pinned: (width, gate count, depth)
FROZEN_NANDNOR = [
    (2, 19, 6),
    (4, 31, 8),
    (8, 61, 12),
    (16, 122, 16),
    (64, 519, 24),
    (256, 2152, 30),
    (1024, 8553, 38),
]


class TestNandNorAdder:
    @pytest.mark.parametrize("n,size,depth", FROZEN_NANDNOR)
    def test_frozen_structure(self, n, size, depth):
        c = build_nandnor_adder(n)
        m = metrics(c)
        assert (m.size, m.depth) == (size, depth)
        assert m.max_fanout == 2
        assert set(m.histogram) <= INVERTING

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exhaustive(self, n):
        assert build_nandnor_adder(n) is not None
        assert verify_adder(build_nandnor_adder(n), n,
                            mode="exhaustive").ok

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_random(self, n):
        report = verify_adder(build_nandnor_adder(n), n, mode="random",
                              samples=10_000, seed=5)
        assert report.ok

    def test_depth_within_one_of_linear(self):
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
            lin = metrics(build_linear_adder(n)).depth
            assert metrics(build_nandnor_adder(n)).depth <= lin + 1

    def test_size_bounds(self):
        for n in (64, 256, 1024, 4096):
            size = metrics(build_nandnor_adder(n)).size
            assert size <= (18 + 1 / 3) * n
            if n >= 4096:
                assert size <= (15 + 5 / 6) * n

    def test_size_inflation_against_source(self):
        # mapping costs at most two-thirds extra plus bookkeeping gates
        for n in (4, 16, 256, 1024):
            pre = metrics(build_linear_adder(n)).size
            post = metrics(build_nandnor_adder(n)).size
            assert post <= (5 * pre) / 3 + 2 * n

    def test_lowest_propagate_single_consumer(self):
        c = build_nandnor_adder(64)
        assert c.consumer_counts()[c.input_ids[0]] == 1

    def test_outputs_are_gates(self):
        c = build_nandnor_adder(16)
        assert all(not c.is_input(o) for o in c.output_ids)

    @pytest.mark.parametrize("n", [0, 1, 6, 100])
    def test_rejects_widths_outside_domain(self, n):
        with pytest.raises(ValueError):
            build_nandnor_adder(n)
