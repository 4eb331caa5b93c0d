"""Semantic-layer tests: the bit-level reference recurrences are checked
against integer arithmetic, and the packed simulator/verifier against the
scalar path and hand-built circuits."""

import random

import pytest

from addergen.circuit import AND, BUF, NAND, NOR, NOT, OR, XOR, CircuitBuilder
from addergen.semantics import (
    CHUNK_BITS, VerifyReport, _enumeration_words, bits_to_int, block_signals,
    gp_prepare, int_to_bits, packed_ripple, prefix_op, ripple_carries,
    simulate, simulate_packed, sum_bits, verify_adder,
)
from tests.test_circuit import tiny_carry2


class TestReferenceRecurrences:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 40])
    def test_sum_bits_match_integer_addition(self, n):
        rng = random.Random(7 * n)
        for _ in range(50):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            pairs = gp_prepare(int_to_bits(a, n), int_to_bits(b, n))
            assert bits_to_int(sum_bits(pairs)) == a + b

    def test_carries_match_integer_addition(self):
        n = 12
        rng = random.Random(3)
        for _ in range(200):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            pairs = gp_prepare(int_to_bits(a, n), int_to_bits(b, n))
            carries = ripple_carries(pairs)
            total = a + b
            for i in range(1, n + 1):
                # carry into position i+1 equals bit i of (a mod 2^i + b mod 2^i)
                m = (1 << i)
                expect = ((a % m) + (b % m)) >> i
                assert carries[i - 1] == expect, (a, b, i)

    def test_prefix_op_is_associative(self):
        rng = random.Random(11)
        for _ in range(200):
            p, q, r = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(3)]
            left = prefix_op(p, prefix_op(q, r))
            right = prefix_op(prefix_op(p, q), r)
            assert left == right

    def test_block_signals_against_definition(self):
        # block generate must be the carry out of the block with carry-in 0;
        # block propagate the conjunction of bitwise propagates
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 8)
            pairs = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)]
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            x, y = block_signals(pairs, i, j)
            sub = pairs[i - 1:j]
            assert x == min(px for px, _ in sub)
            assert y == ripple_carries(sub)[-1]

    def test_block_carry_composition(self):
        # c_{j+1} = y_[i,j] or (x_[i,j] and c_i): range signals summarize a block
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 10)
            pairs = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)]
            carries = [0] + ripple_carries(pairs)
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            x, y = block_signals(pairs, i, j)
            assert carries[j] == (y | (x & carries[i - 1]))


class TestPackedSimulation:
    def test_matches_scalar_on_all_patterns(self):
        c = tiny_carry2()
        width = 16
        words = []
        for pos in range(4):
            w = 0
            for t in range(width):
                if (t >> pos) & 1:
                    w |= 1 << t
            words.append(w)
        packed = simulate_packed(c, words, width)
        for t in range(width):
            bits = dict(zip(c.input_ids, [(t >> pos) & 1 for pos in range(4)]))
            scalar = simulate(c, bits)
            for oi, oid in enumerate(c.output_ids):
                assert (packed[oi] >> t) & 1 == scalar[oid]

    def test_all_gate_kinds(self):
        b = CircuitBuilder()
        i0 = b.add_input()
        i1 = b.add_input()
        gates = {
            AND: b.add_gate(AND, i0, i1),
            OR: b.add_gate(OR, i0, i1),
            XOR: b.add_gate(XOR, i0, i1),
            NAND: b.add_gate(NAND, i0, i1),
            NOR: b.add_gate(NOR, i0, i1),
            NOT: b.add_gate(NOT, i0),
        }
        gates[BUF] = b.add_gate(BUF, gates[AND])
        for g in gates.values():
            b.mark_output(g)
        c = b.build()
        truth = {
            AND: lambda a, v: a & v, OR: lambda a, v: a | v,
            XOR: lambda a, v: a ^ v, NAND: lambda a, v: 1 - (a & v),
            NOR: lambda a, v: 1 - (a | v), NOT: lambda a, v: 1 - a,
            BUF: lambda a, v: a & v,
        }
        for a in (0, 1):
            for v in (0, 1):
                out = simulate(c, {i0: a, i1: v})
                for kind, nid in gates.items():
                    assert out[nid] == truth[kind](a, v), kind

    def test_packed_ripple_matches_scalar_lanes(self):
        rng = random.Random(2)
        n, width = 6, 37
        xw = [rng.getrandbits(width) for _ in range(n)]
        yw = [rng.getrandbits(width) for _ in range(n)]
        packed = packed_ripple(xw, yw, (1 << width) - 1)
        for t in range(width):
            pairs = [((xw[i] >> t) & 1, (yw[i] >> t) & 1) for i in range(n)]
            scalar = ripple_carries(pairs)
            got = [(w >> t) & 1 for w in packed]
            assert got == scalar


class TestEnumerationWords:
    @pytest.mark.parametrize("base,x_digits,y_digits", [
        (3, {2}, {1}),
        (4, {1, 3}, {2, 3}),
    ])
    @pytest.mark.parametrize("offset,width", [
        (0, 1), (0, 17), (5, 7), (32768, 100), (81, 81), (100, 999),
    ])
    def test_against_digit_loop(self, base, x_digits, y_digits, offset, width):
        n = 6
        words = _enumeration_words(n, base, x_digits, y_digits, width, offset)
        for i in range(n):
            period = base ** i
            for t in range(width):
                d = ((offset + t) // period) % base
                assert (words[i][0] >> t) & 1 == (1 if d in x_digits else 0)
                assert (words[i][1] >> t) & 1 == (1 if d in y_digits else 0)

    def test_grid_is_complete(self):
        # all 3**n restricted patterns appear exactly once across lanes,
        # and none of them contains the unrealizable pair (x, y) = (1, 1)
        n = 3
        words = _enumeration_words(n, 3, {2}, {1}, 27, 0)
        seen = set()
        for t in range(27):
            pat = tuple(((words[i][0] >> t) & 1, (words[i][1] >> t) & 1)
                        for i in range(n))
            seen.add(pat)
        assert len(seen) == 27
        assert all((x, y) != (1, 1) for pat in seen for x, y in pat)


class TestVerifyAdder:
    def test_correct_circuit_passes_exhaustive(self):
        rep = verify_adder(tiny_carry2(), 2, mode="exhaustive")
        assert rep.ok
        assert [p.name for p in rep.phases] == ["restricted", "unrestricted"]
        assert [p.patterns for p in rep.phases] == [9, 16]
        assert rep.mismatches == 0
        assert "OK" in rep.summary()

    def test_correct_circuit_passes_random(self):
        rep = verify_adder(tiny_carry2(), 2, mode="random", samples=1000)
        assert rep.ok and rep.patterns == 1000

    def test_broken_circuit_reports_counterexamples(self):
        b = CircuitBuilder("broken")
        x1 = b.add_input()
        y1 = b.add_input()
        x2 = b.add_input()
        y2 = b.add_input()
        c2 = b.add_gate(OR, y1, x1)  # wrong: should be y1 alone
        t = b.add_gate(AND, x2, c2)
        c3 = b.add_gate(OR, y2, t)
        b.mark_output(c2)
        b.mark_output(c3)
        rep = verify_adder(b.build(), 2, mode="exhaustive")
        assert not rep.ok
        assert rep.mismatches > 0
        ces = rep.phases[0].counterexamples
        assert ces, "expected counterexamples in the restricted phase"
        ce = ces[0]
        # counterexample is self-consistent with the reference recurrence
        assert list(ce.expected) == ripple_carries(list(ce.pairs))
        assert ce.expected != ce.got

    def test_auto_mode_picks_exhaustive_for_small(self):
        rep = verify_adder(tiny_carry2(), 2, mode="auto")
        assert rep.mode == "exhaustive"

    def test_input_count_checked(self):
        with pytest.raises(ValueError):
            verify_adder(tiny_carry2(), 3)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_random_mode_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples"):
            verify_adder(tiny_carry2(), 2, mode="random", samples=samples)

    def test_multi_chunk_exhaustive(self):
        # n=8 unrestricted sweeps 65536 lanes = two chunks at the default
        # chunk width; the tiny ripple circuit must still verify cleanly
        b = CircuitBuilder()
        pairs = [(b.add_input(), b.add_input()) for _ in range(8)]
        from addergen.circuit import lsb_carry
        c = lsb_carry(b, pairs[0][0], pairs[0][1])
        b.mark_output(c)
        for x, y in pairs[1:]:
            t = b.add_gate(AND, x, c)
            c = b.add_gate(OR, y, t)
            b.mark_output(c)
        rep = verify_adder(b.build(), 8, mode="exhaustive")
        assert rep.ok
        assert rep.phases[1].patterns == 4 ** 8
        assert rep.phases[1].patterns > CHUNK_BITS  # really exercised chunking
