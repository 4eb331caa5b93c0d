"""Bit-level semantics of carry computation, simulation, and verification.

Position 1 is the least significant bit.  For summand bits a_i, b_i the
propagate/generate pair is x_i = a_i xor b_i, y_i = a_i and b_i.  Carries
follow c_1 = 0 and c_{i+1} = y_i or (x_i and c_i); sum bits are
s_i = c_i xor x_i with s_{n+1} = c_{n+1}.

A carry circuit takes the 2n inputs in the fixed order x_1, y_1, ...,
x_n, y_n and exposes n outputs c_2, ..., c_{n+1}.  The reference
implementations here fold over bit lists and integers independently of
any circuit structure; the verifier simulates a circuit over packed
multi-pattern words and compares against a packed fold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .circuit import Circuit

# ---------------------------------------------------------------------------
# scalar reference semantics


def gp_prepare(a_bits, b_bits):
    """Propagate/generate pairs (x_i, y_i) from two summand bit lists."""
    if len(a_bits) != len(b_bits):
        raise ValueError("summands differ in length")
    return [(a ^ b, a & b) for a, b in zip(a_bits, b_bits)]


def ripple_carries(pairs):
    """Carries c_2..c_{n+1} from (x, y) pairs by the serial recurrence."""
    carries = []
    c = 0
    for x, y in pairs:
        c = y | (x & c)
        carries.append(c)
    return carries


def sum_bits(pairs):
    """Sum bits s_1..s_{n+1} of an addition given its (x, y) pairs."""
    carries = [0] + ripple_carries(pairs)
    xs = [x for x, _ in pairs]
    return [c ^ x for c, x in zip(carries, xs)] + [carries[-1]]


def prefix_op(upper, lower):
    """Combine two (x, y) range signals, upper covering the higher bits."""
    xi, yi = upper
    xj, yj = lower
    return (xi & xj, yi | (xi & yj))


def block_signals(pairs, i, j):
    """Range propagate/generate of bits i..j (1-based, inclusive)."""
    acc = pairs[i - 1]
    for k in range(i, j):
        acc = prefix_op(pairs[k], acc)
    return acc


def int_to_bits(value, n):
    return [(value >> i) & 1 for i in range(n)]


def bits_to_int(bits):
    out = 0
    for i, bit in enumerate(bits):
        out |= (bit & 1) << i
    return out


# ---------------------------------------------------------------------------
# packed simulation

CHUNK_BITS = 1 << 15


def simulate_packed(c: Circuit, input_words, width):
    """Evaluate a circuit over bit-packed words, one lane per pattern.

    input_words aligns with c.input_ids.  Intermediate words are freed as
    their last consumer is evaluated, keeping memory proportional to the
    live frontier rather than circuit size.  Returns words aligned with
    c.output_ids.
    """
    if len(input_words) != len(c.input_ids):
        raise ValueError("input word count mismatch")
    mask = (1 << width) - 1
    n = len(c)
    remaining = list(c.consumer_counts())
    values = [None] * n
    for nid, word in zip(c.input_ids, input_words):
        values[nid] = word & mask
    f0, f1 = c._f0, c._f1
    codes = c._codes
    for nid in range(n):
        code = codes[nid]
        if code == 0:
            continue
        a = f0[nid]
        va = values[a]
        b = f1[nid]
        if code == 1:
            v = va & values[b]
        elif code == 2:
            v = va | values[b]
        elif code == 3:
            v = va ^ values[b]
        elif code == 4:
            v = va ^ mask
        elif code == 5:
            v = va
        elif code == 6:
            v = (va & values[b]) ^ mask
        else:
            v = (va | values[b]) ^ mask
        values[nid] = v
        remaining[a] -= 1
        if remaining[a] == 0:
            values[a] = None
        if b >= 0:
            remaining[b] -= 1
            if remaining[b] == 0:
                values[b] = None
    return [values[oid] for oid in c.output_ids]


def simulate(c: Circuit, assignment: dict) -> dict:
    """Single-pattern evaluation; maps every input id to a bit, returns
    output id -> bit."""
    words = [assignment[nid] & 1 for nid in c.input_ids]
    outs = simulate_packed(c, words, 1)
    return dict(zip(c.output_ids, outs))


def packed_ripple(x_words, y_words, mask):
    """Packed oracle: carries c_2..c_{n+1} lane-parallel over words."""
    carries = []
    c = 0
    for x, y in zip(x_words, y_words):
        c = y | (x & c)
        carries.append(c)
    return carries


def _enumeration_words(n, base, x_digits, y_digits, width, offset):
    """Input words for lanes offset..offset+width-1 of the base**n grid.

    Lane t encodes pattern index offset+t; bit position i of the pattern is
    digit i of that index in the given base.  x_i is 1 on lanes whose digit
    is in x_digits, likewise y_i.  Positions whose digit pattern is block-
    periodic across the chunk are packed by replicating one block; the rest
    fall back to a per-lane loop.
    """
    words = [None] * n
    full = (1 << width) - 1
    for i in range(n):
        period = base ** i
        if period >= width:
            lo = offset // period
            if lo == (offset + width - 1) // period:
                d = lo % base
                xw = full if d in x_digits else 0
                yw = full if d in y_digits else 0
                words[i] = (xw, yw)
        elif offset % period == 0:
            # digits run ..., rot, rot+1, ... cyclically in period-wide runs
            rot = (offset // period) % base
            block = period * base
            seg = (1 << period) - 1
            bx = by = 0
            for j in range(base):
                d = (rot + j) % base
                if d in x_digits:
                    bx |= seg << (j * period)
                if d in y_digits:
                    by |= seg << (j * period)
            reps = (width + block - 1) // block
            comb = ((1 << (reps * block)) - 1) // ((1 << block) - 1)
            words[i] = ((bx * comb) & full, (by * comb) & full)
    for i in range(n):
        if words[i] is None:
            period = base ** i
            xw = yw = 0
            for t in range(width):
                d = ((offset + t) // period) % base
                if d in x_digits:
                    xw |= 1 << t
                if d in y_digits:
                    yw |= 1 << t
            words[i] = (xw, yw)
    return words


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class Counterexample:
    index: int
    pairs: tuple
    expected: tuple
    got: tuple


@dataclass
class PhaseResult:
    name: str
    patterns: int
    mismatches: int
    counterexamples: list = field(default_factory=list)


@dataclass
class VerifyReport:
    n: int
    mode: str
    ok: bool
    phases: list

    @property
    def patterns(self):
        return sum(p.patterns for p in self.phases)

    @property
    def mismatches(self):
        return sum(p.mismatches for p in self.phases)

    def summary(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        parts = ", ".join(f"{p.name}: {p.patterns} patterns, "
                          f"{p.mismatches} mismatches" for p in self.phases)
        return f"n={self.n} [{self.mode}] {status} ({parts})"


def _collect_counterexamples(any_diff, x_words, y_words, expected, got,
                             limit, base_index, out):
    """Append a counterexample per set lane of any_diff, lowest first."""
    while any_diff and len(out) < limit:
        t = (any_diff & -any_diff).bit_length() - 1
        pairs = tuple(((xw >> t) & 1, (yw >> t) & 1)
                      for xw, yw in zip(x_words, y_words))
        exp = tuple((w >> t) & 1 for w in expected)
        act = tuple((w >> t) & 1 for w in got)
        out.append(Counterexample(base_index + t, pairs, exp, act))
        any_diff &= any_diff - 1


def _full_sum_words(a_words, b_words, mask):
    """Packed oracle: sum bits s_1..s_{n+1} of per-lane integer addition."""
    x_words = [a ^ b for a, b in zip(a_words, b_words)]
    y_words = [a & b for a, b in zip(a_words, b_words)]
    carries = packed_ripple(x_words, y_words, mask)
    sums = [x_words[0]]
    sums.extend(x ^ c for x, c in zip(x_words[1:], carries))
    sums.append(carries[-1])
    return sums


def _run_phase(c, name, word_iter, total, oracle, limit=10):
    """Simulate total patterns in chunks and compare with the packed oracle.

    word_iter(width, offset) gives one (first, second) word pair per bit
    position for lanes offset..offset+width-1; oracle(first_words,
    second_words, mask) gives the expected output words.
    """
    phase = PhaseResult(name, 0, 0)
    done = 0
    while done < total:
        width = min(CHUNK_BITS, total - done)
        words_xy = word_iter(width, done)
        x_words = [xy[0] for xy in words_xy]
        y_words = [xy[1] for xy in words_xy]
        flat = []
        for xw, yw in words_xy:
            flat.append(xw)
            flat.append(yw)
        got = simulate_packed(c, flat, width)
        mask = (1 << width) - 1
        expected = oracle(x_words, y_words, mask)
        diffs = [e ^ g for e, g in zip(expected, got)]
        bad = 0
        for d in diffs:
            bad |= d
        if bad:
            for d in diffs:
                phase.mismatches += bin(d).count("1")
            if len(phase.counterexamples) < limit:
                _collect_counterexamples(bad, x_words, y_words, expected,
                                         got, limit, done,
                                         phase.counterexamples)
        phase.patterns += width
        done += width
    return phase


def _verify(c, n, n_outputs, oracle, grids, mode, samples, seed):
    """Interface checks and mode dispatch shared by both verifiers.

    grids lists the exhaustive phases as (name, base, first_digits,
    second_digits) over the base**n enumeration; random mode draws
    `samples` uniform patterns from seed instead.
    """
    if len(c.input_ids) != 2 * n:
        raise ValueError(f"expected {2 * n} inputs, circuit has {len(c.input_ids)}")
    if len(c.output_ids) != n_outputs:
        raise ValueError(
            f"expected {n_outputs} outputs, circuit has {len(c.output_ids)}")
    if mode == "auto":
        mode = "exhaustive" if n <= 10 else "random"
    phases = []
    if mode == "exhaustive":
        for name, base, first, second in grids:
            grid = partial(_enumeration_words, n, base, first, second)
            phases.append(_run_phase(c, name, grid, base ** n, oracle))
    elif mode == "random":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = random.Random(seed)

        def drawn(width, offset):
            return [(rng.getrandbits(width), rng.getrandbits(width))
                    for _ in range(n)]

        phases.append(_run_phase(c, "random", drawn, samples, oracle))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ok = all(p.mismatches == 0 for p in phases)
    return VerifyReport(n=n, mode=mode, ok=ok, phases=phases)


def verify_adder(c: Circuit, n: int, mode: str = "auto",
                 samples: int = 100_000, seed: int = 0xC0FFEE) -> VerifyReport:
    """Check that a carry circuit matches the serial recurrence.

    Exhaustive mode sweeps two grids: the restricted domain where each bit
    position takes (x, y) in {(0,0),(0,1),(1,0)} — all pairs realizable from
    summand bits — and the unrestricted 4**n grid over arbitrary (x, y).
    Random mode draws uniform unrestricted patterns.  Auto picks exhaustive
    for n <= 10 and random otherwise.
    """
    grids = (("restricted", 3, {2}, {1}), ("unrestricted", 4, {1, 3}, {2, 3}))
    return _verify(c, n, n, packed_ripple, grids, mode, samples, seed)


def verify_full_adder(c: Circuit, n: int, mode: str = "auto",
                      samples: int = 100_000,
                      seed: int = 0xC0FFEE) -> VerifyReport:
    """Check a full adder against integer addition.

    Exhaustive mode sweeps all 4**n summand-bit patterns; random mode
    draws uniform summands.  Auto picks exhaustive for n <= 10.
    """
    grids = (("summands", 4, {1, 3}, {2, 3}),)
    return _verify(c, n, n + 1, _full_sum_words, grids, mode, samples, seed)
