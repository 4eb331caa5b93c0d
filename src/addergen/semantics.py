"""Bit-level semantics of carry computation, simulation, and verification.

Position 1 is the least significant bit.  For summand bits a_i, b_i the
propagate/generate pair is x_i = a_i xor b_i, y_i = a_i and b_i.  Carries
follow c_1 = 0 and c_{i+1} = y_i or (x_i and c_i); sum bits are
s_i = c_i xor x_i with s_{n+1} = c_{n+1}.

A carry circuit takes the 2n inputs in the fixed order x_1, y_1, ...,
x_n, y_n and exposes n outputs c_2, ..., c_{n+1}.  The verifier
simulates a circuit over packed multi-pattern words and compares against
a packed fold of the carry recurrence.  The prover labels every gate
with the prefix-algebra function it computes and checks each output's
label, in one pass over the circuit.
"""

from __future__ import annotations

import random
from itertools import count
from typing import NamedTuple

from .circuit import AND, BUF, INPUT, KIND_NAMES, NAND, NOR, NOT, OR, XOR
from .circuit import Circuit, _check_ints, _check_kinds

# ---------------------------------------------------------------------------
# packed simulation

CHUNK_BITS = 1 << 15


def simulate_packed(c: Circuit, input_words, width):
    """Evaluate a circuit over bit-packed words, one lane per pattern.

    input_words aligns with c.input_ids.  Intermediate words are freed as
    their last consumer is evaluated, keeping memory proportional to the
    live frontier rather than circuit size.  Returns words aligned with
    c.output_ids.  A code that names no kind raises ValueError.
    """
    _check_kinds(c)
    if len(input_words) != len(c.input_ids):
        raise ValueError("input word count mismatch")
    mask = (1 << width) - 1
    n = len(c)
    remaining = list(c.consumer_counts())
    values = [None] * n
    for nid, word in zip(c.input_ids, input_words):
        # share a word already within width lanes instead of copying it
        values[nid] = word if 0 <= word <= mask else word & mask
    codes, f0, f1 = c._codes, c._f0, c._f1
    # kind codes as locals: the chain below runs once per gate
    inp, and_, or_, xor, not_, buf, nand = INPUT, AND, OR, XOR, NOT, BUF, NAND
    for nid in range(n):
        code = codes[nid]
        if code == inp:
            continue
        a = f0[nid]
        va = values[a]
        b = f1[nid]
        if code == and_:
            v = va & values[b]
        elif code == or_:
            v = va | values[b]
        elif code == xor:
            v = va ^ values[b]
        elif code == not_:
            v = va ^ mask
        elif code == buf:
            v = va
        elif code == nand:
            v = (va & values[b]) ^ mask
        else:  # nor
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
    stray = sorted(assignment.keys() - set(c.input_ids), key=repr)
    if stray:
        raise ValueError(f"assignment keys {stray} are not input ids")
    for nid in c.input_ids:
        if nid not in assignment:
            raise ValueError(f"input {nid} missing from the assignment")
    for key, value in assignment.items():
        if type(value) is not int or value not in (0, 1):
            raise ValueError(f"input {key!r} must be 0 or 1, got {value!r}")
    words = [assignment[nid] for nid in c.input_ids]
    outs = simulate_packed(c, words, 1)
    return dict(zip(c.output_ids, outs))


def packed_ripple(words):
    """Packed oracle: yields carries c_2..c_{n+1} lane-parallel, one word at
    a time, from words x_1, y_1, ..., x_n, y_n."""
    c = 0
    pairs = iter(words)
    for x, y in zip(pairs, pairs):
        c = y | (x & c)
        yield c


def _grid_chunks(n, base, x_digits, y_digits):
    """Input words for the base**n grid, as (offset, width, words).

    words holds x_1, y_1, ..., x_n, y_n in input order.  Lane t of a chunk
    encodes pattern index offset+t; bit position i of the pattern is digit i
    of that index in the given base.  x_i is 1 on lanes whose digit is in
    x_digits, likewise y_i.  Every chunk is base**j lanes, the largest power
    of base within CHUNK_BITS and the grid, so chunks start on multiples of
    base**j: a position i < j has the same periodic words in every chunk,
    and a position i >= j holds one digit per chunk.
    """
    j = 0
    while j < n and base ** (j + 1) <= CHUNK_BITS:
        j += 1
    width = base ** j
    full = (1 << width) - 1
    sides = (x_digits, y_digits)

    def periodic(i, digits):
        # one block of base runs, base**i lanes per digit, replicated
        period = base ** i
        block = sum(((1 << period) - 1) << (d * period) for d in digits)
        return block * (full // ((1 << (period * base)) - 1))

    low = [periodic(i, digits) for i in range(j) for digits in sides]
    for offset in range(0, base ** n, width):
        yield offset, width, low + [
            full if offset // base ** i % base in digits else 0
            for i in range(j, n) for digits in sides]


# ---------------------------------------------------------------------------
# verification

class Counterexample(NamedTuple):
    index: int
    pairs: tuple
    expected: tuple
    got: tuple


class PhaseResult(NamedTuple):
    name: str
    patterns: int
    mismatches: int
    counterexamples: list


class ProofReport(NamedTuple):
    """Outcome of labelling a circuit's gates (see prove_adder)."""

    outputs: int
    proven: int  # outputs carrying exactly their expected label
    first_unproven: int | None  # index of the lowest output not proven
    first_unlabelled: tuple | None  # (id, kind, operand labels) of the
    # lowest gate whose operand pair no rule covers

    @property
    def ok(self):
        return self.proven == self.outputs

    def summary(self) -> str:
        text = f"{self.proven} of {self.outputs} outputs proven"
        if self.first_unproven is not None:
            text += f", first unproven output {self.first_unproven}"
        if self.first_unlabelled is not None:
            nid, kind, operands = self.first_unlabelled
            text += (f", first unlabelled gate {nid} "
                     f"{kind}({', '.join(operands)})")
        return text


class VerifyReport(NamedTuple):
    n: int
    mode: str
    ok: bool
    phases: list
    proof: ProofReport | None = None  # auto mode's proof, shown by summary()

    def __repr__(self):
        # no proof: tests/test_seeded_reports.py hashes the repr of seeded
        # sampled and exhaustive reports, which must depend on phases only
        return (f"VerifyReport(n={self.n!r}, mode={self.mode!r}, "
                f"ok={self.ok!r}, phases={self.phases!r})")

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
        if self.proof is not None:
            proof = self.proof.summary()
            parts = f"{parts}; proof: {proof}" if parts else proof
        return f"n={self.n} [{self.mode}] {status} ({parts})"


def _collect_counterexamples(any_diff, words, expected, got, base_index,
                             out):
    """Append a counterexample per set lane of any_diff, lowest first."""
    while any_diff and len(out) < MAX_COUNTEREXAMPLES:
        t = (any_diff & -any_diff).bit_length() - 1
        bits = ((w >> t) & 1 for w in words)
        exp = tuple((w >> t) & 1 for w in expected)
        act = tuple((w >> t) & 1 for w in got)
        out.append(Counterexample(base_index + t, tuple(zip(bits, bits)),
                                  exp, act))
        any_diff &= any_diff - 1


def _full_sum_words(words):
    """Packed oracle: yields sum bits s_1..s_{n+1} of per-lane integer
    addition, one word at a time, from words a_1, b_1, ..., a_n, b_n."""
    c = 0
    pairs = iter(words)
    for a, b in zip(pairs, pairs):
        x = a ^ b
        yield x ^ c
        c = (a & b) | (x & c)
    yield c


def _run_phase(c, name, chunks, oracle):
    """Simulate every chunk and compare with the packed oracle as it folds.

    chunks yields (offset, width, words) with one word per circuit input,
    in input order, for lanes offset..offset+width-1; oracle(words) yields
    the expected output words.  Only one chunk's words are alive at a time:
    each is released before the next is drawn.  The oracle runs a second
    time, to a list, only for a chunk with a mismatch.
    """
    patterns = mismatches = 0
    counterexamples = []
    for offset, width, words in chunks:
        got = simulate_packed(c, words, width)
        bad = 0
        for e, g in zip(oracle(words), got):
            d = e ^ g
            mismatches += d.bit_count()
            bad |= d
        if bad:
            _collect_counterexamples(bad, words, list(oracle(words)), got,
                                     offset, counterexamples)
        patterns += width
        del words, got
    return PhaseResult(name, patterns, mismatches, counterexamples)


def _check_interface(c, n, extra):
    """Raise ValueError unless n is an int (not a bool), CircuitError unless
    c validates, ValueError unless it has 2n inputs and n + extra outputs."""
    _check_ints(n=n)
    c.check()
    if len(c.input_ids) != 2 * n:
        raise ValueError(f"expected {2 * n} inputs, circuit has {len(c.input_ids)}")
    if len(c.output_ids) != n + extra:
        raise ValueError(
            f"expected {n + extra} outputs, circuit has {len(c.output_ids)}")


# random mode's pattern count and seed when the caller names none
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0xC0FFEE
# counterexamples kept per phase, and shown per report by the CLI
MAX_COUNTEREXAMPLES = 10


def _verify(c, n, extra, oracle, grids, labels, mode, samples, seed):
    """Interface checks and mode dispatch shared by both verifiers.

    grids lists the exhaustive phases as (name, base, first_digits,
    second_digits) over the base**n enumeration; random mode draws
    `samples` uniform patterns from seed instead.  Auto mode sweeps the
    grids for n <= 10; above that it proves with labels(n), the input and
    output labels, and samples only if the proof does not cover every
    output.
    """
    _check_interface(c, n, extra)
    proof = None
    if mode == "auto" and n <= 10:
        mode = "exhaustive"
    elif mode == "auto":
        proof = _prove(c, *labels(n))
        if proof.ok:
            return VerifyReport(n=n, mode="proof", ok=True, phases=[],
                                proof=proof)
        mode = "random"
    phases = []
    if mode == "exhaustive":
        for name, base, first, second in grids:
            chunks = _grid_chunks(n, base, first, second)
            phases.append(_run_phase(c, name, chunks, oracle))
    elif mode == "random":
        _check_ints(samples=samples)
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = random.Random(seed)

        def drawn():
            for offset in range(0, samples, CHUNK_BITS):
                width = min(CHUNK_BITS, samples - offset)
                yield offset, width, [rng.getrandbits(width)
                                      for _ in range(2 * n)]

        phases.append(_run_phase(c, "random", drawn(), oracle))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ok = all(p.mismatches == 0 for p in phases)
    return VerifyReport(n=n, mode=mode, ok=ok, phases=phases, proof=proof)


def verify_adder(c: Circuit, n: int, mode: str = "auto",
                 samples: int = DEFAULT_SAMPLES,
                 seed: int = DEFAULT_SEED) -> VerifyReport:
    """Check that a carry circuit matches the serial recurrence.

    The circuit must validate (CircuitError otherwise).  Exhaustive mode
    sweeps two grids: the restricted domain where each bit position takes
    (x, y) in {(0,0),(0,1),(1,0)} — all pairs realizable from summand
    bits — and the unrestricted 4**n grid over arbitrary (x, y).  Random
    mode draws uniform unrestricted patterns.  Auto picks exhaustive for
    n <= 10; above that it proves the circuit (report mode "proof") and
    falls back to random mode, its report naming where the proof stopped,
    only when the proof does not cover every output.
    """
    grids = (("restricted", 3, {2}, {1}), ("unrestricted", 4, {1, 3}, {2, 3}))
    return _verify(c, n, 0, packed_ripple, grids, _carry_labels, mode,
                   samples, seed)


def verify_full_adder(c: Circuit, n: int, mode: str = "auto",
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> VerifyReport:
    """Check a full adder against integer addition.

    Exhaustive mode sweeps all 4**n summand-bit patterns; random mode
    draws uniform summands.  Auto picks exhaustive for n <= 10 and, above
    that, a proof with the random fallback verify_adder describes.
    """
    grids = (("summands", 4, {1, 3}, {2, 3}),)
    return _verify(c, n, 1, _full_sum_words, grids, _full_labels, mode,
                   samples, seed)


# ---------------------------------------------------------------------------
# proof by prefix labels
#
# Each gate gets a label naming the function it computes, plus a polarity
# bit (1 where the gate computes the label's complement).  Over the carry
# inputs x_i, y_i the labels are
#   ("X", s, t)     x_s and ... and x_t
#   ("G", a, b, t)  the or over j = a..b of y_j and x_{j+1} and ... and x_t,
#                   so G(1, i, i) is the carry c_{i+1}
#   ("K", x, g)     x and g, for an X label x and a G label g that do not
#                   merge; g or K(x, g) is g
# and over the summand inputs of a full adder
#   ("A", i), ("B", i)  the bits a_i, b_i; a_i xor b_i is X(i, i) and
#                   a_i and b_i is G(i, i, i)
#   ("S", i)        x_i xor c_i, the sum bit s_i.
# Every rule is a Boolean identity, so a label is always the exact function
# of its gate; a gate whose operand pair no rule covers stays unlabelled.

# kind code -> whether the gate meets (ands) operands of true polarity;
# with both operands inverted it joins them instead (De Morgan)
_MEETS = {AND: 1, OR: 0, NAND: 1, NOR: 0}


def _meet(p, q):
    """Label of p and q, or None where no rule covers the pair."""
    if q[0] == "X":
        p, q = q, p
    if p[0] == "X":
        if q[0] == "X":
            # intervals [s, t] and [u, v] that overlap or are adjacent
            _, s, t = p
            _, u, v = q
            if s <= v + 1 and u <= t + 1:
                return ("X", s if s < u else u, t if t > v else v)
        elif q[0] == "G":
            # each y_j x_{j+1..v} of q, j <= b, takes x_{u..t} into one
            # window when b < u <= v + 1
            if q[2] < p[1] <= q[3] + 1:
                return ("G", q[1], q[2], q[3] if q[3] > p[2] else p[2])
            return ("K", p, q)
    elif p[0] + q[0] in ("AB", "BA") and p[1] == q[1]:
        return ("G", p[1], p[1], p[1])
    return None


def _join(p, q):
    """Label of p or q, or None where no rule covers the pair."""
    if p[0] == "G" and q[0] == "G":
        # windows [a, b] and [c, d] that overlap or are adjacent, at one t
        _, a, b, t = p
        _, c, d, u = q
        if t == u and a <= d + 1 and c <= b + 1:
            return ("G", a if a < c else c, b if b > d else d, t)
    elif q[0] == "K" and q[2] == p:
        return p
    elif p[0] == "K" and p[2] == q:
        return q
    return None


def _xor(p, q):
    """Label of p xor q, or None where no rule covers the pair."""
    if p[0] + q[0] in ("AB", "BA") and p[1] == q[1]:
        return ("X", p[1], p[1])
    if q[0] == "X":
        p, q = q, p
    if p[0] == "X" and p[1] == p[2] and q == ("G", 1, p[1] - 1, p[1] - 1):
        return ("S", p[1])
    return None


def _show(label, inverted=0):
    """A label as text, e.g. G(1,4,4), with ~ in front where inverted."""
    args = ",".join(_show(a) if isinstance(a, tuple) else str(a)
                    for a in label[1:])
    return f"{'~' if inverted else ''}{label[0]}({args})"


def _prove(c, input_labels, expected):
    """Label every gate in id order and check the outputs against expected.

    input_labels aligns with c.input_ids and expected with c.output_ids;
    an output is proven when it carries its expected label uninverted.
    """
    lab = [None] * len(c)
    neg = bytearray(len(c))
    for nid, label in zip(c.input_ids, input_labels):
        lab[nid] = label
    first = None
    inp, xor, not_, buf, nand = INPUT, XOR, NOT, BUF, NAND  # fast locals
    for nid, code, a, b in zip(count(), c._codes, c._f0, c._f1):
        if code == buf or code == not_:
            lab[nid] = lab[a]
            neg[nid] = neg[a] ^ (code == not_)
            continue
        if code == inp:
            continue
        p = lab[a]
        q = lab[b]
        if p is None or q is None:
            continue
        s = neg[a]
        if code == xor:
            label = _xor(p, q)
            s ^= neg[b]
        elif s != neg[b]:
            label = None
        else:
            label = (_meet if _MEETS[code] ^ s else _join)(p, q)
            s ^= code >= nand  # nand, nor invert
        if label is None:
            if first is None:
                first = (nid, KIND_NAMES[code],
                         (_show(p, neg[a]), _show(q, neg[b])))
            continue
        lab[nid] = label
        neg[nid] = s
    proven = 0
    first_out = None
    for i, oid, want in zip(count(), c.output_ids, expected):
        if lab[oid] == want and not neg[oid]:
            proven += 1
        elif first_out is None:
            first_out = i
    return ProofReport(len(expected), proven, first_out, first)


def _carry_labels(n):
    """Input labels x_1, y_1, ..., x_n, y_n and output labels c_2..c_{n+1}
    of a carry circuit."""
    ins = [lbl for i in range(1, n + 1) for lbl in (("X", i, i),
                                                    ("G", i, i, i))]
    return ins, [("G", 1, i, i) for i in range(1, n + 1)]


def _full_labels(n):
    """Input labels a_1, b_1, ..., a_n, b_n and output labels s_1..s_{n+1}
    of a full adder."""
    ins = [lbl for i in range(1, n + 1) for lbl in (("A", i), ("B", i))]
    outs = [("X", 1, 1)] + [("S", i) for i in range(2, n + 1)]
    return ins, outs + [("G", 1, n, n)]


def prove_adder(c: Circuit, n: int) -> ProofReport:
    """Prove a carry circuit by labelling its gates, in linear time.

    Each gate's label is the prefix-algebra function it computes (see the
    comment above _MEETS); output i is proven when it carries G(1, i, i),
    the carry c_{i+1}.  A proof is exact; an output left unproven may
    still be correct, since the rules cover only the prefix forms the
    families build.  The circuit must validate (CircuitError otherwise).
    """
    _check_interface(c, n, 0)
    return _prove(c, *_carry_labels(n))


def prove_full_adder(c: Circuit, n: int) -> ProofReport:
    """Prove a full adder as prove_adder proves a carry circuit: its
    outputs must carry x_1, then the sum labels S(2)..S(n), then the
    carry-out G(1, n, n)."""
    _check_interface(c, n, 1)
    return _prove(c, *_full_labels(n))
