"""Seeded fuzz of raw circuit arrays against validate.

Small circuits are drawn straight into arrays, and some get one fanin slot
overwritten with a nearby id, -1 or a negative number, or one kind code
overwritten with a code that names no kind. Whatever validates clean must
measure as its fanins() describe it: consumer_counts, node_depths and
simulate agree with recounts over fanins(), and metrics raises nothing.
Every unknown code is reported, ahead of the node rules. Standard library
only, so it runs without hypothesis.
"""

import random
from array import array
from itertools import product

from addergen.circuit import (
    INPUT, KIND_ARITY, Circuit, metrics, node_depths, validate,
)
from addergen.semantics import simulate

OPS = [None, lambda a, b: a & b, lambda a, b: a | b, lambda a, b: a ^ b,
       lambda a: 1 - a, lambda a: a, lambda a, b: 1 - (a & b),
       lambda a, b: 1 - (a | b)]  # indexed by kind code


def draw_circuit(rng):
    """A near-valid raw circuit of 2 to 9 nodes, 1 to 3 of them inputs,
    whose outputs are the gates nothing reads before one slot or one code
    may change."""
    k = rng.randint(1, 3)
    codes, f0, f1 = [INPUT] * k, [-1] * k, [-1] * k
    for nid in range(k, rng.randint(k + 1, 9)):
        code = rng.randint(1, 7)
        codes.append(code)
        f0.append(rng.randrange(nid))
        f1.append(rng.randrange(nid) if KIND_ARITY[code] == 2 else -1)
    n = len(codes)
    read = set(f0) | set(f1)
    outputs = [nid for nid in range(k, n) if nid not in read]
    if rng.random() < 0.8:
        slots = rng.choice((f0, f1))
        slots[rng.randrange(n)] = rng.randint(-5, n + 1)
    if rng.random() < 0.1:
        bad = rng.randint(-128, 119)  # -128..-1 or, shifted, 8..127
        codes[rng.randrange(n)] = bad + 8 if bad >= 0 else bad
    return Circuit("fuzz", array("b", codes), array("i", f0), array("i", f1),
                   tuple(outputs))


def test_clean_circuits_measure_as_their_fanins_say():
    rng = random.Random(2601)
    clean = 0
    for _ in range(20_000):
        c = draw_circuit(rng)
        if validate(c):
            continue
        clean += 1
        fans = [c.fanins(nid) for nid in range(len(c))]
        counts = [0] * len(c)
        for f in [f for fs in fans for f in fs] + list(c.output_ids):
            counts[f] += 1
        assert c.consumer_counts() == counts
        depths = []
        for fs in fans:
            depths.append(1 + max(depths[f] for f in fs) if fs else 0)
        assert node_depths(c) == depths
        assert metrics(c).depth == max(depths[o] for o in c.output_ids)
        for bits in product((0, 1), repeat=len(c.input_ids)):
            values = dict(zip(c.input_ids, bits))
            for nid, fs in enumerate(fans):
                if fs:
                    values[nid] = OPS[c.kind(nid)](*(values[f] for f in fs))
            assert simulate(c, dict(zip(c.input_ids, bits))) == {
                o: values[o] for o in c.output_ids}
    assert clean > 4000


def test_unknown_kind_codes_are_reported_first():
    # one "kind" violation per node whose code names no kind, ahead of
    # every node rule, and validate raises nothing on any draw
    rng = random.Random(2801)
    seen = 0
    for _ in range(20_000):
        c = draw_circuit(rng)
        unknown = [nid for nid, code in enumerate(c._codes)
                   if not 0 <= code < len(KIND_ARITY)]
        found = [v for v in validate(c) if v.rule != "no-gates"]
        assert [(v.rule, v.node) for v in found[:len(unknown)]] == [
            ("kind", nid) for nid in unknown]
        assert [v.rule for v in found].count("kind") == len(unknown)
        seen += bool(unknown)
    assert seen > 1500
