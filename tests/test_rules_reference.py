"""The prover's meet and join rules against their helper-call reference.

semantics._meet and _join test their intervals with inline comparisons;
tests.reference.meet and join spell the same rules through a `touch`
helper and `min`/`max`. They must give the same label, or None, on every
pair of small labels, and `_prove` with the reference rules patched in
must give the same ProofReport on every golden-table circuit and on the
mutants tests/test_proof.py proves.
"""

import random
from itertools import product

import pytest

from addergen import semantics
from addergen.circuit import CircuitError, prune_dead
from tests import reference
from tests.test_golden import golden_keys
from tests.test_netlist_chunks import golden_netlist
from tests.test_proof import ALL_FAMILIES, MUTANTS_PER_CIRCUIT, build, mutants

IDS = range(1, 7)
X = [("X", s, t) for s, t in product(IDS, repeat=2)]
G = [("G", a, b, t) for a, b, t in product(IDS, repeat=3)]
# K(x, g) over the X and G labels the families build: s <= t and a <= b <= t
K = [("K", x, g) for x in X if x[1] <= x[2]
     for g in G if g[1] <= g[2] <= g[3]]
LABELS = X + G + K + [(kind, i) for kind in "ABS" for i in IDS]


@pytest.mark.parametrize("rule", ["meet", "join"])
def test_rules_agree_on_every_pair(rule):
    fast, ref = getattr(semantics, f"_{rule}"), getattr(reference, rule)
    for p in LABELS:
        for q in LABELS:
            assert fast(p, q) == ref(p, q), (p, q)


def test_pairs_reach_every_rule():
    meets, joins = set(), set()
    for p in LABELS:
        for q in LABELS:
            if semantics._meet(p, q) is not None:
                meets.add(semantics._meet(p, q)[0])
            if semantics._join(p, q) is not None:
                joins.add(p[0] + q[0])
    # meets merge X windows, widen G windows, make K labels and the a_i
    # b_i generate; joins merge G windows and absorb K labels either side
    assert meets == {"X", "G", "K"}
    assert joins == {"GG", "GK", "KG"}


def prove_both(monkeypatch, c, n, full):
    """_prove of c with the library's rules and with the reference's."""
    labels = (semantics._full_labels if full else semantics._carry_labels)(n)
    fast = semantics._prove(c, *labels)
    with monkeypatch.context() as m:
        m.setattr(semantics, "_meet", reference.meet)
        m.setattr(semantics, "_join", reference.join)
        ref = semantics._prove(c, *labels)
    return fast, ref


@pytest.mark.parametrize("key", golden_keys())
def test_golden_proofs_match_the_reference_rules(monkeypatch, key):
    c, spec, full = golden_netlist(key)
    n = spec.n if spec else len(c.input_ids) // 2
    fast, ref = prove_both(monkeypatch, c, n, full)
    assert fast == ref
    assert fast.ok or key.startswith("demorgan")


@pytest.mark.parametrize("full", [False, True], ids=["carry", "full"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_mutant_proofs_match_the_reference_rules(monkeypatch, family, full):
    unproven = 0
    for n in (4, 7, 8):
        rng = random.Random(f"{family}/{n}/{full}")
        for m in mutants(build(family, n, full), rng, MUTANTS_PER_CIRCUIT):
            m = prune_dead(m)
            try:
                m.check()
            except CircuitError:
                continue
            fast, ref = prove_both(monkeypatch, m, n, full)
            assert fast == ref
            unproven += not fast.ok
    assert unproven > MUTANTS_PER_CIRCUIT
