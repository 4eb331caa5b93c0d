"""The prover: sound on mutants, complete on every family, and the reports
of auto mode built on it.

A proof verdict is compared with exhaustive simulation on seeded
single-gate mutants: a proven mutant that simulation finds wrong would
be an unsound verdict, and none is allowed.
"""

import random

import pytest

from addergen.circuit import (
    AND, BUF, NAND, NOR, NOT, OR, XOR, Circuit, CircuitError, prune_dead,
)
from addergen.families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder,
)
from addergen.semantics import (
    prove_adder, prove_full_adder, verify_adder, verify_full_adder,
)

ALL_FAMILIES = sorted(FAMILIES)
# kind code -> the code a kind swap gives it (same arity)
SWAP = {AND: OR, OR: AND, XOR: OR, NOT: BUF, BUF: NOT, NAND: NOR, NOR: NAND}
MUTANTS_PER_CIRCUIT = 80


def build(family, n, full):
    spec = AdderSpec(family, n)
    return build_full_adder(spec) if full else build_adder(spec)


def mutants(c, rng, count):
    """Seeded single-gate mutants of c: a kind swap, or one fanin rewired
    to another earlier node."""
    gates = [nid for nid, code in enumerate(c._codes) if code]
    for _ in range(count):
        nid = rng.choice(gates)
        codes, f0, f1 = c._codes[:], c._f0[:], c._f1[:]
        if rng.random() < 0.5:
            codes[nid] = SWAP[codes[nid]]
        else:
            port = f1 if f1[nid] >= 0 and rng.random() < 0.5 else f0
            old = port[nid]
            while port[nid] == old:
                port[nid] = rng.randrange(nid)
        yield Circuit(c.name, codes, f0, f1, c.output_ids)


@pytest.mark.parametrize("full", [False, True], ids=["carry", "full"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_no_mutant_is_proven_wrongly(family, full):
    prove = prove_full_adder if full else prove_adder
    verify = verify_full_adder if full else verify_adder
    tally = dict(proven=0, caught=0, unproven_equivalent=0, invalid=0)
    for n in (4, 7, 8):
        rng = random.Random(f"{family}/{n}/{full}")
        for m in mutants(build(family, n, full), rng, MUTANTS_PER_CIRCUIT):
            m = prune_dead(m)  # a rewired fanin may leave a gate unread
            try:
                proof = prove(m, n)
            except CircuitError:  # e.g. an input that now drives nothing
                tally["invalid"] += 1
                continue
            correct = verify(m, n, mode="exhaustive").ok
            assert correct or not proof.ok, (family, n, proof.summary())
            if proof.ok:
                tally["proven"] += 1
            elif correct:
                tally["unproven_equivalent"] += 1
            else:
                tally["caught"] += 1
    assert sum(tally.values()) == 3 * MUTANTS_PER_CIRCUIT
    # the mutants really exercise the prover: most are wrong and caught
    assert tally["caught"] > 3 * MUTANTS_PER_CIRCUIT // 2, tally


def kogge_stone_top_carry_mutant(n):
    """kogge-stone n with its top carry G_hi | (X_hi & G_lo) rewired to
    G_hi | (X_hi & G_hi), which is G_hi alone.  Every node keeps a
    consumer, and uniform patterns almost never exercise the lost term."""
    c = build_adder(AdderSpec("kogge-stone", n))
    top = c.output_ids[-1]
    assert c.kind(top) == OR
    p, q = c.fanins(top)
    g_hi, term = (p, q) if c.kind(q) == AND else (q, p)
    assert c.kind(term) == AND and c._f1[term] == c.output_ids[n // 2 - 1]
    assert g_hi < term
    f1 = c._f1[:]
    f1[term] = g_hi
    return Circuit(c.name, c._codes, c._f0, f1, c.output_ids)


def test_kogge_stone_top_carry_mutant_is_unproven_at_its_top_output():
    n = 4096
    m = kogge_stone_top_carry_mutant(n)
    proof = prove_adder(m, n)
    assert (proof.proven, proof.first_unproven) == (n - 1, n - 1)
    # every gate is labelled: the top output carries the wrong label
    assert proof.first_unlabelled is None
    report = verify_adder(m, n)
    # auto falls back to the random phase it always drew, which is blind
    # to this mutant, and says where the proof stopped
    assert report.mode == "random" and report.ok
    assert report.proof == proof
    assert report.phases == verify_adder(m, n, mode="random").phases
    assert "first unproven output 4095" in report.summary()


def test_unlabelled_gate_is_named():
    c = build_adder(AdderSpec("ripple", 12))
    gate = c.output_ids[5]
    codes = c._codes[:]
    codes[gate] = SWAP[codes[gate]]  # or -> and
    proof = prove_adder(
        Circuit(c.name, codes, c._f0, c._f1, c.output_ids), 12)
    assert (proof.proven, proof.first_unproven) == (5, 5)
    assert proof.first_unlabelled == (gate, "and", ("G(6,6,6)", "G(1,5,6)"))
    assert proof.summary() == ("5 of 12 outputs proven, first unproven "
                               "output 5, first unlabelled gate "
                               f"{gate} and(G(6,6,6), G(1,5,6))")


def test_k_operand_first_in_an_or():
    # the lowest carry of ripple 2 as or(and(x1, y), y): the K label
    # and(x1, y) is the left operand of the join that absorbs it
    c = build_adder(AdderSpec("ripple", 2))
    low = c.output_ids[0]
    f0, f1 = c._f0[:], c._f1[:]
    f0[low], f1[low] = f1[low], f0[low]
    k_left = Circuit(c.name, c._codes, f0, f1, c.output_ids)
    assert k_left.kind(low) == OR
    assert k_left.kind(k_left.fanins(low)[0]) == AND
    proof = prove_adder(k_left, 2)
    assert (proof.proven, proof.first_unlabelled) == (2, None)
    assert verify_adder(k_left, 2, mode="exhaustive").ok


COVERAGE = [(f, n, full) for f in ALL_FAMILIES
            for n in [*range(1, 65), 100, 1024] for full in (False, True)]
COVERAGE += [(f, 4096, False) for f in ALL_FAMILIES if f != "mig"]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_family_is_proven(family):
    for f, n, full in COVERAGE:
        if f == family:
            proof = (prove_full_adder if full else prove_adder)(
                build(f, n, full), n)
            assert proof.ok, (f, n, full, proof.summary())
            assert proof.outputs == n + full


@pytest.mark.parametrize("full", [False, True], ids=["carry", "full"])
def test_auto_above_ten_reports_the_proof(full):
    c = build("linear", 64, full)
    report = (verify_full_adder if full else verify_adder)(c, 64)
    assert (report.mode, report.ok, report.phases) == ("proof", True, [])
    assert report.patterns == 0 and report.mismatches == 0
    assert report.summary() == (
        f"n=64 [proof] OK ({64 + full} of {64 + full} outputs proven)")
    assert report.proof == (prove_full_adder if full else prove_adder)(c, 64)


def test_verifiers_validate_first():
    c = build_adder(AdderSpec("ripple", 4))
    f0 = c._f0[:]
    f0[c.output_ids[0]] = c.output_ids[0]  # a fanin that is not earlier
    bad = Circuit(c.name, c._codes, f0, c._f1, c.output_ids)
    for check in (verify_adder, prove_adder):
        with pytest.raises(CircuitError, match="ordering"):
            check(bad, 5)  # before the interface check
    for mode in ("auto", "exhaustive", "random"):
        with pytest.raises(CircuitError):
            verify_adder(bad, 4, mode=mode)
