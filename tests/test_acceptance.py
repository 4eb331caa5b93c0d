"""Acceptance suite: one test and one reported verdict line per criterion.

Each test gathers its measurements, then records exactly one PASS/FAIL
line through the `acceptance` fixture (replayed in the terminal summary),
so the eight verdicts are visible in one place at the end of the run.
"""

import math
import random
import time

import pytest

from addergen.circuit import CircuitBuilder, metrics, prune_dead
from addergen.families import AdderSpec, FAMILIES, build_adder, build_full_adder
from addergen.cli import compare_rows
from addergen.mig import (
    build_augmented_and_prefix, build_generate_gate, build_mig_adder,
)
from addergen.netlist import dumps_netlist, loads_netlist
from addergen.prefix import kogge_stone, sklansky
from addergen.reduction import apply_reduction
from addergen.semantics import (
    _grid_chunks, block_signals, prefix_op, simulate_packed, verify_adder,
)
from addergen.techmap import demorgan_map, levelize

ALL_FAMILIES = sorted(FAMILIES)
RANDOM_NS = (16, 64, 256, 1024, 4096)


@pytest.fixture(scope="module")
def corpus():
    """Every (family, n) pair of criterion 1's random tier, built, measured,
    and verified once; later criteria reuse the measurements."""
    t0 = time.perf_counter()
    built = {}
    for family in ALL_FAMILIES:
        for n in RANDOM_NS:
            c = build_adder(AdderSpec(family, n))
            ok = verify_adder(c, n, mode="random").ok
            built[family, n] = (c, metrics(c), ok)
    return built, time.perf_counter() - t0


def test_criterion_1_functional_correctness(acceptance, corpus):
    built, build_seconds = corpus
    t0 = time.perf_counter()
    failures = []
    exhaustive_runs = 0
    for family in ALL_FAMILIES:
        for n in (n for n in range(1, 9) if FAMILIES[family].native(n)):
            c = build_adder(AdderSpec(family, n))
            if not verify_adder(c, n, mode="exhaustive").ok:
                failures.append(f"{family}@{n} exhaustive")
            exhaustive_runs += 1
    for (family, n), (_, _, ok) in built.items():
        if not ok:
            failures.append(f"{family}@{n} random")
    elapsed = build_seconds + (time.perf_counter() - t0)
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s >= 2 min")
    acceptance(
        1, not failures,
        f"{exhaustive_runs} exhaustive + {len(built)} random(1e5) runs, "
        f"0 mismatches, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""))


def test_criterion_2_exact_prefix_sizes(acceptance):
    failures = []
    for n in (4, 8, 16, 32):
        L = n.bit_length() - 1
        if kogge_stone(n).size() != n * L - n // 2:
            failures.append(f"kogge-stone size @{n}")
        g = sklansky(n)
        if g.size() != n * L // 2:
            failures.append(f"sklansky size @{n}")
        if g.max_fanout() != n // 2 + 1:
            failures.append(f"sklansky fan-out @{n}")
    for r, k in ((1, 2), (2, 2), (2, 3)):
        w = 1 << (r * k)
        b = CircuitBuilder()
        xs = [b.add_input() for _ in range(w)]
        build_augmented_and_prefix(b, xs, r, k, omit_last_block=False)
        if len(b) - w != w * r * (k - 1) + w * k * (1 << (r + 1)):
            failures.append(f"augmented and-prefix size r={r},k={k}")
    acceptance(
        2, not failures,
        "kogge-stone/sklansky prefix sizes, sklansky fan-out, and augmented "
        "and-prefix sizes all exact"
        + (f"; failures: {failures}" if failures else ""))


def _longest_from(c, sources, sinks):
    dist = [-1] * len(c)
    for s in sources:
        dist[s] = 0
    for nid in range(len(c)):
        if c.is_input(nid):
            continue
        for f in c.fanins(nid):
            if dist[f] >= 0 and dist[f] + 1 > dist[nid]:
                dist[nid] = dist[f] + 1
    return max(dist[s] for s in sinks)


def test_criterion_3_generate_gate_metrics(acceptance):
    failures = []
    for r in (1, 2, 3):
        q = 1 << r
        b = CircuitBuilder()
        gens = [b.add_input() for _ in range(q)]
        props = [b.add_input() for _ in range(q)]
        outs = build_generate_gate(b, r, gens, props)
        c = b.build()
        if _longest_from(c, props, outs) != 2 * r + 1:
            failures.append(f"propagate depth r={r}")
        if _longest_from(c, gens, outs) != r + 1:
            failures.append(f"generate depth r={r}")
        if max(b.fanout(p) for p in props) != 2:
            failures.append(f"propagate fan-out r={r}")
        if max(b.fanout(g) for g in gens) != 1:
            failures.append(f"generate fan-out r={r}")
        component_sum = ((r - 1) * (1 << r) + (1 << (r - 1))
                         + (1 << r) + 1 + r * (1 << (r - 1)))
        if abs((len(b) - 2 * q) - component_sum) > 1:
            failures.append(f"size r={r}")
    acceptance(
        3, not failures,
        "generate gate: propagate depth 2r+1, generate depth r+1, fan-outs "
        "2/1, size within 1 of the component sum for r in {1,2,3}"
        + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_mig_bounds(acceptance):
    failures = []
    cases = 0
    for r in range(1, 7):
        for k in range(1, 7):
            if r * k > 6:
                continue
            n = 1 << (r * k)
            m = metrics(build_mig_adder(n, r, k))
            if m.depth > k * r + 2 * r + k + 1:
                failures.append(f"depth r={r},k={k}")
            if m.size >= 3 * n * k * (r + 2) * (1 << (r - 1)) \
                    + n * (1 << r) + n * r * k:
                failures.append(f"size r={r},k={k}")
            if m.max_fanout != 2:
                failures.append(f"fan-out r={r},k={k}")
            cases += 1
    acceptance(
        4, not failures,
        f"{cases} (r,k) cases with rk<=6 at full width: depth <= kr+2r+k+1, "
        "size under the closed bound, fan-out exactly 2"
        + (f"; failures: {failures}" if failures else ""))


def _linear_depth_bound(n):
    L = n.bit_length() - 1
    root = math.isqrt(L)
    if root * root < L:
        root += 1
    return L + 8 * root + 6 * math.ceil(math.log2(root)) + 2


def test_criterion_5_linear_adder_bounds(acceptance, corpus):
    built, _ = corpus
    failures = []
    sizes = {}
    for n in (256, 1024, 4096):
        _, m, ok = built["linear", n]
        sizes[n] = m.size / n
        if m.size > 13.5 * n:
            failures.append(f"size @{n}")
        if n == 4096 and m.size > 9.5 * n:
            failures.append("tight size @4096")
        if m.depth > _linear_depth_bound(n):
            failures.append(f"depth @{n}: {m.depth} > {_linear_depth_bound(n)}")
        if m.max_fanout != 2:
            failures.append(f"fan-out @{n}")
        if not ok:
            failures.append(f"verification @{n}")
    acceptance(
        5, not failures,
        "linear adder at n=256/1024/4096: size "
        + "/".join(f"{sizes[n]:.2f}n" for n in (256, 1024, 4096))
        + " (bounds 13.5n, 9.5n at 4096), depth within bound, fan-out 2"
        + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_nandnor_adder_bounds(acceptance, corpus):
    built, _ = corpus
    failures = []
    details = {}
    for n in RANDOM_NS:
        c, m, ok = built["nandnor", n]
        _, lin_m, _ = built["linear", n]
        kinds = set(m.histogram)
        if not kinds <= {"nand", "nor", "not"}:
            failures.append(f"gate kinds @{n}: {sorted(kinds)}")
        if m.depth > lin_m.depth + 1:
            failures.append(f"depth @{n}: {m.depth} > {lin_m.depth}+1")
        if m.size > (18 + 1 / 3) * n:
            failures.append(f"size @{n}")
        if n == 4096 and m.size > (15 + 5 / 6) * n:
            failures.append("tight size @4096")
        if m.max_fanout != 2:
            failures.append(f"fan-out @{n}")
        if not ok:
            failures.append(f"verification @{n}")
        details[n] = f"{m.size / n:.2f}n/d{m.depth}"
    acceptance(
        6, not failures,
        "nand/nor/not adder across n=16..4096: "
        + " ".join(f"{n}:{details[n]}" for n in RANDOM_NS)
        + "; kinds confined, depth <= linear+1, size <= 18.33n "
        "(15.83n at 4096), fan-out 2, verified"
        + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_comparison_reproduction(acceptance):
    failures = []
    ks_row = compare_rows(["kogge-stone"], [2048])[0]
    if ks_row.depth != 22:
        failures.append(f"kogge-stone depth @2048 = {ks_row.depth}")
    if not ks_row.verified:
        failures.append("kogge-stone @2048 verification")
    mig_m = metrics(build_mig_adder(4096, 3, 4))
    if mig_m.depth > 23:
        failures.append(f"mig r=3,k=4 depth @4096 = {mig_m.depth}")
    default_2048 = metrics(build_mig_adder(2048)).depth
    refined_unattained = default_2048 > 21
    if not refined_unattained:
        failures.append("refined depth unexpectedly reached")
    acceptance(
        7, not failures,
        f"kogge-stone depth 22 at n=2048; mig(r=3,k=4) depth {mig_m.depth} "
        f"<= 23 at n=4096; refined depth 21 unattained as expected "
        f"(measured {default_2048} at n=2048, refinement out of scope)"
        + (f"; failures: {failures}" if failures else ""))


def _paired_equivalent(original, mapped, word_lists, width):
    for words in word_lists:
        if simulate_packed(original, words, width) != \
                simulate_packed(mapped, words, width):
            return False
    return True


def test_criterion_8_property_suites(acceptance):
    failures = []

    # prefix-operator associativity, 64 exhaustive triples
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    cases = 0
    for p in bits:
        for q in bits:
            for r in bits:
                if prefix_op(prefix_op(p, q), r) != prefix_op(p, prefix_op(q, r)):
                    failures.append(f"associativity {p}{q}{r}")
                cases += 1
    if cases != 64:
        failures.append("associativity case count")

    # block_signals equals both fold orders on random 8-pair instances
    rng = random.Random(8)
    for _ in range(500):
        pairs = [(rng.getrandbits(1), rng.getrandbits(1)) for _ in range(8)]
        i = rng.randint(1, 8)
        j = rng.randint(i, 8)
        left = pairs[i - 1]
        for t in range(i, j):
            left = prefix_op(pairs[t], left)
        right = pairs[j - 1]
        for t in range(j - 1, i - 1, -1):
            right = prefix_op(right, pairs[t - 1])
        if not block_signals(pairs, i, j) == left == right:
            failures.append(f"block_signals fold [{i},{j}]")
            break

    # reduction steps leave no dead propagate logic: around an inner core
    # that consumes its whole interface, pruning the raw wrapper output is
    # a no-op, and the inner adder itself exposes carries only
    def wrapped_serial(b, pairs):
        from addergen.prefix import serial_prefix, _expand_onto
        return _expand_onto(b, serial_prefix(len(pairs)), pairs)

    for n, tau in ((8, 1), (16, 2), (64, 3)):
        c = apply_reduction(n, tau, wrapped_serial)
        if prune_dead(c).num_gates != c.num_gates:
            failures.append(f"dead gates in reduction n={n},tau={tau}")
        if len(build_mig_adder(n >> tau).output_ids) != n >> tau:
            failures.append(f"inner interface n={n}")

    # demorgan_map paired-simulation equivalence per mapped instance
    exhaustive = build_adder(AdderSpec("ripple", 4))
    mapped = demorgan_map(levelize(exhaustive))
    for _, width, xs, ys in _grid_chunks(4, 4, {1, 3}, {2, 3}):
        flat = [w for xy in zip(xs, ys) for w in xy]
        if not _paired_equivalent(exhaustive, mapped, [flat], width):
            failures.append("demorgan ripple@4 exhaustive")
    rng = random.Random(88)
    for family, n in (("brent-kung", 8), ("mig", 16), ("linear", 64)):
        original = build_adder(AdderSpec(family, n))
        mapped = demorgan_map(levelize(original))
        drawn = [[rng.getrandbits(10_000) for _ in range(2 * n)]]
        if not _paired_equivalent(original, mapped, drawn, 10_000):
            failures.append(f"demorgan {family}@{n}")

    # netlist round-trip identity
    for spec, full in ((AdderSpec("ripple", 5), False),
                       (AdderSpec("kogge-stone", 8), False),
                       (AdderSpec("nandnor", 16), True)):
        circuit = build_full_adder(spec) if full else build_adder(spec)
        text = dumps_netlist(circuit, spec, full)
        nf = loads_netlist(text)
        if dumps_netlist(nf.circuit, nf.spec, nf.full_adder) != text:
            failures.append(f"netlist round trip {spec.family}")

    acceptance(
        8, not failures,
        "associativity (64 cases), block-signal folds (500 instances), "
        "reduction dead-propagate analysis, demorgan paired simulation "
        "(4 instances), netlist round trips (3 files) all clean"
        + (f"; failures: {failures}" if failures else ""))
