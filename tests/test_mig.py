"""Multi-input generate adder: frozen structure numbers and verification.

Expected sizes/depths below were derived independently before freezing:
the closed forms are
  * full generate gate:      r*2**r + (r+1)*2**(r-1)
  * window graph (unpruned): w*r*(k-1) + w*k*2**(r+1)   [dead repeat row kept]
  * output depth, full width n = 2**(r*k):  k*r + 2*r + k + 1  exactly
and the hand tallies for the small frozen circuits follow the same
pool/box/tap accounting as the implementation docstrings.
"""

import hashlib
import tracemalloc

import pytest

from addergen.circuit import (
    AND,
    BUF,
    OR,
    CircuitBuilder,
    metrics,
    prune_dead,
    validate,
)
from addergen.mig import (
    MigParams,
    Pool,
    build_mig_adder,
    choose_params,
)
from addergen.netlist import dumps_netlist
from addergen.semantics import simulate, verify_adder
from tests.reference import (
    augmented_and_prefix,
    generate_gate,
    gp_prepare,
    int_to_bits,
    raw_mig_adder,
    ripple_carries,
)


class TestChooseParams:
    @pytest.mark.parametrize(
        "n, want",
        [
            (1, (1, 1, 2)),
            (2, (1, 1, 2)),
            (3, (2, 2, 16)),
            (4, (2, 2, 16)),
            (16, (2, 2, 16)),
            (17, (3, 3, 512)),
            (32, (3, 3, 512)),
            (512, (3, 3, 512)),
            (513, (4, 4, 65536)),
            (4096, (4, 4, 65536)),
        ],
    )
    def test_balanced_choice(self, n, want):
        assert choose_params(n) == MigParams(*want)

    def test_covers_requested_width(self):
        for n in (1, 2, 4, 16, 17, 100, 512, 513, 4096):
            p = choose_params(n)
            if n > 2:  # the r=k=1 domain is only 2 wide
                assert p.full_width >= n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_params(0)


class TestPool:
    def test_serves_each_copy_bounded_times(self):
        p = Pool(["a", "b"], takes_per_item=2)
        assert [p.take() for _ in range(4)] == ["a", "a", "b", "b"]
        with pytest.raises(ValueError):
            p.take()

    def test_single_use_items(self):
        p = Pool(["a"], takes_per_item=1)
        assert p.take() == "a"
        with pytest.raises(ValueError):
            p.take()


class TestGenerateGate:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_full_gate_size_matches_formula(self, r):
        q = 1 << r
        b = CircuitBuilder()
        gens = [b.add_input() for _ in range(q)]
        props = [b.add_input() for _ in range(q)]
        generate_gate(b, r, gens, props)
        assert len(b) - 2 * q == r * (1 << r) + (r + 1) * (1 << (r - 1))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_port_budgets(self, r):
        # every prop port is wired at most twice (the lowest exactly once),
        # every gen port exactly once
        q = 1 << r
        b = CircuitBuilder()
        gens = [b.add_input() for _ in range(q)]
        props = [b.add_input() for _ in range(q)]
        generate_gate(b, r, gens, props)
        counts = b.build().consumer_counts()
        assert counts[props[0]] == 1
        for p in props[1:]:
            assert counts[p] == 2
        for g in gens:
            assert counts[g] == 1

    def test_copy_count_per_level_kind(self):
        for r, final, want in [(2, False, 2), (3, False, 4), (3, True, 1)]:
            q = 1 << r
            b = CircuitBuilder()
            gens = [b.add_input() for _ in range(q)]
            props = [b.add_input() for _ in range(q)]
            outs = generate_gate(b, r, gens, props, final_level=final)
            assert len(outs) == want

    def test_rejects_single_block(self):
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            generate_gate(b, 2, [b.add_input()], [b.add_input()])


class TestWindowGraph:
    # (r, k, width) -> unpruned gate count with the dead final repeat row
    FROZEN = [(1, 2, 4, 36), (2, 2, 16, 288), (2, 3, 64, 1792)]

    @pytest.mark.parametrize("r, k, w, want", FROZEN)
    def test_frozen_sizes(self, r, k, w, want):
        b = CircuitBuilder()
        xs = [b.add_input() for _ in range(w)]
        augmented_and_prefix(b, xs, r, k, omit_last_block=False)
        assert len(b) - w == want
        assert want == w * r * (k - 1) + w * k * (1 << (r + 1))

    @pytest.mark.parametrize("r, k, w", [(1, 2, 4), (2, 2, 16), (3, 2, 64)])
    def test_tap_pools_and_leaf_depths(self, r, k, w):
        b = CircuitBuilder()
        xs = [b.add_input() for _ in range(w)]
        taps = augmented_and_prefix(b, xs, r, k)
        assert set(taps) == {(c, lam) for c in range(1, w + 1)
                             for lam in range(k)}
        # each pool holds 2**r single-use leaves; leaf depths are pinned
        # indirectly by the exact whole-adder depth tests below
        for pool in taps.values():
            for _ in range(1 << r):
                pool.take()
            with pytest.raises(ValueError):
                pool.take()

    def test_inputs_stay_within_fanout_two(self):
        b = CircuitBuilder()
        xs = [b.add_input() for _ in range(8)]
        augmented_and_prefix(b, xs, 2, 2)
        counts = b.build().consumer_counts()
        for x in xs:
            assert counts[x] <= 2


# (n, r, k, pruned_size, unpruned_size, depth); depth is exact whenever
# n == 2**(r*k), an upper bound otherwise
FROZEN_ADDERS = [
    (2, 1, 1, 8, 13, 5),
    (4, 1, 2, 34, 56, 7),
    (8, 1, 3, 114, 178, 9),
    (8, 2, 2, 163, 260, 10),
    (8, 3, 1, 209, 301, 11),
    (16, 2, 2, 451, 604, 11),
    (64, 2, 3, 3099, 3920, 14),
]

# sha256 of dumps_netlist(raw_mig_adder(n, r, k)): the raw structure
# the closed size formulas describe, pinned node for node;
# r = k = None takes the balanced default
RAW_PINS = [
    (8, 1, 3,
     "9461eb225db8f38c20d3a2796a9d0bf02810c1a5c02dd71f6d6e43ec69e61e0f"),
    (16, 2, 2,
     "252f0c6dbed8c24ed688aef945a07513caa8e11ce9f3f18f2b14b57bcec2a0c7"),
    (64, 2, 3,
     "f5837c2ced831f20d98335f4f685e5173282e095cb03cdf0e26298893c3bbee5"),
    (60, 3, 2,
     "ca39e0dc4f1d02d315f45e83b9327d760245dafd1ae23dd78b215c8b34ffa193"),
    (37, 1, 6,
     "8fb352702b56b3d188849610d97359e25e2d5d58eb202462d349a09e0e426a0a"),
    (100, None, None,
     "a2dd61a1d8eb0c7d7fb35feca97c241770a532bcf43aea6ca36d1679e2d21135"),
    (1024, None, None,
     "9f316b6182da00068b3dd57f4458438556501c3f066439efb88343984afb6ff8"),
]


def _lean_grid():
    """Every (r, k) with r*k <= 6 at widths 1, 2, 3, 2**(rk) - 1 and
    2**(rk), plus the balanced default at 1..40, 100, 257 and 1000."""
    grid = []
    for r in range(1, 7):
        for k in range(1, 6 // r + 1):
            full = 1 << (r * k)
            grid += [(n, r, k) for n in sorted({1, 2, 3, full - 1, full})
                     if n <= full]
    return grid + [(n, None, None) for n in [*range(1, 41), 100, 257, 1000]]


class TestMigAdder:
    @pytest.mark.parametrize("n, r, k", _lean_grid())
    def test_lean_build_is_the_pruned_raw_structure(self, n, r, k):
        lean = build_mig_adder(n, r, k)
        pruned = prune_dead(raw_mig_adder(n, r, k))
        assert lean._codes == pruned._codes
        assert lean._f0 == pruned._f0
        assert lean._f1 == pruned._f1
        assert lean.input_ids == pruned.input_ids
        assert lean.output_ids == pruned.output_ids
        assert validate(lean) == []

    @pytest.mark.parametrize("n, r, k, psize, usize, depth", FROZEN_ADDERS)
    def test_frozen_structure(self, n, r, k, psize, usize, depth):
        pruned = build_mig_adder(n, r, k)
        raw = raw_mig_adder(n, r, k)
        m = metrics(pruned)
        assert not validate(pruned)
        assert (m.size, raw.num_gates) == (psize, usize)
        assert m.max_fanout == 2
        full = n == 1 << (r * k)
        if full:
            assert m.depth == depth == k * r + 2 * r + k + 1
        else:
            assert m.depth <= depth

    @pytest.mark.parametrize(
        "n, r, k",
        [(1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 1, 2), (6, 1, 3), (8, 1, 3),
         (5, 2, 2), (7, 2, 2), (8, 2, 2), (9, 2, 2), (8, 3, 1)],
    )
    def test_exhaustive_correctness(self, n, r, k):
        c = build_mig_adder(n, r, k)
        report = verify_adder(c, n, mode="exhaustive")
        assert report.ok, report.summary()

    @pytest.mark.parametrize("n, r, k", [(16, 2, 2), (64, 2, 3), (27, 3, 2)])
    def test_random_correctness(self, n, r, k):
        c = build_mig_adder(n, r, k)
        report = verify_adder(c, n, mode="random", samples=20000, seed=7)
        assert report.ok, report.summary()

    def test_default_parameters_verify(self):
        c = build_mig_adder(10)
        assert verify_adder(c, 10, mode="exhaustive").ok

    @pytest.mark.parametrize("n", [5, 6, 7, 9, 10, 11, 13, 15])
    def test_truncated_widths_stay_within_depth_bound(self, n):
        c = build_mig_adder(n, 2, 2)
        assert metrics(c).depth <= 2 * 2 + 2 * 2 + 2 + 1

    @pytest.mark.parametrize("n, r, k, sha", RAW_PINS)
    def test_raw_structure_pinned(self, n, r, k, sha):
        text = dumps_netlist(raw_mig_adder(n, r, k))
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    @pytest.mark.parametrize("n, r, k", [(3, 26, 2), (5, 8, 4)])
    def test_window_padding_bounded_by_width(self, n, r, k):
        # liveness rows are padded to the window width, not to the
        # doubling distance 2**(r*(k-1)-1), which is 32 MiB at r = 26
        tracemalloc.start()
        try:
            build_mig_adder(n, r, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_bound_formula_unpruned(self):
        for n, r, k in [(16, 2, 2), (64, 2, 3), (64, 3, 2), (8, 1, 3)]:
            raw = raw_mig_adder(n, r, k)
            bound = (3 * n * k * (r + 2) * (1 << (r - 1)) + n * (1 << r)
                     + n * r * k)
            assert raw.num_gates < bound

    def test_lowest_propagate_input_kept_alive(self):
        # x_1 is structurally redundant; the absorbing output form must
        # leave it exactly one consumer so the circuit validates
        c = build_mig_adder(16, 2, 2)
        assert c.consumer_counts()[c.input_ids[0]] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_mig_adder(17, 2, 2)  # exceeds 2**(r*k)
        with pytest.raises(ValueError):
            build_mig_adder(4, 0, 2)
        with pytest.raises(ValueError):
            build_mig_adder(0, 1, 1)
        with pytest.raises(ValueError):
            build_mig_adder(8, 2, None)

    def test_outputs_in_position_order(self):
        # output i must be the carry out of positions 1..i+1
        n = 6
        c = build_mig_adder(n, 2, 2)
        a, bval = 45, 27
        pairs = gp_prepare(int_to_bits(a, n), int_to_bits(bval, n))
        assign = {}
        for i, (x, y) in enumerate(pairs):
            assign[c.input_ids[2 * i]] = x
            assign[c.input_ids[2 * i + 1]] = y
        got = simulate(c, assign)
        assert [got[o] for o in c.output_ids] == ripple_carries(pairs)
