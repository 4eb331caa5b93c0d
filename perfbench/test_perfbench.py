"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
from tracing import Tracer  # noqa: E402


def _program():
    return harness.import_program()


def _kogge_stone_top_carry_mutant(text, n):
    """Rewire c_{n+1} = G_hi | (X_hi & G_lo) to G_hi | (X_hi & G_hi).

    The result is c_{n+1} = G_hi (the upper half's generate alone).  Every
    node keeps a consumer, so the netlist still loads and validates, and
    uniform random patterns almost never exercise the dropped term.
    """
    lines = text.split("\n")
    outputs = [int(ln.split()[1]) for ln in lines if ln.startswith("output ")]
    node = lambda i: lines[i + 1].split()  # noqa: E731 (line 0 is the header)
    top, kind, p, q = node(outputs[-1])
    assert kind == "or"
    g_hi, term = (p, q) if node(int(q))[1] == "and" else (q, p)
    t_id, t_kind, x_hi, g_lo = node(int(term))
    assert t_kind == "and" and int(g_lo) == outputs[n // 2 - 1]
    assert int(g_hi) < int(t_id)
    lines[int(term) + 1] = f"{t_id} and {x_hi} {g_hi}"
    return "\n".join(lines)


def _failed_ops(prog, ops, seed=7):
    run = harness.Run(prog, ops)
    run.run_rounds(1)
    run.check(seed)
    return run


def test_kogge_stone_top_carry_mutant_counts_as_failed_op():
    prog = _program()
    n = 4096
    mutant = _kogge_stone_top_carry_mutant(
        harness.build_text(prog, "kogge-stone", n, False), n)
    nf = prog.netlist.loads_netlist(mutant)
    # the program's own random verification is blind to the mutant
    assert prog.cli.verify_adder(nf.circuit, n).ok
    run = _failed_ops(prog, [harness.Op("verify", "kogge-stone", n, False,
                                        0xC0FFEE, mutant)])
    assert run.failed == {(0, 0)}
    assert "differ from integer addition" in run.reasons[0]


def test_truncated_netlist_counts_as_failed_op():
    prog = _program()
    text = harness.build_text(prog, "linear", 64, False)
    ops = [harness.Op("verify", "linear", 64, False, 1, text[:len(text) // 2]),
           harness.Op("verify", "linear", 64, False, 1, text)]
    run = _failed_ops(prog, ops)
    assert run.failed == {(0, 0)}
    assert run.attempted == 2


def test_small_ops_of_every_action_pass():
    prog = _program()
    ops = [harness.Op("gen", "mig", 37), harness.Op("gen", "nandnor", 8, True),
           harness.Op("compare", "brent-kung", 5, True, 3),
           harness.Op("verify", "sklansky", 13, True, 4,
                      harness.build_text(prog, "sklansky", 13, True))]
    run = _failed_ops(prog, ops)
    assert run.failed == set(), run.reasons
    assert set(run.op_gates) == {0, 1, 2, 3}


def test_harrell_davis_quantiles():
    xs = list(range(1, 102))
    assert abs(harness.harrell_davis(xs, 0.5) - 51) < 1e-9
    assert abs(harness.harrell_davis(xs[::-1], 0.9) - 91) < 0.5
    assert harness.harrell_davis([3.0], 0.9) == 3.0
    assert harness.tail_quantile(47) == 37 / 47
    assert harness.tail_quantile(5) == 1.0
    assert harness.harrell_davis([1, 2, 7], 1.0) == 7


def _module_attrs():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "addergen" or name.startswith("addergen.")
            for attr, value in vars(mod).items()}


def test_trace_restores_every_wrapped_attribute():
    prog = _program()
    before = _module_attrs()
    try:
        with Tracer() as tr:
            assert prog.families.build_adder is not before[
                ("addergen.families", "build_adder")]
            harness.run_op(prog, harness.Op("gen", "linear", 16))
            raise RuntimeError("leave the block by an exception")
    except RuntimeError:
        pass
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.calls("families.build_adder") == 1
    assert tr.calls("reduction.apply_reduction") == 1
    assert tr.self_s("netlist.dumps_netlist") > 0
