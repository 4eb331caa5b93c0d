"""Outside-in spans around the public functions of each addergen module.

A Tracer replaces every public module-level function of the layer modules
with a timing wrapper, in every addergen module namespace that refers to
it, so calls between modules go through the wrapper too.  Leaving the
``with`` block puts every original back.  A span's self time is its
duration minus the time of the wrapped calls it made directly.

What the wrapping cannot see: methods (CircuitBuilder.add_gate and the
rest) and private helpers are not wrapped, so their time lands in the
nearest wrapped caller.  In particular linear's and nandnor's mig core
runs through the private mig._mig_carries, so it lands in
reduction.apply_reduction, and the sampling loop of full-adder
verification (families._run_full_phase) lands in
families.verify_full_adder.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

PACKAGE = "addergen"
LAYERS = ("circuit", "semantics", "prefix", "mig", "reduction", "techmap",
          "families", "netlist", "cli")

BLIND_SPOTS = (
    "CircuitBuilder methods and private helpers are not wrapped; their time "
    "is self time of the nearest wrapped caller",
    "linear and nandnor build their mig core through the private "
    "mig._mig_carries; that time is in reduction.apply_reduction.self_s",
    "full-adder sampling runs in the private families._run_full_phase; its "
    "loop is in families.verify_full_adder.self_s",
)


def _count_prune(counts, args, result):
    counts["prune_in"] += len(args[0])
    counts["prune_out"] += len(result)


def _count_dumps(counts, args, result):
    counts["dumps_bytes"] += len(result)


def _count_loads(counts, args, result):
    counts["loads_nodes"] += len(result.circuit)


def _count_simulate(counts, args, result):
    counts["gate_evals"] += len(args[0]) * args[2]


# per-span counters, measured where the work happens
COUNTERS = {
    "circuit.prune_dead": _count_prune,
    "netlist.dumps_netlist": _count_dumps,
    "netlist.loads_netlist": _count_loads,
    "semantics.simulate_packed": _count_simulate,
}


class Tracer:
    """Context manager that records per-function calls and times."""

    def __init__(self):
        self.spans = {}  # "module.func" -> [calls, total_s, self_s]
        self.counts = {"prune_in": 0, "prune_out": 0, "dumps_bytes": 0,
                       "loads_nodes": 0, "gate_evals": 0}
        self._stack = []  # time spent in wrapped children, per open span
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, counts, counter = self._stack, self.counts, COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
            if counter is not None:
                counter(counts, args, return_value)
            return return_value

        return span

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType)
                        and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def self_s(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]
