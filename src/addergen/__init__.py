"""addergen: generate, verify, and measure gate-level binary adder circuits.

The package builds carry circuits over propagate/generate input pairs in
several families — serial, fan-out-heavy and fan-out-two parallel prefix
trees, a multi-input carry construction with square-root-logarithmic
structure, a linear-size fan-out-two composition, and a NAND/NOR/NOT
technology-mapped variant — plus tooling to validate them structurally,
verify them against bit-level semantics, and compare their measurements.
"""

from .circuit import (
    AND, BUF, INPUT, KIND_NAMES, NAND, NOR, NOT, OR, XOR,
    Circuit, CircuitBuilder, CircuitError, Metrics, Violation,
    metrics, node_depths, prune_dead, validate,
)
from .semantics import (
    VerifyReport, prove_adder, simulate, simulate_packed, verify_adder,
)
from .prefix import (
    PrefixGraph, brent_kung, expand_to_logic, kogge_stone, serial_prefix,
    sklansky,
)
from .mig import build_mig_adder, choose_params
from .reduction import apply_reduction, build_linear_adder
from .techmap import build_nandnor_adder, demorgan_map, levelize
from .families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder, prove_full_adder,
    verify_full_adder,
)
from .netlist import circuit_to_dot, load_netlist, save_netlist

__version__ = "0.1.0"

__all__ = [
    "AND", "BUF", "INPUT", "KIND_NAMES", "NAND", "NOR", "NOT", "OR", "XOR",
    "Circuit", "CircuitBuilder", "CircuitError", "Metrics", "Violation",
    "metrics", "node_depths", "prune_dead", "validate", "VerifyReport",
    "prove_adder", "simulate", "simulate_packed", "verify_adder",
    "PrefixGraph", "brent_kung", "expand_to_logic", "kogge_stone",
    "serial_prefix", "sklansky",
    "build_mig_adder", "choose_params",
    "apply_reduction", "build_linear_adder",
    "build_nandnor_adder", "demorgan_map", "levelize",
    "FAMILIES", "AdderSpec", "build_adder", "build_full_adder",
    "prove_full_adder", "verify_full_adder",
    "circuit_to_dot", "load_netlist", "save_netlist",
]
