"""Transient memory of verification and of netlist text, under tracemalloc.

Verification keeps one chunk of packed words alive at a time, so its peak
does not grow with the sample count; netlist text is produced in blocks of
node lines, so writing it holds at most one block of per-line strings.
"""

import hashlib
import json
import tracemalloc
from array import array

import pytest

from addergen import netlist
from addergen.circuit import Circuit, KIND_CODES
from addergen.families import AdderSpec, build_adder
from addergen.netlist import (
    FORMAT_NAME, FORMAT_VERSION, _interface_names, dumps_netlist,
    save_netlist,
)
from addergen.semantics import CHUNK_BITS, verify_adder
from tests.test_golden import GOLDEN, digest


def traced_peak(fn):
    """(peak bytes allocated while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_verify_peak_does_not_grow_with_samples():
    c = build_adder(AdderSpec("ripple", 256))

    def peak(samples):
        rep = traced_peak(lambda: verify_adder(c, 256, mode="random",
                                               samples=samples))
        assert rep[1].ok and rep[1].patterns == samples
        return rep[0]

    assert peak(3 * CHUNK_BITS) <= 1.1 * peak(CHUNK_BITS)


def test_dumps_peak_is_text_plus_blocks(monkeypatch):
    monkeypatch.setattr(netlist, "_BLOCK", 1000)
    c = build_adder(AdderSpec("kogge-stone", 1024))
    assert len(c) > 20 * netlist._BLOCK
    peak, text = traced_peak(lambda: dumps_netlist(c))
    assert peak <= 2.5 * len(text)


def chain_circuit(size):
    """A circuit of exactly `size` nodes: one input, then alternating
    not/and gates over the previous node; the last node is the output."""
    codes = array("b", [KIND_CODES["input"]] * min(size, 1))
    f0, f1 = array("i", [-1] * len(codes)), array("i", [-1] * len(codes))
    for nid in range(1, size):
        codes.append(KIND_CODES["not" if nid % 2 else "and"])
        f0.append(nid - 1)
        f1.append(-1 if nid % 2 else 0)
    return Circuit(f"chain{size}", codes, f0, f1, (0,) * min(size, 1),
                   (size - 1,) if size > 1 else ())


def reference_text(c, node_lines):
    """The netlist text of c with no spec, one line at a time, given the
    node lines of a circuit that c is a prefix of."""
    inputs, outputs = _interface_names(c, False)
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
              "name": c.name, "spec": None, "full_adder": False,
              "inputs": inputs, "outputs": outputs}
    lines = [json.dumps(header, separators=(",", ":"))]
    lines += node_lines[:len(c)]
    lines += [f"output {oid}" for oid in c.output_ids]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("block", [1, 2, 3, 7, netlist._BLOCK])
def test_text_is_the_same_at_every_block_size(monkeypatch, tmp_path, block):
    monkeypatch.setattr(netlist, "_BLOCK", block)
    path = tmp_path / "c.nl"
    longest = chain_circuit(block + 1)
    node_lines = [" ".join([str(nid), longest.kind(nid),
                            *map(str, longest.fanins(nid))])
                  for nid in range(len(longest))]
    for size in (block - 1, block, block + 1):
        c = chain_circuit(size)
        assert len(c) == size
        text = dumps_netlist(c)
        assert text == reference_text(c, node_lines)
        save_netlist(c, path)
        assert path.read_bytes() == text.encode()
    for key in ("kogge-stone/16/carry", "mig/16/carry"):
        assert digest(key) == GOLDEN[key]
        family, n, _ = key.split("/")
        spec = AdderSpec(family, int(n))
        save_netlist(build_adder(spec), path, spec=spec)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[key]
