"""Transient memory of verification and of netlist text, under tracemalloc.

Verification keeps one chunk of packed words alive at a time, so its peak
does not grow with the sample count; netlist and DOT text are produced in
blocks of node lines, so writing them holds at most one block of per-line
strings, and netlist text is parsed a chunk at a time, so reading it holds
one chunk's lines.
"""

import hashlib
import json
import tracemalloc
from array import array

import pytest

from addergen import netlist
from addergen.circuit import AND, INPUT, KIND_NAMES, NOT, Circuit
from addergen.families import AdderSpec, build_adder, build_full_adder
from addergen.netlist import (
    FORMAT_NAME, FORMAT_VERSION, _interface_names, circuit_to_dot,
    dumps_netlist, save_netlist,
)
from addergen.semantics import CHUNK_BITS, verify_adder, verify_full_adder
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


def test_sampled_full_adder_peak_is_a_few_input_chunks():
    # the oracle folds one sum word at a time against the simulated words,
    # so one chunk holds its input words, the circuit's live words and the
    # output words, and no x, y, carry or sum list beside them
    n = 256
    c = build_full_adder(AdderSpec("linear", n))
    peak, rep = traced_peak(lambda: verify_full_adder(
        c, n, mode="random", samples=CHUNK_BITS))
    assert rep.ok and rep.patterns == CHUNK_BITS
    assert peak <= 3 * (2 * n * CHUNK_BITS // 8)


def test_dumps_peak_is_text_plus_blocks(monkeypatch):
    monkeypatch.setattr(netlist, "_BLOCK", 1000)
    c = build_adder(AdderSpec("kogge-stone", 1024))
    assert len(c) > 20 * netlist._BLOCK
    peak, text = traced_peak(lambda: dumps_netlist(c))
    assert peak <= 2.5 * len(text)


def test_dot_peak_is_text_plus_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(netlist, "_BLOCK", 1000)
    c = build_adder(AdderSpec("kogge-stone", 1024))
    assert len(c) > 20 * netlist._BLOCK
    peak, text = traced_peak(lambda: circuit_to_dot(c))
    assert peak <= 2.5 * len(text)

    def write():
        path = tmp_path / "c.dot"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(netlist._dot_blocks(c))
        return path

    peak, path = traced_peak(write)
    assert path.read_text(encoding="utf-8") == text
    assert peak <= 0.25 * len(text)


# sha256 of DOT text written before it was produced in blocks
DOT_GOLDEN = {
    ("kogge-stone", 16, False):
        "6a76aff4f72d9925b7b1046d5da01d6870d1287c195f03281758eea5c6d03521",
    ("mig", 16, False):
        "5dfb2372f0e1444ab0da40582a095a4c51c51b4c5fe5a2bfb7900d3da4347c0c",
    ("ripple", 5, True):
        "fd2e0ef5ec68da5d00f960cbd2b1443ce861ad5ae9e02d82cc2c9f8fdd36fb50",
}


@pytest.mark.parametrize("block", [1, 2, 3, 7, netlist._BLOCK])
def test_dot_is_the_same_at_every_block_size(monkeypatch, block):
    monkeypatch.setattr(netlist, "_BLOCK", block)
    for (family, n, full), want in DOT_GOLDEN.items():
        spec = AdderSpec(family, n)
        c = build_full_adder(spec) if full else build_adder(spec)
        text = circuit_to_dot(c)
        assert hashlib.sha256(text.encode()).hexdigest() == want


def chain_circuit(size):
    """A circuit of exactly `size` nodes: one input, then alternating
    not/and gates over the previous node; the last node is the output."""
    codes = array("b", [INPUT] * min(size, 1))
    f0, f1 = array("i", [-1] * len(codes)), array("i", [-1] * len(codes))
    for nid in range(1, size):
        codes.append(NOT if nid % 2 else AND)
        f0.append(nid - 1)
        f1.append(-1 if nid % 2 else 0)
    return Circuit(f"chain{size}", codes, f0, f1,
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
    node_lines = [" ".join([str(nid), KIND_NAMES[longest.kind(nid)],
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


@pytest.mark.parametrize("family,n", [("kogge-stone", 1024), ("mig", 256)])
def test_parse_peak_is_a_few_text_lengths(monkeypatch, tmp_path, family, n):
    # both entry points read the text _CHUNK characters at a time, so
    # neither holds one str per line nor, reading a file, the whole text
    monkeypatch.setattr(netlist, "_CHUNK", 4096)
    spec = AdderSpec(family, n)
    text = dumps_netlist(build_adder(spec), spec)
    path = tmp_path / "c.nl"
    path.write_bytes(text.encode())
    for parse, arg in ((netlist.loads_netlist, text),
                       (netlist.load_netlist, path)):
        peak, nf = traced_peak(lambda: parse(arg))
        assert nf.spec == spec
        assert peak <= 3 * len(text)
