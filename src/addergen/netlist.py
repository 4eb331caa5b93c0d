"""Line-oriented netlist files and DOT export.

A netlist file is one JSON header line followed by one line per circuit
node in id order and one line per output marker in marking order:

    {"format": "addergen-netlist", "version": 1, ...}
    0 input
    1 input
    2 and 0 1
    output 2

The header carries the generating AdderSpec (when known), the
full-adder flag, and derived input/output name lists; the node records
carry the circuit itself.  Serialization is a pure function of
(circuit, spec, full_adder), so loading a file and saving it again
reproduces it byte for byte.
"""

from __future__ import annotations

import json
from array import array
from itertools import count, islice
from typing import NamedTuple

from .circuit import Circuit, GATE_ARITY, KIND_CODES, KIND_NAMES, validate
from .families import AdderSpec

FORMAT_NAME = "addergen-netlist"
FORMAT_VERSION = 1
# node lines per block of written text
_BLOCK = 1 << 16


class NetlistFile(NamedTuple):
    """Parsed netlist: format version, provenance, and the circuit."""

    version: int
    spec: AdderSpec | None
    full_adder: bool
    circuit: Circuit


def _interface_names(c: Circuit, full_adder: bool):
    """Positional input/output names implied by the adder conventions."""
    n_in = len(c.input_ids)
    n_out = len(c.output_ids)
    if full_adder and n_in % 2 == 0 and n_out == n_in // 2 + 1:
        n = n_in // 2
        inputs = [f"{'ab'[i % 2]}{i // 2 + 1}" for i in range(n_in)]
        outputs = [f"s{i}" for i in range(1, n + 2)]
    elif not full_adder and n_in % 2 == 0 and n_out == n_in // 2:
        inputs = [f"{'xy'[i % 2]}{i // 2 + 1}" for i in range(n_in)]
        outputs = [f"c{i}" for i in range(2, n_out + 2)]
    else:
        inputs = [f"in{i}" for i in range(n_in)]
        outputs = [f"out{i}" for i in range(n_out)]
    return inputs, outputs


def _header_line(c: Circuit, spec: AdderSpec | None, full_adder: bool) -> str:
    """The JSON header line, without its newline, that a save writes."""
    inputs, outputs = _interface_names(c, full_adder)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": c.name,
        "spec": None if spec is None else dict(spec._asdict()),
        "full_adder": bool(full_adder),
        "inputs": inputs,
        "outputs": outputs,
    }
    return json.dumps(header, separators=(",", ":"))


def _netlist_blocks(c: Circuit, spec: AdderSpec | None, full_adder: bool):
    """Netlist text in pieces: the header line, node lines joined _BLOCK
    at a time, then the output records, so no caller holds one str per
    node."""
    yield _header_line(c, spec, full_adder) + "\n"
    rows = zip(count(), c._codes, c._f0, c._f1)
    while block := [f"{nid} {KIND_NAMES[k]}\n" if a < 0
                    else f"{nid} {KIND_NAMES[k]} {a}\n" if b < 0
                    else f"{nid} {KIND_NAMES[k]} {a} {b}\n"
                    for nid, k, a, b in islice(rows, _BLOCK)]:
        yield "".join(block)
    yield "".join(f"output {oid}\n" for oid in c.output_ids)


def dumps_netlist(c: Circuit, spec: AdderSpec | None = None,
                  full_adder: bool = False) -> str:
    """Serialize a circuit (plus provenance) to netlist text."""
    return "".join(_netlist_blocks(c, spec, full_adder))


def loads_netlist(text: str) -> NetlistFile:
    """Parse netlist text; raises ValueError on any malformation.

    The text must be exactly what a save of the parsed circuit writes:
    canonical ASCII decimal ids, single spaces between tokens, "\\n" line
    ends including a final one, and the compact header that the circuit,
    spec and full-adder flag imply.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines:
        raise ValueError("empty netlist")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ValueError(f"bad netlist header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ValueError("not an addergen netlist")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported netlist version {version!r}")
    spec = None
    raw_spec = header.get("spec")
    if raw_spec is not None:
        try:
            spec = AdderSpec(**raw_spec)
        except TypeError as e:
            raise ValueError(f"bad spec in header: {e}") from None
        if not isinstance(spec.family, str) or not isinstance(spec.n, int):
            raise ValueError("bad spec in header: family/n types")
    codes, f0, f1 = array("b"), array("i"), array("i")
    inputs, outputs = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            raise ValueError(f"line {ln}: blank line")
        parts = line.split(" ")
        if parts[0] == "output":
            if len(parts) != 2:
                raise ValueError(f"line {ln}: malformed output record")
            outputs.append(parts[1])
            continue
        if outputs:
            raise ValueError(f"line {ln}: node record after output records")
        nid = len(codes)
        if parts[0] != str(nid):
            got = parts[0]
            if got.isascii() and got.isdigit() and str(int(got)) == got:
                raise ValueError(f"line {ln}: node id {got} out of sequence")
            raise ValueError(f"line {ln}: bad node id {got!r}")
        kind = parts[1] if len(parts) > 1 else ""
        code = KIND_CODES.get(kind)
        if code == 0:
            if len(parts) != 2:
                raise ValueError(f"line {ln}: input with fanins")
            inputs.append(nid)
            a = b = -1
        else:
            if code is None:
                raise ValueError(f"line {ln}: unknown gate kind {kind!r}")
            want = GATE_ARITY[kind]
            if len(parts) != want + 2:
                raise ValueError(f"line {ln}: {kind} expects {want} fanins, "
                                 f"got {len(parts) - 2}")
            try:
                a = int(parts[2])
                b = int(parts[3]) if want == 2 else -1
                if str(a) != parts[2] or want == 2 and str(b) != parts[3]:
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {ln}: bad fanin id") from None
            if not (0 <= a < nid and (want == 1 or 0 <= b < nid)):
                bad = a if not 0 <= a < nid else b
                raise ValueError(f"line {ln}: fanin {bad} not an earlier node")
        codes.append(code)
        f0.append(a)
        f1.append(b)
    output_ids = []
    for oid in outputs:
        nid = int(oid) if oid.isascii() and oid.isdigit() else -1
        if str(nid) != oid or not 0 <= nid < len(codes):
            raise ValueError(f"bad output id {oid!r}")
        output_ids.append(nid)
    c = Circuit(str(header.get("name", "")), codes, f0, f1, tuple(inputs),
                tuple(output_ids))
    violations = validate(c)
    if violations:
        raise ValueError(f"invalid circuit in netlist: {violations[0]}")
    full_adder = bool(header.get("full_adder", False))
    names = header.get("inputs"), header.get("outputs")
    if names != _interface_names(c, full_adder):
        raise ValueError("header inputs/outputs do not match the circuit")
    if lines[0] != _header_line(c, spec, full_adder):
        raise ValueError("header is not the one this circuit saves with")
    if not text.endswith("\n"):
        raise ValueError("netlist does not end with a newline")
    return NetlistFile(version, spec, full_adder, c)


def save_netlist(c: Circuit, path, spec: AdderSpec | None = None,
                 full_adder: bool = False) -> None:
    """Write a circuit to a netlist file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_netlist_blocks(c, spec, full_adder))


def load_netlist(path) -> NetlistFile:
    """Read and parse a netlist file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return loads_netlist(fh.read())


def circuit_to_dot(c: Circuit, graph_name: str | None = None) -> str:
    """Render a circuit as deterministic DOT text.

    One graph node per circuit node labeled kind:id (inputs boxed,
    outputs double-bordered) and one edge per fanin, both in id order.
    Circuits without gates are rejected.
    """
    if c.num_gates == 0:
        raise ValueError("circuit has no gates to export")
    name = graph_name if graph_name is not None else (c.name or "circuit")
    safe = name.replace("\\", "\\\\").replace('"', '\\"')
    out_set = set(c.output_ids)
    lines = [f'digraph "{safe}" {{', "  rankdir=LR;"]
    for nid in range(len(c)):
        attrs = [f'label="{c.kind(nid)}:{nid}"']
        if c.is_input(nid):
            attrs.append("shape=box")
        if nid in out_set:
            attrs.append("peripheries=2")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    for nid in range(len(c)):
        for f in c.fanins(nid):
            lines.append(f"  n{f} -> n{nid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
