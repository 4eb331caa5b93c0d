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
from itertools import count
from typing import NamedTuple

from .circuit import Circuit, GATE_ARITY, KIND_CODES, KIND_NAMES, validate
from .families import AdderSpec

FORMAT_NAME = "addergen-netlist"
FORMAT_VERSION = 1


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


def dumps_netlist(c: Circuit, spec: AdderSpec | None = None,
                  full_adder: bool = False) -> str:
    """Serialize a circuit (plus provenance) to netlist text."""
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
    lines = [json.dumps(header, separators=(",", ":"))]
    lines += [f"{nid} {KIND_NAMES[k]}" if a < 0
              else f"{nid} {KIND_NAMES[k]} {a}" if b < 0
              else f"{nid} {KIND_NAMES[k]} {a} {b}"
              for nid, k, a, b in zip(count(), c._codes, c._f0, c._f1)]
    lines += [f"output {oid}" for oid in c.output_ids]
    return "\n".join(lines) + "\n"


def loads_netlist(text: str) -> NetlistFile:
    """Parse netlist text; raises ValueError on any malformation."""
    lines = text.splitlines()
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
        parts = line.split()
        if not parts:
            raise ValueError(f"line {ln}: blank line")
        if parts[0] == "output":
            if len(parts) != 2:
                raise ValueError(f"line {ln}: malformed output record")
            outputs.append(parts[1])
            continue
        if outputs:
            raise ValueError(f"line {ln}: node record after output records")
        try:
            nid = int(parts[0])
        except ValueError:
            raise ValueError(f"line {ln}: bad node id {parts[0]!r}") from None
        if nid != len(codes):
            raise ValueError(f"line {ln}: node id {nid} out of sequence")
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
        try:
            output_ids.append(int(oid))
        except ValueError:
            raise ValueError(f"bad output id {oid!r}") from None
        if not 0 <= output_ids[-1] < len(codes):
            raise ValueError(f"bad output id {oid!r}")
    c = Circuit(str(header.get("name", "")), codes, f0, f1, tuple(inputs),
                tuple(output_ids))
    violations = validate(c)
    if violations:
        raise ValueError(f"invalid circuit in netlist: {violations[0]}")
    return NetlistFile(version, spec, bool(header.get("full_adder", False)), c)


def save_netlist(c: Circuit, path, spec: AdderSpec | None = None,
                 full_adder: bool = False) -> None:
    """Write a circuit to a netlist file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_netlist(c, spec, full_adder))


def load_netlist(path) -> NetlistFile:
    """Read and parse a netlist file."""
    with open(path, "r", encoding="utf-8") as fh:
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
