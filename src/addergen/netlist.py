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
from functools import partial
from itertools import count, islice
from typing import NamedTuple

from .circuit import INPUT, KIND_ARITY, KIND_NAMES, Circuit, CircuitError
from .circuit import _check_kinds
from .families import AdderSpec, _spec_type_problem

FORMAT_NAME = "addergen-netlist"
FORMAT_VERSION = 1
# node lines per block of written text
_BLOCK = 1 << 16
# characters per piece of parsed text
_CHUNK = 1 << 16
_CODES = {name: code for code, name in enumerate(KIND_NAMES)}
# kind codes by name for each fanin count, for the parse loop's fast paths
_BY_FANINS = [{name: code for name, code in _CODES.items()
               if KIND_ARITY[code] == k} for k in range(3)]


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


def _header_line(c: Circuit, spec: AdderSpec | None, full_adder: bool,
                 names=None) -> str:
    """The JSON header line, without its newline, that a save writes."""
    inputs, outputs = names or _interface_names(c, full_adder)
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
    _check_kinds(c)
    return "".join(_netlist_blocks(c, spec, full_adder))


class _Lines:
    """The lines of a text that arrives in pieces, as text.split("\\n")
    lists them without a final empty one.  A line that spans pieces is
    joined once from its parts; once every line is read, `ended` tells
    whether the last one had its "\\n"."""

    def __init__(self, pieces):
        self._pieces = pieces
        self.ended = False

    def __iter__(self):
        held = []  # parts of the line that the pieces so far leave open
        for piece in self._pieces:
            lines = piece.split("\n")
            if len(lines) == 1:
                held.append(piece)
                continue
            held.append(lines[0])
            lines[0] = "".join(held)
            held = [lines.pop()]
            yield from lines
        tail = "".join(held)
        self.ended = not tail
        if tail:
            yield tail


def loads_netlist(text: str) -> NetlistFile:
    """Parse netlist text; raises ValueError on any malformation.

    The text must be exactly what a save of the parsed circuit writes:
    canonical ASCII decimal ids, single spaces between tokens, "\\n" line
    ends including a final one, and the compact header that the circuit,
    spec and full-adder flag imply.
    """
    return _parse(text[i:i + _CHUNK] for i in range(0, len(text), _CHUNK))


def _parse(pieces) -> NetlistFile:
    """The one parse body of loads_netlist and load_netlist: it reads the
    lines of the text that pieces make up in order, and holds none it has
    passed."""
    lines = _Lines(pieces)
    rows = iter(lines)
    first = next(rows, None)
    if first is None:
        raise ValueError("empty netlist")
    try:
        header = json.loads(first)
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, or an int past int()'s limit of 4300 digits
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
        problem = _spec_type_problem(spec)
        if problem:
            raise ValueError(f"bad spec in header: {problem}")
    codes, f0, f1 = array("b"), array("i"), array("i")
    add_code, add_a, add_b = codes.append, f0.append, f1.append
    _, one, two = _BY_FANINS
    outputs = []
    for nid, line in enumerate(rows):  # node records, by line shape
        parts = line.split(" ")
        try:
            if (width := len(parts)) == 4:
                i, kind, x, y = parts
                code = two.get(kind)
                a, b = int(x), int(y)
                if (code is not None and i == str(nid) and str(a) == x
                        and str(b) == y and 0 <= a < nid and 0 <= b < nid):
                    add_code(code)
                    add_a(a)
                    add_b(b)
                    continue
            elif width == 3:
                i, kind, x = parts
                code = one.get(kind)
                a = int(x)
                if (code is not None and i == str(nid) and str(a) == x
                        and 0 <= a < nid):
                    add_code(code)
                    add_a(a)
                    add_b(-1)
                    continue
            elif line == f"{nid} input":
                add_code(INPUT)
                add_a(-1)
                add_b(-1)
                continue
            elif width == 2 and parts[0] == "output":
                outputs.append(parts[1])
                break
        except ValueError:  # a fanin that int() does not read
            pass
        _fault(nid + 2, line, nid, False)
    nid = len(codes)
    for line in rows:  # output records after the first
        parts = line.split(" ")
        if len(parts) != 2 or parts[0] != "output":
            _fault(nid + len(outputs) + 2, line, nid, True)
        outputs.append(parts[1])
    output_ids = []
    digits = len(str(len(codes)))  # an id of more digits names no node
    for oid in outputs:
        nid = (int(oid) if oid.isascii() and oid.isdigit()
               and len(oid) <= digits else -1)
        if str(nid) != oid or not 0 <= nid < len(codes):
            raise ValueError(f"bad output id {oid!r}")
        output_ids.append(nid)
    c = Circuit(str(header.get("name", "")), codes, f0, f1, tuple(output_ids))
    try:
        c.check()
    except CircuitError as e:
        raise ValueError(
            f"invalid circuit in netlist: {e.violations[0]}") from None
    full_adder = bool(header.get("full_adder", False))
    names = _interface_names(c, full_adder)
    if (header.get("inputs"), header.get("outputs")) != names:
        raise ValueError("header inputs/outputs do not match the circuit")
    if first != _header_line(c, spec, full_adder, names):
        raise ValueError("header is not the one this circuit saves with")
    if not lines.ended:
        raise ValueError("netlist does not end with a newline")
    return NetlistFile(version, spec, full_adder, c)


def _fault(ln, line, nid, after_outputs):
    """Raise the ValueError of the first per-line check that line ln, which
    missed its fast path in _parse, fails; nid is the next node id."""
    if not line:
        raise ValueError(f"line {ln}: blank line")
    parts = line.split(" ")
    if parts[0] == "output":
        raise ValueError(f"line {ln}: malformed output record")
    if after_outputs:
        raise ValueError(f"line {ln}: node record after output records")
    if parts[0] != str(nid):
        got = parts[0]
        # canonical digits, read without int(), which refuses over 4300
        if got.isascii() and got.isdigit() and (got[0] != "0" or got == "0"):
            raise ValueError(f"line {ln}: node id {got} out of sequence")
        raise ValueError(f"line {ln}: bad node id {got!r}")
    kind = parts[1] if len(parts) > 1 else ""
    code = _CODES.get(kind)
    if code is None:
        raise ValueError(f"line {ln}: unknown gate kind {kind!r}")
    want = KIND_ARITY[code]
    if len(parts) != want + 2:
        raise ValueError(f"line {ln}: input with fanins" if code == INPUT
                         else f"line {ln}: {kind} expects {want} fanins, "
                         f"got {len(parts) - 2}")
    fans = parts[2:]
    for tok in fans:
        # canonical decimal, as str(int(tok)) writes it, read without int()
        got = tok.removeprefix("-")
        if not (got.isascii() and got.isdigit()
                and (got[0] != "0" or tok == "0")):
            raise ValueError(f"line {ln}: bad fanin id")
    # an id of more digits than nid names no earlier node
    bad = [tok for tok in fans if tok[0] == "-" or len(tok) > len(str(nid))
           or int(tok) >= nid]
    raise ValueError(f"line {ln}: fanin {bad[0]} not an earlier node")


def save_netlist(c: Circuit, path, spec: AdderSpec | None = None,
                 full_adder: bool = False) -> None:
    """Write a circuit to a netlist file."""
    _check_kinds(c)  # before the file is opened, so none is left half made
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_netlist_blocks(c, spec, full_adder))


def load_netlist(path) -> NetlistFile:
    """Read and parse a netlist file, _CHUNK characters at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse(iter(partial(fh.read, _CHUNK), ""))


def _dot_blocks(c: Circuit):
    """DOT text in pieces: the graph header, node lines and then edge
    lines each joined _BLOCK nodes at a time, and the closing brace."""
    if c.num_gates == 0:
        raise ValueError("circuit has no gates to export")
    _check_kinds(c)
    safe = (c.name or "circuit").replace("\\", "\\\\").replace('"', '\\"')
    yield f'digraph "{safe}" {{\n  rankdir=LR;\n'
    out_set = set(c.output_ids)
    nodes = zip(count(), c._codes)
    while block := [f'  n{nid} [label="{KIND_NAMES[k]}:{nid}"'
                    f'{", shape=box" if k == 0 else ""}'
                    f'{", peripheries=2" if nid in out_set else ""}];\n'
                    for nid, k in islice(nodes, _BLOCK)]:
        yield "".join(block)
    edges = zip(count(), c._f0, c._f1)
    while block := ["" if a < 0
                    else f"  n{a} -> n{nid};\n" if b < 0
                    else f"  n{a} -> n{nid};\n  n{b} -> n{nid};\n"
                    for nid, a, b in islice(edges, _BLOCK)]:
        yield "".join(block)
    yield "}\n"


def circuit_to_dot(c: Circuit) -> str:
    """Render a circuit as deterministic DOT text.

    One graph node per circuit node labeled kind:id (inputs boxed,
    outputs double-bordered) and one edge per fanin, both in id order.
    Circuits without gates are rejected.
    """
    return "".join(_dot_blocks(c))
