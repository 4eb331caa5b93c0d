"""Independent correctness oracle for addergen netlist text.

The oracle shares no code with the package under test: it parses the
netlist text itself, evaluates the circuit lane-parallel on Python
integers, and compares every lane against Python integer addition.  It
also measures the circuit's structure (gates, depth, max fan-out with an
output marker counting as one consumer) from the same parse, so the
program's own metrics can be checked against it.

Lanes are summand pairs (a, b).  Widths n <= 6 run all 4**n pairs.
Wider circuits run seeded random lanes plus directed long-carry lanes: a
generate at bit g, a propagate at every bit above it and random bits
below, so the carry out of g must ripple through to c_{n+1}.  Bit g = 1
(the longest chain) is always among them.
"""

from __future__ import annotations

import json
from typing import NamedTuple

RANDOM_LANES = 64
DIRECTED_LANES = 64
EXHAUSTIVE_MAX_N = 6


class OracleError(ValueError):
    """The netlist text is malformed or computes the wrong function."""


class Structure(NamedTuple):
    gates: int
    depth: int
    max_fanout: int


def _transpose(rows, width):
    """Bit matrix transpose: bit t of result[i] is bit i of rows[t]."""
    strs = [format(r, f"0{width}b")[::-1] for r in rows]
    return [int("".join(col)[::-1], 2) for col in zip(*strs)]


def summand_lanes(n, rng):
    """(a, b) summand pairs: exhaustive for small n, else seeded+directed."""
    if n <= EXHAUSTIVE_MAX_N:
        return [(a, b) for a in range(1 << n) for b in range(1 << n)]
    lanes = [(rng.getrandbits(n), rng.getrandbits(n))
             for _ in range(RANDOM_LANES)]
    top = (1 << n) - 1
    gens = [1] + (list(range(2, n + 1)) if n <= DIRECTED_LANES
                  else rng.sample(range(2, n + 1), DIRECTED_LANES - 1))
    for g in gens:
        bit = 1 << (g - 1)
        above = top & ~((bit << 1) - 1)
        # a_g = b_g = 1 generates; a_i = 1, b_i = 0 propagates above g
        lanes.append((above | bit | rng.getrandbits(g - 1),
                      bit | rng.getrandbits(g - 1)))
    return lanes


def parse_header(line):
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        raise OracleError(f"bad header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != "addergen-netlist":
        raise OracleError("not an addergen netlist header")
    return header


def check_netlist(text, n, full_adder, rng):
    """Evaluate netlist text against integer addition; return its Structure.

    Raises OracleError on a malformed netlist, a wrong interface, or any
    lane whose outputs differ from the integer sum (full adder) or the
    carries c_2..c_{n+1} (carry circuit).
    """
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise OracleError("netlist text does not end in a newline")
    header = parse_header(lines[0])
    if bool(header.get("full_adder")) != full_adder:
        raise OracleError("header full_adder flag does not match the cell")
    pairs = summand_lanes(n, rng)
    width = len(pairs)
    mask = (1 << width) - 1
    a_words = _transpose([a for a, _ in pairs], n)
    b_words = _transpose([b for _, b in pairs], n)
    if full_adder:
        inputs = [w for ab in zip(a_words, b_words) for w in ab]
    else:
        inputs = [w for ab in zip(a_words, b_words)
                  for w in (ab[0] ^ ab[1], ab[0] & ab[1])]
    vals, depth, uses = [], [], []
    outputs = []
    next_input = 0
    for ln in range(1, len(lines) - 1):
        parts = lines[ln].split()
        k = len(vals)
        if len(parts) == 2 and parts[0] == "output":
            oid = int(parts[1])
            if not 0 <= oid < k:
                raise OracleError(f"line {ln + 1}: output {oid} out of range")
            outputs.append(oid)
            uses[oid] += 1
            continue
        if outputs or len(parts) < 2 or parts[0] != str(k):
            raise OracleError(f"line {ln + 1}: bad node record")
        kind = parts[1]
        if len(parts) == 4:
            a, b = int(parts[2]), int(parts[3])
            if not (0 <= a < k and 0 <= b < k):
                raise OracleError(f"line {ln + 1}: fanin not an earlier node")
            if kind == "and":
                v = vals[a] & vals[b]
            elif kind == "or":
                v = vals[a] | vals[b]
            elif kind == "xor":
                v = vals[a] ^ vals[b]
            elif kind == "nand":
                v = (vals[a] & vals[b]) ^ mask
            elif kind == "nor":
                v = (vals[a] | vals[b]) ^ mask
            else:
                raise OracleError(f"line {ln + 1}: bad two-input kind {kind!r}")
            uses[a] += 1
            uses[b] += 1
            d = depth[a] if depth[a] > depth[b] else depth[b]
        elif len(parts) == 3:
            a = int(parts[2])
            if not 0 <= a < k:
                raise OracleError(f"line {ln + 1}: fanin not an earlier node")
            if kind == "buf":
                v = vals[a]
            elif kind == "not":
                v = vals[a] ^ mask
            else:
                raise OracleError(f"line {ln + 1}: bad one-input kind {kind!r}")
            uses[a] += 1
            d = depth[a]
        elif kind == "input" and next_input < len(inputs):
            v = inputs[next_input]
            next_input += 1
            d = -1
        else:
            raise OracleError(f"line {ln + 1}: bad node record")
        vals.append(v)
        depth.append(d + 1)
        uses.append(0)
    want_out = n + 1 if full_adder else n
    if next_input != 2 * n or len(outputs) != want_out:
        raise OracleError(f"interface has {next_input} inputs and "
                          f"{len(outputs)} outputs, want {2 * n} and {want_out}")
    got = _transpose([vals[o] for o in outputs], width)
    bad = 0
    for (a, b), g in zip(pairs, got):
        s = a + b
        if g != (s if full_adder else (s ^ a ^ b) >> 1):
            bad += 1
    if bad:
        raise OracleError(f"{bad} of {width} lanes differ from integer addition")
    return Structure(len(vals) - next_input, max(depth), max(uses))
