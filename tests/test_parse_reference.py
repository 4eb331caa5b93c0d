"""Seeded fuzz of loads_netlist against the line-by-line reference parse.

Small golden netlists get lines dropped, duplicated, swapped or blanked,
tokens replaced, respelled (the same integer written another way int()
accepts) or joined with extra spaces, or the final newline cut. On every
mutant, loads_netlist and tests.reference.reference_loads must agree: the
same circuit arrays, outputs, name, spec and full-adder flag, or the same
exception with the same message. It runs at several chunk sizes, since
the parse reads its text a chunk at a time. Standard library only, so it
runs without hypothesis.
"""

import random
import re

import pytest

from addergen import netlist
from addergen.circuit import KIND_NAMES
from addergen.families import AdderSpec, build_adder, build_full_adder
from addergen.netlist import dumps_netlist, loads_netlist
from tests.reference import reference_loads
from tests.test_netlist_cli import RESPELLINGS

SPECS = [AdderSpec("ripple", 3), AdderSpec("kogge-stone", 4),
         AdderSpec("mig", 5), AdderSpec("nandnor", 3)]
SOURCES = [dumps_netlist(build_adder(s), s) for s in SPECS] + [
    dumps_netlist(build_full_adder(SPECS[0]), SPECS[0], full_adder=True)]
JUNK = ["", " ", "output", "input", "x", "-0", "01", "\t1", "1 2",
        "٣", "9" * 5000, *KIND_NAMES]
MUTANTS = 4000


def mutate(rng, text):
    """text with one to three line or token mutations."""
    lines = text.split("\n")[:-1]
    end = "\n"
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        op = rng.choice(["drop", "duplicate", "swap", "blank", "cut", "int",
                         "junk", "respell", "space"])
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        t = rng.randrange(len(tokens))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "blank":
            tokens = [""]
        elif op == "cut":
            end = ""
        elif op == "int":
            tokens[t] = str(rng.randint(-2, len(lines) + 2))
        elif op == "junk":
            tokens[t] = rng.choice(JUNK)
        elif op == "respell" and tokens[t].isdigit():
            tokens[t] = rng.choice(list(RESPELLINGS.values()))(tokens[t])
        elif op == "space":  # a doubled separator or an edge space
            tokens[t] = rng.choice(["", " "]) + tokens[t] + rng.choice(
                ["", " "])
        if op not in ("drop", "duplicate", "swap", "cut"):
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + end if lines else ""


def outcome(parse, text):
    """What parse gives for text: the parsed file, or the exception."""
    try:
        nf = parse(text)
    except Exception as e:  # noqa: BLE001 - any exception must match too
        return "raised", type(e).__name__, str(e)
    c = nf.circuit
    return ("parsed", c.name, c._codes.tolist(), c._f0.tolist(),
            c._f1.tolist(), c.output_ids, nf.spec, nf.full_adder)


@pytest.mark.parametrize("chunk", [1, 7, netlist._CHUNK])
def test_mutants_parse_as_the_reference_parses(chunk, monkeypatch):
    monkeypatch.setattr(netlist, "_CHUNK", chunk)
    rng = random.Random(2727)
    seen = set()
    parsed = 0
    for _ in range(MUTANTS):
        text = mutate(rng, rng.choice(SOURCES))
        got = outcome(loads_netlist, text)
        assert got == outcome(reference_loads, text), text
        if got[0] == "parsed":
            parsed += 1
        else:
            seen.add(re.sub(r"'.*'|\d+", "#", got[2]))
    # the mutants reach most messages, and some still parse
    assert len(seen) >= 20, sorted(seen)
    assert parsed > 50


BIG = "9" * 5000  # past int()'s limit of 4300 digits
RIPPLE = SOURCES[0].split("\n")  # header, inputs 0..5, "6 and 0 1", ...


@pytest.mark.parametrize("chunk", [1, 7, netlist._CHUNK])
@pytest.mark.parametrize("lines, message", [
    (RIPPLE[:2] + [f"{BIG} input"] + RIPPLE[3:],
     f"line 3: node id {BIG} out of sequence"),
    (RIPPLE[:7] + [f"{BIG} and 0 1"] + RIPPLE[8:],
     f"line 8: node id {BIG} out of sequence"),
    (RIPPLE[:7] + ["6 and 0 " + BIG] + RIPPLE[8:],
     f"line 8: fanin {BIG} not an earlier node"),
    (RIPPLE[:7] + [f"6 and -{BIG} 1"] + RIPPLE[8:],
     f"line 8: fanin -{BIG} not an earlier node"),
    (RIPPLE[:7] + [f"6 and 0 0{BIG}"] + RIPPLE[8:], "line 8: bad fanin id"),
    (RIPPLE[:-2] + [f"output {BIG}", ""], f"bad output id '{BIG}'"),
    ([RIPPLE[0].replace('"version":1', f'"version":{BIG}')] + RIPPLE[1:],
     "bad netlist header: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
], ids=["input-id", "gate-id", "fanin", "negative-fanin", "zero-led-fanin",
        "output-id", "header-int"])
def test_digit_limit_reads_as_the_parsers_own_message(chunk, lines, message,
                                                     monkeypatch):
    # int() refuses more than 4300 digits with a message of its own; the
    # parse turns that into its line, output id or header message
    monkeypatch.setattr(netlist, "_CHUNK", chunk)
    text = "\n".join(lines)
    for parse in (loads_netlist, reference_loads):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse(text)
