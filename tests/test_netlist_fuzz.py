"""Property test of the netlist parser under random line-level mutations.

Small valid netlists get lines dropped, duplicated or swapped, and tokens
replaced by integers or junk or an id respelled (the same integer written
another way int() accepts). loads_netlist must reject the result with
ValueError or return a circuit that validates and saves back to the
input byte for byte; any other exception is a parser bug. A respelled id alone
must be rejected, since saving the circuit would not reproduce it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from addergen.circuit import validate  # noqa: E402
from addergen.families import (  # noqa: E402
    AdderSpec, build_adder, build_full_adder,
)
from addergen.netlist import dumps_netlist, loads_netlist  # noqa: E402
from tests.test_netlist_cli import RESPELLINGS  # noqa: E402

SPECS = [AdderSpec("ripple", 3), AdderSpec("kogge-stone", 4),
         AdderSpec("mig", 5), AdderSpec("nandnor", 3)]
SOURCES = [dumps_netlist(build_adder(s), s) for s in SPECS] + [
    dumps_netlist(build_full_adder(SPECS[0]), SPECS[0], full_adder=True)]


def respell(draw, line):
    """line with one of its decimal ids written non-canonically."""
    tokens = line.split(" ")
    ids = [t for t, tok in enumerate(tokens) if tok.isdigit()]
    if ids:
        t = draw(st.sampled_from(ids))
        tokens[t] = RESPELLINGS[draw(st.sampled_from(sorted(RESPELLINGS)))](
            tokens[t])
    return " ".join(tokens)


@st.composite
def mutated_netlists(draw):
    lines = draw(st.sampled_from(SOURCES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "int",
                                   "junk", "respell"]))
        i = draw(st.sampled_from(range(len(lines))))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.sampled_from(range(len(lines))))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "respell":
            lines[i] = respell(draw, lines[i])
        else:
            tokens = lines[i].split(" ")
            t = draw(st.integers(0, len(tokens) - 1))
            tokens[t] = (str(draw(st.integers(-2, len(lines) + 2)))
                         if op == "int" else draw(st.text(max_size=6)))
            lines[i] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_netlists())
def test_mutated_netlist_is_rejected_or_round_trips(text):
    try:
        nf = loads_netlist(text)
    except ValueError:
        return
    assert validate(nf.circuit) == []
    again = dumps_netlist(nf.circuit, nf.spec, nf.full_adder)
    assert again == text
    nf2 = loads_netlist(again)
    assert dumps_netlist(nf2.circuit, nf2.spec, nf2.full_adder) == again


@st.composite
def respelled_netlists(draw):
    lines = draw(st.sampled_from(SOURCES)).splitlines()
    i = draw(st.integers(1, len(lines) - 1))  # a node or output record
    lines[i] = respell(draw, lines[i])
    return "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None, database=None)
@given(respelled_netlists())
def test_respelled_id_is_rejected(text):
    with pytest.raises(ValueError):
        loads_netlist(text)
