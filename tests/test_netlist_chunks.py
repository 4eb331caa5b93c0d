"""The netlist parser reads its text a chunk at a time.

loads_netlist slices the text and load_netlist reads the file, both
`netlist._CHUNK` characters at a time, so where the chunks fall must not
matter: every golden netlist parses to the circuit it was saved from, and
every malformed netlist fails with the message it failed with when the
parser split the whole text at once, at chunk sizes down to one
character and through both entry points.
"""

import pytest

from addergen import netlist
from addergen.circuit import CircuitBuilder, OR
from addergen.families import AdderSpec, build_adder, build_full_adder
from addergen.netlist import dumps_netlist, load_netlist, loads_netlist
from addergen.techmap import _demorgan, demorgan_map, levelize
from tests import test_netlist_cli
from tests.test_golden import golden_keys

CHUNKS = [1, 2, 3, 7, netlist._CHUNK]
# A cut between two chunks sees only the characters beside it, so the
# golden texts below this length meet every cut a longer one does; the
# 13 above it (21.5 of the 24.2 million characters) are parsed at the
# default size only, since the small sizes would cost about a minute.
SMALL_CHUNKS_UP_TO = 1 << 18


@pytest.fixture(params=CHUNKS, ids=[f"chunk{c}" for c in CHUNKS])
def chunk(request, monkeypatch):
    monkeypatch.setattr(netlist, "_CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("text", [
    "", "\n", "\n\n", "a", "a\n", "ab\ncd", "ab\ncd\n", "a\n\nb\n",
    "abcdefgh\n" * 3, "x" * 20 + "\ny\n", "\n" + "z" * 15,
])
def test_lines_are_the_lines_of_split(chunk, text):
    pieces = [text[i:i + chunk] for i in range(0, len(text), chunk)]
    lines = netlist._Lines(iter(pieces))
    want = text.split("\n")
    if not want[-1]:
        want.pop()
    assert list(lines) == want
    if text:
        assert lines.ended == text.endswith("\n")


def golden_netlist(key):
    """(circuit, spec, full_adder) whose save test_golden hashes for key."""
    parts = key.split("/")
    if parts[0] in ("demorgan", "demorgan-raw"):
        lc = levelize(build_adder(AdderSpec(parts[1], int(parts[2]))))
        mapped = demorgan_map(lc) if parts[0] == "demorgan" else _demorgan(lc)[0]
        return mapped, None, False
    spec, full = AdderSpec(parts[0], int(parts[1])), parts[2] == "full"
    return (build_full_adder(spec) if full else build_adder(spec)), spec, full


def assert_parsed(nf, c, spec, full):
    got = nf.circuit
    assert (got._codes, got._f0, got._f1) == (c._codes, c._f0, c._f1)
    assert got.output_ids == c.output_ids
    assert (nf.spec, nf.full_adder) == (spec, full)


@pytest.mark.parametrize("key", golden_keys())
def test_golden_netlists_parse_at_every_chunk(monkeypatch, tmp_path, key):
    c, spec, full = golden_netlist(key)
    text = dumps_netlist(c, spec, full)
    path = tmp_path / "golden.nl"
    path.write_bytes(text.encode())
    for size in CHUNKS if len(text) < SMALL_CHUNKS_UP_TO else CHUNKS[-1:]:
        monkeypatch.setattr(netlist, "_CHUNK", size)
        assert_parsed(loads_netlist(text), c, spec, full)
        assert_parsed(load_netlist(path), c, spec, full)


def test_header_longer_than_a_chunk(chunk, tmp_path):
    b = CircuitBuilder("n" * (3 * chunk + 1))
    x, y = b.add_input(), b.add_input()
    b.mark_output(b.add_gate(OR, x, y))
    c = b.build()
    text = dumps_netlist(c)
    assert len(text.partition("\n")[0]) > 3 * chunk
    path = tmp_path / "long.nl"
    path.write_bytes(text.encode())
    for nf in (loads_netlist(text), load_netlist(path)):
        assert_parsed(nf, c, None, False)
        assert nf.circuit.name == c.name
        assert dumps_netlist(nf.circuit) == text


# Every message the rejection tests of test_netlist_cli draw, as the
# parser gave it when it split the whole text at once, by case id.
WHOLE_TEXT_MESSAGES = {
    '<lambda>-empty': 'empty netlist',
    '<lambda>-header':
        'bad netlist header: Expecting value: line 1 column 1 (char 0)',
    '<lambda>-not an addergen netlist': 'not an addergen netlist',
    '<lambda>-version': 'unsupported netlist version 99',
    '<lambda>-out of sequence': 'line 4: node id 7 out of sequence',
    '<lambda>-unknown gate': "line 4: unknown gate kind 'xand'",
    '<lambda>-fanins': 'line 4: and expects 2 fanins, got 1',
    '<lambda>-earlier': 'line 5: fanin 4 not an earlier node',
    '<lambda>-output': "bad output id 'two'",
    '<lambda>-after output': 'line 9: node record after output records',
    '<lambda>-line 5: blank line': 'line 5: blank line',
    '<lambda>-^bad netlist header: ':
        'bad netlist header: maximum recursion depth exceeded while decoding'
        ' a JSON array from a unicode string',
    '3 and 0 1-3 and  0 1': 'line 5: and expects 2 fanins, got 3',
    '3 and 0 1-3  and 0 1': "line 5: unknown gate kind ''",
    '3 and 0 1-3 and 0 1 ': 'line 5: and expects 2 fanins, got 3',
    '1 input-1 input ': 'line 3: input with fanins',
    'output 4-output  4': 'line 8: malformed output record',
    'output 4- output 4': 'line 8: node record after output records',
    'node-3 and 0 1-bad node id-arabic-indic': "line 5: bad node id '٣'",
    'node-3 and 0 1-bad node id-fullwidth': "line 5: bad node id '３'",
    'node-3 and 0 1-bad node id-leading-zero': "line 5: bad node id '03'",
    'node-3 and 0 1-bad node id-plus': "line 5: bad node id '+3'",
    'node-3 and 0 1-bad node id-underscore': "line 5: bad node id '0_3'",
    'fanin-4 or 1 3-bad fanin id-arabic-indic': 'line 6: bad fanin id',
    'fanin-4 or 1 3-bad fanin id-fullwidth': 'line 6: bad fanin id',
    'fanin-4 or 1 3-bad fanin id-leading-zero': 'line 6: bad fanin id',
    'fanin-4 or 1 3-bad fanin id-plus': 'line 6: bad fanin id',
    'fanin-4 or 1 3-bad fanin id-underscore': 'line 6: bad fanin id',
    'output-output 4-bad output id-arabic-indic': "bad output id '٤'",
    'output-output 4-bad output id-fullwidth': "bad output id '４'",
    'output-output 4-bad output id-leading-zero': "bad output id '04'",
    'output-output 4-bad output id-plus': "bad output id '+4'",
    'output-output 4-bad output id-underscore': "bad output id '0_4'",
    'json-spaces-header is not':
        'header is not the one this circuit saves with',
    'name-not-str-header is not':
        'header is not the one this circuit saves with',
    'spec-defaults-left-out-header is not':
        'header is not the one this circuit saves with',
    'full-adder-zero-header is not':
        'header is not the one this circuit saves with',
    "crlf-unknown gate kind 'input\\\\\\\\r'":
        "line 2: unknown gate kind 'input\\r'",
    'no-final-newline-newline': 'netlist does not end with a newline',
}


class TestRejectionsAtEveryChunk:
    """The rejection tests of test_netlist_cli at each chunk size, with
    each text parsed by loads_netlist and, from a file, by load_netlist:
    both must fail with the whole-text message."""

    # the class itself is not imported, or pytest would collect it here
    _format = test_netlist_cli.TestNetlistFormat
    test_malformed_inputs_rejected = _format.test_malformed_inputs_rejected
    test_tokens_need_single_spaces = _format.test_tokens_need_single_spaces
    test_non_canonical_id_rejected = _format.test_non_canonical_id_rejected
    test_only_the_saved_form_loads = _format.test_only_the_saved_form_loads

    @pytest.fixture(autouse=True)
    def both_entry_points(self, request, monkeypatch, tmp_path, chunk):
        case = request.node.callspec.id.replace(f"chunk{chunk}-", "")
        path = tmp_path / "rejected.nl"

        def parse(text):
            path.write_bytes(text.encode())
            with pytest.raises(ValueError) as first:
                loads_netlist(text)
            with pytest.raises(ValueError) as second:
                load_netlist(path)
            assert str(first.value) == str(second.value)
            assert str(first.value) == WHOLE_TEXT_MESSAGES[case]
            raise first.value

        monkeypatch.setattr(test_netlist_cli, "loads_netlist", parse)
