"""Netlist file format, DOT export, and the command-line front end."""

import json
import subprocess
import sys

import pytest

from addergen.circuit import AND, OR, CircuitBuilder
from addergen.cli import CSV_COLUMNS, ComparisonRow, main
from addergen.families import AdderSpec, build_adder, build_full_adder
from addergen.netlist import (
    FORMAT_VERSION, circuit_to_dot, dumps_netlist, load_netlist,
    loads_netlist, save_netlist,
)


def prefix_gate_circuit():
    """The three-gate combine over one shared input pair."""
    b = CircuitBuilder("prefix-gate")
    x = b.add_input()
    y = b.add_input()
    p = b.add_gate(AND, x, x)
    inner = b.add_gate(AND, x, y)
    g = b.add_gate(OR, y, inner)
    b.mark_output(p)
    b.mark_output(g)
    return b.build()


class TestNetlistFormat:
    def test_round_trip_identity(self):
        spec = AdderSpec("mig", 6, r=2, k=2)
        c = build_adder(spec)
        text = dumps_netlist(c, spec)
        nf = loads_netlist(text)
        assert nf.version == FORMAT_VERSION
        assert nf.spec == spec
        assert not nf.full_adder
        assert dumps_netlist(nf.circuit, nf.spec, nf.full_adder) == text

    @pytest.mark.parametrize("family", ["ripple", "sklansky", "kogge-stone",
                                        "brent-kung", "mig", "linear",
                                        "nandnor"])
    def test_round_trip_every_family(self, family):
        spec = AdderSpec(family, 8)
        c = build_adder(spec)
        text = dumps_netlist(c, spec)
        assert dumps_netlist(loads_netlist(text).circuit, spec) == text

    def test_file_round_trip_is_byte_identical(self, tmp_path):
        spec = AdderSpec("brent-kung", 4)
        path = tmp_path / "a.nl"
        save_netlist(build_adder(spec), path, spec=spec)
        first = path.read_bytes()
        nf = load_netlist(path)
        save_netlist(nf.circuit, path, spec=nf.spec, full_adder=nf.full_adder)
        assert path.read_bytes() == first

    def test_header_names_carry_circuit(self):
        spec = AdderSpec("ripple", 3)
        header = json.loads(
            dumps_netlist(build_adder(spec), spec).splitlines()[0])
        assert header["format"] == "addergen-netlist"
        assert header["inputs"] == ["x1", "y1", "x2", "y2", "x3", "y3"]
        assert header["outputs"] == ["c2", "c3", "c4"]
        assert header["spec"]["family"] == "ripple"

    def test_header_names_full_adder(self):
        spec = AdderSpec("ripple", 2)
        c = build_full_adder(spec)
        header = json.loads(
            dumps_netlist(c, spec, full_adder=True).splitlines()[0])
        assert header["full_adder"] is True
        assert header["inputs"] == ["a1", "b1", "a2", "b2"]
        assert header["outputs"] == ["s1", "s2", "s3"]

    def test_node_records_sorted_and_explicit(self):
        text = dumps_netlist(prefix_gate_circuit())
        body = text.splitlines()[1:]
        assert body == ["0 input", "1 input", "2 and 0 0", "3 and 0 1",
                        "4 or 1 3", "output 2", "output 4"]

    def test_spec_survives_none(self):
        text = dumps_netlist(prefix_gate_circuit())
        assert loads_netlist(text).spec is None

    @pytest.mark.parametrize("mangle,message", [
        (lambda t: "", "empty"),
        (lambda t: "not json\n" + t, "header"),
        (lambda t: t.replace("addergen-netlist", "something-else"),
         "not an addergen netlist"),
        (lambda t: t.replace('"version":1', '"version":99'), "version"),
        (lambda t: t.replace("\n2 and", "\n7 and"), "out of sequence"),
        (lambda t: t.replace("2 and 0 0", "2 xand 0 0"), "unknown gate"),
        (lambda t: t.replace("2 and 0 0", "2 and 0"), "fanins"),
        (lambda t: t.replace("3 and 0 1", "3 and 0 4"), "earlier"),
        (lambda t: t.replace("output 2", "output two"), "output"),
        (lambda t: t + "5 and 0 1\n", "after output"),
    ])
    def test_malformed_inputs_rejected(self, mangle, message):
        good = dumps_netlist(prefix_gate_circuit())
        with pytest.raises(ValueError, match=message):
            loads_netlist(mangle(good))

    def test_structurally_invalid_circuit_rejected(self):
        header = json.dumps({"format": "addergen-netlist", "version": 1,
                             "name": "x", "spec": None, "full_adder": False,
                             "inputs": [], "outputs": []},
                            separators=(",", ":"))
        text = header + "\n0 input\n1 input\noutput 0\n"
        with pytest.raises(ValueError, match="invalid circuit"):
            loads_netlist(text)


class TestDot:
    def test_prefix_gate_counts(self):
        dot = circuit_to_dot(prefix_gate_circuit())
        lines = dot.splitlines()
        nodes = [ln for ln in lines if "label=" in ln]
        edges = [ln for ln in lines if "->" in ln]
        assert len(nodes) == 5  # two inputs plus three gates
        assert len(edges) == 6  # two fanins per gate

    def test_labels_shapes_and_output_marking(self):
        dot = circuit_to_dot(prefix_gate_circuit())
        assert '  n0 [label="input:0", shape=box];' in dot
        assert '  n2 [label="and:2", peripheries=2];' in dot
        assert '  n4 [label="or:4", peripheries=2];' in dot

    def test_deterministic(self):
        c = build_adder(AdderSpec("kogge-stone", 8))
        assert circuit_to_dot(c) == circuit_to_dot(c)

    def test_rejects_gateless_circuit(self):
        b = CircuitBuilder("empty")
        b.add_input()
        b.add_input()
        with pytest.raises(ValueError, match="no gates"):
            circuit_to_dot(b.build())

    def test_name_quoting(self):
        b = CircuitBuilder('we"ird')
        x = b.add_input()
        b.mark_output(b.add_gate(AND, x, x))
        assert 'digraph "we\\"ird"' in circuit_to_dot(b.build())


class TestCliGenVerify:
    def test_gen_then_verify_ok(self, tmp_path, capsys):
        out = tmp_path / "ks8.nl"
        assert main(["gen", "--family", "kogge-stone", "--n", "8",
                     "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "size=50" in printed
        assert "OK" in printed

    def test_gen_full_adder_flag(self, tmp_path, capsys):
        out = tmp_path / "fa.nl"
        assert main(["gen", "--family", "ripple", "--n", "4", "--full-adder",
                     "--out", str(out)]) == 0
        assert load_netlist(out).full_adder
        assert main(["verify", "--in", str(out)]) == 0
        assert "summands" in capsys.readouterr().out

    def test_verify_random_with_seed(self, tmp_path, capsys):
        out = tmp_path / "lin.nl"
        assert main(["gen", "--family", "linear", "--n", "64",
                     "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out), "--samples", "20000",
                     "--seed", "7"]) == 0
        assert "seed=0x7" in capsys.readouterr().out

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_without_samples_exits_2(self, tmp_path, capsys, samples,
                                            full):
        out = tmp_path / "r4.nl"
        assert main(["gen", "--family", "ripple", "--n", "4", "--out",
                     str(out)] + ["--full-adder"] * full) == 0
        capsys.readouterr()
        assert main(["verify", "--in", str(out), "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "samples must be at least 1" in captured.err
        assert "OK" not in captured.out

    def test_verify_exhaustive_n10_completes(self, tmp_path, capsys):
        out = tmp_path / "r10.nl"
        assert main(["gen", "--family", "ripple", "--n", "10",
                     "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out), "--exhaustive"]) == 0
        assert "exhaustive" in capsys.readouterr().out

    def test_mutated_netlist_fails_with_counterexample(self, tmp_path,
                                                       capsys):
        out = tmp_path / "r6.nl"
        assert main(["gen", "--family", "ripple", "--n", "6",
                     "--out", str(out)]) == 0
        text = out.read_text()
        mutated = text.replace(" or ", " and ", 1)
        assert mutated != text
        out.write_text(mutated)
        assert main(["verify", "--in", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "MISMATCH" in printed
        assert "counterexample #" in printed

    def test_unparseable_netlist_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.nl"
        bad.write_text('{"format":"addergen-netlist",broken\n')
        assert main(["verify", "--in", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--in", str(tmp_path / "nope.nl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_illegal_spec_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--family", "mig", "--n", "8", "--tau", "1",
                     "--out", str(tmp_path / "x.nl")]) == 2
        assert "does not take" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["gen", "--family", "bogus", "--n", "4",
                  "--out", str(tmp_path / "x.nl")])
        assert e.value.code == 2
        with pytest.raises(SystemExit) as e:
            main(["verify", "--in", "x", "--exhaustive", "--samples", "5"])
        assert e.value.code == 2
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2


class TestCliCompare:
    def test_csv_schema_and_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["compare", "--families", "ripple,brent-kung",
                     "--n", "2,4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == "family,n,depth,size,max_fanout,verified"
        assert len(lines) == 5
        assert lines[2] == "ripple,4,6,9,2,true"
        assert lines[4] == "brent-kung,4,5,13,2,true"

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["compare", "--families", "sklansky", "--n", "4"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "family,n,depth,size,max_fanout,verified"
        assert printed[1] == "sklansky,4,4,12,3,true"

    def test_padded_width_in_table(self, capsys):
        assert main(["compare", "--families", "brent-kung", "--n", "6"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:2] == ["brent-kung", "6"] and row[5] == "true"

    def test_bad_width_list_exits_2(self, capsys):
        assert main(["compare", "--families", "ripple", "--n", "2,x"]) == 2
        assert "width" in capsys.readouterr().err

    def test_unknown_family_exits_2(self, capsys):
        assert main(["compare", "--families", "ripple,nope", "--n", "2"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_comparison_row_shape(self):
        row = ComparisonRow("ripple", 4, 6, 9, 2, True)
        assert row._fields == tuple(CSV_COLUMNS)


class TestCliExport:
    def test_export_and_reexport_identical(self, tmp_path):
        nl = tmp_path / "bk4.nl"
        dot = tmp_path / "bk4.dot"
        assert main(["gen", "--family", "brent-kung", "--n", "4",
                     "--out", str(nl)]) == 0
        assert main(["export", "--in", str(nl), "--dot", str(dot)]) == 0
        first = dot.read_bytes()
        assert first.startswith(b"digraph ")
        assert main(["export", "--in", str(nl), "--dot", str(dot)]) == 0
        assert dot.read_bytes() == first

    def test_export_rejects_inputs_only_netlist(self, tmp_path, capsys):
        header = json.dumps({"format": "addergen-netlist", "version": 1,
                             "name": "x", "spec": None, "full_adder": False,
                             "inputs": [], "outputs": []},
                            separators=(",", ":"))
        nl = tmp_path / "empty.nl"
        nl.write_text(header + "\n0 input\n1 input\noutput 0\n")
        assert main(["export", "--in", str(nl),
                     "--dot", str(tmp_path / "x.dot")]) == 2
        assert "error:" in capsys.readouterr().err


class TestConsoleEntry:
    def test_module_invocation_round_trip(self, tmp_path):
        out = tmp_path / "s4.nl"
        gen = subprocess.run(
            [sys.executable, "-m", "addergen.cli", "gen", "--family",
             "sklansky", "--n", "4", "--out", str(out)],
            capture_output=True, text=True)
        assert gen.returncode == 0, gen.stderr
        check = subprocess.run(
            [sys.executable, "-m", "addergen.cli", "verify", "--in",
             str(out), "--exhaustive"],
            capture_output=True, text=True)
        assert check.returncode == 0, check.stderr
        assert "OK" in check.stdout
