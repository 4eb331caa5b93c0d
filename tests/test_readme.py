"""The README's Python API example runs as written, and the names it
says are importable are."""

import re
from pathlib import Path

import addergen

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    blocks = text.split("```python\n")[1:]
    return [block.split("```", 1)[0] for block in blocks]


def test_python_example_runs(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    assert (tmp_path / "linear256.adder").is_file()


def test_lower_level_pieces_are_importable():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Lower-level pieces are importable too", 1)[1]
    names = re.findall(r"`(\w+)`", paragraph.split("\n\n", 1)[0])
    assert "simulate_packed" in names
    exec(f"from addergen import {', '.join(names)}", {})
    assert set(names) <= set(addergen.__all__)
