"""The README's Python API example runs as written."""

from pathlib import Path

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
