"""The checked-in tools run: ``tools/src_lines.py`` counts ``src/``, and
``tools/kit_costs.py`` times the scalar kit's operations."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_LINES = ROOT / "tools" / "src_lines.py"
KIT_COSTS = ROOT / "tools" / "kit_costs.py"


def test_src_lines_counts_every_module():
    out = subprocess.run([sys.executable, str(SRC_LINES)], capture_output=True, text=True,
                         check=True, timeout=120).stdout.splitlines()
    rows = {line.split()[0]: tuple(map(int, line.split()[1:])) for line in out[1:]}
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py"))
    assert sorted(set(rows) - {"total"}) == modules
    assert all(0 < code <= nonblank for nonblank, code in rows.values())
    assert rows["total"] == tuple(map(sum, zip(*(rows[m] for m in modules))))


def test_src_lines_leaves_out_comments_and_docstrings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('"""Module\ndocstring."""\n\n# a comment\n'
                      'def f():\n    """Doc."""\n    return """two\nlines"""  # trailing\n')
    out = subprocess.run([sys.executable, str(SRC_LINES), str(module)], capture_output=True,
                         text=True, check=True, timeout=120).stdout.splitlines()
    # 7 non-blank lines; code: def, return and the string's second line
    assert out[-1].split() == ["total", "7", "3"]


def test_kit_costs_replays_every_operation_at_each_precision():
    out = subprocess.run([sys.executable, str(KIT_COSTS), "--repeat", "1"], capture_output=True,
                         text=True, check=True, timeout=300).stdout.splitlines()
    rows = [line.split() for line in out[1:]]
    operations = ["add", "sub", "mul", "div", "neg", "sqrt", "gt"]
    for bits in ("64", "256", "1024"):
        table = {name: values for precision, name, *values in rows if precision == bits}
        assert list(table) == operations + ["total"]
        calls = {name: int(table[name][0]) for name in operations}
        assert all(calls.values()) and all(float(table[name][1]) > 0 for name in operations)
        assert int(table["total"][0]) == sum(calls.values())
        assert float(table["total"][1]) > 0
