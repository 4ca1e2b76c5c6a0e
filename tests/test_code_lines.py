import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # code with a comment


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring."""
    label = """a string that is
no docstring"""
    "a string statement after the first is no docstring either"
    return math.pi * r ** 2
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    script = _load_script()
    # import, class, size, def, label's two lines, the string statement, return
    assert script.code_lines(SAMPLE) == 8
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE, encoding="utf-8")
    assert script.main([str(sample), str(sample)]) == 0
    assert capsys.readouterr().out.split() == ["8", "sample.py", "8", "sample.py", "16", "total"]
