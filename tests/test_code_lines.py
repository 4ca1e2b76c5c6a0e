import importlib.util
import subprocess
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


def test_against_compares_each_module_with_a_git_commit(tmp_path, monkeypatch, capsys):
    script = _load_script()
    package = tmp_path / "src" / "thinspec"
    package.mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    (package / "kept.py").write_text("a = 1\nb = 2\n", encoding="utf-8")
    (package / "gone.py").write_text("c = 3\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (package / "kept.py").write_text("a = 1\n", encoding="utf-8")
    (package / "gone.py").unlink()
    (package / "new.py").write_text(SAMPLE, encoding="utf-8")
    monkeypatch.setattr(script, "PACKAGE", package)
    assert script.main(["--against", "HEAD"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["at", "ref", "now", "diff"],
                     ["1", "0", "-1", "gone.py"],
                     ["2", "1", "-1", "kept.py"],
                     ["0", "8", "+8", "new.py"],
                     ["3", "9", "+6", "total"]]
