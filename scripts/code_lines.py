"""Code lines of thinspec's modules: lines with code, not comments, docstrings or blanks.

A docstring is the first statement of a module, class or function when that
statement is a string literal; every line it spans is left out.  Any other
string literal is code, on every line it spans.  A line holding code and a
comment counts as code.  Prints one line per module and the total.

    python scripts/code_lines.py            # src/thinspec/*.py of this checkout
    python scripts/code_lines.py a.py b.py
    python scripts/code_lines.py --against REF

With `--against`, each module of src/thinspec/ (at REF or now) gets its count
at the git commit REF, its count now and the difference, then the totals; a
module missing on one side counts 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thinspec"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of `source` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    result = subprocess.run(["git", "-C", str(PACKAGE), *args], stdout=subprocess.PIPE, text=True)
    if result.returncode:
        raise SystemExit(result.returncode)
    return result.stdout


def against(ref: str) -> None:
    """Print each module's code lines at git `ref`, now, and the difference."""
    before = {name: code_lines(_git("show", f"{ref}:./{name}"))
              for name in _git("ls-tree", "--name-only", ref, "--", ".").split()
              if name.endswith(".py")}
    now = {path.name: code_lines(path.read_text(encoding="utf-8"))
           for path in PACKAGE.glob("*.py")}
    rows = [(before.get(name, 0), now.get(name, 0), name) for name in sorted(before | now)]
    rows.append((sum(before.values()), sum(now.values()), "total"))
    print(f"{'at ref':>6}  {'now':>6}  {'diff':>6}")
    for old, new, name in rows:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count code lines of thinspec's modules.")
    parser.add_argument("paths", nargs="*", type=Path)
    parser.add_argument("--against", metavar="REF",
                        help="compare src/thinspec/ with its state at git commit REF")
    args = parser.parse_args(argv)
    if args.against:
        against(args.against)
        return 0
    total = 0
    for path in args.paths or sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
