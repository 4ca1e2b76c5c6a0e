"""Peak resident memory of one thinspec CLI command, its own and its pool workers'.

Runs the command in a fresh child process and prints, on standard error, one
JSON line: the command's exit code, the child's own peak RSS (`RUSAGE_SELF`
read inside it) and the largest peak RSS of the pool workers it started and
reaped (`RUSAGE_CHILDREN` read inside it), both in MB of 2^20 bytes.  A
memory saving in the main process that only moved into the workers shows up
in the second number.  The command's own output passes through unchanged.

    python scripts/peak_rss.py -- sample --n 1024 --out sample.csv

The child imports thinspec from the `src/` next to this script, so a copy of
the script placed in another checkout measures that checkout's code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in the child: argv is (report fd, thinspec args...).
_CHILD = """
import json, os, resource, sys
sys.path.insert(0, {src!r})
from thinspec.cli import main
fd, argv = int(sys.argv[1]), sys.argv[2:]
code = main(argv)
peak = {{who: resource.getrusage(getattr(resource, "RUSAGE_" + who.upper())).ru_maxrss / 1024.0
        for who in ("self", "children")}}
os.write(fd, json.dumps({{"exit": code, **peak}}).encode("utf-8"))
"""


def measure(argv: list) -> dict:
    """Run `thinspec argv` in a child; its exit code and peak RSS (MB), own and workers'."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-c", _CHILD.format(src=str(SRC)),
                                 str(write_fd), *argv], pass_fds=(write_fd,))
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as report:
        text = report.read()
    returncode = proc.wait()
    if not text:  # the child died before it could report, e.g. on an uncaught error
        return {"argv": argv, "exit": returncode, "self_mb": None, "children_mb": None}
    report = json.loads(text)
    return {"argv": argv, "exit": report["exit"], "self_mb": round(report["self"], 1),
            "children_mb": round(report["children"], 1)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    result = measure(argv)
    print(json.dumps(result), file=sys.stderr)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
