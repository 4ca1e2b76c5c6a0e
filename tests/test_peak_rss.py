import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("peak_rss", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_peak_rss_reports_the_command_and_its_workers(tmp_path, capsys):
    out = tmp_path / "bound.jsonl"
    argv = ["thinning-bound", "--n-max", "5", "--out", str(out)]
    assert _load_script().main(["--", *argv]) == 0
    report = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert report["argv"] == argv and report["exit"] == 0
    assert report["self_mb"] > 10  # python with numpy and scipy loaded
    assert report["children_mb"] >= 0  # a run this small starts no pool
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 5
