import importlib.util
from pathlib import Path

from thinspec import experiments
from thinspec.spectral import eigenvalues

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "thinned_table.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("thinned_table", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_thinned_table_solves_each_matrix_once_per_kind(monkeypatch, capsys):
    table = _load_script()
    calls = []

    def counted(m, scale):
        calls.append((m.n, m.seed))
        return eigenvalues(m, scale=scale)

    monkeypatch.setattr(experiments, "eigenvalues", counted)
    assert table.main(["--n", "16", "--reps", "10", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # five functions of nonzero disk variance, each at K = 1, 2, 4 and growing K
    assert lines[0] == ",".join(table.COLUMNS)
    assert len(lines) == 1 + 5 * 4
    # one solve per matrix of each kind: 20 solves for 200 measured replicates
    assert len(calls) == len(set(calls)) == 2 * 10

    run = experiments.run_experiment

    def solving_anew(config):
        experiments._SPECTRA.clear()
        return run(config)

    monkeypatch.setattr(table, "run_experiment", solving_anew)
    table.main(["--n", "16", "--reps", "10", "--seed", "3"])
    assert capsys.readouterr().out.splitlines() == lines
    assert len(calls) == 20 + 20 * 10
