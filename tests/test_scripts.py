"""The scripts in ``scripts/``, run in-process through their ``main``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bulk_convergence_study_prints_the_sup_errors(capsys):
    assert _load("bulk_convergence_study").main(["--sizes", "16", "32"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["p,sup_abs_err,same_line_sup", "16,0.0917353,0.0222042", "32,0.0405801,0.0107488"]


def test_limit_shape_figure_writes_the_figure_and_band_table(tmp_path, capsys):
    out = tmp_path / "f.svg"
    assert _load("limit_shape_figure").main(["--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 2880
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "line,S,c,d,inside_fraction"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(row[0]) for row in rows] == list(range(1, 16))
    assert min(float(row[4]) for row in rows) >= 0.95
