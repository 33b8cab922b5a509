"""Every checked-in experiment config loads and runs cleanly."""

import csv
from pathlib import Path

import pytest

from fourstab.cli import dispatch, load_config

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_configs_present():
    assert CONFIGS, "no configs/*.json found"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_runs_without_violations(capsys, tmp_path, path):
    load_config(str(path))
    out = tmp_path / f"{path.stem}.csv"
    assert dispatch(["experiment", "--config", str(path), "--trials", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    flags = [v for row in rows for k, v in row.items() if k.startswith("violation_")]
    assert "true" not in flags
