"""Fixed-seed sweep CSVs compared byte for byte against stored outputs.

Each file under ``tests/data/golden_*.csv`` is the ``records_to_csv`` text
of the case of the same name, as produced before the sweeps were folded
into one engine.  A refactor of the sweep code must leave every one of
them unchanged: same RNG draw order, same columns, same 12-digit cells.
"""

from pathlib import Path

import pytest

from fourstab.experiments import (
    SweepConfig,
    clump_experiment,
    figure1_sweep,
    freq_stability_sweep,
    node_stability_sweep,
    records_to_csv,
    wellsep_sweep,
)

DATA = Path(__file__).parent / "data"

CASES = {
    # crossover lowered so n = 11, 13 take the iterative route
    "figure1": lambda: figure1_sweep([3, 5, 7, 9, 11, 13], SweepConfig(crossover=9)),
    "freq_1d": lambda: freq_stability_sweep([8], [0.0, 0.1, 0.2], False, SweepConfig(seed=5, trials=3)),
    "freq_3d_general": lambda: freq_stability_sweep(
        [2, 2, 3], [0.0, 0.15], False, SweepConfig(seed=6, trials=2)
    ),
    "freq_2d_rank_one": lambda: freq_stability_sweep(
        [3, 4], [0.0, 0.2], True, SweepConfig(seed=7, trials=3)
    ),
    # ell = 0.24 fails the applicability gate, the others pass it
    "node": lambda: node_stability_sweep(64, 16, [0.0, 0.05, 0.24], SweepConfig(seed=3, trials=3)),
    "wellsep": lambda: wellsep_sweep([4, 8, 16, 33], SweepConfig(seed=11, trials=3)),
    "clump_lam1": lambda: clump_experiment(
        96, 8, [1e-4, 1e-3], 1, (0.5, 2.0), SweepConfig(seed=2, trials=2)
    ),
    "clump_lam2": lambda: clump_experiment(
        96, 8, [1e-4, 1e-3], 2, (0.5, 2.0), SweepConfig(seed=2, trials=2)
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_matches_golden(name):
    expected = (DATA / f"golden_{name}.csv").read_text()
    assert records_to_csv(CASES[name]()) == expected
