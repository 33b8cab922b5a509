import json
import math
from pathlib import Path

import numpy as np
import pytest

from fourstab import experiments
from fourstab.core_matrix import ComplexDense
from fourstab.experiments import (
    SweepConfig,
    benchmark_comparison,
    clump_experiment,
    figure1_sweep,
    fit_loglog_slope,
    freq_stability_sweep,
    node_stability_sweep,
    records_to_csv,
    strict_json,
    wellsep_sweep,
    write_report,
)
from fourstab.spectral import CROSSOVER_DIM

# Frozen via a 30-digit closed-form evaluation, cross-checked by bisection below.
ELL_HALF_1D = 0.13497327191869204
ELL_HALF_GENERAL_2D = 0.06566905547197723


class TestFigure1Sweep:
    def test_small_case_matches_exact_spectrum(self):
        rec = figure1_sweep([3], SweepConfig())[0]
        assert rec.measured["kappa"] == pytest.approx(2.0, rel=1e-10)
        assert rec.params["method"] == "FullDecomposition"

    def test_iterative_path_beyond_crossover(self):
        cfg = SweepConfig(crossover=100)
        rec = figure1_sweep([101], cfg)[0]
        assert rec.params["method"] == "IterativeExtremes"
        full = figure1_sweep([101], SweepConfig(crossover=101))[0]
        assert full.params["method"] == "FullDecomposition"
        assert rec.measured["kappa"] == pytest.approx(full.measured["kappa"], rel=1e-8)

    def test_no_dense_build_beyond_crossover(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"dense build_figure1({n}) past the crossover")

        monkeypatch.setattr(experiments, "build_figure1", refuse)
        rec = figure1_sweep([101], SweepConfig(crossover=100))[0]
        assert rec.params["method"] == "IterativeExtremes"

    def test_default_crossover_routes_to_operator(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"dense build_figure1({n}) past the default crossover")

        monkeypatch.setattr(experiments, "build_figure1", refuse)
        n = CROSSOVER_DIM + 1 + CROSSOVER_DIM % 2  # smallest odd size past it
        rec = figure1_sweep([n], SweepConfig())[0]
        assert rec.params["method"] == "IterativeExtremes"

    def test_kappa_growth_past_2001(self):
        # Regression guard on measured values (Toeplitz Gram route: increments
        # 0.5687, 0.5681, 0.5676, 0.5671, 0.5666, 0.5662), not a proof of a
        # log-n law.
        records = figure1_sweep([2001, 4001, 8001, 16001, 32001, 64001, 128001], SweepConfig())
        assert all(r.params["method"] == "IterativeExtremes" for r in records)
        kappas = [r.measured["kappa"] for r in records]
        assert kappas[0] == pytest.approx(7.387841265790133, rel=1e-9)
        for a, b in zip(kappas, kappas[1:]):
            assert 0.56 <= b - a <= 0.57

    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            figure1_sweep([4], SweepConfig())


class TestFreqStabilitySweep:
    def test_zero_ell_tight(self):
        recs = freq_stability_sweep((4,), [0.0], rank_one=False, cfg=SweepConfig(trials=3))
        for rec in recs:
            assert rec.measured["sigma_min"] == pytest.approx(2.0, rel=1e-12)
            assert not rec.violated

    def test_no_violations_general(self):
        recs = freq_stability_sweep((16,), [0.2], rank_one=False, cfg=SweepConfig(trials=25))
        assert sum(r.violated for r in recs) == 0

    def test_no_violations_rank_one_2d(self):
        recs = freq_stability_sweep((3, 3), [0.1], rank_one=True, cfg=SweepConfig(trials=25))
        assert sum(r.violated for r in recs) == 0

    def test_sup_norm_forced_to_boundary(self):
        # drawn perturbations must sit exactly on the sup-norm boundary;
        # at ell = 0.24 the measured extremes stay strictly inside the bounds
        recs = freq_stability_sweep((8,), [0.24], rank_one=False, cfg=SweepConfig(trials=5))
        for rec in recs:
            assert rec.bounds["sigma_min_lower"] <= rec.measured["sigma_min"] + 1e-9

    def test_rejects_large_ell(self):
        with pytest.raises(ValueError):
            freq_stability_sweep((4,), [0.3], rank_one=False, cfg=SweepConfig())


class TestNodeStabilitySweep:
    def test_no_violations(self):
        recs = node_stability_sweep(64, 16, [0.05, 0.1], SweepConfig(trials=10))
        applicable = [r for r in recs if r.params["applicable"]]
        assert applicable, "gate should pass for well-separated draws"
        assert sum(r.violated for r in recs) == 0

    def test_zero_ell_equality_slack(self):
        recs = node_stability_sweep(32, 8, [0.0], SweepConfig(trials=3))
        for rec in recs:
            assert rec.measured["sigma_r_pert"] >= rec.bounds["sigma_min_lower"] - 1e-9


class TestWellsepSweep:
    def test_no_violations(self):
        recs = wellsep_sweep([16, 64], SweepConfig(trials=25))
        assert sum(r.violated for r in recs) == 0

    def test_separation_recorded_above_gate(self):
        recs = wellsep_sweep([16], SweepConfig(trials=10))
        for rec in recs:
            assert rec.params["sep"] > 1.0 / 16


class TestBenchmarkComparison:
    def test_one_dimensional_threshold(self):
        rep = benchmark_comparison((16,))
        assert rep["ell_general_for_half"] == pytest.approx(ELL_HALF_1D, abs=1e-11)
        assert rep["ell_rank_one_for_half"] == pytest.approx(ELL_HALF_1D, abs=1e-11)

    def test_weyl_eps_shrinks_with_size(self):
        rep = benchmark_comparison((10_000,))
        assert rep["weyl_eps_for_half"] == pytest.approx(1.0 / (2 * math.pi * 100), rel=1e-12)
        assert rep["weyl_eps_for_half"] < rep["ell_general_for_half"]

    def test_two_dimensional_thresholds(self):
        rep = benchmark_comparison((8, 8))
        assert rep["ell_general_for_half"] == pytest.approx(ELL_HALF_GENERAL_2D, abs=1e-11)
        # (1 - C(1/12))^2 = 1/2 exactly
        assert rep["ell_rank_one_for_half"] == pytest.approx(1 / 12, abs=1e-10)


class TestClumpExperiment:
    def test_slope_and_upper_bound(self):
        alphas = np.geomspace(1e-3, 1e-2, 5) / 128
        for lam, expected in ((1, 0.0), (2, 1.0)):
            recs = clump_experiment(128, 8, alphas, lam, cfg=SweepConfig(trials=3))
            assert all(r.params["hypotheses_ok"] for r in recs)
            assert sum(r.violated for r in recs) == 0
            med = [
                float(np.median([r.measured["sigma_N"] for r in recs if r.params["alpha"] == a]))
                for a in alphas
            ]
            slope = fit_loglog_slope(alphas, med)
            assert abs(slope - expected) <= 0.2

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            clump_experiment(128, 8, [1.0 / 64], 1, cfg=SweepConfig())

    def test_indivisible_cluster_size_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            clump_experiment(128, 8, [1e-4], 3, cfg=SweepConfig())


class TestDeterminism:
    def test_byte_identical_csv(self):
        cfg = SweepConfig(seed=7, trials=10)
        a = records_to_csv(freq_stability_sweep((8,), [0.1], False, cfg))
        b = records_to_csv(freq_stability_sweep((8,), [0.1], False, SweepConfig(seed=7, trials=10)))
        assert a == b

    def test_seed_changes_output(self):
        a = records_to_csv(freq_stability_sweep((8,), [0.1], False, SweepConfig(seed=1, trials=5)))
        b = records_to_csv(freq_stability_sweep((8,), [0.1], False, SweepConfig(seed=2, trials=5)))
        assert a != b

    def test_only_one_worker_accepted(self):
        assert SweepConfig(workers=1).workers == 1
        assert SweepConfig(workers=None).workers is None
        with pytest.raises(ValueError, match="one thread"):
            SweepConfig(workers=2)

    def test_csv_number_format(self):
        recs = wellsep_sweep([16], SweepConfig(seed=5, trials=2))
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0].startswith("L,n,trial,sep")
        assert "e-" in text or "." in text  # 12-significant-digit decimals

    def test_report_json_structure(self, tmp_path):
        cfg = SweepConfig(seed=0, trials=2)
        recs = wellsep_sweep([16], cfg)
        out = tmp_path / "report.json"
        write_report(cfg, recs, out, wall_time_s=0.1)
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "records", "violations", "wall_time_s"}
        assert set(doc["config"]) == {"seed", "trials", "crossover", "output_path", "workers"}
        assert doc["violations"] == 0

    def test_strict_json_names_nonfinite_members(self):
        doc = {"a": math.nan, "b": -math.inf, "c": None, "d": [math.inf, 1.0], "e": {"f": math.inf}}
        assert json.loads(strict_json(doc)) == {
            "a": None, "a_nonfinite": "nan",
            "b": None, "b_nonfinite": "-inf",
            "c": None,
            "d": [None, 1.0],
            "e": {"f": None, "f_nonfinite": "inf"},
        }


class TestOutputFiles:
    def test_csv_written_to_output_path(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = SweepConfig(seed=0, trials=2, output_path=str(out))
        wellsep_sweep([16], cfg)
        assert out.exists()
        assert out.with_suffix(".csv.report.json").exists()

    def test_violation_dumps_matrix(self, tmp_path, monkeypatch):
        # a slack of -1e9 makes every checked bound count as violated
        monkeypatch.setattr(experiments, "VIOLATION_SLACK", -1e9)
        out = tmp_path / "sweep.csv"
        recs = wellsep_sweep([16], SweepConfig(seed=0, trials=2, output_path=str(out)))
        assert all(r.violated for r in recs)
        dumps = [Path(r.artifacts["matrix_dump"]) for r in recs]
        assert [d.name for d in dumps] == ["sweep.csv.violation-wellsep-0.json", "sweep.csv.violation-wellsep-1.json"]
        assert ComplexDense.from_json(dumps[1].read_text()).rows == 16
        assert json.loads(out.with_suffix(".csv.report.json").read_text())["violations"] == 2
