import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fourstab import bounds as bnd
from fourstab import experiments
from fourstab.core_matrix import (
    ComplexDense,
    PerturbationMap,
    build_perturbed_dft_freq,
    build_vandermonde,
    rect_lattice_points,
)
from fourstab.exp_systems import clump_decompose, separation
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


# Reference sweeps, one trial at a time: each trial draws from its own
# stream, builds its own matrix and takes its own SVD, as the sweeps did
# before they stacked their trials.  Each trial returns the record's params,
# measured, bounds and violations columns and the matrix it would dump.


def loop_sweep(jobs, trial, seed, trials):
    return [
        trial(job, t, np.random.default_rng([seed, i]))
        for i, (job, t) in enumerate(itertools.product(jobs, range(trials)))
    ]


def _loop_bound_check(report, low, high, columns=("sigma_min_lower", "sigma_max_upper")):
    slack = experiments.VIOLATION_SLACK
    flags = {}
    if low is not None:
        flags["lower"] = bool(low < report.sigma_min_lower - slack)
    flags["upper"] = bool(high > report.sigma_max_upper + slack)
    return dict(zip(columns, (report.sigma_min_lower, report.sigma_max_upper))), flags


def _loop_separated_nodes(rng, count, amplitude, accept):
    for _ in range(200):
        offset = rng.random()
        nodes = np.mod((np.arange(count) + offset + amplitude * rng.uniform(-1, 1, count)) / count, 1.0)
        sep = separation(nodes)
        if accept(sep):
            return nodes, sep
    raise RuntimeError("no accepted draw")


def loop_freq(m, ell_grid, rank_one, seed, trials):
    dims = list(m)
    size, d = len(rect_lattice_points(dims)), len(dims)

    def trial(ell, t, rng):
        if rank_one:
            axes = [rng.uniform(-ell, ell, mk) if ell > 0 else np.zeros(mk) for mk in dims]
            axis = int(rng.integers(d))
            pos = int(rng.integers(dims[axis]))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            axes[axis][pos] = sign * ell
            eps = PerturbationMap.rank_one(axes)
        else:
            vals = rng.uniform(-ell, ell, size=(size, d)) if ell > 0 else np.zeros((size, d))
            pos = int(rng.integers(size))
            axis = int(rng.integers(d))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            vals[pos, axis] = sign * ell
            eps = PerturbationMap.general(vals)
        mat = build_perturbed_dft_freq(dims, eps)
        s = np.linalg.svd(mat.data, compute_uv=False)
        smin, smax = float(s[-1]), float(s[0])
        return (
            {"m": "x".join(map(str, dims)), "ell": ell, "trial": t, "rank_one": rank_one},
            {"sigma_min": smin, "sigma_max": smax},
            *_loop_bound_check(bnd.dft_freq_bounds(dims, ell, rank_one), smin, smax),
            mat,
        )

    return loop_sweep([float(e) for e in ell_grid], trial, seed, trials)


def loop_node(L, n, ell_grid, seed, trials):
    amplitude = max(0.02, 0.4 * (1.0 - n * 2.0 / L))

    def trial(ell, t, rng):
        base, _ = _loop_separated_nodes(rng, n, amplitude, lambda sep: sep >= 2.0 / L)
        s = np.linalg.svd(build_vandermonde(L, base).data, compute_uv=False)
        sigma_1, sigma_r = float(s[0]), float(s[min(L, n) - 1])
        report = bnd.vandermonde_node_bounds(sigma_r, sigma_1, ell)
        sig1p = sigrp = math.nan
        vp = None
        bounds = {"sigma_min_lower": math.nan, "sigma_max_upper": math.nan}
        violations = {"lower": False, "upper": False}
        if report.applicable:
            delta = rng.uniform(-ell, ell, n) if ell > 0 else np.zeros(n)
            pos = int(rng.integers(n))
            delta[pos] = (1.0 if rng.random() < 0.5 else -1.0) * ell
            vp = build_vandermonde(L, base + delta / L)
            sp = np.linalg.svd(vp.data, compute_uv=False)
            sig1p, sigrp = float(sp[0]), float(sp[min(L, n) - 1])
            bounds, violations = _loop_bound_check(report, sigrp, sig1p)
        return (
            {"L": L, "n": n, "ell": ell, "trial": t, "applicable": report.applicable},
            {"sigma_r": sigma_r, "sigma_1": sigma_1, "sigma_r_pert": sigrp, "sigma_1_pert": sig1p},
            bounds,
            violations,
            vp,
        )

    return loop_sweep([float(e) for e in ell_grid], trial, seed, trials)


def loop_wellsep(L_grid, seed, trials):
    def trial(L, t, rng):
        n = int(rng.integers(2, max(3, L // 2 + 1)))
        nodes, sep = _loop_separated_nodes(rng, n, 0.4 * (1.0 - n / L), lambda sep: sep > 1.0 / L)
        v = build_vandermonde(L, nodes)
        s = np.linalg.svd(v.data, compute_uv=False)
        smin_sq, smax_sq = float(s[-1] ** 2), float(s[0] ** 2)
        return (
            {"L": L, "n": n, "trial": t, "sep": sep},
            {"sigma_min_sq": smin_sq, "sigma_max_sq": smax_sq},
            *_loop_bound_check(bnd.wellsep_bounds(L, sep), smin_sq, smax_sq, columns=("lower_sq", "upper_sq")),
            v,
        )

    return loop_sweep(list(L_grid), trial, seed, trials)


def loop_clump(L, N, alpha_grid, lam, constants, seed, trials):
    r = N // lam

    def trial(alpha, t, rng):
        centers = (np.arange(r) + rng.random() + 0.1 * rng.uniform(-1, 1, r)) / r
        nodes = np.mod(np.concatenate([c + alpha * np.arange(lam) for c in centers]), 1.0)
        dec = clump_decompose(nodes, L, lam)
        v = build_vandermonde(L, nodes)
        s = np.linalg.svd(v.data, compute_uv=False)
        sigma_1 = float(s[0])
        return (
            {"L": L, "N": N, "alpha": alpha, "lambda": lam, "trial": t, "hypotheses_ok": dec.hypotheses_ok},
            {"sigma_N": float(s[N - 1]), "sigma_1": sigma_1},
            *_loop_bound_check(bnd.clump_bounds(L, N, alpha, lam, *constants), None, sigma_1),
            v,
        )

    return loop_sweep([float(a) for a in alpha_grid], trial, seed, trials)


# (stacked sweep, per-trial reference) for a seed; each stacks more than one
# trial per SVD call, and they cover ell = 0, non-applicable node trials
# (ell = 0.24), mixed node counts in one wellsep job and both clump sizes.
REFERENCE_CASES = {
    "freq_1d": (
        lambda seed: freq_stability_sweep([8], [0.0, 0.1, 0.24], False, SweepConfig(seed=seed, trials=4)),
        lambda seed: loop_freq([8], [0.0, 0.1, 0.24], False, seed, 4),
    ),
    "freq_3d_general": (
        lambda seed: freq_stability_sweep([2, 2, 3], [0.0, 0.15], False, SweepConfig(seed=seed, trials=3)),
        lambda seed: loop_freq([2, 2, 3], [0.0, 0.15], False, seed, 3),
    ),
    "freq_2d_rank_one": (
        lambda seed: freq_stability_sweep([3, 4], [0.0, 0.2], True, SweepConfig(seed=seed, trials=3)),
        lambda seed: loop_freq([3, 4], [0.0, 0.2], True, seed, 3),
    ),
    "node": (
        lambda seed: node_stability_sweep(64, 16, [0.0, 0.05, 0.12, 0.24], SweepConfig(seed=seed, trials=4)),
        lambda seed: loop_node(64, 16, [0.0, 0.05, 0.12, 0.24], seed, 4),
    ),
    "wellsep": (
        lambda seed: wellsep_sweep([3, 4, 16, 33], SweepConfig(seed=seed, trials=6)),
        lambda seed: loop_wellsep([3, 4, 16, 33], seed, 6),
    ),
    "clump_lam1": (
        lambda seed: clump_experiment(96, 8, [1e-4, 1e-3], 1, (0.5, 2.0), SweepConfig(seed=seed, trials=3)),
        lambda seed: loop_clump(96, 8, [1e-4, 1e-3], 1, (0.5, 2.0), seed, 3),
    ),
    "clump_lam2": (
        lambda seed: clump_experiment(96, 8, [1e-4, 1e-3], 2, (0.5, 2.0), SweepConfig(seed=seed, trials=3)),
        lambda seed: loop_clump(96, 8, [1e-4, 1e-3], 2, (0.5, 2.0), seed, 3),
    ),
}


def _columns(rows):
    # repr keeps NaN cells comparable and tells 0.0 from -0.0
    return [repr(row[:4]) for row in rows]


class TestStackedSweeps:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_records_equal_per_trial_reference(self, name, seed):
        stacked, loop = REFERENCE_CASES[name]
        records = stacked(seed)
        assert _columns([(r.params, r.measured, r.bounds, r.violations) for r in records]) == _columns(loop(seed))

    def test_reference_cases_cover_edges(self):
        node = REFERENCE_CASES["node"][0](0)
        assert {r.params["applicable"] for r in node} == {True, False}
        wellsep = REFERENCE_CASES["wellsep"][0](0)
        assert len({r.params["n"] for r in wellsep if r.params["L"] == 33}) > 1

    def test_stacks_respect_the_entry_budget(self, monkeypatch):
        # a budget of two 8 x 8 matrices splits every job into several stacks
        monkeypatch.setattr(experiments, "_STACK_ENTRIES", 128)
        records = freq_stability_sweep([8], [0.1, 0.2], False, SweepConfig(seed=4, trials=5))
        expected = loop_freq([8], [0.1, 0.2], False, 4, 5)
        assert _columns([(r.params, r.measured, r.bounds, r.violations) for r in records]) == _columns(expected)
        assert experiments._stacks([(8, 8)] * 5) == [[0, 1], [2, 3], [4]]
        assert experiments._stacks([(4, 2), (4, 3), (4, 2)]) == [[0, 2], [1]]
        assert experiments._stacks([(200, 200)] * 2) == [[0], [1]]

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_wall_times_positive_within_elapsed(self, name):
        t0 = time.perf_counter()
        records = REFERENCE_CASES[name][0](5)
        elapsed = time.perf_counter() - t0
        times = [r.wall_time_s for r in records]
        assert all(w > 0 for w in times)
        assert sum(times) <= elapsed

    def test_sweeps_load_no_further_modules(self):
        # The sweeps use numpy alone: no scipy module and nothing else that
        # importing fourstab and numpy.random has not already loaded.
        code = """
import sys, fourstab, numpy.random
from fourstab import experiments as ex
before = set(sys.modules)
cfg = ex.SweepConfig(seed=3, trials=2)
ex.freq_stability_sweep([4], [0.1], False, cfg)
ex.freq_stability_sweep([2, 3], [0.1], True, cfg)
ex.node_stability_sweep(32, 4, [0.1], cfg)
ex.wellsep_sweep([8], cfg)
ex.clump_experiment(48, 4, [1e-3], 2, cfg=cfg)
print(sorted(set(sys.modules) - before))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.split("\n")[:2] == ["[]", "[]"]


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

    def test_more_nodes_than_half_L_rejected_before_drawing(self, monkeypatch):
        def refuse(seed, index):
            raise AssertionError("a trial stream was created")

        monkeypatch.setattr(experiments, "_trial_rng", refuse)
        for L, n in ((4, 4), (10, 6), (7, 4)):
            with pytest.raises(ValueError, match="n <= L/2"):
                node_stability_sweep(L, n, [0.1], SweepConfig(trials=2))


class TestWellsepSweep:
    def test_no_violations(self):
        recs = wellsep_sweep([16, 64], SweepConfig(trials=25))
        assert sum(r.violated for r in recs) == 0

    def test_separation_recorded_above_gate(self):
        recs = wellsep_sweep([16], SweepConfig(trials=10))
        for rec in recs:
            assert rec.params["sep"] > 1.0 / 16

    def test_L_below_three_rejected_before_drawing(self, monkeypatch):
        def refuse(seed, index):
            raise AssertionError("a trial stream was created")

        monkeypatch.setattr(experiments, "_trial_rng", refuse)
        for L in (0, 1, 2):
            with pytest.raises(ValueError, match="L >= 3"):
                wellsep_sweep([16, L], SweepConfig(trials=2))


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
        # Each dump is its own trial's matrix, bit for bit, not another slice of its stack.
        cases = [
            ("freq", lambda c: freq_stability_sweep([6], [0.1, 0.2], False, c), loop_freq([6], [0.1, 0.2], False, 3, 3)),
            ("freq", lambda c: freq_stability_sweep([2, 3], [0.2], True, c), loop_freq([2, 3], [0.2], True, 3, 3)),
            ("node", lambda c: node_stability_sweep(32, 6, [0.05, 0.1], c), loop_node(32, 6, [0.05, 0.1], 3, 3)),
            ("wellsep", lambda c: wellsep_sweep([9, 16], c), loop_wellsep([9, 16], 3, 3)),
            ("clump", lambda c: clump_experiment(48, 4, [1e-3], 2, cfg=c), loop_clump(48, 4, [1e-3], 2, (1.0, 1.0), 3, 3)),
        ]
        for tag, sweep, expected in cases:
            base = tmp_path / f"{tag}-{len(expected)}.csv"
            recs = sweep(SweepConfig(seed=3, trials=3, output_path=str(base)))
            assert all(r.violated for r in recs)
            for i, (rec, (*_, matrix)) in enumerate(zip(recs, expected, strict=True)):
                dump = Path(rec.artifacts["matrix_dump"])
                assert dump.name == f"{base.name}.violation-{tag}-{i}.json"
                got = ComplexDense.from_json(dump.read_text()).data
                assert got.shape == matrix.data.shape
                assert got.tobytes() == matrix.data.tobytes()
