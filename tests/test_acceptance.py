"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured-output section of a failure report).
"""

import math
import time

import numpy as np

from fourstab.bounds import instability_spectrum, kadec_C
from fourstab.core_matrix import (
    FrequencySet,
    NodeSet,
    PerturbationMap,
    build_dft,
    build_figure1,
    build_gamma,
    build_instability_submatrix,
    build_perturbed_dft_freq,
    build_vandermonde,
)
from fourstab.exp_systems import (
    ExponentialSystemSpec,
    gram_matrix,
    special_delta_condition,
    tensor_kadec_condition,
)
from fourstab.experiments import (
    SweepConfig,
    clump_experiment,
    figure1_sweep,
    fit_loglog_slope,
    freq_stability_sweep,
    records_to_csv,
)
from fourstab.oracle import extremal_witness, frame_ratio, riesz_ratio
from fourstab.spectral import (
    extreme_singular_values,
    hermitian_eigenvalues,
    svd_values,
)
from fourstab.verify import random_spec

SLACK = 1e-9


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_instability_spectrum_exact():
    t0 = time.perf_counter()
    worst_sv = 0.0
    worst_kappa = 0.0
    for n in range(3, 202, 2):
        predicted = np.array(instability_spectrum(n))
        summary = svd_values(build_instability_submatrix(n))
        measured = np.array(summary.singular_values)
        worst_sv = max(worst_sv, float(np.max(np.abs(measured - predicted) / predicted)))
        kappa = summary.sigma_max / summary.sigma_min
        worst_kappa = max(worst_kappa, abs(kappa - math.sqrt(n + 1)) / math.sqrt(n + 1))
    elapsed = time.perf_counter() - t0
    ok = worst_sv <= 1e-9 and worst_kappa <= 1e-9 and elapsed < 30.0
    assert report(
        "criterion-01",
        ok,
        f"instability spectrum: sv dev {worst_sv:.2e}, kappa dev {worst_kappa:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_dft_degeneracy():
    worst = 0.0
    for m in ((8,), (16,), (3, 4), (2, 3, 4)):
        target = math.sqrt(math.prod(m))
        s = np.array(svd_values(build_dft(m)).singular_values)
        worst = max(worst, float(np.max(np.abs(s - target) / target)))
    ok = worst <= 1e-10
    assert report("criterion-02", ok, f"partial DFT singular values: max rel dev {worst:.2e}")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    riesz_bad = 0
    for _ in range(60):
        dim = int(rng.integers(1, 3))
        spec = random_spec(rng, dim=dim, max_l=8, max_n=8, aspect="wide")
        s = svd_values(build_gamma(spec.deltas, spec.p))
        lo = s.singular_values[min(spec.num_deltas, spec.num_p) - 1] ** 2
        hi = s.sigma_max**2
        reach = 3 if dim == 1 else 2
        coeffs = {}
        for j in range(spec.num_deltas):
            for n in (
                range(-reach, reach + 1)
                if dim == 1
                else [(a, b) for a in range(-reach, reach + 1) for b in range(-reach, reach + 1)]
            ):
                coeffs[(j, n)] = complex(rng.standard_normal(), rng.standard_normal())
        ratio = riesz_ratio(spec, coeffs)
        if not lo - SLACK <= ratio <= hi + SLACK:
            riesz_bad += 1
    frame_bad = 0
    for _ in range(40):
        spec = random_spec(rng, dim=1, max_l=8, max_n=8, aspect="tall")
        top = svd_values(build_gamma(spec.deltas, spec.p)).sigma_max ** 2
        ratio = frame_ratio(extremal_witness(spec, "max"), 10_000)
        if abs(ratio - top) > 0.01 * top:
            frame_bad += 1
    elapsed = time.perf_counter() - t0
    ok = riesz_bad == 0 and frame_bad == 0 and elapsed < 120.0
    assert report(
        "criterion-03",
        ok,
        f"oracle equivalence: {riesz_bad} riesz misses, {frame_bad} frame misses, {elapsed:.1f}s",
    )


def test_criterion_04_gram_identity():
    rng = np.random.default_rng(404)
    worst_entry = 0.0
    worst_eig = 0.0
    for _ in range(200):
        spec = random_spec(rng, dim=int(rng.integers(1, 4)), max_l=10, max_n=10)
        gamma = build_gamma(spec.deltas, spec.p)
        gram = gram_matrix(spec)
        product = gamma.data.conj().T @ gamma.data
        worst_entry = max(worst_entry, float(np.max(np.abs(gram.data - product))))
        eig = hermitian_eigenvalues(gram)
        sq = np.array(svd_values(gamma).singular_values) ** 2
        scale = max(sq[0], 1e-30)
        k = sq.size
        worst_eig = max(worst_eig, float(np.max(np.abs(eig[:k] - sq))) / scale)
        if eig.size > k:  # rank-deficient tail must vanish
            worst_eig = max(worst_eig, float(np.max(np.abs(eig[k:]))) / scale)
    ok = worst_entry <= 1e-10 and worst_eig <= 1e-9
    assert report(
        "criterion-04",
        ok,
        f"gram identity: entry dev {worst_entry:.2e}, eigenvalue dev {worst_eig:.2e} (200 specs)",
    )


def _forced_sup_tables(rng, dims, ell):
    tables = [rng.uniform(-ell, ell, mk) if ell > 0 else np.zeros(mk) for mk in dims]
    axis = int(rng.integers(len(dims)))
    pos = int(rng.integers(dims[axis]))
    tables[axis][pos] = (1.0 if rng.random() < 0.5 else -1.0) * ell
    return tables


def test_criterion_05_frequency_stability_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    violations = 0
    total = 0
    for m in (16, 64):
        root = math.sqrt(m)
        for ell in (0.05, 0.1, 0.2, 0.24):
            lo = (1.0 - kadec_C(ell)) * root
            hi = (1.0 + kadec_C(ell)) * root
            for _ in range(200):
                vals = rng.uniform(-ell, ell, size=(m, 1))
                vals[int(rng.integers(m)), 0] = (1.0 if rng.random() < 0.5 else -1.0) * ell
                eps = PerturbationMap.general(vals)
                s = svd_values(build_perturbed_dft_freq((m,), eps))
                total += 1
                if s.sigma_min < lo - SLACK or s.sigma_max > hi + SLACK:
                    violations += 1
    for ell in (0.05, 0.1, 0.2, 0.24):
        lo = (1.0 - kadec_C(ell)) ** 2 * 8.0
        hi = (1.0 + kadec_C(ell)) ** 2 * 8.0
        for _ in range(200):
            eps = PerturbationMap.rank_one(_forced_sup_tables(rng, (8, 8), ell))
            s = svd_values(build_perturbed_dft_freq((8, 8), eps))
            total += 1
            if s.sigma_min < lo - SLACK or s.sigma_max > hi + SLACK:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 180.0
    assert report(
        "criterion-05",
        ok,
        f"frequency stability: {violations} violations in {total} trials, {elapsed:.1f}s",
    )


def test_criterion_06_normalization_probe():
    rng = np.random.default_rng(606)
    n = 64
    ell = 0.1
    factor = math.cos(math.pi * ell) - math.sin(math.pi * ell)
    sqrt_scale_violations = 0
    n_scale_sigma_hits = 0
    n_scale_sq_hits = 0
    for _ in range(100):
        eps = rng.uniform(-ell, ell, n)
        eps[int(rng.integers(n))] = (1.0 if rng.random() < 0.5 else -1.0) * ell
        nodes = (np.arange(n) + eps) / n
        s = svd_values(build_vandermonde(n, nodes))
        if s.sigma_min < math.sqrt(n) * factor - SLACK:
            sqrt_scale_violations += 1
        if s.sigma_min >= n * factor:
            n_scale_sigma_hits += 1
        if s.sigma_min**2 >= n * factor**2:
            n_scale_sq_hits += 1
    ok = sqrt_scale_violations == 0
    assert report(
        "criterion-06",
        ok,
        f"normalization probe: sqrt-scale violations {sqrt_scale_violations}/100; "
        f"unasserted N-scale readings: sigma {n_scale_sigma_hits}/100, "
        f"sigma^2 {n_scale_sq_hits}/100",
    )


def test_criterion_07_node_stability_soundness():
    rng = np.random.default_rng(707)
    L, n = 64, 16
    violations = 0
    gate_failures = 0
    applicable = 0
    for ell in (0.05, 0.1):
        c = kadec_C(ell)
        for _ in range(100):
            while True:
                base = np.mod((np.arange(n) + rng.random() + 0.2 * rng.uniform(-1, 1, n)) / n, 1.0)
                gaps = np.diff(np.sort(base))
                if min(gaps.min(), 1.0 - np.ptp(np.sort(base))) >= 2.0 / L:
                    break
            s = svd_values(build_vandermonde(L, base))
            sigma_1, sigma_r = s.sigma_max, s.singular_values[n - 1]
            if c >= sigma_r / sigma_1:
                gate_failures += 1
                continue
            applicable += 1
            delta = rng.uniform(-ell, ell, n)
            delta[int(rng.integers(n))] = (1.0 if rng.random() < 0.5 else -1.0) * ell
            sp = svd_values(build_vandermonde(L, base + delta / L))
            lo = sigma_r * (1.0 - (sigma_1 / sigma_r) * c)
            hi = sigma_1 * (1.0 + c)
            if sp.singular_values[n - 1] < lo - SLACK or sp.sigma_max > hi + SLACK:
                violations += 1
    ok = violations == 0 and applicable > 0
    assert report(
        "criterion-07",
        ok,
        f"node stability: {violations} violations, {applicable} applicable, "
        f"{gate_failures} gate failures (not violations)",
    )


def test_criterion_08_wellsep_sandwich():
    rng = np.random.default_rng(808)
    violations = 0
    for L in (16, 64, 256):
        for _ in range(100):
            n = int(rng.integers(2, L // 2 + 1))
            amp = 0.4 * (1.0 - n / L)
            while True:
                nodes = np.mod((np.arange(n) + rng.random() + amp * rng.uniform(-1, 1, n)) / n, 1.0)
                xs = np.sort(nodes)
                gaps = np.minimum(np.diff(xs, append=xs[0] + 1.0), 0.5)
                sep = float(gaps.min())
                if sep > 1.0 / L:
                    break
            s = svd_values(build_vandermonde(L, nodes))
            if s.sigma_min**2 < L - 1.0 / sep - SLACK or s.sigma_max**2 > L + 1.0 / sep + SLACK:
                violations += 1
    ok = violations == 0
    assert report("criterion-08", ok, f"well-separated sandwich: {violations} violations in 300 sets")


def _clean_delta_for(rng, pts, margin=1e-3):
    while True:
        delta = float(rng.uniform(0, 1))
        vals = [delta * float(a - b) for a in pts for b in pts if a != b]
        if all(abs(v - round(v)) >= margin for v in vals):
            return delta


def test_criterion_09_invertibility_iff_conditions():
    rng = np.random.default_rng(909)
    agree_delta = 0
    trials_delta = 500
    for trial in range(trials_delta):
        n = int(rng.integers(2, 6))
        pts = []
        while len(set(pts)) < n:
            pts = [int(x) for x in rng.integers(-6, 7, n)]
        pts = sorted(set(pts))
        p = FrequencySet(pts)
        if trial % 2 == 0:
            delta = _clean_delta_for(rng, pts)
        else:
            a, b = rng.choice(n, size=2, replace=False)
            diff = pts[a] - pts[b]
            delta = abs(int(rng.integers(1, abs(diff) + 1)) / diff)
        offsets = np.mod(np.arange(n) * delta, 1.0)
        if len(set(offsets.tolist())) != n:
            agree_delta += 1  # offset collision: system degenerates trivially, skip
            continue
        spec = ExponentialSystemSpec(NodeSet(offsets), p)
        s = svd_values(build_gamma(spec.deltas, spec.p))
        nonsingular = s.sigma_min > 1e-8 * s.sigma_max
        if special_delta_condition([delta], p).holds == nonsingular:
            agree_delta += 1

    from test_exp_systems import _rank_one_tables

    agree_kadec = 0
    trials_kadec = 500
    for trial in range(trials_kadec):
        d = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 7)) for _ in range(d)]
        eps = PerturbationMap.rank_one(_rank_one_tables(rng, dims, degenerate=trial % 3 == 0))
        s = svd_values(build_perturbed_dft_freq(dims, eps))
        nonsingular = s.sigma_min > 1e-8 * s.sigma_max
        if tensor_kadec_condition(dims, eps).holds == nonsingular:
            agree_kadec += 1
    ok = agree_delta == trials_delta and agree_kadec == trials_kadec
    assert report(
        "criterion-09",
        ok,
        f"iff conditions: offset-progression {agree_delta}/{trials_delta}, "
        f"rank-one lattice {agree_kadec}/{trials_kadec}",
    )


def test_criterion_10_figure1_reproduction():
    t0 = time.perf_counter()
    sizes = list(range(101, 2002, 100))
    records = figure1_sweep(sizes, SweepConfig())
    kappas = [r.measured["kappa"] for r in records]
    nondecreasing = all(b >= a for a, b in zip(kappas, kappas[1:]))
    grows = kappas[-1] > kappas[0]
    agree = True
    for rec in records:
        n = rec.params["n"]
        if n <= 501:
            smax, smin = extreme_singular_values(build_figure1(n))
            ref_max, ref_min = rec.measured["sigma_max"], rec.measured["sigma_min"]
            if abs(smax - ref_max) > 1e-8 * ref_max or abs(smin - ref_min) > 1e-8 * ref_max:
                agree = False
    elapsed = time.perf_counter() - t0
    ok = nondecreasing and grows and agree and elapsed < 600.0
    assert report(
        "criterion-10",
        ok,
        f"figure-1 sweep: kappa {kappas[0]:.3f} -> {kappas[-1]:.3f}, "
        f"monotone={nondecreasing}, methods agree={agree}, {elapsed:.1f}s",
    )


def test_criterion_11_clump_scaling_law():
    alphas = (np.geomspace(1e-3, 1e-2, 6) / 128).tolist()
    all_ok = True
    details = []
    for lam in (1, 2):
        recs = clump_experiment(128, 8, alphas, lam, cfg=SweepConfig(seed=1111, trials=5))
        upper_violations = sum(r.violated for r in recs)
        med = [
            float(np.median([r.measured["sigma_N"] for r in recs if r.params["alpha"] == a]))
            for a in alphas
        ]
        slope = fit_loglog_slope(alphas, med)
        good = abs(slope - (lam - 1)) <= 0.2 and upper_violations == 0
        all_ok = all_ok and good
        details.append(f"lambda={lam}: slope {slope:.3f} (target {lam - 1}), upper violations {upper_violations}")
    assert report("criterion-11", all_ok, "clump scaling: " + "; ".join(details))


def test_criterion_12_determinism():
    cfg_a = SweepConfig(seed=42, trials=20)
    cfg_b = SweepConfig(seed=42, trials=20)
    csv_a = records_to_csv(freq_stability_sweep((16,), [0.05, 0.2], False, cfg_a))
    csv_b = records_to_csv(freq_stability_sweep((16,), [0.05, 0.2], False, cfg_b))
    fig_a = records_to_csv(figure1_sweep([3, 5, 7], SweepConfig(seed=9)))
    fig_b = records_to_csv(figure1_sweep([3, 5, 7], SweepConfig(seed=9)))
    ok = csv_a == csv_b and fig_a == fig_b
    assert report("criterion-12", ok, "repeated runs with the same seed are byte-identical")
