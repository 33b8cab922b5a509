"""Fast invariant suites backing the ``verify`` CLI command.

Each check returns (name, ok, detail); a run is clean iff every check
passes.  These are smaller, deterministic versions of the properties the
full test suite exercises.
"""

from __future__ import annotations

import numpy as np

from . import bounds as bnd
from .core_matrix import (
    FrequencySet,
    NodeSet,
    build_dft,
    build_fourier,
    build_gamma,
    build_instability_submatrix,
)
from .exp_systems import ExponentialSystemSpec, gram_matrix
from .experiments import SweepConfig, freq_stability_sweep, wellsep_sweep
from .oracle import riesz_ratio
from .spectral import extreme_singular_values, hermitian_eigenvalues, svd_values

__all__ = ["run_all", "CheckResult", "random_spec"]

CheckResult = tuple[str, bool, str]


def _distinct_integer_points(rng: np.random.Generator, count: int, dim: int, span: int) -> list:
    pts = set()
    while len(pts) < count:
        pts.add(tuple(int(x) for x in rng.integers(-span, span + 1, dim)))
    return sorted(pts)


def random_spec(
    rng: np.random.Generator,
    dim: int = 1,
    max_l: int = 6,
    max_n: int = 6,
    aspect: str | None = None,
    span: int = 5,
) -> ExponentialSystemSpec:
    """Random spec: L offsets in [0, 1)^dim and N distinct integer vectors in [-span, span]^dim.

    ``aspect`` "tall" redraws (L, N) until L >= N, "wide" until L <= N.
    """
    while True:
        L = int(rng.integers(2, max_l + 1))
        N = int(rng.integers(2, max_n + 1))
        if not (aspect == "tall" and L < N or aspect == "wide" and L > N):
            break
    deltas = NodeSet(rng.random((L, dim)))
    return ExponentialSystemSpec(deltas, FrequencySet(_distinct_integer_points(rng, N, dim, span)))


def check_dft_orthogonality() -> CheckResult:
    worst = 0.0
    for m in ((8,), (2, 3)):
        f = build_dft(m)
        size = f.rows
        worst = max(worst, float(np.max(np.abs(f.data.conj().T @ f.data - size * np.eye(size)))))
    return ("dft_orthogonality", worst <= 1e-10, f"max deviation {worst:.3e}")


def check_unimodularity() -> CheckResult:
    rng = np.random.default_rng(5)
    mats = [
        build_fourier(
            FrequencySet(_distinct_integer_points(rng, 7, 2, 20)), NodeSet(rng.random((5, 2)))
        ),
        build_dft((3, 4)),
    ]
    worst = max(float(np.max(np.abs(np.abs(m.data) - 1.0))) for m in mats)
    frob_rel = 0.0
    for m in mats:
        target = m.rows * m.cols
        frob_rel = max(frob_rel, abs(np.linalg.norm(m.data, "fro") ** 2 - target) / target)
    ok = worst <= 1e-14 and frob_rel <= 1e-10
    return ("unimodularity_frobenius", ok, f"entry dev {worst:.3e}, frobenius rel {frob_rel:.3e}")


def check_gamma_transpose() -> CheckResult:
    rng = np.random.default_rng(11)
    deltas = NodeSet(rng.random((5, 2)))
    p = FrequencySet(_distinct_integer_points(rng, 4, 2, 6))
    gamma = build_gamma(deltas, p)
    fourier = build_fourier(p, deltas)
    ok = np.array_equal(gamma.data, fourier.data.T)
    return ("gamma_fourier_transpose", ok, "bitwise equality" if ok else "mismatch")


def check_kadec_monotone() -> CheckResult:
    grid = np.linspace(0.0, 0.25, 1000)
    cvals = [bnd.kadec_C(t) for t in grid]
    ok = all(b > a for a, b in zip(cvals, cvals[1:]))
    for d in (1, 2, 3):
        dvals = [bnd.kadec_D(t, d) for t in grid]
        ok = ok and all(b > a for a, b in zip(dvals, dvals[1:]))
    agree = max(abs(bnd.kadec_D(t, 1) - bnd.kadec_C(t)) for t in grid)
    ok = ok and agree <= 1e-14
    return ("kadec_monotonicity", ok, f"max |D(t,1)-C(t)| = {agree:.3e}")


def check_instability_spectrum() -> CheckResult:
    worst = 0.0
    for n in range(3, 42, 2):
        predicted = np.array(bnd.instability_spectrum(n))
        measured = np.array(svd_values(build_instability_submatrix(n)).singular_values)
        worst = max(worst, float(np.max(np.abs(measured - predicted) / predicted)))
    return ("instability_spectrum", worst <= 1e-9, f"max rel deviation {worst:.3e}")


def check_gram_identity() -> CheckResult:
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        spec = random_spec(rng, dim=int(rng.integers(1, 3)), span=4)
        gamma = build_gamma(spec.deltas, spec.p)
        direct = gram_matrix(spec)
        worst = max(worst, float(np.max(np.abs(direct.data - gamma.data.conj().T @ gamma.data))))
    return ("gram_identity", worst <= 1e-10, f"max entry deviation {worst:.3e}")


def check_method_agreement() -> CheckResult:
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        rows = int(rng.integers(5, 40))
        cols = int(rng.integers(3, rows + 1))
        mat = build_fourier(
            FrequencySet(_distinct_integer_points(rng, rows, 1, 5 * rows)),
            NodeSet(rng.random((cols, 1))),
        )
        summary = svd_values(mat)
        smax, smin = extreme_singular_values(mat)
        worst = max(
            worst,
            abs(smax - summary.sigma_max) / summary.sigma_max,
            abs(smin - summary.sigma_min) / summary.sigma_max,
        )
    return ("spectral_method_agreement", worst <= 1e-8, f"max rel disagreement {worst:.3e}")


def check_gram_eigen_consistency() -> CheckResult:
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(10):
        spec = random_spec(rng, span=4)
        if spec.num_deltas < spec.num_p:
            continue
        gamma = build_gamma(spec.deltas, spec.p)
        eig = hermitian_eigenvalues(gram_matrix(spec))
        sq = np.array(svd_values(gamma).singular_values) ** 2
        scale = max(float(eig[0]), 1e-30)
        worst = max(worst, float(np.max(np.abs(eig - sq))) / scale)
    return ("gram_eigen_consistency", worst <= 1e-9, f"max rel deviation {worst:.3e}")


def check_no_violations(name: str, records) -> CheckResult:
    bad = sum(1 for r in records if r.violated)
    return (name, bad == 0, f"{bad} violations in {len(records)} trials")


def check_riesz_sandwich() -> CheckResult:
    rng = np.random.default_rng(41)
    bad = 0
    for _ in range(10):
        spec = random_spec(rng, span=4)
        while spec.num_deltas > spec.num_p:
            spec = random_spec(rng, span=4)
        gamma = build_gamma(spec.deltas, spec.p)
        s = svd_values(gamma)
        lo, hi = s.singular_values[min(spec.num_deltas, spec.num_p) - 1] ** 2, s.sigma_max**2
        coeffs = {}
        for j in range(spec.num_deltas):
            for n in range(-2, 3):
                coeffs[(j, n)] = complex(rng.standard_normal(), rng.standard_normal())
        ratio = riesz_ratio(spec, coeffs)
        if not lo - 1e-9 <= ratio <= hi + 1e-9:
            bad += 1
    return ("riesz_sandwich", bad == 0, f"{bad} out-of-sandwich ratios")


def run_all(seed: int = 0) -> list[CheckResult]:
    cfg = SweepConfig(seed=seed, trials=20)
    return [
        check_dft_orthogonality(),
        check_unimodularity(),
        check_gamma_transpose(),
        check_kadec_monotone(),
        check_instability_spectrum(),
        check_gram_identity(),
        check_method_agreement(),
        check_gram_eigen_consistency(),
        check_no_violations("freq_stability_sweep", freq_stability_sweep((8,), (0.1,), rank_one=False, cfg=cfg)),
        check_no_violations("wellsep_sweep", wellsep_sweep((16,), cfg)),
        check_riesz_sandwich(),
    ]
