"""Deterministic and randomized sweeps pitting measured spectra against bounds.

Each trial draws its randomness from a stream keyed by (seed, trial_index),
so results are byte-identical across runs.  Records serialize to CSV (12
significant digits, wall time excluded so repeated runs are byte-identical)
and to a strict JSON report, in which a non-finite number is written as null
and, as an object member, flagged by a ``<name>_nonfinite`` sibling.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bounds as bnd
from .core_matrix import (
    ComplexDense,
    _perturbed_dft_entries,
    _require_finite,
    _vandermonde_entries,
    build_figure1,
    figure1_gram,
    rect_lattice_points,
)
from .exp_systems import clump_decompose, separation
from .spectral import (
    CROSSOVER_DIM,
    METHOD_FULL,
    METHOD_ITERATIVE,
    UnconvergedError,
    gram_extremes,
    svd_values,
)

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "figure1_sweep",
    "freq_stability_sweep",
    "node_stability_sweep",
    "wellsep_sweep",
    "benchmark_comparison",
    "clump_experiment",
    "fit_loglog_slope",
    "write_csv",
    "write_report",
    "records_to_csv",
    "strict_json",
]

VIOLATION_SLACK = 1e-9


@dataclass
class SweepConfig:
    seed: int = 0
    trials: int = 1
    crossover: int = CROSSOVER_DIM
    output_path: str | None = None
    workers: int | None = None  # accepted for callers that pass 1; sweeps run in one thread

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers not in (None, 1):
            raise ValueError(f"sweeps run in one thread: workers must be None or 1, got {self.workers}")


@dataclass
class SweepRecord:
    experiment: str
    params: dict
    measured: dict
    bounds: dict
    violations: dict
    wall_time_s: float = 0.0
    artifacts: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return any(self.violations.values())

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """CSV text: params, measured, bounds and violation columns, no wall time."""
    if not records:
        return "\n"
    first = records[0]
    header = (
        list(first.params)
        + list(first.measured)
        + list(first.bounds)
        + [f"violation_{k}" for k in first.violations]
    )
    lines = [",".join(header)]
    for rec in records:
        cells = (
            [_fmt(rec.params[k]) for k in first.params]
            + [_fmt(rec.measured[k]) for k in first.measured]
            + [_fmt(rec.bounds[k]) for k in first.bounds]
            + [_fmt(rec.violations[k]) for k in first.violations]
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    Path(path).write_text(records_to_csv(records))


def _finite_or_none(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out[k] = _finite_or_none(v)
            if isinstance(v, float) and not math.isfinite(v):
                out[f"{k}_nonfinite"] = str(float(v))  # "nan", "inf" or "-inf"
        return out
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def strict_json(doc, **kwargs) -> str:
    """JSON text of ``doc`` with every NaN or infinity written as null.

    An object member ``name`` that is NaN, +inf or -inf also gets a sibling
    ``name_nonfinite`` holding "nan", "inf" or "-inf", so the reader can
    tell it from a missing value (a None member gets no sibling).
    """
    return json.dumps(_finite_or_none(doc), allow_nan=False, **kwargs)


def write_report(
    cfg: SweepConfig, records: Sequence[SweepRecord], path: str | Path, wall_time_s: float
) -> None:
    doc = {
        "config": vars(cfg),
        "records": [r.to_dict() for r in records],
        "violations": sum(1 for r in records if r.violated),
        "wall_time_s": wall_time_s,
    }
    Path(path).write_text(strict_json(doc, indent=2))


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(trial_index)])


# Most matrix entries built and decomposed as one stack (64 KiB of complex
# entries).  Small matrices go several to a stack, where the per-trial
# overhead dominates; large ones go one at a time, where the SVD dominates
# and a bigger stack only adds memory.  A benchmark round of the soundness
# sweeps took the same time (0.073-0.076 s, 1 BLAS thread, 2-vCPU VM) with
# 2**12, 2**13 or 2**14 entries per stack, and its peak RSS was about 0.2, 0.8
# and 1.5 MB above one SVD per trial; at 2**16 the stability_* configs'
# peak RSS rose by up to 6 MB (15%).
_STACK_ENTRIES = 1 << 12


def _stacks(shapes: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Trial indices grouped by matrix shape, each group cut into runs of at
    most ``_STACK_ENTRIES`` entries (and at least one matrix)."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(k)
    runs = []
    for (rows, cols), members in groups.items():
        step = max(1, _STACK_ENTRIES // (rows * cols))
        runs += [members[lo : lo + step] for lo in range(0, len(members), step)]
    return runs


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values, descending, of every matrix of a (T, R, C) stack.

    One finiteness check covers the whole stack, and one values-only SVD
    call decomposes it, matrix by matrix, as it would each matrix alone.
    """
    return np.linalg.svd(_require_finite(stack), compute_uv=False)


def _sweep(
    experiment: str,
    tag: str,
    jobs: Sequence,
    draw: Callable[[object, int, np.random.Generator], tuple],
    measure: Callable[[object, list], list],
    cfg: SweepConfig,
) -> list[SweepRecord]:
    """Run every job for ``cfg.trials`` trials, drawing first, then measuring.

    Draw: trial i of the flattened (job, t) grid calls ``draw(job, t, rng)``
    with its own stream ``rng = _trial_rng(cfg.seed, i)``; it returns the
    trial's matrix shape (rows, cols) and its inputs.  Measure: the job's
    trials are grouped by shape and cut into stacks of at most
    ``_STACK_ENTRIES`` entries, and ``measure(job, inputs)`` gets the inputs
    of one stack, builds their matrices as one (T, R, C) array, takes their
    singular values with one SVD call and returns, in the same order, each
    trial's params, measured, bounds and violations columns and its matrix
    (dumped as JSON if a violation is flagged).  A trial's stream may be
    part of its inputs, so that measure can continue it.

    A record's ``wall_time_s`` is its own draw time (stream creation
    included) plus an equal share of its job's measure time, so the times
    of a sweep's records sum to less than its elapsed time.  With an output
    path set, the CSV and its JSON report are written there.
    """
    if not jobs:
        raise ValueError(f"{experiment}: the sweep grid must be nonempty")
    started = time.perf_counter()
    records: list[SweepRecord] = []
    for job in jobs:
        first = len(records)
        drawn, draw_s = [], []
        for t in range(cfg.trials):
            t0 = time.perf_counter()
            drawn.append(draw(job, t, _trial_rng(cfg.seed, first + t)))
            draw_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        done: list = [None] * cfg.trials
        for run in _stacks([shape for shape, _ in drawn]):
            for k, (params, measured, bounds, violations, matrix) in zip(run, measure(job, [drawn[k][1] for k in run])):
                rec = SweepRecord(experiment, params, measured, bounds, violations)
                if rec.violated:
                    base = Path(cfg.output_path or "violation")
                    dump = base.with_name(base.name + f".violation-{tag}-{first + k}.json")
                    dump.write_text(ComplexDense(matrix).to_json())
                    rec.artifacts["matrix_dump"] = str(dump)
                done[k] = rec
        share = (time.perf_counter() - t0) / cfg.trials
        for rec, seconds in zip(done, draw_s):
            rec.wall_time_s = seconds + share
        records += done
    if cfg.output_path:
        out = Path(cfg.output_path)
        write_csv(records, out)
        write_report(cfg, records, out.with_suffix(out.suffix + ".report.json"), time.perf_counter() - started)
    return records


def _bound_check(
    report: bnd.BoundReport, low: float | None, high: float, columns=("sigma_min_lower", "sigma_max_upper")
) -> tuple[dict, dict]:
    """The report's bounds under the given column names, and violation flags
    for measured extremes beyond them by more than VIOLATION_SLACK.

    With ``low`` None the lower bound is not checked; it is then data only.
    """
    flags = {}
    if low is not None:
        flags["lower"] = bool(low < report.sigma_min_lower - VIOLATION_SLACK)
    flags["upper"] = bool(high > report.sigma_max_upper + VIOLATION_SLACK)
    return dict(zip(columns, (report.sigma_min_lower, report.sigma_max_upper))), flags


def figure1_sweep(n_list: Sequence[int], cfg: SweepConfig) -> list[SweepRecord]:
    """Condition number of the sign-perturbed DFT family over odd sizes.

    Sizes up to ``cfg.crossover`` get a dense SVD of ``build_figure1(n)``;
    larger ones get Lanczos extremes of the matrix-free Gram ``figure1_gram(n)``.
    """
    sizes = [int(n) for n in n_list]
    for n in sizes:
        if n < 3 or n % 2 == 0:
            raise ValueError(f"sizes must be odd integers >= 3, got {n}")

    def measure(n: int, inputs: list) -> list:
        if n <= cfg.crossover:
            summary = svd_values(build_figure1(n))
            smax, smin, method = summary.sigma_max, summary.sigma_min, METHOD_FULL
        else:
            try:
                smax, smin = gram_extremes(figure1_gram(n))
            except UnconvergedError as exc:
                raise UnconvergedError(f"size n={n}: {exc}", exc.best_estimate, exc.iterations)
            method = METHOD_ITERATIVE
        kappa = smax / smin if smin > 0 else math.inf
        return [({"n": n, "method": method}, {"sigma_min": smin, "sigma_max": smax, "kappa": kappa}, {}, {}, None)]

    # The family is deterministic: one record per size, whatever cfg.trials says.
    return _sweep("figure1", "figure1", sizes, lambda n, t, rng: ((n, n), None), measure, replace(cfg, trials=1))


def freq_stability_sweep(
    m: Sequence[int], ell_grid: Sequence[float], rank_one: bool, cfg: SweepConfig
) -> list[SweepRecord]:
    """Random frequency perturbations of the DFT versus the closed-form bounds.

    Each trial draws eps uniformly in [-ell, ell] per component with one
    component forced to magnitude exactly ell, so the sup norm sits on the
    hypothesis boundary.
    """
    dims = [int(x) for x in m]
    ells = [float(e) for e in ell_grid]
    for e in ells:
        if not 0.0 <= e < 0.25:
            raise ValueError(f"perturbation sizes must lie in [0, 1/4), got {e}")
    lattice = rect_lattice_points(dims).astype(np.intp)  # rect_lattice_points checks the sides
    size, d = lattice.shape
    reports = {ell: bnd.dft_freq_bounds(dims, ell, rank_one) for ell in ells}
    label = "x".join(map(str, dims))

    def draw(ell: float, t: int, rng: np.random.Generator) -> tuple:
        if rank_one:
            # One draw per component, in axis then index order.
            axes = [rng.uniform(-ell, ell, mk) if ell > 0 else np.zeros(mk) for mk in dims]
            axis = int(rng.integers(d))
            pos = int(rng.integers(dims[axis]))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            axes[axis][pos] = sign * ell
            # eps at lattice point n is (a_1[n_1], ..., a_d[n_d])
            shifts = np.stack([a[lattice[:, k]] for k, a in enumerate(axes)], axis=1)
        else:
            shifts = rng.uniform(-ell, ell, size=(size, d)) if ell > 0 else np.zeros((size, d))
            pos = int(rng.integers(size))
            axis = int(rng.integers(d))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            shifts[pos, axis] = sign * ell
        return (size, size), (t, shifts)

    def measure(ell: float, inputs: list) -> list:
        stack = _perturbed_dft_entries(dims, np.stack([shifts for _, shifts in inputs]))
        s = _singular_values(stack)
        out = []
        for (t, _), mat, sv in zip(inputs, stack, s):
            smin, smax = float(sv[-1]), float(sv[0])
            out.append((
                {"m": label, "ell": ell, "trial": t, "rank_one": rank_one},
                {"sigma_min": smin, "sigma_max": smax},
                *_bound_check(reports[ell], smin, smax),
                mat,
            ))
        return out

    return _sweep("freq_stability", "freq", ells, draw, measure, cfg)


def _separated_nodes(
    rng: np.random.Generator, count: int, amplitude: float, accept: Callable[[float], bool], gate: str
) -> tuple[np.ndarray, float]:
    """Jittered equispaced nodes and their separation, redrawn until ``accept(separation)``."""
    for _ in range(200):
        offset = rng.random()
        nodes = np.mod((np.arange(count) + offset + amplitude * rng.uniform(-1, 1, count)) / count, 1.0)
        sep = separation(nodes)
        if accept(sep):
            return nodes, sep
    raise RuntimeError(f"failed to draw nodes with separation {gate}")


def node_stability_sweep(
    L: int, n: int, ell_grid: Sequence[float], cfg: SweepConfig
) -> list[SweepRecord]:
    """Random node perturbations u_k -> u_k + delta_k / L of a Vandermonde matrix.

    Base nodes are drawn well separated (sep >= 2/L, so n <= L/2; at
    n = L/2 only exactly equispaced nodes qualify, and the draw fails);
    trials where the applicability gate C(ell) < sigma_r/sigma_1 fails are
    recorded as not applicable, not as violations.  An applicable trial
    draws its delta from its own stream, after its base nodes.
    """
    ells = [float(e) for e in ell_grid]
    if n < 2 or 2 * n > L:
        raise ValueError(f"need 2 <= n <= L/2 for nodes separated by 2/L, got n={n}, L={L}")
    target_sep = 2.0 / L
    amplitude = max(0.02, 0.4 * (1.0 - n * target_sep))

    def draw(ell: float, t: int, rng: np.random.Generator) -> tuple:
        base, _ = _separated_nodes(rng, n, amplitude, lambda sep: sep >= target_sep, f">= {target_sep}")
        return (L, n), (t, base, rng)

    def perturbed(ell: float, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        delta = rng.uniform(-ell, ell, n) if ell > 0 else np.zeros(n)
        pos = int(rng.integers(n))
        delta[pos] = (1.0 if rng.random() < 0.5 else -1.0) * ell
        return base + delta / L

    def measure(ell: float, inputs: list) -> list:
        # n <= L/2 < L, so sigma_r is the last of the n singular values.
        s = _singular_values(_vandermonde_entries(L, np.stack([base for _, base, _ in inputs])))
        reports = [bnd.vandermonde_node_bounds(float(sv[-1]), float(sv[0]), ell) for sv in s]
        gated = [k for k, report in enumerate(reports) if report.applicable]
        pert = {}
        if gated:
            stack = _vandermonde_entries(L, np.stack([perturbed(ell, *inputs[k][1:]) for k in gated]))
            pert = dict(zip(gated, zip(stack, _singular_values(stack))))
        out = []
        for k, ((t, _, _), sv, report) in enumerate(zip(inputs, s, reports)):
            sig1p = sigrp = math.nan
            vp = None
            bounds = {"sigma_min_lower": math.nan, "sigma_max_upper": math.nan}
            violations = {"lower": False, "upper": False}
            if report.applicable:
                vp, sp = pert[k]
                sig1p, sigrp = float(sp[0]), float(sp[-1])
                bounds, violations = _bound_check(report, sigrp, sig1p)
            out.append((
                {"L": L, "n": n, "ell": ell, "trial": t, "applicable": report.applicable},
                {"sigma_r": float(sv[-1]), "sigma_1": float(sv[0]), "sigma_r_pert": sigrp, "sigma_1_pert": sig1p},
                bounds,
                violations,
                vp,
            ))
        return out

    return _sweep("node_stability", "node", ells, draw, measure, cfg)


def wellsep_sweep(L_grid: Sequence[int], cfg: SweepConfig) -> list[SweepRecord]:
    """Random well-separated node sets versus the two-sided squared bound.

    Each trial draws its node count n, then n nodes separated by more than
    1/L (which needs L >= 3); the trials of one L are stacked by n.
    """
    sizes = [int(x) for x in L_grid]
    for L in sizes:
        if L < 3:
            raise ValueError(f"need L >= 3 for two nodes separated by more than 1/L, got L={L}")

    def draw(L: int, t: int, rng: np.random.Generator) -> tuple:
        n = int(rng.integers(2, max(3, L // 2 + 1)))
        nodes, sep = _separated_nodes(rng, n, 0.4 * (1.0 - n / L), lambda sep: sep > 1.0 / L, f"> 1/{L}")
        return (L, n), (t, nodes, sep)

    def measure(L: int, inputs: list) -> list:
        stack = _vandermonde_entries(L, np.stack([nodes for _, nodes, _ in inputs]))
        out = []
        for (t, nodes, sep), v, s in zip(inputs, stack, _singular_values(stack)):
            smin_sq, smax_sq = float(s[-1] ** 2), float(s[0] ** 2)
            out.append((
                {"L": L, "n": nodes.size, "trial": t, "sep": sep},
                {"sigma_min_sq": smin_sq, "sigma_max_sq": smax_sq},
                *_bound_check(bnd.wellsep_bounds(L, sep), smin_sq, smax_sq, columns=("lower_sq", "upper_sq")),
                v,
            ))
        return out

    return _sweep("wellsep", "wellsep", sizes, draw, measure, cfg)


def _bisect(fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def benchmark_comparison(m: Sequence[int], cfg: SweepConfig | None = None) -> dict:
    """Largest allowable perturbations guaranteeing sigma_min >= sqrt(P)/2.

    Compares the additive Frobenius-type estimate (allowable eps shrinks
    like 1/sqrt(P)) with the thresholds ell solving 1 - D(ell) = 1/2 and
    (1 - C(ell))^d = 1/2, which are size independent.
    """
    dims = [int(x) for x in m]
    d = len(dims)
    size = math.prod(dims)
    eps_weyl = 1.0 / (2.0 * math.pi * d * math.sqrt(size))
    ell_general = _bisect(lambda t: (1.0 - bnd.kadec_D(t, d)) - 0.5, 0.0, 0.25)
    ell_rank_one = _bisect(lambda t: (1.0 - bnd.kadec_C(t)) ** d - 0.5, 0.0, 0.25)
    report = {
        "m": dims,
        "d": d,
        "matrix_size": size,
        "weyl_eps_for_half": eps_weyl,
        "ell_general_for_half": ell_general,
        "ell_rank_one_for_half": ell_rank_one,
    }
    if cfg is not None and cfg.output_path:
        lines = ["method,allowable_perturbation"]
        lines.append(f"weyl,{_fmt(eps_weyl)}")
        lines.append(f"kadec_general,{_fmt(ell_general)}")
        lines.append(f"kadec_rank_one,{_fmt(ell_rank_one)}")
        Path(cfg.output_path).write_text("\n".join(lines) + "\n")
    return report


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def clump_experiment(
    L: int,
    N: int,
    alpha_grid: Sequence[float],
    lam: int,
    constants: tuple[float, float] = (1.0, 1.0),
    cfg: SweepConfig | None = None,
) -> list[SweepRecord]:
    """Clustered node sets: sigma_N scaling in the intra-cluster spacing.

    Nodes form N/lam clusters of lam points spaced alpha apart, cluster
    centers roughly equispaced.  Only the upper bound sqrt(L(lam + 1/3))
    counts as a violation; the lower bound depends on configured constants
    and is recorded as data.
    """
    cfg = cfg or SweepConfig()
    alphas = [float(a) for a in alpha_grid]
    if L < 6 * N:
        raise ValueError(f"requires L >= 6N, got L={L}, N={N}")
    if lam < 1 or N % lam != 0:
        raise ValueError(f"cluster size {lam} must divide the node count {N}")
    r = N // lam
    for alpha in alphas:
        if not 0.0 < alpha < 1.0 / L:
            raise ValueError(f"alpha must lie in (0, 1/L): got {alpha}, 1/L = {1.0 / L}")
        if 1.0 / r - (lam - 1) * alpha - 0.2 / r < 3.0 * lam / L:
            raise ValueError(
                f"clusters cannot be separated by 3*lambda/L with r={r}, alpha={alpha}"
            )

    reports = {alpha: bnd.clump_bounds(L, N, alpha, lam, *constants) for alpha in alphas}

    def draw(alpha: float, t: int, rng: np.random.Generator) -> tuple:
        centers = (np.arange(r) + rng.random() + 0.1 * rng.uniform(-1, 1, r)) / r
        nodes = np.mod((centers[:, None] + alpha * np.arange(lam)).reshape(-1), 1.0)
        return (L, N), (t, nodes)

    def measure(alpha: float, inputs: list) -> list:
        stack = _vandermonde_entries(L, np.stack([nodes for _, nodes in inputs]))
        out = []
        for (t, nodes), v, s in zip(inputs, stack, _singular_values(stack)):
            sigma_n, sigma_1 = float(s[N - 1]), float(s[0])
            out.append((
                {
                    "L": L,
                    "N": N,
                    "alpha": alpha,
                    "lambda": lam,
                    "trial": t,
                    "hypotheses_ok": clump_decompose(nodes, L, lam).hypotheses_ok,
                },
                {"sigma_N": sigma_n, "sigma_1": sigma_1},
                *_bound_check(reports[alpha], None, sigma_1),
                v,
            ))
        return out

    return _sweep("clump", "clump", alphas, draw, measure, cfg)
