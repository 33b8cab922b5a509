"""In-memory span tracing of fourstab's public functions.

``install`` replaces every traced function by a wrapper wherever it is
bound: in its own module, in each fourstab module that imported it by name
(``fourstab.experiments.svd_values`` as well as ``fourstab.spectral.svd_values``),
in the ``fourstab`` package namespace, and on ``ComplexDense`` for the
serialization methods.  ``uninstall`` puts the originals back.  The program
itself is not modified; only its public names are rebound while a traced
round runs.

A span is (id, name, start, end, parent).  Spans opened in a sweep's worker
threads take as parent the span the owning thread had open when the pool
ran, so a layer's self time is its span time minus the union of the
intervals its children cover, in whichever thread they ran.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from functools import wraps

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Later changes cite these pairs when they claim a gain.
_CORE = "wall_s on figure1_scale (bulk use); wall_s on oracle_crossterms (per-call overhead)"
LAYER_MOVES = {
    "core_matrix.build.calls": _CORE,
    "core_matrix.build.self_s": _CORE,
    "core_matrix.phase_matrix.self_s": _CORE,
    "core_matrix.unit_entries.calls": _CORE,
    "core_matrix.unit_entries.self_s": _CORE,
    "core_matrix.entries_built": _CORE,
    "core_matrix.serialize.self_s": "op_p50_ms on cli_roundtrip",
    "core_matrix.serialize.bytes": "op_p50_ms on cli_roundtrip",
    "spectral.svd_values.calls": "wall_s and peak_rss_mb on figure1_scale",
    "spectral.svd_values.self_s": "wall_s and peak_rss_mb on figure1_scale",
    "spectral.extreme_singular_values.calls": "wall_s and peak_rss_mb on figure1_scale",
    "spectral.extreme_singular_values.self_s": "wall_s and peak_rss_mb on figure1_scale",
    "spectral.dense_ops": "wall_s and peak_rss_mb on figure1_scale",
    "oracle.riesz_ratio.calls": "wall_s and op_p50_ms on oracle_crossterms",
    "oracle.riesz_ratio.self_s": "wall_s and op_p50_ms on oracle_crossterms",
    "oracle.cross_terms": "wall_s and op_p50_ms on oracle_crossterms",
    "oracle.frame_ratio.self_s": "wall_s and op_p50_ms on oracle_crossterms",
    "oracle.extremal_witness.self_s": "wall_s and op_p50_ms on oracle_crossterms",
    "exp_systems.classify_system.self_s": "ops_per_s on oracle_crossterms and soundness_sweeps",
    "exp_systems.gram_matrix.self_s": "ops_per_s on oracle_crossterms and soundness_sweeps",
    "exp_systems.clump_decompose.self_s": "ops_per_s on oracle_crossterms and soundness_sweeps",
    "exp_systems.separation.calls": "ops_per_s on soundness_sweeps",
    "exp_systems.separation.self_s": "ops_per_s on soundness_sweeps",
    "experiments.draw_accept_frac": "ops_per_s on soundness_sweeps",
    "bounds.calls": "ops_per_s on soundness_sweeps",
    "bounds.self_s": "ops_per_s on soundness_sweeps",
    "bounds.applicable_frac": "ops_per_s on soundness_sweeps",
    "experiments.sweep.self_s": "ops_per_s and op_p90_ms on soundness_sweeps",
    "experiments.trials": "ops_per_s and op_p90_ms on soundness_sweeps",
    "experiments.csv.self_s": "ops_per_s and op_p90_ms on soundness_sweeps",
    "cli.dispatch.calls": "op_p50_ms on cli_roundtrip",
    "cli.dispatch.self_s": "op_p50_ms on cli_roundtrip",
    "cli.load_config.self_s": "op_p50_ms on cli_roundtrip",
    "trace_overhead_frac": "none: the cost of tracing itself, per workload",
}


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    def _parent(self, stack: list[int]) -> int | None:
        """This thread's innermost open span; in a pool worker with none open,
        the owner thread's, which stays open while it waits on the pool."""
        if stack:
            return stack[-1]
        if threading.get_ident() != self._owner:
            owner = self._stacks.get(self._owner)
            return owner[-1] if owner else None
        return None

    def call(self, name: str, fn, args, kwargs):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_entries(tracer, args, kwargs, result):
    tracer.add("core_matrix.entries_built", result.rows * result.cols)


def _count_dense_ops(tracer, args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    m, n = getattr(a, "data", a).shape
    tracer.add("spectral.dense_ops", m * n * min(m, n))


def _count_bound(tracer, args, kwargs, result):
    applicable = getattr(result, "applicable", None)
    if applicable is not None:
        tracer.add("bounds.reports")
        tracer.add("bounds.applicable", int(bool(applicable)))


def _count_cross_terms(tracer, args, kwargs, result):
    tracer.add("oracle.cross_terms", len(_arg(args, kwargs, 1, "coeffs")) ** 2)


def _count_trials(tracer, args, kwargs, result):
    if isinstance(result, list):
        tracer.add("experiments.trials", len(result))


def _count_node_draws(tracer, args, kwargs, result):
    """Node sweeps accept exactly one node draw per trial."""
    _count_trials(tracer, args, kwargs, result)
    tracer.add("experiments.draws_accepted", len(result))


def _count_text_out(tracer, args, kwargs, result):
    tracer.add("core_matrix.serialize.bytes", len(result))


def _count_text_in(tracer, args, kwargs, result):
    tracer.add("core_matrix.serialize.bytes", len(_arg(args, kwargs, 1, "text")))


_BUILDERS = (
    "build_fourier",
    "build_gamma",
    "build_vandermonde",
    "build_dft",
    "build_perturbed_dft_freq",
    "build_instability_submatrix",
    "build_figure1",
)
_BOUNDS = (
    "perturbed_frame_bounds",
    "dft_freq_bounds",
    "weyl_freq_bounds",
    "weyl_node_bounds",
    "vandermonde_node_bounds",
    "wellsep_bounds",
    "clump_bounds",
    "instability_spectrum",
)

# (module, function, span name, counter)
FUNCTIONS = (
    *(("core_matrix", fn, "core_matrix.build", _count_entries) for fn in _BUILDERS),
    ("core_matrix", "phase_matrix", "core_matrix.phase_matrix", None),
    ("core_matrix", "unit_entries", "core_matrix.unit_entries", None),
    ("spectral", "svd_values", "spectral.svd_values", _count_dense_ops),
    ("spectral", "extreme_singular_values", "spectral.extreme_singular_values", _count_dense_ops),
    *(("bounds", fn, "bounds", _count_bound) for fn in _BOUNDS),
    ("exp_systems", "classify_system", "exp_systems.classify_system", None),
    ("exp_systems", "gram_matrix", "exp_systems.gram_matrix", None),
    ("exp_systems", "clump_decompose", "exp_systems.clump_decompose", None),
    ("exp_systems", "separation", "exp_systems.separation", None),
    ("oracle", "riesz_ratio", "oracle.riesz_ratio", _count_cross_terms),
    ("oracle", "frame_ratio", "oracle.frame_ratio", None),
    ("oracle", "extremal_witness", "oracle.extremal_witness", None),
    ("experiments", "figure1_sweep", "experiments.sweep", _count_trials),
    ("experiments", "freq_stability_sweep", "experiments.sweep", _count_trials),
    ("experiments", "node_stability_sweep", "experiments.sweep", _count_node_draws),
    ("experiments", "wellsep_sweep", "experiments.sweep", _count_node_draws),
    ("experiments", "clump_experiment", "experiments.sweep", _count_trials),
    ("experiments", "benchmark_comparison", "experiments.sweep", None),
    ("experiments", "records_to_csv", "experiments.csv", None),
    ("experiments", "write_csv", "experiments.csv", None),
    ("experiments", "write_report", "experiments.csv", None),
    ("cli", "dispatch", "cli.dispatch", None),
    ("cli", "load_config", "cli.load_config", None),
)

# ComplexDense methods: (name, counter); from_json is a classmethod.
_SERIALIZE = (("to_json", _count_text_out), ("to_csv", _count_text_out), ("from_json", _count_text_in))


def _wrap(tracer: Tracer, fn, name: str, count):
    @wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every traced function to a wrapper; returns what ``uninstall`` needs."""
    modules = [m for n, m in list(sys.modules.items()) if n == "fourstab" or n.startswith("fourstab.")]
    undo: list[tuple[object, str, object]] = []
    for module_name, fn_name, span, count in FUNCTIONS:
        original = getattr(importlib.import_module(f"fourstab.{module_name}"), fn_name)
        wrapper = _wrap(tracer, original, span, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    cls = importlib.import_module("fourstab.core_matrix").ComplexDense
    for method, count in _SERIALIZE:
        original = cls.__dict__[method]
        if isinstance(original, classmethod):
            wrapper = classmethod(_wrap(tracer, original.__func__, "core_matrix.serialize", count))
        else:
            wrapper = _wrap(tracer, original, "core_matrix.serialize", count)
        setattr(cls, method, wrapper)
        undo.append((cls, method, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return totals


_COUNTERS = ("core_matrix.entries_built", "core_matrix.serialize.bytes", "spectral.dense_ops",
             "oracle.cross_terms", "experiments.trials")


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Values of the named per-layer metrics for one traced round.

    ``<span>.calls`` counts spans and ``<span>.self_s`` sums self time; the
    counters and the two ratios are named explicitly.  A ratio whose base
    is zero in this workload reads 0.
    """
    calls = Counter(name for _, name, _, _, _ in tracer.spans)
    own = self_times(tracer.spans)
    by_id = {span_id: name for span_id, name, _, _, _ in tracer.spans}
    draws = sum(
        1 for _, name, _, _, parent in tracer.spans
        if name == "exp_systems.separation" and by_id.get(parent) == "experiments.sweep"
    )
    c = tracer.counts
    ratios = {
        "experiments.draw_accept_frac": (c["experiments.draws_accepted"], draws),
        "bounds.applicable_frac": (c["bounds.applicable"], c["bounds.reports"]),
    }
    out: dict[str, float] = {}
    for name in names:
        if name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = own.get(name[: -len(".self_s")], 0.0)
        elif name in ratios:
            num, den = ratios[name]
            out[name] = num / den if den else 0.0
        elif name in _COUNTERS:
            out[name] = c[name]
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return out
