"""Exponential systems on unions of unit cubes and their classification.

A system is specified by torus offsets Delta = {delta_j} and distinct
integer vectors P = {p_k}; the union of the integer-translated families
{exp(2 pi i (n + delta_j).x)} lives on T(P) = union of cubes Q + p_k.
Its type (Riesz basis / frame / Riesz sequence / degenerate) and optimal
constants are read off the associated matrix G(Delta, P): the constants
are the squared extreme singular values, the type follows from the rank
and the aspect ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_matrix import (
    ComplexDense,
    FrequencySet,
    NodeSet,
    PerturbationMap,
    build_gamma,
    torus_canonical,
    unit_entries,
)
from .spectral import default_rank_tol

__all__ = [
    "ExponentialSystemSpec",
    "SystemClassification",
    "ConditionCheck",
    "ClumpDecomposition",
    "KIND_RIESZ_BASIS",
    "KIND_FRAME",
    "KIND_RIESZ_SEQUENCE",
    "KIND_DEGENERATE",
    "wrap_distance",
    "separation",
    "classify_system",
    "special_delta_condition",
    "tensor_kadec_condition",
    "gram_matrix",
    "clump_decompose",
]

KIND_RIESZ_BASIS = "RieszBasis"
KIND_FRAME = "Frame"
KIND_RIESZ_SEQUENCE = "RieszSequence"
KIND_DEGENERATE = "Degenerate"

INTEGRALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ExponentialSystemSpec:
    """Offsets Delta (cardinality L) and integer vectors P (cardinality N)."""

    deltas: NodeSet
    p: FrequencySet

    def __post_init__(self):
        if not isinstance(self.deltas, NodeSet):
            object.__setattr__(self, "deltas", NodeSet(self.deltas))
        if not isinstance(self.p, FrequencySet):
            object.__setattr__(self, "p", FrequencySet(self.p))
        if not self.p.integer_flag:
            raise ValueError("P must consist of integer vectors")
        if self.deltas.dim != self.p.dim:
            raise ValueError(
                f"dimension mismatch: deltas d={self.deltas.dim}, P d={self.p.dim}"
            )

    @property
    def dim(self) -> int:
        return self.deltas.dim

    @property
    def num_deltas(self) -> int:
        return self.deltas.count

    @property
    def num_p(self) -> int:
        return self.p.count


@dataclass(frozen=True)
class SystemClassification:
    kind: str
    lower_constant: float
    upper_constant: float
    rank: int
    tol: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lower_constant": self.lower_constant,
            "upper_constant": self.upper_constant,
            "rank": self.rank,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class ConditionCheck:
    """Boolean predicate result with the violating witness, if any."""

    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ClumpDecomposition:
    parts: tuple[tuple[float, ...], ...]
    r: int
    lambda_max: int
    beta: float
    alpha: float
    hypotheses_ok: bool
    reasons: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "r": self.r,
            "lambda_max": self.lambda_max,
            "beta": self.beta,
            "alpha": self.alpha,
            "hypotheses_ok": self.hypotheses_ok,
            "reasons": list(self.reasons),
        }


def wrap_distance(t, s):
    """Distance on the circle: min over integers n of |t - s - n|, elementwise
    over arrays.  It reduces |t - s|, so it is exactly symmetric in t and s."""
    r = np.mod(np.abs(t - s), 1.0)
    return np.minimum(r, 1.0 - r)


def separation(u: Sequence[float]) -> float:
    """Minimum pairwise wrap distance of a node list, in O(n log n).

    The nodes are canonicalised to [0, 1) and sorted; the closest pair is
    always a pair of neighbours on that circle, so only the n - 1 adjacent
    gaps and the closing one are measured.  The result equals the minimum
    of ``wrap_distance`` over all canonical pairs bit for bit.
    """
    xs = np.asarray(u, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("separation needs at least two nodes")
    if not np.isfinite(xs).all():
        raise ValueError("nodes must be finite")
    return _sorted_separation(np.sort(torus_canonical(xs)))


def _sorted_separation(xs: np.ndarray) -> float:
    """``separation`` of at least two canonical nodes already sorted on [0, 1)."""
    return float(min(wrap_distance(xs[:-1], xs[1:]).min(), wrap_distance(xs[0], xs[-1])))


def classify_system(spec: ExponentialSystemSpec, tol: float | None = None) -> SystemClassification:
    """Classify the system via the rank and extremes of G(Delta, P).

    The rank counts the singular values above ``tol`` * sigma_1; ``tol``
    must lie in (0, 1) and defaults to ``default_rank_tol``.
    """
    if tol is not None and not 0.0 < tol < 1.0:
        raise ValueError(f"relative tolerance must lie in (0, 1), got {tol}")
    gamma = build_gamma(spec.deltas, spec.p)
    if tol is None:
        tol = default_rank_tol(gamma.rows, gamma.cols)
    s = np.linalg.svd(gamma.data, compute_uv=False)
    rank = int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0
    L, N = spec.num_deltas, spec.num_p
    full = rank == min(L, N)
    if not full:
        kind = KIND_DEGENERATE
    elif L == N:
        kind = KIND_RIESZ_BASIS
    elif L > N:
        kind = KIND_FRAME
    else:
        kind = KIND_RIESZ_SEQUENCE
    return SystemClassification(
        kind=kind,
        lower_constant=float(s[-1] ** 2),
        upper_constant=float(s[0] ** 2),
        rank=rank,
        tol=tol,
    )


def _near_integer(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.rint(x)) <= INTEGRALITY_TOL


def special_delta_condition(delta: Sequence[float], p: FrequencySet) -> ConditionCheck:
    """True iff <p_k - p_k', delta> is never an integer for k != k'.

    On failure the witness is the first offending pair (k < k') of points
    of P, in row-major order.
    """
    d = np.atleast_1d(np.asarray(delta, dtype=float))
    if not p.integer_flag:
        raise ValueError("P must consist of integer vectors")
    if d.size != p.dim:
        raise ValueError(f"delta has dimension {d.size}, P has dimension {p.dim}")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"delta must be finite, got {d.tolist()}")
    pts = p.points
    vals = (pts[:, None, :] - pts[None, :, :]) @ d
    bad = np.triu(_near_integer(vals), 1)
    if not bad.any():
        return ConditionCheck(True)
    k, k2 = np.argwhere(bad)[0]
    return ConditionCheck(False, witness=(tuple(pts[k]), tuple(pts[k2])))


def tensor_kadec_condition(m: Sequence[int], eps: PerturbationMap) -> ConditionCheck:
    """Per-axis invertibility test for rank-one lattice perturbations.

    True iff for every axis k and every i != j in 0..M_k-1 the quantity
    (j - i + eps_k(j) - eps_k(i)) / M_k is not an integer.  The witness on
    failure is the first (axis, i, j) in row-major order, with the axis
    1-based.
    """
    dims = [int(x) for x in m]
    if eps.axis_values is None:
        raise ValueError("condition applies to rank-one perturbations only")
    if [a.size for a in eps.axis_values] != dims:
        raise ValueError(f"perturbation does not cover the frequency lattice {dims}")
    for axis, (mk, a) in enumerate(zip(dims, eps.axis_values)):
        steps = np.arange(mk)
        vals = ((steps - steps[:, None]) + a - a[:, None]) / mk  # row i, column j
        bad = _near_integer(vals)
        np.fill_diagonal(bad, False)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return ConditionCheck(False, witness=(axis + 1, int(i), int(j)))
    return ConditionCheck(True)


def gram_matrix(spec: ExponentialSystemSpec) -> ComplexDense:
    """N x N matrix with entry (k, k') = sum_j exp(2 pi i delta_j.(p_k' - p_k)).

    Summed termwise from the definition rather than formed as a matrix
    product, so it cross-checks the associated-matrix route independently.
    """
    deltas = spec.deltas.points
    pts = spec.p.points
    diffs = pts[None, :, :] - pts[:, None, :]
    phases = np.tensordot(deltas, diffs, axes=([1], [2]))
    return ComplexDense(np.sum(unit_entries(phases), axis=0))


def _arc_diameter(arc: np.ndarray) -> float:
    """Largest wrap distance between two nodes of an arc in circular order:
    the node farthest from x is one of the two around its antipode x + 1/2,
    measured as ``wrap_distance(arc[i], arc[j])`` with i <= j."""
    offsets = np.mod(arc - arc[0], 1.0)  # nondecreasing along the arc
    steps = np.arange(arc.size)
    past = np.searchsorted(offsets, offsets + 0.5)
    near = np.concatenate((past - 1, np.minimum(past, arc.size - 1)))
    return float(np.max(wrap_distance(arc[np.concatenate((steps, steps))], arc[near])))


def clump_decompose(u: Sequence[float], L: int, lambda_cap: int) -> ClumpDecomposition:
    """Greedy circular gap-splitting into clumps, plus hypothesis checks.

    Nodes are sorted on the circle and cut at every gap >= 3*lambda_cap/L,
    starting the circular walk after the largest gap.  The result records
    the part structure, the inter-part distance beta, the overall
    separation alpha, and whether the localization hypotheses hold
    (|part| <= lambda, beta >= 3*lambda/L, max diameter < beta).  The parts
    are arcs of the circle, so beta is the least distance across a cut and a
    diameter comes from the arc's ends (or, past half the circle, from its
    antipodal pairs): all in O(n log n).
    """
    if L < 1:
        raise ValueError(f"row count must be >= 1, got {L}")
    if lambda_cap < 1:
        raise ValueError(f"cluster size cap must be >= 1, got {lambda_cap}")
    raw = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("nodes must be finite")
    xs = np.sort(torus_canonical(raw))
    n = xs.size
    if n < 1:
        raise ValueError("need at least one node")
    if np.any(xs[1:] == xs[:-1]):
        raise ValueError("nodes must be distinct modulo 1")

    threshold = 3.0 * lambda_cap / L
    gaps = np.concatenate((np.diff(xs), np.mod(xs[:1] - xs[-1:], 1.0)))  # gap after xs[i], wrapping
    # With any cut, the walk starts after the largest gap, which it never cuts.
    start = int(np.argmax(gaps)) + 1 if gaps.max() >= threshold else 0
    walk = np.concatenate((xs[start:], xs[:start]))
    walk_gaps = np.concatenate((gaps[start:], gaps[:start]))
    edges = [0, *(np.flatnonzero(walk_gaps[:-1] >= threshold) + 1).tolist(), n]
    values = walk.tolist()
    part_tuples = tuple(tuple(values[a:b]) for a, b in zip(edges, edges[1:]))
    r = len(part_tuples)
    lambda_max = max(b - a for a, b in zip(edges, edges[1:]))
    alpha = _sorted_separation(xs) if n >= 2 else math.inf

    reasons: list[str] = []
    if lambda_max > lambda_cap:
        reasons.append(f"a part has {lambda_max} nodes, exceeding the cap {lambda_cap}")
    if r >= 2:
        firsts, lasts = walk[edges[:-1]], walk[np.subtract(edges[1:], 1)]
        beta = float(min(np.min(wrap_distance(lasts[:-1], firsts[1:])), wrap_distance(firsts[0], lasts[-1])))
        # An arc's ends give its diameter unless it spans over half the circle,
        # which only the longest arc can.
        longest = int(np.argmax(np.mod(lasts - firsts, 1.0)))
        ends = float(np.max(wrap_distance(firsts, lasts)))
        max_diam = max(ends, _arc_diameter(walk[edges[longest] : edges[longest + 1]]))
        if beta < threshold:
            reasons.append(f"inter-part distance {beta:.6g} below 3*lambda/L = {threshold:.6g}")
        if max_diam >= beta:
            reasons.append(f"part diameter {max_diam:.6g} not below inter-part distance {beta:.6g}")
    else:
        beta = math.inf
    return ClumpDecomposition(
        parts=part_tuples,
        r=r,
        lambda_max=lambda_max,
        beta=beta,
        alpha=alpha,
        hypotheses_ok=not reasons,
        reasons=tuple(reasons),
    )
