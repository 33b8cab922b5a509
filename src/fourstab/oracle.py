"""Function-side estimators of frame and Riesz constants.

These evaluate the defining inequalities of the exponential system on
T(P) directly, without any singular value decomposition, so they serve as
independent cross-checks of the matrix route.

Analysis side (frames): for f piecewise constant with value phi_k on the
cube Q + p_k,

    sum_j sum_{|n|_inf <= T} |<f, e^{2 pi i (n + delta_j).x}>|^2
        = sum_j |(G conj(phi))_j|^2 * prod_t S_T(delta_{j,t}),

where S_T(b) = sum_{|n| <= T} sinc^2(n + b) increases to 1 as T grows.
The cube integrals are products of one-dimensional integrals of
exponentials, evaluated in closed form; truncation in n is the only
approximation.  The tail factor is in closed form as well: from
sum_{n in Z} (n + b)^-2 = pi^2 / sin^2(pi b), for 0 <= b < 1,

    S_T(b) = 1 - (sin^2(pi b) / pi^2) * (psi_1(T + 1 + b) + psi_1(T + 1 - b)),

with psi_1 the trigamma function, so S_T(0) = 1 exactly and the cost is
O(L d) for any T.

Synthesis side (Riesz sequences): the squared norm of a finite combination
sum a_{j,n} e^{2 pi i (n + delta_j).x} over T(P) expands into closed-form
cross terms

    <e_{n+delta_j}, e_{m+delta_i}>_{L2(T)}
        = (sum_k e^{2 pi i (delta_j - delta_i).p_k}) * prod_t J(nu_t),

with nu = (n - m) + (delta_j - delta_i) and J(nu) the unit-interval
integral of e^{2 pi i nu y}.  The lattice sum depends only on the offset
pair (j, i), so it is evaluated once as a table over the offsets in use
(at most L x L); the K x K cross matrix is that table indexed by the
offsets of the K coefficients.  On each axis J(nu_t) depends only on the
offsets and on the integers n_t, m_t of the two keys, so J is evaluated on
a table over the distinct (offset, n_t) pairs on that axis and gathered
onto the K x K matrix.  That table is never larger than K x K; for L
offsets on a window of w integers per axis it is Lw x Lw against
K = L w^d.
G itself is never formed.  No truncation is involved, so the Riesz ratio
is exact up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core_matrix import unit_entries
from .exp_systems import ExponentialSystemSpec, gram_matrix

__all__ = [
    "CubeWitness",
    "FiniteSequence",
    "frame_ratio",
    "riesz_ratio",
    "hilbert_shift",
    "extremal_witness",
]


@dataclass(frozen=True, eq=False)
class CubeWitness:
    """Piecewise-constant function on T(P): value phi_k on the cube Q + p_k."""

    spec: ExponentialSystemSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size != self.spec.num_p:
            raise ValueError(
                f"witness needs {self.spec.num_p} cube values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("witness values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def norm_sq(self) -> float:
        """Squared L2 norm of the function; cubes have unit measure."""
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True, eq=False)
class FiniteSequence:
    """Complex sequence supported on the window [start, start + len - 1]."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("sequence needs a nonempty 1-D value array")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("sequence values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def delta(cls, position: int = 0) -> "FiniteSequence":
        return cls(position, np.array([1.0 + 0.0j]))

    @property
    def window(self) -> tuple[int, int]:
        return self.start, self.start + self.values.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.values.size)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


# Bernoulli numbers B_2, B_4, ..., B_12 of the trigamma asymptotic series.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi_1(x) = sum_{k >= 0} (x + k)^-2 for x >= 1, to about 4.2e-16 relative.

    The recurrence psi_1(x) = x^-2 + psi_1(x + 1) (Abramowitz-Stegun 6.4.6)
    lifts every argument to y = x + s >= 16, where the asymptotic series
    1/y + 1/(2 y^2) + sum_k B_2k / y^(2k+1) (A-S 6.4.12) runs to its y^-13
    term; the s recurrence terms are then added smallest first.
    """
    x = np.asarray(x, dtype=float)
    steps = np.maximum(np.ceil(16.0 - x), 0.0)
    y = x + steps
    inv_sq = 1.0 / y**2
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = b + inv_sq * series
    out = (1.0 + (0.5 + series / y) / y) / y
    for k in range(int(steps.max(initial=0.0)) - 1, -1, -1):
        out += np.where(k < steps, 1.0 / (x + k) ** 2, 0.0)
    return out


def frame_ratio(witness: CubeWitness, trunc: int) -> float:
    """Truncated analysis sum of the witness divided by its squared norm.

    Monotone nondecreasing in the integer truncation radius ``trunc`` >= 1
    and bounded above by the optimal upper frame constant sigma_1(G)^2.
    The tail factors are in closed form, so the cost does not depend on
    ``trunc``.
    """
    if isinstance(trunc, bool) or not isinstance(trunc, (int, np.integer)):
        raise ValueError(f"truncation radius must be an integer, got {trunc!r}")
    if trunc < 1:
        raise ValueError(f"truncation radius must be >= 1, got {trunc}")
    norm_sq = witness.norm_sq
    if norm_sq == 0.0:
        raise ValueError("witness must be nonzero")
    spec = witness.spec
    deltas = spec.deltas.points
    phases = deltas @ spec.p.points.T
    g = unit_entries(phases) @ np.conj(witness.values)
    # S_T(b) for every offset coordinate b at once, with sin(pi b) taken at
    # min(b, 1 - b) to stay accurate for b near 1; at b = 0 it is 1 exactly.
    edge = float(trunc) + 1.0
    sin_sq = (np.sin(np.pi * np.minimum(deltas, 1.0 - deltas)) / np.pi) ** 2
    tails = 1.0 - sin_sq * (_trigamma(edge + deltas) + _trigamma(edge - deltas))
    return float(np.sum(np.abs(g) ** 2 * np.prod(tails, axis=1))) / norm_sq


def _unit_interval_integrals(nu: np.ndarray) -> np.ndarray:
    """Elementwise J(nu); 1 at nu = 0 and, via the angle of nu mod 1, 0 at other integers."""
    ang = 2.0 * np.pi * np.mod(nu, 1.0)
    zero = nu == 0.0
    scale = 2.0 * np.pi * np.where(zero, 1.0, nu)
    out = np.sin(ang) / scale + 1j * ((1.0 - np.cos(ang)) / scale)
    return np.where(zero, 1.0 + 0.0j, out)


def _normalize_coeffs(
    spec: ExponentialSystemSpec, coeffs: Mapping
) -> tuple[list[tuple[int, tuple[int, ...]]], np.ndarray]:
    keys: list[tuple[int, tuple[int, ...]]] = []
    vals: list[complex] = []
    for key, val in coeffs.items():
        j, n = key
        j = int(j)
        n_tup = (int(n),) if np.isscalar(n) else tuple(int(x) for x in n)
        if not 0 <= j < spec.num_deltas:
            raise ValueError(f"offset index {j} out of range [0, {spec.num_deltas})")
        if len(n_tup) != spec.dim:
            raise ValueError(f"integer index {n_tup} has wrong dimension (expected {spec.dim})")
        keys.append((j, n_tup))
        vals.append(complex(val))
    arr = np.asarray(vals, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite")
    if not keys or not np.any(np.abs(arr) > 0.0):
        raise ValueError("coefficients must be nonzero somewhere")
    return keys, arr


def _cross_terms(spec: ExponentialSystemSpec, keys: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    """K x K matrix of <e_{n+delta_j}, e_{m+delta_i}>_{L2(T)} over the keys (j, n)."""
    offsets = np.array([j for j, _ in keys])
    ints = np.array([n for _, n in keys], dtype=float)
    used, col = np.unique(offsets, return_inverse=True)
    deltas = spec.deltas.points[used]
    diff = deltas[:, None, :] - deltas[None, :, :]
    # Lattice sums over the cubes depend only on the offset pair: one table.
    phase = np.zeros(diff.shape[:2] + (spec.num_p,))
    for t in range(spec.dim):
        phase += diff[:, :, t, None] * spec.p.points[None, None, :, t]
    table = np.sum(unit_entries(phase), axis=2)
    pair = (col[:, None], col[None, :])
    cross = table[pair]
    for t in range(spec.dim):
        # J(nu_t) depends only on the offsets and the integers n_t, m_t of the
        # two keys: one table over the distinct (offset, n_t) of this axis,
        # never larger than the K x K matrix.
        values, at = np.unique(ints[:, t], return_inverse=True)
        kinds, at = np.unique(col * values.size + at, return_inverse=True)
        c, v = np.divmod(kinds, values.size)
        nu = (values[v][:, None] - values[v][None, :]) + diff[c[:, None], c[None, :], t]
        cross *= _unit_interval_integrals(nu)[at[:, None], at[None, :]]
    return cross


def _synthesis_norm_sq_quadrature(
    spec: ExponentialSystemSpec, keys, a: np.ndarray, grid: int
) -> float:
    """Gauss-Legendre cross-check of the closed-form synthesis norm."""
    xg, wg = np.polynomial.legendre.leggauss(grid)
    y = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    mesh = np.stack(np.meshgrid(*([y] * spec.dim), indexing="ij"), axis=-1).reshape(-1, spec.dim)
    wmesh = np.stack(np.meshgrid(*([w] * spec.dim), indexing="ij"), axis=-1)
    weights = wmesh.reshape(-1, spec.dim).prod(axis=1)
    deltas = spec.deltas.points
    total = 0.0
    for p_k in spec.p.points:
        x = mesh + p_k[None, :]
        s = np.zeros(mesh.shape[0], dtype=np.complex128)
        for (j, n), coeff in zip(keys, a):
            theta = np.asarray(n, dtype=float) + deltas[j]
            s += coeff * np.exp(2j * np.pi * (x @ theta))
        total += float(np.sum(weights * np.abs(s) ** 2))
    return total


def riesz_ratio(
    spec: ExponentialSystemSpec,
    coeffs: Mapping,
    grid: int = 64,
    cross_check: bool = False,
) -> float:
    """Synthesis ratio ||sum a e||^2 / sum |a|^2 from closed-form cross terms.

    ``coeffs`` maps (j, n) to a complex coefficient, j the offset index and
    n a d-dimensional integer (a plain int when d = 1).  With
    ``cross_check`` the value is re-computed by Gauss-Legendre quadrature
    with ``grid`` points per axis and must agree to 1e-6 relative.
    """
    if grid < 64:
        raise ValueError(f"quadrature grid must be >= 64 points per axis, got {grid}")
    keys, a = _normalize_coeffs(spec, coeffs)
    norm_sq = float(np.real(np.conj(a) @ (a @ _cross_terms(spec, keys))))
    coeff_sq = float(np.sum(np.abs(a) ** 2))
    ratio = norm_sq / coeff_sq
    if cross_check:
        quad = _synthesis_norm_sq_quadrature(spec, keys, a, grid) / coeff_sq
        if abs(quad - ratio) > 1e-6 * max(abs(ratio), 1.0):
            raise ArithmeticError(
                f"quadrature cross-check failed: closed form {ratio:.12g}, quadrature {quad:.12g}"
            )
    return ratio


def hilbert_shift(
    a: FiniteSequence, t: float, out_window: tuple[int, int] | None = None
) -> FiniteSequence:
    """Discrete fractional shift H_t on a finitely supported sequence.

    Integer t: (H_t a)_m = (-1)^t a_{m+t}.  Otherwise
    (H_t a)_m = (sin(pi t)/pi) sum_n a_n / (m - n + t), evaluated on the
    output window (default: ten times the input support radius).
    """
    lo, hi = a.window
    if out_window is None:
        radius = max(abs(lo), abs(hi), 1)
        out_window = (-10 * radius, 10 * radius)
    out_lo, out_hi = int(out_window[0]), int(out_window[1])
    if out_hi < out_lo:
        raise ValueError(f"empty output window {out_window}")
    m = np.arange(out_lo, out_hi + 1)
    if float(t).is_integer():
        shift = int(round(t))
        sign = 1.0 if shift % 2 == 0 else -1.0
        out = np.zeros(m.size, dtype=np.complex128)
        src = m + shift
        mask = (src >= lo) & (src <= hi)
        out[mask] = sign * a.values[src[mask] - lo]
        return FiniteSequence(out_lo, out)
    denom = m[:, None] - a.indices[None, :] + t
    out = (math.sin(math.pi * t) / math.pi) * np.sum(a.values[None, :] / denom, axis=1)
    return FiniteSequence(out_lo, out)


def extremal_witness(spec: ExponentialSystemSpec, which: str) -> CubeWitness:
    """Piecewise-constant witness attaining an optimal frame constant.

    The analysis sum of a witness with cube values phi equals the
    quadratic form of the Gram matrix at conj(phi), so the returned values
    are the conjugated unit eigenvector for the selected extreme
    eigenvalue.  Requires L >= N (the frame side).
    """
    which = which.lower()
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    if spec.num_deltas < spec.num_p:
        raise ValueError("extremal witness requires at least as many offsets as cubes (L >= N)")
    gram = gram_matrix(spec).data
    eigvals, eigvecs = np.linalg.eigh(gram)
    column = 0 if which == "min" else -1
    return CubeWitness(spec, np.conj(eigvecs[:, column]))
