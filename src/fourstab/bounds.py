"""Closed-form stability bounds for Fourier-type matrices.

Every evaluator returns a BoundReport: an applicability verdict plus lower
and upper bounds on the extreme singular values (or frame constants, see
the ``scale`` field).  Negative lower bounds are clipped to zero and
flagged as vacuous; hypotheses that fail produce applicable=False with a
reason rather than an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core_matrix import FrequencySet

__all__ = [
    "BoundReport",
    "kadec_C",
    "kadec_D",
    "perturbed_frame_bounds",
    "dft_freq_bounds",
    "weyl_freq_bounds",
    "weyl_node_bounds",
    "vandermonde_node_bounds",
    "wellsep_bounds",
    "clump_bounds",
    "instability_spectrum",
]

SCALE_SIGMA = "sigma"
SCALE_SIGMA_SQUARED = "sigma_squared"


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    applicable: bool
    reason: str = ""
    sigma_min_lower: float | None = None
    sigma_max_upper: float | None = None
    scale: str = SCALE_SIGMA
    inputs: Mapping[str, object] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.applicable and not self.reason:
            raise ValueError("non-applicable report requires a reason")
        if (
            self.applicable
            and self.sigma_min_lower is not None
            and self.sigma_max_upper is not None
            and self.sigma_min_lower > self.sigma_max_upper
        ):
            raise ValueError("lower bound exceeds upper bound")

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "reason": self.reason,
            "sigma_min_lower": self.sigma_min_lower,
            "sigma_max_upper": self.sigma_max_upper,
            "scale": self.scale,
            "inputs": dict(self.inputs),
            "notes": list(self.notes),
        }


def _not_applicable(theorem: str, reason: str, inputs: Mapping) -> BoundReport:
    return BoundReport(theorem=theorem, applicable=False, reason=reason, inputs=dict(inputs))


def kadec_C(t: float) -> float:
    """C(t) = 1 - cos(pi t) + sin(pi t) on 0 <= t <= 1/4."""
    if not 0.0 <= t <= 0.25:
        raise ValueError(f"t must lie in [0, 1/4], got {t}")
    return 1.0 - math.cos(math.pi * t) + math.sin(math.pi * t)


def kadec_D(t: float, d: int) -> float:
    """D(t) = (C(t) + sinc(pi t))^d - sinc(pi t)^d with sinc(0) = 1."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    c = kadec_C(t)
    s = math.sin(math.pi * t) / (math.pi * t) if t > 0.0 else 1.0
    return (c + s) ** d - s**d


def _clip_vacuous(lower: float, notes: list[str]) -> float:
    if lower < 0.0:
        notes.append("vacuous lower bound (clipped to 0)")
        return 0.0
    return lower


def perturbed_frame_bounds(
    a: float, b: float, ell: float, d: int = 1, rank_one: bool = False
) -> BoundReport:
    """Frame/Riesz constants after a sup-norm-ell frequency perturbation.

    General perturbations: applicable iff D(ell) < sqrt(a/b), giving
    A' = a (1 - sqrt(b/a) D)^2 and B' = b (1 + D)^2.  Rank-one
    perturbations use C(ell) with exponent 2d instead.  Bounds are frame
    constants, i.e. squared singular values.
    """
    if not 0.0 < a <= b:
        raise ValueError(f"constants must satisfy 0 < a <= b, got a={a}, b={b}")
    if ell < 0.0:
        raise ValueError(f"perturbation size must be nonnegative, got {ell}")
    theorem = "perturbed_frame"
    inputs = {"a": a, "b": b, "ell": ell, "d": d, "rank_one": rank_one}
    if ell >= 0.25:
        return _not_applicable(theorem, "requires sup-norm perturbation < 1/4", inputs)
    thresh = math.sqrt(a / b)
    if rank_one:
        c = kadec_C(ell)
        if c >= thresh:
            return _not_applicable(
                theorem, f"requires C(ell) < sqrt(a/b): C={c:.6g} >= {thresh:.6g}", inputs
            )
        lower = a * (1.0 - math.sqrt(b / a) * c) ** (2 * d)
        upper = b * (1.0 + c) ** (2 * d)
    else:
        dd = kadec_D(ell, d)
        if dd >= thresh:
            return _not_applicable(
                theorem, f"requires D(ell) < sqrt(a/b): D={dd:.6g} >= {thresh:.6g}", inputs
            )
        lower = a * (1.0 - math.sqrt(b / a) * dd) ** 2
        upper = b * (1.0 + dd) ** 2
    return BoundReport(
        theorem=theorem,
        applicable=True,
        sigma_min_lower=lower,
        sigma_max_upper=upper,
        scale=SCALE_SIGMA_SQUARED,
        inputs=inputs,
    )


def dft_freq_bounds(m: Sequence[int], ell: float, rank_one: bool = False) -> BoundReport:
    """Extreme singular values of the DFT matrix under frequency perturbation.

    With P = M_1 ... M_d: sigma_min >= (1 - D(ell)) sqrt(P) and
    sigma_max <= (1 + D(ell)) sqrt(P); rank-one perturbations sharpen the
    factors to (1 -+ C(ell))^d.
    """
    dims = [int(x) for x in m]
    if not dims or any(x < 1 for x in dims):
        raise ValueError(f"lattice sides must be positive integers, got {list(m)}")
    if ell < 0.0:
        raise ValueError(f"perturbation size must be nonnegative, got {ell}")
    theorem = "dft_frequency_stability"
    d = len(dims)
    root = math.sqrt(math.prod(dims))
    inputs = {"m": dims, "ell": ell, "rank_one": rank_one}
    if ell >= 0.25:
        return _not_applicable(theorem, "requires sup-norm perturbation < 1/4", inputs)
    notes: list[str] = []
    if rank_one:
        c = kadec_C(ell)
        lower = (1.0 - c) ** d * root
        upper = (1.0 + c) ** d * root
    else:
        dd = kadec_D(ell, d)
        lower = (1.0 - dd) * root
        upper = (1.0 + dd) * root
    lower = _clip_vacuous(lower, notes)
    return BoundReport(
        theorem=theorem,
        applicable=True,
        sigma_min_lower=lower,
        sigma_max_upper=upper,
        scale=SCALE_SIGMA,
        inputs=inputs,
        notes=tuple(notes),
    )


def _conjugate_exponent(p: float) -> float:
    """1/p' = 1 - 1/p for p in [1, inf]; returns the exponent 1/p'."""
    if not p >= 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == math.inf:
        return 1.0
    return 1.0 - 1.0 / p


def weyl_freq_bounds(
    sigma_n: float,
    sigma_1: float,
    L: int,
    N: int,
    d: int,
    p: float,
    eps: float,
) -> BoundReport:
    """Additive perturbation bound for frequency errors of size eps in l^p.

    sigma_N(F') >= sigma_N(F) - pi d^(1/p') sqrt(LN) eps and symmetrically
    for sigma_1; a Frobenius-norm estimate, loose but assumption-free.
    """
    if not eps >= 0.0:  # NaN fails every comparison, so it is rejected here too
        raise ValueError(f"perturbation size must be nonnegative, got {eps}")
    if not sigma_n <= sigma_1:
        raise ValueError(f"need sigma_n <= sigma_1, got {sigma_n} and {sigma_1}")
    expo = _conjugate_exponent(p)
    shift = math.pi * d**expo * math.sqrt(L * N) * eps
    notes: list[str] = []
    lower = _clip_vacuous(sigma_n - shift, notes)
    inputs = {"sigma_n": sigma_n, "sigma_1": sigma_1, "L": L, "N": N, "d": d, "p": p, "eps": eps}
    return BoundReport(
        theorem="weyl_frequency_perturbation",
        applicable=True,
        sigma_min_lower=lower,
        sigma_max_upper=sigma_1 + shift,
        scale=SCALE_SIGMA,
        inputs=inputs,
        notes=tuple(notes),
    )


def weyl_node_bounds(
    sigma_n: float,
    sigma_1: float,
    omega: FrequencySet,
    N: int,
    p: float,
    eps: float,
) -> BoundReport:
    """Additive perturbation bound for node errors of size eps in l^p.

    Uses the constant 2 pi sqrt(sum_j ||w_j||_{p'}^2) over the frequency
    rows; the allowable eps therefore shrinks as frequencies grow.
    """
    if not eps >= 0.0:  # NaN fails every comparison, so it is rejected here too
        raise ValueError(f"perturbation size must be nonnegative, got {eps}")
    if not sigma_n <= sigma_1:
        raise ValueError(f"need sigma_n <= sigma_1, got {sigma_n} and {sigma_1}")
    expo = _conjugate_exponent(p)
    p_conj = math.inf if p == 1.0 else (1.0 if p == math.inf else p / (p - 1.0))
    norms = np.array([np.linalg.norm(row, ord=p_conj) for row in omega.points])
    constant = 2.0 * math.pi * math.sqrt(float(np.sum(norms**2)))
    shift = constant * math.sqrt(N) * eps
    notes: list[str] = []
    lower = _clip_vacuous(sigma_n - shift, notes)
    inputs = {
        "sigma_n": sigma_n,
        "sigma_1": sigma_1,
        "num_freqs": omega.count,
        "N": N,
        "p": p,
        "eps": eps,
        "constant": constant,
    }
    return BoundReport(
        theorem="weyl_node_perturbation",
        applicable=True,
        sigma_min_lower=lower,
        sigma_max_upper=sigma_1 + shift,
        scale=SCALE_SIGMA,
        inputs=inputs,
        notes=tuple(notes),
    )


def vandermonde_node_bounds(sigma_r: float, sigma_1: float, ell: float) -> BoundReport:
    """Rectangular Vandermonde stability under node shifts delta_k / L.

    Applicable iff C(ell) < sigma_r / sigma_1; then
    sigma_r(V') >= sigma_r (1 - (sigma_1/sigma_r) C(ell)) and
    sigma_1(V') <= sigma_1 (1 + C(ell)).
    """
    if not 0.0 < sigma_r <= sigma_1:
        raise ValueError(f"need 0 < sigma_r <= sigma_1, got {sigma_r}, {sigma_1}")
    if ell < 0.0:
        raise ValueError(f"perturbation size must be nonnegative, got {ell}")
    theorem = "vandermonde_node_stability"
    inputs = {"sigma_r": sigma_r, "sigma_1": sigma_1, "ell": ell}
    if ell >= 0.25:
        return _not_applicable(theorem, "requires sup-norm perturbation < 1/4", inputs)
    c = kadec_C(ell)
    ratio = sigma_r / sigma_1
    if c >= ratio:
        return _not_applicable(
            theorem, f"requires C(ell) < sigma_r/sigma_1: C={c:.6g} >= {ratio:.6g}", inputs
        )
    return BoundReport(
        theorem=theorem,
        applicable=True,
        sigma_min_lower=sigma_r * (1.0 - c / ratio),
        sigma_max_upper=sigma_1 * (1.0 + c),
        scale=SCALE_SIGMA,
        inputs=inputs,
    )


def wellsep_bounds(L: int, sep: float) -> BoundReport:
    """Two-sided bound for well-separated Vandermonde nodes.

    Requires sep(U) > 1/L; then L - 1/sep <= sigma_min^2 and
    sigma_max^2 <= L + 1/sep.  Reported on the squared scale; the notes
    carry the square-root translation.
    """
    if L < 1:
        raise ValueError(f"row count must be >= 1, got {L}")
    if not 0.0 < sep <= 0.5:
        raise ValueError(f"separation must lie in (0, 1/2], got {sep}")
    theorem = "wellsep_sandwich"
    inputs = {"L": L, "sep": sep}
    if sep <= 1.0 / L:
        return _not_applicable(theorem, f"requires sep(U) > 1/L: {sep:.6g} <= {1.0 / L:.6g}", inputs)
    notes: list[str] = []
    lower_sq = _clip_vacuous(L - 1.0 / sep, notes)  # roundoff can cross zero at the gate
    upper_sq = L + 1.0 / sep
    notes.append(
        f"sigma scale: sigma_min >= {math.sqrt(lower_sq):.12g}, "
        f"sigma_max <= {math.sqrt(upper_sq):.12g}"
    )
    return BoundReport(
        theorem=theorem,
        applicable=True,
        sigma_min_lower=lower_sq,
        sigma_max_upper=upper_sq,
        scale=SCALE_SIGMA_SQUARED,
        inputs=inputs,
        notes=tuple(notes),
    )


def clump_bounds(
    L: int,
    N: int,
    alpha: float,
    lam: int,
    c_universal: float = 1.0,
    c_small: float = 1.0,
) -> BoundReport:
    """Localization bound for clumped node sets.

    sigma_N >= C sqrt(L/N) (c L alpha)^(lam-1) and
    sigma_1 <= sqrt(L (lam + 1/3)).  The universal constants C, c are
    configuration parameters (default 1.0), not values derived here; the
    lower bound is therefore only meaningful up to those constants.
    """
    if lam < 1:
        raise ValueError(f"cluster size cap must be >= 1, got {lam}")
    if not (0.0 < c_universal < math.inf and 0.0 < c_small < math.inf):
        raise ValueError(f"universal constants must be positive and finite, got {c_universal} and {c_small}")
    if math.isnan(alpha):
        raise ValueError("intra-cluster spacing alpha must be a number, got nan")
    theorem = "clump_localization"
    inputs = {
        "L": L,
        "N": N,
        "alpha": alpha,
        "lambda": lam,
        "c_universal": c_universal,
        "c_small": c_small,
    }
    if L < 6 * N:
        return _not_applicable(theorem, f"requires L >= 6N: {L} < {6 * N}", inputs)
    if not 0.0 < alpha < 1.0 / L:
        return _not_applicable(
            theorem, f"requires 0 < alpha < 1/L: alpha={alpha:.6g}, 1/L={1.0 / L:.6g}", inputs
        )
    lower = c_universal * math.sqrt(L / N) * (c_small * L * alpha) ** (lam - 1)
    upper = math.sqrt(L * (lam + 1.0 / 3.0))
    return BoundReport(
        theorem=theorem,
        applicable=True,
        sigma_min_lower=lower,
        sigma_max_upper=upper,
        scale=SCALE_SIGMA,
        inputs=inputs,
        notes=("universal constants supplied by configuration, not derived",),
    )


def instability_spectrum(n: int) -> list[float]:
    """Exact singular values of the leading n x n DFT submatrix, n odd.

    sqrt(n+1) with multiplicity n-1 and 1 with multiplicity 1; the
    condition number is sqrt(n+1).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"size must be an odd integer >= 3, got {n}")
    return [math.sqrt(n + 1.0)] * (n - 1) + [1.0]
