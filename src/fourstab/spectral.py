"""Singular values, Hermitian eigenvalues, rank and condition numbers.

Two independent routes are provided and cross-validated in the test suite:
``svd_values`` goes through a dense values-only SVD (the singular vectors
and the residual they give are opt-in), while ``extreme_singular_values``
runs power iteration (largest) and inverse iteration on the Gram matrix
(smallest) with deterministic start vectors.  Given a matrix-free
``scipy.sparse.linalg.LinearOperator`` (such as
``core_matrix.figure1_operator``), ``extreme_singular_values`` instead runs
Lanczos (ARPACK ``eigsh``) on the operator Gram product A^H A, which needs
only matvecs and O(n) memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core_matrix import ComplexDense

__all__ = [
    "SpectralSummary",
    "UnconvergedError",
    "svd_values",
    "extreme_singular_values",
    "hermitian_eigenvalues",
    "numeric_rank",
    "condition_number",
    "default_rank_tol",
    "CROSSOVER_DIM",
]

# Figure-1 sizes up to here get a dense values-only SVD, larger ones the
# matrix-free operator.  On a 2-vCPU VM the operator overtakes the dense
# build and SVD between n = 151 and 161 and is about 2x faster at n = 201;
# below that the two differ by a few ms.
CROSSOVER_DIM = 201
_ILL_CONDITIONED = 1e8        # inverse iteration falls back to the full path
_START_SEED = 0x5EED          # deterministic iteration start vectors

METHOD_FULL = "FullDecomposition"
METHOD_ITERATIVE = "IterativeExtremes"


class UnconvergedError(RuntimeError):
    """Iterative extreme did not converge within the iteration budget."""

    def __init__(self, what: str, best_estimate: float, iterations: int):
        super().__init__(
            f"{what} unconverged after {iterations} iterations (best estimate {best_estimate:.6g})"
        )
        self.best_estimate = best_estimate
        self.iterations = iterations


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted singular values with extremes, condition number and provenance."""

    singular_values: tuple[float, ...]
    sigma_max: float
    sigma_min: float
    condition: float
    method: str
    residual: float | None

    def to_dict(self) -> dict:
        return {
            "singular_values": list(self.singular_values),
            "sigma_max": self.sigma_max,
            "sigma_min": self.sigma_min,
            "condition": self.condition,
            "method": self.method,
            "residual": self.residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def default_rank_tol(rows: int, cols: int) -> float:
    return max(rows, cols) * 1e-12


def _checked(a: ComplexDense) -> np.ndarray:
    if not isinstance(a, ComplexDense):
        a = ComplexDense(np.asarray(a))
    return a.data


def svd_values(a: ComplexDense, residual: bool = False) -> SpectralSummary:
    """All singular values via a dense SVD.

    By default only the values are computed and ``residual`` is None.  With
    ``residual=True`` the full decomposition also runs, and the residual is
    the largest deviation of ||A v_i|| from sigma_i over the computed right
    singular vectors.
    """
    mat = _checked(a)
    if residual:
        _, s, vh = np.linalg.svd(mat)
        av = mat @ vh.conj().T[:, : s.size]
        res = float(np.max(np.abs(np.linalg.norm(av, axis=0) - s))) if s.size else 0.0
    else:
        s = np.linalg.svd(mat, compute_uv=False)
        res = None
    sigma_max = float(s[0])
    sigma_min = float(s[-1])
    tol = default_rank_tol(*mat.shape)
    condition = sigma_max / sigma_min if sigma_min > tol * sigma_max else math.inf
    return SpectralSummary(
        singular_values=tuple(float(x) for x in s),
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        condition=condition,
        method=METHOD_FULL,
        residual=res,
    )


_BLOCK = 8  # subspace width; cushions clustered extreme eigenvalues


def _start_block(n: int) -> np.ndarray:
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal((n, min(_BLOCK, n))) + 1j * rng.standard_normal((n, min(_BLOCK, n)))
    q, _ = np.linalg.qr(v)
    return q


def _ritz_extreme(gram: np.ndarray, basis: np.ndarray, top: bool) -> tuple[float, np.ndarray]:
    """Extreme Ritz pair of ``gram`` over the orthonormal columns of ``basis``."""
    projected = basis.conj().T @ (gram @ basis)
    projected = 0.5 * (projected + projected.conj().T)
    vals, vecs = np.linalg.eigh(projected)
    idx = -1 if top else 0
    return float(vals[idx]), basis @ vecs[:, idx]


def _power_largest(gram: np.ndarray, tol: float, max_iter: int) -> float:
    """Largest eigenvalue of the Hermitian PSD matrix ``gram`` by block
    power iteration with Rayleigh-Ritz extraction."""
    basis = _start_block(gram.shape[0])
    lam = 0.0
    for it in range(1, max_iter + 1):
        lam, x = _ritz_extreme(gram, basis, top=True)
        if lam <= 0.0:
            return 0.0
        if np.linalg.norm(gram @ x - lam * x) <= tol * lam:
            return lam
        basis, _ = np.linalg.qr(gram @ basis)
    raise UnconvergedError("power iteration (sigma_max)", math.sqrt(max(lam, 0.0)), max_iter)


def _inverse_smallest(gram: np.ndarray, lam_max: float, tol: float, max_iter: int):
    """Smallest eigenvalue of ``gram`` by zero-shift block inverse iteration.

    Returns None when the Cholesky factorization fails or the matrix looks
    too ill-conditioned for the normal-equations solve; the caller then
    falls back to the full decomposition.
    """
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except (np.linalg.LinAlgError, ValueError):
        return None
    basis = _start_block(gram.shape[0])
    mu = lam_max
    floor = gram.shape[0] * np.finfo(float).eps * lam_max  # residual noise floor
    for it in range(1, max_iter + 1):
        mu, x = _ritz_extreme(gram, basis, top=False)
        if mu <= 0.0 or (lam_max > 0 and lam_max / mu > _ILL_CONDITIONED**2):
            return None
        if np.linalg.norm(gram @ x - mu * x) <= tol * mu + floor:
            return mu
        solved = cho_solve(factor, basis, check_finite=False)
        if not np.all(np.isfinite(solved)):
            return None
        basis, _ = np.linalg.qr(solved)
    raise UnconvergedError("inverse iteration (sigma_min)", math.sqrt(max(mu, 0.0)), max_iter)


def _is_operator(a) -> bool:
    """True for a ``scipy.sparse.linalg.LinearOperator``; imports scipy's
    sparse package only for inputs that are not already dense."""
    if isinstance(a, (ComplexDense, np.ndarray)):
        return False
    from scipy.sparse.linalg import LinearOperator

    return isinstance(a, LinearOperator)


def _operator_extremes(op, tol: float, max_iter: int) -> tuple[float, float]:
    """(sigma_max, sigma_min) of a LinearOperator by Lanczos on its smaller Gram product."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    rows, cols = op.shape
    gram = op.H @ op if rows >= cols else op @ op.H
    n = gram.shape[0]
    if n < 3:  # ARPACK needs k < n - 1
        raise ValueError(f"operator input needs at least 3 rows and 3 columns, got {op.shape}")
    v0 = _start_block(n)[:, 0]
    extremes = []
    for which, what in (("LA", "Lanczos (sigma_max)"), ("SA", "Lanczos (sigma_min)")):
        try:
            lam = eigsh(gram, k=1, which=which, v0=v0, tol=tol, maxiter=max_iter,
                        return_eigenvectors=False)[0]
        except ArpackNoConvergence as exc:
            ritz = exc.eigenvalues
            best = ritz[0] if len(ritz) else np.vdot(v0, gram.matvec(v0))
            raise UnconvergedError(what, math.sqrt(max(float(np.real(best)), 0.0)), max_iter) from exc
        extremes.append(math.sqrt(max(float(lam), 0.0)))
    return extremes[0], extremes[1]


def extreme_singular_values(
    a, tol: float = 1e-11, max_iter: int = 100_000
) -> tuple[float, float]:
    """(sigma_max, sigma_min) by iteration on the smaller Gram matrix.

    ``a`` is dense (a ComplexDense or an array) or a
    ``scipy.sparse.linalg.LinearOperator``; an operator, which needs at
    least 3 rows and 3 columns, goes through Lanczos with at most
    ``max_iter`` restarts per extreme, and is never made dense.  Agrees with ``svd_values`` to within ~10*tol relative on
    inputs where both run; raises UnconvergedError with the best estimate
    otherwise.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if _is_operator(a):
        return _operator_extremes(a, tol, max_iter)
    mat = _checked(a)
    rows, cols = mat.shape
    gram = mat.conj().T @ mat if rows >= cols else mat @ mat.conj().T
    gram = 0.5 * (gram + gram.conj().T)

    lam_max = _power_largest(gram, tol, max_iter)
    sigma_max = math.sqrt(max(lam_max, 0.0))
    if lam_max == 0.0:
        return 0.0, 0.0

    lam_min = _inverse_smallest(gram, lam_max, tol, max_iter)
    if lam_min is None:
        s = np.linalg.svd(mat, compute_uv=False)
        return sigma_max, float(s[-1])
    return sigma_max, math.sqrt(max(lam_min, 0.0))


def hermitian_eigenvalues(b: ComplexDense) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    mat = _checked(b)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if asym > 1e-12:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(mat)[::-1]


def numeric_rank(a: ComplexDense, rel_tol: float | None = None) -> int:
    """Number of singular values above rel_tol * sigma_1."""
    mat = _checked(a)
    if rel_tol is None:
        rel_tol = default_rank_tol(*mat.shape)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"relative tolerance must lie in (0, 1), got {rel_tol}")
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def condition_number(a: ComplexDense) -> float:
    """sigma_max / sigma_min, or +inf when numerically singular."""
    return svd_values(a).condition
