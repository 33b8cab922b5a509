"""Singular values, condition numbers and Hermitian eigenvalues.

Two independent routes are provided and cross-validated in the test suite:
``svd_values`` goes through a dense values-only SVD (the singular vectors
and the residual they give are opt-in), while ``gram_extremes`` runs
Lanczos (ARPACK ``eigsh``) on a Gram product G = A^H A or A A^H from a
deterministic real start vector and never calls LAPACK SVD.  G is any
Hermitian ``scipy.sparse.linalg.LinearOperator``, needing only matvecs and
O(n) memory.  A real G gets both extremes from one symmetric Lanczos run
(``which="BE"``); a complex G, for which scipy refuses ``"BE"``, gets one
run per extreme.  ``core_matrix.figure1_gram`` is the real symmetric
Toeplitz Gram of the figure-1 family, and ``extreme_singular_values``
forms the smaller Gram product of a dense matrix or a ``LinearOperator`` A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_matrix import ComplexDense

__all__ = [
    "SpectralSummary",
    "UnconvergedError",
    "svd_values",
    "extreme_singular_values",
    "gram_extremes",
    "hermitian_eigenvalues",
    "default_rank_tol",
    "CROSSOVER_DIM",
]

# Figure-1 sizes up to here get a dense values-only SVD, larger ones one
# Lanczos run on the Toeplitz Gram ``figure1_gram``.  Medians of 21 runs,
# 2 BLAS threads, 2-vCPU VM, three passes, dense build + SVD against the
# Gram route: n = 51: 0.33-0.49 ms vs 0.80-1.26 ms; 75: 1.34-1.59 vs
# 0.91-1.23; 83: 1.79-1.88 vs 1.06-1.30; 101: 2.97-3.23 vs 0.80-1.17;
# 151: 6.6-7.9 vs 0.85-1.26.  The Gram route is ahead from about n = 75,
# but below 83 the two differ by under 1 ms, and a lower value would change
# the ``method`` column of default figure-1 CSVs, so it stays at 83.
CROSSOVER_DIM = 83
_START_SEED = 0x5EED  # deterministic Lanczos start vector

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


def extreme_singular_values(
    a, tol: float = 1e-11, max_iter: int = 100_000
) -> tuple[float, float]:
    """(sigma_max, sigma_min) by Lanczos on the smaller Gram product.

    ``a`` is dense (a ComplexDense or an array, wrapped with
    ``aslinearoperator``) or a ``scipy.sparse.linalg.LinearOperator``; only
    products with A and A^H are used.  The extremes come from
    ``gram_extremes`` on A^H A or A A^H, whichever is smaller.
    """
    from scipy.sparse.linalg import LinearOperator, aslinearoperator

    op = a if isinstance(a, LinearOperator) else aslinearoperator(_checked(a))
    rows, cols = op.shape
    return gram_extremes(op.H @ op if rows >= cols else op @ op.H, tol, max_iter)


def gram_extremes(gram, tol: float = 1e-11, max_iter: int = 100_000) -> tuple[float, float]:
    """(sigma_max, sigma_min) of A from its Gram product G = A^H A or A A^H.

    ``gram`` is a Hermitian positive semidefinite ``LinearOperator``, such
    as ``core_matrix.figure1_gram``; only matvecs are used.  ARPACK
    ``eigsh`` starts from one real start vector, with at most ``max_iter``
    restarts per run.  A real G gets one symmetric Lanczos run
    (``which="BE"``, k = 2) for both extremes from one Krylov space.  scipy
    refuses ``"BE"`` for a complex G, which gets two runs, one for the
    largest and one for the smallest eigenvalue.  A dimension of 1 or 2,
    which ARPACK cannot take, is solved directly from the explicit G, and a
    zero G gives (0.0, 0.0).

    sigma_max agrees with ``svd_values`` to about ``tol`` relative.
    sigma_min is the root of a Gram eigenvalue, so rounding can move it by
    up to about eps * sigma_max**2 / sigma_min, and never by much more than
    sqrt(eps) * sigma_max: on ill-conditioned inputs it is good to about
    1e-8 relative to sigma_max, not to ``tol``.  Raises UnconvergedError
    with the best estimate when ARPACK does not converge.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = gram.shape[0]
    if n < 3:  # ARPACK's eigsh needs k < n for a real G (k = 2), k < n - 1 for a complex one
        lam = np.linalg.eigvalsh(gram @ np.eye(n))
        return math.sqrt(max(float(lam[-1]), 0.0)), math.sqrt(max(float(lam[0]), 0.0))
    v0 = np.random.default_rng(_START_SEED).standard_normal(n)
    v0 /= np.linalg.norm(v0)
    w0 = gram.matvec(v0)
    if not np.any(w0):  # a zero input, whose Krylov space ARPACK rejects
        return 0.0, 0.0
    if np.issubdtype(gram.dtype, np.complexfloating):
        runs = ((1, "LA", "Lanczos (sigma_max)"), (1, "SA", "Lanczos (sigma_min)"))
    else:
        runs = ((2, "BE", "Lanczos (sigma_max, sigma_min)"),)
    lam = []
    for k, which, what in runs:
        try:
            lam.extend(eigsh(gram, k=k, which=which, v0=v0, tol=tol, maxiter=max_iter,
                             return_eigenvectors=False))
        except ArpackNoConvergence as exc:
            best = max(np.real(exc.eigenvalues), default=np.vdot(v0, w0).real)
            raise UnconvergedError(what, math.sqrt(max(float(best), 0.0)), max_iter) from exc
    return math.sqrt(max(float(max(lam)), 0.0)), math.sqrt(max(float(min(lam)), 0.0))


def hermitian_eigenvalues(b: ComplexDense) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    mat = _checked(b)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got {mat.shape}")
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if asym > 1e-12:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(mat)[::-1]

