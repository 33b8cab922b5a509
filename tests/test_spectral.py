import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from fourstab.core_matrix import (
    ComplexDense,
    FrequencySet,
    NodeSet,
    build_dft,
    build_fourier,
    build_gamma,
    build_figure1,
    build_instability_submatrix,
    figure1_gram,
)
from fourstab.exp_systems import ExponentialSystemSpec, classify_system
from fourstab.experiments import strict_json
from fourstab.spectral import (
    UnconvergedError,
    extreme_singular_values,
    gram_extremes,
    hermitian_eigenvalues,
    svd_values,
)


def random_fourier(rng, rows, cols):
    lo, hi = -5 * rows, 5 * rows
    freqs = np.unique(rng.integers(lo, hi, (rows, 1)), axis=0)
    while freqs.shape[0] < rows:
        freqs = np.unique(np.vstack([freqs, rng.integers(lo, hi, (1, 1))]), axis=0)
    return build_fourier(FrequencySet(freqs[:rows]), NodeSet(rng.random((cols, 1))))


class TestSvdValues:
    def test_dft(self):
        s = svd_values(build_dft((4,)))
        assert np.allclose(s.singular_values, 2.0, atol=1e-12)
        assert s.method == "FullDecomposition"
        assert s.residual is None  # values only unless residual=True

    def test_instability(self):
        s = svd_values(build_instability_submatrix(3))
        assert np.allclose(s.singular_values, [2.0, 2.0, 1.0], atol=1e-12)

    def test_two_by_two(self):
        s = svd_values(ComplexDense(np.array([[1, 1], [1, -1]], dtype=complex)))
        assert np.allclose(s.singular_values, math.sqrt(2), atol=1e-14)

    def test_sorted_and_extremes(self, rng):
        s = svd_values(random_fourier(rng, 9, 5))
        vals = np.array(s.singular_values)
        assert np.all(np.diff(vals) <= 0)
        assert s.sigma_max == vals[0] and s.sigma_min == vals[-1]

    def test_residual_small_up_to_500(self, rng):
        for rows, cols in ((60, 40), (500, 120)):
            s = svd_values(random_fourier(rng, rows, cols), residual=True)
            assert s.residual <= 1e-9 * s.sigma_max

    def test_values_only_matches_full_decomposition(self, rng):
        mats = [random_fourier(rng, 60, 40), random_fourier(rng, 500, 120), build_instability_submatrix(511)]
        for mat in mats:
            fast = np.array(svd_values(mat).singular_values)
            full = svd_values(mat, residual=True)
            assert np.max(np.abs(fast - np.array(full.singular_values))) <= 1e-13 * full.sigma_max

    def test_missing_residual_is_json_null(self):
        doc = json.loads(strict_json(svd_values(build_dft((3,))).to_dict()))
        assert doc["residual"] is None

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd_values(ComplexDense(np.array([[np.inf, 0], [0, 1]], dtype=complex)))


class TestExtremeSingularValues:
    def test_dft8(self):
        smax, smin = extreme_singular_values(build_dft((8,)))
        assert smax == pytest.approx(math.sqrt(8), rel=1e-10)
        assert smin == pytest.approx(math.sqrt(8), rel=1e-10)

    def test_instability9(self):
        smax, smin = extreme_singular_values(build_instability_submatrix(9))
        assert smax == pytest.approx(math.sqrt(10), rel=1e-9)
        assert smin == pytest.approx(1.0, rel=1e-9)

    def test_agrees_with_full_path(self, rng):
        mat = random_fourier(rng, 50, 20)
        full = svd_values(mat)
        smax, smin = extreme_singular_values(mat)
        assert abs(smax - full.sigma_max) <= 1e-8 * full.sigma_max
        assert abs(smin - full.sigma_min) <= 1e-8 * full.sigma_max

    def test_method_agreement_many(self, rng):
        for _ in range(100):
            rows = int(rng.integers(4, 201))
            cols = int(rng.integers(2, min(rows, 60) + 1))
            mat = random_fourier(rng, rows, cols)
            full = svd_values(mat)
            smax, smin = extreme_singular_values(mat)
            assert abs(smax - full.sigma_max) <= 1e-8 * full.sigma_max
            assert abs(smin - full.sigma_min) <= 1e-8 * full.sigma_max

    def test_unconverged_raises_with_payload(self, rng):
        mat = random_fourier(rng, 40, 30)
        with pytest.raises(UnconvergedError) as err:
            extreme_singular_values(mat, tol=1e-14, max_iter=2)
        assert err.value.iterations == 2
        assert err.value.best_estimate > 0

    def test_bad_tolerance(self):
        bad = ({"tol": 0.0}, {"tol": -1e-11}, {"tol": math.nan}, {"max_iter": 0}, {"max_iter": -3})
        for mat in (build_dft((2,)), build_dft((5,)), aslinearoperator(build_dft((5,)).data)):
            for kwargs in bad:
                with pytest.raises(ValueError, match="tolerance|max_iter"):
                    extreme_singular_values(mat, **kwargs)

    def test_zero_matrix(self):
        for shape in ((3, 2), (5, 4), (4, 4)):
            zero = np.zeros(shape, dtype=complex)
            assert extreme_singular_values(ComplexDense(zero)) == (0.0, 0.0)
            assert extreme_singular_values(aslinearoperator(zero)) == (0.0, 0.0)

    def test_never_calls_lapack_svd(self, monkeypatch):
        # The 12-point DFT (frequencies -6..5) with node 1 moved to 1e-9:
        # kappa ~ 1.6e8, so sigma_min^2 lies below eps * sigma_max^2.
        nodes = np.arange(12) / 12
        nodes[1] = 1e-9
        mat = build_fourier(FrequencySet(np.arange(-6, 6)[:, None]), NodeSet(nodes[:, None]))
        full = svd_values(mat)
        assert full.condition > 1e8

        def no_svd(*args, **kwargs):
            raise AssertionError("extreme_singular_values called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        smax, smin = extreme_singular_values(mat)
        assert abs(smax - full.sigma_max) <= 1e-8 * full.sigma_max
        assert abs(smin - full.sigma_min) <= 1e-8 * full.sigma_max


class TestOperatorExtremes:
    @pytest.mark.parametrize("n", [3, 5, 301])
    def test_figure1_matches_full_path(self, n):
        full = svd_values(build_figure1(n))
        smax, smin = gram_extremes(figure1_gram(n))
        assert abs(smax - full.sigma_max) <= 1e-10 * full.sigma_max
        assert abs(smin - full.sigma_min) <= 1e-10 * full.sigma_max

    @pytest.mark.parametrize("shape", [(7, 3), (3, 9)])
    def test_wrapped_dense_matches_full_path(self, rng, shape):
        mat = random_fourier(rng, *shape)
        full = svd_values(mat)
        smax, smin = extreme_singular_values(aslinearoperator(mat.data))
        assert abs(smax - full.sigma_max) <= 1e-10 * full.sigma_max
        assert abs(smin - full.sigma_min) <= 1e-10 * full.sigma_max

    def test_tiny_gram_solved_directly(self, rng):
        for shape, wrap in (((7, 2), True), ((2, 9), True), ((3, 1), False)):
            mat = random_fourier(rng, *shape)
            full = svd_values(mat)
            smax, smin = extreme_singular_values(aslinearoperator(mat.data) if wrap else mat)
            assert abs(smax - full.sigma_max) <= 1e-10 * full.sigma_max
            assert abs(smin - full.sigma_min) <= 1e-10 * full.sigma_max

    def test_gram_extremes_tiny_gram(self, rng):
        for shape in ((7, 1), (7, 2), (2, 9)):
            mat = random_fourier(rng, *shape).data
            full = svd_values(ComplexDense(mat))
            gram = mat.conj().T @ mat if shape[0] >= shape[1] else mat @ mat.conj().T
            smax, smin = gram_extremes(aslinearoperator(gram))
            assert abs(smax - full.sigma_max) <= 1e-10 * full.sigma_max
            assert abs(smin - full.sigma_min) <= 1e-10 * full.sigma_max

    def test_gram_extremes_zero_gram(self):
        for n in (1, 2, 3, 6):
            assert gram_extremes(aslinearoperator(np.zeros((n, n)))) == (0.0, 0.0)

    def test_gram_extremes_bad_tolerance(self):
        bad = ({"tol": 0.0}, {"tol": -1e-11}, {"tol": math.nan}, {"max_iter": 0}, {"max_iter": -3})
        for gram in (aslinearoperator(np.eye(2)), figure1_gram(5)):
            for kwargs in bad:
                with pytest.raises(ValueError, match="tolerance|max_iter"):
                    gram_extremes(gram, **kwargs)

    def test_unconverged_raises_with_payload(self):
        t = np.random.default_rng(7).uniform(0.0, 1.0, 400)
        diag = np.sqrt(1.0 + t**2)
        op = LinearOperator((400, 400), matvec=lambda x: diag * np.ravel(x),
                            rmatvec=lambda x: diag * np.ravel(x), dtype=complex)
        with pytest.raises(UnconvergedError) as err:
            extreme_singular_values(op, max_iter=1)
        assert err.value.iterations == 1
        assert math.isfinite(err.value.best_estimate) and err.value.best_estimate > 0

    def test_unconverged_real_gram_raises_with_payload(self):
        diag = 1.0 + np.random.default_rng(7).uniform(0.0, 1.0, 400) ** 2
        op = LinearOperator((400, 400), matvec=lambda x: diag * np.ravel(x), dtype=np.float64)
        with pytest.raises(UnconvergedError) as err:
            gram_extremes(op, max_iter=1)
        assert err.value.iterations == 1
        assert math.isfinite(err.value.best_estimate) and err.value.best_estimate > 0

    def test_real_gram_of_dimension_three(self, rng):
        b = rng.standard_normal((3, 3))
        gram = b @ b.T
        lam = np.linalg.eigvalsh(gram)
        smax, smin = gram_extremes(aslinearoperator(gram))
        assert smax == pytest.approx(math.sqrt(lam[-1]), rel=1e-10)
        assert smin == pytest.approx(math.sqrt(lam[0]), rel=1e-10)

    def test_one_lanczos_run_for_a_real_gram(self, rng, monkeypatch):
        import scipy.sparse.linalg as sla

        calls = []
        eigsh = sla.eigsh

        def counted(*args, **kwargs):
            calls.append(kwargs["which"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigsh", counted)
        gram_extremes(figure1_gram(301))
        assert calls == ["BE"]
        calls.clear()
        mat = random_fourier(rng, 40, 12).data
        gram_extremes(aslinearoperator(mat.conj().T @ mat))
        assert calls == ["LA", "SA"]


def test_import_leaves_sparse_linalg_unloaded():
    # The oracle never needs scipy, so neither importing fourstab nor one
    # frame_ratio and one riesz_ratio call may pay for importing it.
    code = """
import sys, fourstab as fs
print(sorted(m for m in sys.modules if m.startswith("scipy")))
spec = fs.ExponentialSystemSpec(fs.NodeSet([0.0, 0.3]), fs.FrequencySet([0, 1]))
fs.frame_ratio(fs.CubeWitness(spec, [1.0, 0.5j]), 10_000)
fs.riesz_ratio(spec, {(0, 0): 1.0, (1, 2): 0.5})
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


class TestHermitianEigenvalues:
    def test_scaled_identity(self):
        vals = hermitian_eigenvalues(ComplexDense(2.0 * np.eye(2, dtype=complex)))
        assert np.allclose(vals, [2.0, 2.0])

    def test_pauli_like(self):
        mat = ComplexDense(np.array([[3, 1j], [-1j, 3]], dtype=complex))
        assert np.allclose(hermitian_eigenvalues(mat), [4.0, 2.0], atol=1e-12)

    def test_gram_of_gamma(self):
        gamma = build_gamma(NodeSet([0.0, 0.5, 0.25]), FrequencySet([0, 1]))
        gram = ComplexDense(gamma.data.conj().T @ gamma.data)
        assert np.allclose(hermitian_eigenvalues(gram), [4.0, 2.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="asymmetry"):
            hermitian_eigenvalues(ComplexDense(np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(ComplexDense(np.ones((2, 3), dtype=complex)))


class TestNumericRank:
    """The rank ``classify_system`` reports: singular values of G(Delta, P)
    above tol * sigma_1."""

    @staticmethod
    def rank(deltas, p, tol=1e-10):
        return classify_system(ExponentialSystemSpec(NodeSet(deltas), FrequencySet(p)), tol).rank

    def test_rank_one(self):
        # every entry of this 3 x 2 G(Delta, P) is 1
        assert self.rank([0.0, 1 / 3, 2 / 3], [0, 3]) == 1

    def test_orthogonal_columns(self):
        # G(Delta, P) transposed is V(4, {0, 1/2}), whose two columns are orthogonal
        assert self.rank([0.0, 0.5], [0, 1, 2, 3]) == 2

    def test_degenerate_gamma(self):
        assert self.rank([0.0, 0.5], [0, 2]) == 1

    def test_tolerance_validation(self):
        for tol in (0.0, -1.0, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                self.rank([0.0, 0.5], [0, 1], tol)


class TestConditionNumber:
    def test_dft_is_one(self):
        assert svd_values(build_dft((5,))).condition == pytest.approx(1.0, rel=1e-12)

    def test_instability_15(self):
        assert svd_values(build_instability_submatrix(15)).condition == pytest.approx(4.0, rel=1e-10)

    def test_zero_matrix_infinite(self):
        assert svd_values(ComplexDense(np.zeros((2, 2), dtype=complex))).condition == math.inf


class TestCrossChecks:
    def test_gram_eigenvalues_are_squared_singulars(self, rng):
        for _ in range(20):
            rows = int(rng.integers(4, 12))
            cols = int(rng.integers(2, rows + 1))
            mat = random_fourier(rng, rows, cols)
            gram = ComplexDense(mat.data.conj().T @ mat.data)
            eig = hermitian_eigenvalues(gram)
            sq = np.array(svd_values(mat).singular_values) ** 2
            assert np.allclose(eig, sq, rtol=1e-9, atol=1e-9 * sq[0])

    def test_permutation_invariance(self, rng):
        mat = random_fourier(rng, 8, 6)
        base = np.array(svd_values(mat).singular_values)
        rowp = rng.permutation(8)
        colp = rng.permutation(6)
        permuted = ComplexDense(mat.data[rowp][:, colp])
        assert np.allclose(base, np.array(svd_values(permuted).singular_values), rtol=1e-12)
