import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourstab.core_matrix import FrequencySet, NodeSet, build_gamma, unit_entries
from fourstab.exp_systems import ExponentialSystemSpec, gram_matrix
from fourstab.oracle import (
    CubeWitness,
    FiniteSequence,
    _cross_terms,
    _normalize_coeffs,
    _trigamma,
    _unit_interval_integrals,
    extremal_witness,
    frame_ratio,
    hilbert_shift,
    riesz_ratio,
)
from fourstab.spectral import svd_values
from fourstab.verify import random_spec


def tight_spec():
    return ExponentialSystemSpec(NodeSet([0.0, 0.5]), FrequencySet([0, 1]))


def frame_spec():
    return ExponentialSystemSpec(NodeSet([0.0, 0.5, 0.25]), FrequencySet([0, 1]))


def loop_cross_terms(spec, keys):
    """Reference cross matrix, one pair at a time: a lattice sum over the
    cubes and d scalar unit-interval integrals J(nu) per pair."""

    def unit_integral(nu):
        if nu == 0.0:
            return 1.0 + 0.0j
        ang = 2.0 * math.pi * (nu % 1.0)
        return complex(math.cos(ang) - 1.0, math.sin(ang)) / (2.0j * math.pi * nu)

    deltas, pts = spec.deltas.points, spec.p.points
    cross = np.empty((len(keys), len(keys)), dtype=np.complex128)
    for a, (j, n) in enumerate(keys):
        for b, (i, m) in enumerate(keys):
            value = complex(np.sum(unit_entries(np.dot(deltas[j] - deltas[i], pts.T))))
            for t in range(spec.dim):
                value *= unit_integral((n[t] - m[t]) + (deltas[j, t] - deltas[i, t]))
            cross[a, b] = value
    return cross


def tail_sum(offset, trunc):
    """Reference S_T(offset) = sum over |n| <= T of sinc^2(n + offset)."""
    return float(np.sum(np.sinc(np.arange(-trunc, trunc + 1) + offset) ** 2))


class TestFrameRatio:
    def test_orthogonal_limit_from_below(self):
        w = CubeWitness(tight_spec(), np.array([1.0, 0.0]))
        ratios = [frame_ratio(w, t) for t in (10, 100, 1000, 10_000)]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(2.0, rel=1e-3)
        assert ratios[-1] <= 2.0 + 1e-9

    def test_monotone_in_truncation(self, rng):
        spec = random_spec(rng, aspect="tall")
        w = CubeWitness(spec, rng.standard_normal(spec.num_p) + 1j * rng.standard_normal(spec.num_p))
        ratios = [frame_ratio(w, t) for t in (1, 5, 25, 125)]
        assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_tail_sums_match_sinc_reference(self):
        # offsets at 0, near 0, at 1/2 and near 1, on both axes
        spec = ExponentialSystemSpec(
            NodeSet([[0.0, 0.5], [1e-9, 0.0], [0.5, 1 - 1e-9], [0.75, 0.3]]), FrequencySet([[0, 0], [1, 2]])
        )
        w = CubeWitness(spec, np.array([1.0, 0.5 - 2.0j]))
        g = unit_entries(spec.deltas.points @ spec.p.points.T) @ np.conj(w.values)
        ratios = []
        for trunc in (1, 2, 5, 25, 125, 1000, 10_000):
            factors = [tail_sum(b, trunc) for b in spec.deltas.points.ravel()]
            expected = np.sum(np.abs(g) ** 2 * np.prod(np.reshape(factors, (4, 2)), axis=1)) / w.norm_sq
            ratios.append(frame_ratio(w, trunc))
            assert ratios[-1] == pytest.approx(expected, rel=1e-13)
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_trigamma_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate((np.linspace(1.0, 40.0, 391), np.geomspace(40.0, 1e12, 23)))
        with mpmath.workdps(40):
            for x, value in zip(xs, _trigamma(xs)):
                exact = mpmath.psi(1, mpmath.mpf(float(x)))
                assert abs(mpmath.mpf(float(value)) - exact) <= 5e-16 * exact

    def test_zero_offset_tail_is_exactly_one(self):
        # one offset at exactly 0: S_T(0) = 1, so the ratio is |sum phi|^2 / |phi|^2 for every T
        for spec in (
            ExponentialSystemSpec(NodeSet([0.0]), FrequencySet([0, 3])),
            ExponentialSystemSpec(NodeSet([[0.0, 0.0]]), FrequencySet([[0, 0], [2, -1]])),
        ):
            w = CubeWitness(spec, np.array([1.0, 1.0]))
            assert [frame_ratio(w, t) for t in (1, 10, 10_000)] == [2.0, 2.0, 2.0]

    def test_max_witness_attains_top_constant(self):
        spec = frame_spec()
        w = extremal_witness(spec, "max")
        assert frame_ratio(w, 10_000) == pytest.approx(4.0, rel=1e-2)

    def test_never_exceeds_upper_constant(self, rng):
        for _ in range(20):
            spec = random_spec(rng, dim=1)
            upper = svd_values(build_gamma(spec.deltas, spec.p)).sigma_max ** 2
            vals = rng.standard_normal(spec.num_p) + 1j * rng.standard_normal(spec.num_p)
            w = CubeWitness(spec, vals)
            for trunc in (3, 50, 700):
                assert frame_ratio(w, trunc) <= upper + 1e-9

    def test_zero_witness_rejected(self):
        w = CubeWitness(tight_spec(), np.zeros(2))
        with pytest.raises(ValueError, match="nonzero"):
            frame_ratio(w, 10)

    def test_bad_truncation(self):
        w = CubeWitness(tight_spec(), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            frame_ratio(w, 0)

    @pytest.mark.parametrize("trunc", [2.5, 10.0, True, "10", np.float64(3.0)])
    def test_non_integer_truncation_rejected(self, trunc):
        w = CubeWitness(tight_spec(), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="integer"):
            frame_ratio(w, trunc)

    def test_numpy_integer_truncation_accepted(self):
        w = CubeWitness(frame_spec(), np.array([1.0, -0.5j]))
        assert frame_ratio(w, np.int64(25)) == frame_ratio(w, 25)

    @pytest.mark.parametrize("trunc", [10**9, 10**12, 10**30])
    def test_huge_truncation(self, trunc):
        # offsets near 0, in the middle and near 1 on both axes
        spec = ExponentialSystemSpec(
            NodeSet([[1e-9, 0.5], [0.25, 1 - 1e-9], [0.75, 0.3]]), FrequencySet([[0, 0], [1, 2]])
        )
        w = CubeWitness(spec, np.array([1.0, 0.5 - 2.0j]))
        g = unit_entries(spec.deltas.points @ spec.p.points.T) @ np.conj(w.values)
        if trunc <= 10**12:
            mpmath = pytest.importorskip("mpmath")
            with mpmath.workdps(40):

                def exact_tail(b):
                    b = mpmath.mpf(float(b))
                    edge = mpmath.mpf(trunc) + 1
                    return 1 - mpmath.sin(mpmath.pi * b) ** 2 / mpmath.pi**2 * (
                        mpmath.psi(1, edge + b) + mpmath.psi(1, edge - b)
                    )

                tails = np.reshape([float(exact_tail(b)) for b in spec.deltas.points.ravel()], (3, 2))
            expected = np.sum(np.abs(g) ** 2 * np.prod(tails, axis=1)) / w.norm_sq
            assert frame_ratio(w, trunc) == pytest.approx(expected, rel=1e-14)
        upper = svd_values(build_gamma(spec.deltas, spec.p)).sigma_max ** 2
        assert frame_ratio(w, trunc) <= upper * (1 + 1e-12)
        assert frame_ratio(w, trunc) >= frame_ratio(w, 10_000)

    def test_non_finite_witness_rejected(self):
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                CubeWitness(tight_spec(), [1.0, bad])


class TestExtremalWitness:
    def test_unit_norm_degenerate_extreme(self):
        w = extremal_witness(tight_spec(), "max")
        assert w.norm_sq == pytest.approx(1.0, rel=1e-12)

    def test_values_conjugate_gram_eigenvectors(self):
        spec = frame_spec()
        gram = gram_matrix(spec).data
        for which, eig in (("max", 4.0), ("min", 2.0)):
            w = extremal_witness(spec, which)
            vec = np.conj(w.values)
            assert np.linalg.norm(gram @ vec - eig * vec) < 1e-10

    def test_min_witness_attains_bottom(self):
        w = extremal_witness(frame_spec(), "min")
        assert frame_ratio(w, 10_000) == pytest.approx(2.0, rel=1e-2)
        assert frame_ratio(w, 10_000) >= 2.0 * (1 - 0.05)

    def test_requires_frame_side(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.3]), FrequencySet([0, 1, 2]))
        with pytest.raises(ValueError, match="L >= N"):
            extremal_witness(spec, "max")

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            extremal_witness(tight_spec(), "typical")


class TestRieszRatio:
    def test_single_exponential_gives_domain_measure(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.3]), FrequencySet([0, 1, 2]))
        assert riesz_ratio(spec, {(0, 0): 1.0}) == pytest.approx(3.0, rel=1e-12)

    def test_tight_system_exact(self, rng):
        spec = tight_spec()
        coeffs = {}
        for j in range(2):
            for n in range(-2, 3):
                coeffs[(j, n)] = complex(rng.standard_normal(), rng.standard_normal())
        assert riesz_ratio(spec, coeffs, cross_check=True) == pytest.approx(2.0, rel=1e-10)

    def test_sandwich_random_specs(self, rng):
        for _ in range(30):
            spec = random_spec(rng, dim=1, aspect="wide")
            s = svd_values(build_gamma(spec.deltas, spec.p))
            lo = s.singular_values[min(spec.num_deltas, spec.num_p) - 1] ** 2
            hi = s.sigma_max**2
            coeffs = {}
            for j in range(spec.num_deltas):
                for n in range(-3, 4):
                    coeffs[(j, n)] = complex(rng.standard_normal(), rng.standard_normal())
            ratio = riesz_ratio(spec, coeffs)
            assert lo - 1e-9 <= ratio <= hi + 1e-9

    def test_quadrature_cross_check_two_dim(self, rng):
        spec = random_spec(rng, dim=2, max_l=3, max_n=3)
        coeffs = {(0, (0, 0)): 1.0, (1, (1, -1)): 0.5 - 0.25j}
        value = riesz_ratio(spec, coeffs, grid=64, cross_check=True)
        assert value > 0

    @pytest.mark.parametrize("dim, reach", [(1, 3), (2, 2), (3, 1)])
    def test_cross_terms_match_loop(self, rng, dim, reach):
        spec = random_spec(rng, dim=dim, max_l=4, max_n=4)
        window = itertools.product(range(-reach, reach + 1), repeat=dim)
        # every offset with every n in the window: pairs with one offset and
        # n != m have nu at a nonzero integer, and the diagonal has nu = 0
        coeffs = {(j, n): 1.0 for n in window for j in range(spec.num_deltas)}
        keys, _ = _normalize_coeffs(spec, coeffs)
        cross = _cross_terms(spec, keys)
        ref = loop_cross_terms(spec, keys)
        assert np.max(np.abs(cross - ref)) <= 1e-13 * np.max(np.abs(ref))
        offsets = np.array([j for j, _ in keys])
        same = (offsets[:, None] == offsets[None, :]) & ~np.eye(len(keys), dtype=bool)
        assert np.all(cross[same] == 0.0)
        assert np.all(np.diag(cross) == spec.num_p)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_terms_match_loop_far_keys(self, rng, dim):
        spec = random_spec(rng, dim=dim, max_l=4, max_n=4)
        far = (-7, 0, 5, 10**9)
        window = list(itertools.product(far, repeat=dim))
        # every offset with every far n: in 2-D keys share their (offset, n_t)
        # on each axis; one far n per offset: every key is its own (offset, n_t)
        dense = [(j, n) for n in window for j in range(spec.num_deltas)]
        sparse = [(j, window[(3 * j + 1) % len(window)]) for j in range(spec.num_deltas)]
        deltas = spec.deltas.points
        for chosen in (dense, sparse):
            keys, _ = _normalize_coeffs(spec, {key: 1.0 for key in chosen})
            cross = _cross_terms(spec, keys)
            ref = loop_cross_terms(spec, keys)
            assert np.max(np.abs(cross - ref)) <= 1e-13 * np.max(np.abs(ref))
            # bit for bit the same as J evaluated on every pair
            ints = np.array([n for _, n in keys], dtype=float)
            diff = deltas[[j for j, _ in keys]]
            diff = diff[:, None, :] - diff[None, :, :]
            phase = np.zeros(diff.shape[:2] + (spec.num_p,))
            for t in range(dim):
                phase += diff[:, :, t, None] * spec.p.points[None, None, :, t]
            direct = np.sum(unit_entries(phase), axis=2)
            for t in range(dim):
                direct *= _unit_interval_integrals((ints[:, None, t] - ints[None, :, t]) + diff[:, :, t])
            assert np.array_equal(cross, direct)

    def test_rejects_non_finite_coefficients(self):
        spec = ExponentialSystemSpec(NodeSet([[0.0, 0.0], [0.5, 0.25]]), FrequencySet([[0, 0], [1, 0]]))
        for bad in (math.nan, math.inf, complex(1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                riesz_ratio(spec, {(0, (0, 0)): 1.0, (1, (0, 0)): bad})

    def test_rejects_empty_and_zero(self):
        spec = tight_spec()
        with pytest.raises(ValueError):
            riesz_ratio(spec, {})
        with pytest.raises(ValueError):
            riesz_ratio(spec, {(0, 0): 0.0})

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="64"):
            riesz_ratio(tight_spec(), {(0, 0): 1.0}, grid=16)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="range"):
            riesz_ratio(tight_spec(), {(5, 0): 1.0})


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 2),
    size=st.integers(1, 5),
    reach=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_riesz_ratio_within_square_spectrum(dim, size, reach, seed):
    rng = np.random.default_rng(seed)
    grid = np.array(list(itertools.product(range(-4, 5), repeat=dim)))
    spec = ExponentialSystemSpec(
        NodeSet(rng.random((size, dim))), FrequencySet(grid[rng.choice(len(grid), size, replace=False)])
    )
    s = svd_values(build_gamma(spec.deltas, spec.p))
    lo, hi = s.sigma_min**2, s.sigma_max**2
    window = list(itertools.product(range(-reach, reach + 1), repeat=dim))
    coeffs = {(j, n): complex(*rng.standard_normal(2)) for j in range(size) for n in window}
    assert lo - 1e-9 * hi <= riesz_ratio(spec, coeffs) <= hi + 1e-9 * hi


class TestHilbertShift:
    def test_identity_at_zero(self, rng):
        a = FiniteSequence(-2, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        out = hilbert_shift(a, 0.0, out_window=a.window)
        assert np.allclose(out.values, a.values)

    def test_integer_shift_with_sign(self):
        out = hilbert_shift(FiniteSequence.delta(0), 1.0, out_window=(-3, 3))
        expected = np.zeros(7, dtype=complex)
        expected[2] = -1.0  # m = -1
        assert np.allclose(out.values, expected)

    def test_half_shift_kernel(self):
        out = hilbert_shift(FiniteSequence.delta(0), 0.5, out_window=(-2000, 2000))
        m = np.arange(-2000, 2001)
        assert np.allclose(out.values, (1 / math.pi) / (m + 0.5), atol=1e-15)
        assert out.norm_sq() == pytest.approx(1.0, rel=1e-3)

    def test_truncated_isometry_improves_with_window(self, rng):
        K = 3
        a = FiniteSequence(-K, rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1))
        devs = []
        for w in (10 * K, 20 * K, 40 * K):
            h = hilbert_shift(a, 1 / 3, (-w, w))
            devs.append(abs(h.norm_sq() - a.norm_sq()) / a.norm_sq())
        assert devs[0] <= 0.05
        assert devs[0] >= devs[1] >= devs[2]

    def test_group_law_spot_check(self):
        d0 = FiniteSequence.delta(0)
        wide = hilbert_shift(d0, 1 / 6, (-400, 400))
        lhs = hilbert_shift(wide, 1 / 3, (-100, 100))
        rhs = hilbert_shift(d0, 1 / 2, (-100, 100))
        err = np.linalg.norm(lhs.values - rhs.values) / np.linalg.norm(rhs.values)
        assert err <= 0.05

    def test_default_window_ten_times_radius(self):
        a = FiniteSequence(-2, np.ones(5))
        out = hilbert_shift(a, 0.25)
        assert out.window == (-20, 20)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            hilbert_shift(FiniteSequence.delta(0), 0.5, (3, 1))


class TestWitnessSandwich:
    def test_min_witness_lower_bound_with_truncation_error(self, rng):
        # regression specs: truncation at 1e4 keeps 95% of the bottom constant
        specs = [
            frame_spec(),
            ExponentialSystemSpec(NodeSet([0.0, 0.3, 0.7, 0.1]), FrequencySet([0, 1, 2])),
        ]
        for spec in specs:
            s = svd_values(build_gamma(spec.deltas, spec.p))
            bottom = s.sigma_min**2
            w = extremal_witness(spec, "min")
            assert frame_ratio(w, 10_000) >= bottom - 0.05 * bottom

    def test_max_witness_within_one_percent(self, rng):
        for _ in range(5):
            spec = random_spec(rng, dim=1, aspect="tall")
            top = svd_values(build_gamma(spec.deltas, spec.p)).sigma_max ** 2
            w = extremal_witness(spec, "max")
            assert frame_ratio(w, 10_000) == pytest.approx(top, rel=1e-2)

    def test_two_dim_witness_truncated_at_10000(self, rng):
        for _ in range(3):
            spec = random_spec(rng, dim=2, max_l=5, max_n=4, aspect="tall")
            top = svd_values(build_gamma(spec.deltas, spec.p)).sigma_max ** 2
            ratio = frame_ratio(extremal_witness(spec, "max"), 10_000)
            assert ratio <= top + 1e-9
            assert ratio == pytest.approx(top, rel=1e-2)
