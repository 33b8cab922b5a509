import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourstab.core_matrix import FrequencySet, NodeSet, PerturbationMap, build_gamma, build_vandermonde
from fourstab.exp_systems import (
    ExponentialSystemSpec,
    classify_system,
    clump_decompose,
    gram_matrix,
    separation,
    special_delta_condition,
    tensor_kadec_condition,
    wrap_distance,
)
from fourstab.experiments import strict_json
from fourstab.spectral import svd_values
from fourstab.verify import random_spec


class TestWrapDistance:
    def test_examples(self):
        assert wrap_distance(0.1, 0.9) == pytest.approx(0.2)
        assert wrap_distance(0.25, 0.25) == 0.0
        assert wrap_distance(0.0, 0.5) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.floats(-10, 10, allow_nan=False),
        s=st.floats(-10, 10, allow_nan=False),
        r=st.floats(-10, 10, allow_nan=False),
    )
    def test_metric_properties(self, t, s, r):
        d = wrap_distance(t, s)
        assert 0.0 <= d <= 0.5
        assert d == pytest.approx(wrap_distance(s, t), abs=1e-12)
        assert wrap_distance(t, r) <= wrap_distance(t, s) + wrap_distance(s, r) + 1e-12


class TestSeparation:
    def test_examples(self):
        assert separation([0.0, 0.5]) == pytest.approx(0.5)
        assert separation([0.1, 0.9, 0.5]) == pytest.approx(0.2)
        assert separation([0.0, 1 / 3, 2 / 3]) == pytest.approx(1 / 3)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            separation([0.3])


class TestClassifySystem:
    def test_riesz_basis(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.5]), FrequencySet([0, 1]))
        cls = classify_system(spec)
        assert cls.kind == "RieszBasis"
        assert cls.lower_constant == pytest.approx(2.0, rel=1e-12)
        assert cls.upper_constant == pytest.approx(2.0, rel=1e-12)

    def test_frame(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.5, 0.25]), FrequencySet([0, 1]))
        cls = classify_system(spec)
        assert cls.kind == "Frame"
        assert cls.lower_constant == pytest.approx(2.0, rel=1e-10)
        assert cls.upper_constant == pytest.approx(4.0, rel=1e-10)

    def test_degenerate(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.5]), FrequencySet([0, 2]))
        cls = classify_system(spec)
        assert cls.kind == "Degenerate"
        assert cls.rank == 1

    def test_riesz_sequence(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.3]), FrequencySet([0, 1, 2]))
        assert classify_system(spec).kind == "RieszSequence"

    def test_rank_monotone_in_offsets(self, rng):
        # growing Delta with P fixed can only increase the rank
        p = FrequencySet([0, 1, 3])
        offsets = list(rng.random(6))
        ranks = []
        for upto in range(2, 7):
            spec = ExponentialSystemSpec(NodeSet(offsets[:upto]), p)
            ranks.append(classify_system(spec).rank)
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_rejects_non_integer_p(self):
        with pytest.raises(ValueError, match="integer"):
            ExponentialSystemSpec(NodeSet([0.0]), FrequencySet([0.5]))


class TestSpecialDeltaCondition:
    def test_holds_for_thirds(self):
        assert special_delta_condition([1 / 3], FrequencySet([0, 1, 2])).holds

    def test_fails_with_witness(self):
        check = special_delta_condition([0.5], FrequencySet([0, 2]))
        assert not check.holds
        assert check.witness == ((0.0,), (2.0,))

    def test_two_dimensional(self):
        check = special_delta_condition([0.5, 1 / 3], FrequencySet([[0, 0], [1, 1]]))
        assert check.holds

    def test_progression_equivalence(self, rng):
        # condition holds iff the arithmetic-progression system is a basis
        agree = 0
        trials = 60
        for trial in range(trials):
            n = int(rng.integers(2, 5))
            pts = sorted({int(x) for x in rng.integers(-6, 7, 8)})[:n]
            if len(pts) < n:
                continue
            p = FrequencySet(pts)
            if trial % 2 == 0:
                delta = _clean_delta(rng, p)
            else:
                delta = _degenerate_delta(rng, p)
            offsets = np.mod(np.arange(n) * delta, 1.0)
            if len(set(offsets.tolist())) != n:
                agree += 1  # offsets collide: skip, counts as consistent draw
                continue
            spec = ExponentialSystemSpec(NodeSet(offsets), p)
            summary = svd_values(build_gamma(spec.deltas, spec.p))
            nonsingular = summary.sigma_min > 1e-8 * summary.sigma_max
            if special_delta_condition([delta], p).holds == nonsingular:
                agree += 1
        assert agree == trials

    def test_vandermonde_node_correspondence(self, rng):
        # progression offsets give the Vandermonde matrix on nodes delta * p_k
        delta = 0.2137
        p = FrequencySet([0, 1, 3, 4])
        L = 6
        offsets = NodeSet(np.mod(np.arange(L) * delta, 1.0))
        gamma = build_gamma(offsets, p)
        vand = build_vandermonde(L, [delta * pk for pk in (0, 1, 3, 4)])
        assert np.allclose(gamma.data, vand.data, atol=1e-12)
        s1 = np.array(svd_values(gamma).singular_values)
        s2 = np.array(svd_values(vand).singular_values)
        assert np.allclose(s1, s2, rtol=1e-9)


def _clean_delta(rng, p, margin=1e-3):
    pts = p.points
    while True:
        delta = float(rng.uniform(0, 1))
        vals = [
            float(np.dot(pts[k] - pts[k2], [delta]))
            for k in range(p.count)
            for k2 in range(p.count)
            if k != k2
        ]
        if all(abs(v - round(v)) >= margin for v in vals):
            return delta


def _degenerate_delta(rng, p):
    pts = p.points.ravel()
    k, k2 = rng.choice(p.count, size=2, replace=False)
    diff = int(pts[k] - pts[k2])
    r = int(rng.integers(1, abs(diff) + 1))
    return abs(r / diff)


class TestTensorKadecCondition:
    def test_zero_perturbation(self):
        eps = PerturbationMap.rank_one([{0: 0.0, 1: 0.0, 2: 0.0}])
        assert tensor_kadec_condition((3,), eps).holds

    def test_near_half(self):
        eps = PerturbationMap.rank_one([{0: 0.0, 1: 0.49}])
        assert tensor_kadec_condition((2,), eps).holds

    def test_failure_with_witness(self):
        eps = PerturbationMap.rank_one([{0: 0.6, 1: -0.4}])
        check = tensor_kadec_condition((2,), eps)
        assert not check.holds
        assert check.witness == (1, 0, 1)

    def test_general_mode_rejected(self):
        eps = PerturbationMap.general({0: 0.0, 1: 0.0})
        with pytest.raises(ValueError, match="rank-one"):
            tensor_kadec_condition((2,), eps)

    def test_missing_axis_entry(self):
        eps = PerturbationMap.rank_one([{0: 0.0}])
        with pytest.raises(ValueError, match="undefined"):
            tensor_kadec_condition((2,), eps)


class TestGramMatrix:
    def test_orthogonal_pair(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.5]), FrequencySet([0, 1]))
        assert np.allclose(gram_matrix(spec).data, 2.0 * np.eye(2), atol=1e-14)

    def test_diagonal_is_count(self, rng):
        spec = random_spec(rng, dim=2)
        gram = gram_matrix(spec).data
        assert np.allclose(np.diag(gram), spec.num_deltas, atol=1e-12)

    def test_quarter_offsets(self):
        spec = ExponentialSystemSpec(NodeSet([0.0, 0.5, 0.25]), FrequencySet([0, 1]))
        expected = np.array([[3, 1j], [-1j, 3]], dtype=complex)
        assert np.allclose(gram_matrix(spec).data, expected, atol=1e-14)

    def test_matches_matrix_product(self, rng):
        for _ in range(50):
            spec = random_spec(rng, dim=int(rng.integers(1, 4)), max_l=12, max_n=12)
            gamma = build_gamma(spec.deltas, spec.p)
            product = gamma.data.conj().T @ gamma.data
            assert np.max(np.abs(gram_matrix(spec).data - product)) <= 1e-10


class TestClumpDecompose:
    def test_two_singletons(self):
        dec = clump_decompose([0.0, 0.5], L=60, lambda_cap=1)
        assert dec.r == 2
        assert dec.lambda_max == 1
        assert dec.beta == pytest.approx(0.5)
        assert dec.hypotheses_ok

    def test_equispaced_singletons(self):
        nodes = [k / 8 for k in range(8)]
        dec = clump_decompose(nodes, L=256, lambda_cap=1)
        assert dec.r == 8 and dec.lambda_max == 1
        assert dec.hypotheses_ok

    def test_pair_plus_singleton(self):
        dec = clump_decompose([0.0, 0.001, 0.5], L=100, lambda_cap=2)
        parts = {tuple(sorted(p)) for p in dec.parts}
        assert (0.0, 0.001) in parts and (0.5,) in parts
        assert dec.alpha == pytest.approx(0.001)
        assert dec.hypotheses_ok

    def test_recomputable_metrics(self, rng):
        nodes = rng.random(7)
        dec = clump_decompose(nodes, L=64, lambda_cap=2)
        beta = (
            min(
                wrap_distance(a, b)
                for i in range(dec.r)
                for j in range(i + 1, dec.r)
                for a in dec.parts[i]
                for b in dec.parts[j]
            )
            if dec.r >= 2
            else math.inf
        )
        assert beta == pytest.approx(dec.beta, abs=1e-14)
        assert separation(nodes.tolist()) == pytest.approx(dec.alpha, abs=1e-14)

    def test_oversized_part_reported(self):
        dec = clump_decompose([0.0, 0.001, 0.002], L=100, lambda_cap=1)
        assert not dec.hypotheses_ok
        assert any("exceed" in r for r in dec.reasons)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            clump_decompose([0.25, 1.25], L=10, lambda_cap=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            clump_decompose([bad, 0.0], L=10, lambda_cap=1)

    def test_json_serialization(self):
        import json

        doc = json.loads(strict_json(clump_decompose([0.0, 0.5], L=60, lambda_cap=1).to_dict()))
        assert set(doc) == {"parts", "r", "lambda_max", "beta", "alpha", "hypotheses_ok", "reasons"}
        assert doc["r"] == 2


class TestKadecIffNonsingular:
    def test_random_rank_one_instances(self, rng):
        agree = 0
        trials = 120
        for trial in range(trials):
            d = int(rng.integers(1, 3))
            dims = [int(rng.integers(2, 7)) for _ in range(d)]
            degenerate = trial % 3 == 0
            tables = _rank_one_tables(rng, dims, degenerate)
            eps = PerturbationMap.rank_one(tables)
            from fourstab.core_matrix import build_perturbed_dft_freq

            mat = build_perturbed_dft_freq(dims, eps)
            summary = svd_values(mat)
            nonsingular = summary.sigma_min > 1e-8 * summary.sigma_max
            if tensor_kadec_condition(dims, eps).holds == nonsingular:
                agree += 1
        assert agree == trials


def _rank_one_tables(rng, dims, degenerate, margin=1e-3):
    while True:
        tables = [{k: float(rng.uniform(-0.6, 0.6)) for k in range(mk)} for mk in dims]
        if degenerate:
            axis = int(rng.integers(len(dims)))
            mk = dims[axis]
            i, j = sorted(rng.choice(mk, size=2, replace=False))
            choices = [(i - j) + mk * z for z in (-1, 0, 1) if abs((i - j) + mk * z) < 1.2]
            if not choices:
                continue
            target = float(choices[int(rng.integers(len(choices)))])
            lo, hi = max(-0.6, -0.6 - target), min(0.6, 0.6 - target)
            if lo >= hi:
                continue
            base = float(rng.uniform(lo, hi))
            tables[axis][int(i)] = base
            tables[axis][int(j)] = base + target
        else:
            ok = True
            for axis, mk in enumerate(dims):
                for i in range(mk):
                    for j in range(mk):
                        if i == j:
                            continue
                        v = (j - i + tables[axis][j] - tables[axis][i]) / mk
                        if abs(v - round(v)) < margin:
                            ok = False
            if not ok:
                continue
        return tables
