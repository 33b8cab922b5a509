import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fourstab.core_matrix import (
    FrequencySet,
    NodeSet,
    PerturbationMap,
    build_gamma,
    build_vandermonde,
    torus_canonical,
)
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
        assert d == _wrap_py(t, s)
        assert 0.0 <= d <= 0.5
        assert d == wrap_distance(s, t)
        assert wrap_distance(t, r) <= wrap_distance(t, s) + wrap_distance(s, r) + 1e-12


# Pairwise reference forms: every pair, or every pair of parts, in Python.


def _wrap_py(t, s):
    r = abs(t - s) % 1.0
    return min(r, 1.0 - r)


def _separation_pairwise(u):
    xs = torus_canonical(u).tolist()
    return min(_wrap_py(xs[i], xs[j]) for i in range(len(xs)) for j in range(i + 1, len(xs)))


def _part_diameter(part):
    if len(part) < 2:
        return 0.0
    return max(_wrap_py(part[i], part[j]) for i in range(len(part)) for j in range(i + 1, len(part)))


def _clump_decompose_pairwise(u, L, lambda_cap) -> dict:
    xs = np.sort(torus_canonical(u))
    n = xs.size
    threshold = 3.0 * lambda_cap / L
    if n == 1:
        parts = [[float(xs[0])]]
    else:
        gaps = np.mod(np.roll(xs, -1) - xs, 1.0)
        start = (int(np.argmax(gaps)) + 1) % n
        parts = [[]]
        for step in range(n):
            i = (start + step) % n
            parts[-1].append(float(xs[i]))
            if gaps[i] >= threshold and step < n - 1:
                parts.append([])
        if gaps.max() < threshold:
            parts = [[float(x) for x in xs]]
    r = len(parts)
    lambda_max = max(len(p) for p in parts)
    beta = math.inf
    if r >= 2:
        beta = min(
            _wrap_py(a, b)
            for i in range(r)
            for j in range(i + 1, r)
            for a in parts[i]
            for b in parts[j]
        )
    alpha = _separation_pairwise(xs.tolist()) if n >= 2 else math.inf
    max_diam = max(_part_diameter(p) for p in parts)
    reasons = []
    if lambda_max > lambda_cap:
        reasons.append(f"a part has {lambda_max} nodes, exceeding the cap {lambda_cap}")
    if r >= 2 and beta < threshold:
        reasons.append(f"inter-part distance {beta:.6g} below 3*lambda/L = {threshold:.6g}")
    if r >= 2 and max_diam >= beta:
        reasons.append(f"part diameter {max_diam:.6g} not below inter-part distance {beta:.6g}")
    return {
        "parts": parts,
        "r": r,
        "lambda_max": lambda_max,
        "beta": beta,
        "alpha": alpha,
        "hypotheses_ok": not reasons,
        "reasons": reasons,
    }


def _near_integer(x):
    return abs(x - round(x)) <= 1e-12


def _special_delta_pairwise(delta, p):
    pts = p.points
    for k in range(p.count):
        for k2 in range(k + 1, p.count):
            if _near_integer(float(np.dot(pts[k] - pts[k2], delta))):
                return (tuple(pts[k]), tuple(pts[k2]))
    return None


def _tensor_kadec_pairwise(dims, axis_values):
    for axis, (mk, a) in enumerate(zip(dims, axis_values)):
        for i in range(mk):
            for j in range(mk):
                if i != j and _near_integer((j - i + a[j] - a[i]) / mk):
                    return (axis + 1, i, j)
    return None


@st.composite
def _circle_nodes(draw, min_size=2, max_size=24):
    """Nodes on the circle with clusters below 1e-10, pairs that straddle
    0 = 1, and some raw values outside [0, 1)."""
    count = draw(st.integers(min_size, max_size))
    base = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=count, max_size=count))
    nodes = []
    for x in base:
        kind = draw(st.integers(0, 4))
        if kind == 1:
            x += draw(st.floats(-1e-10, 1e-10))
        elif kind == 2:
            x = draw(st.sampled_from([0.0, 1.0, -0.0])) + draw(st.floats(-1e-9, 1e-9))
        elif kind == 3:
            x += draw(st.integers(-2, 2))
        nodes.append(x)
    return nodes


class TestSeparation:
    def test_examples(self):
        assert separation([0.0, 0.5]) == pytest.approx(0.5)
        assert separation([0.1, 0.9, 0.5]) == pytest.approx(0.2)
        assert separation([0.0, 1 / 3, 2 / 3]) == pytest.approx(1 / 3)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            separation([0.3])

    @pytest.mark.parametrize(
        "nodes",
        [[0.1, 0.2, math.nan], [math.nan, 0.1, 0.2], [0.1, math.inf, 0.2], [-math.inf, 0.5], [math.nan, math.nan]],
    )
    def test_rejects_non_finite(self, nodes):
        with pytest.raises(ValueError, match="nodes must be finite"):
            separation(nodes)

    @settings(max_examples=400, deadline=None)
    @given(nodes=_circle_nodes())
    @example(nodes=[-1e-300, 0.0, 0.5, -1e-200])
    @example(nodes=[0.0, -1e-300, 0.5, -1e-200])
    def test_matches_pairwise_bitwise(self, nodes):
        assert separation(nodes) == _separation_pairwise(nodes)
        assert separation(np.array(nodes)) == _separation_pairwise(nodes)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, bad):
        with pytest.raises(ValueError, match="delta must be finite"):
            special_delta_condition([bad], FrequencySet([0, 1]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_witness(self, data):
        dim = data.draw(st.integers(1, 3))
        point = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim).map(tuple)
        pts = data.draw(st.lists(point, min_size=1, max_size=7, unique=True))
        delta = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
        if len(pts) >= 2 and data.draw(st.booleans()):
            # force <p_0 - p_1, delta> to an integer, up to rounding
            diff = np.subtract(pts[0], pts[1])
            axis = int(np.flatnonzero(diff)[0])
            rest = float(np.dot(diff, delta)) - diff[axis] * delta[axis]
            delta[axis] = (data.draw(st.integers(-3, 3)) - rest) / diff[axis]
        p = FrequencySet(list(pts))
        check = special_delta_condition(delta, p)
        expected = _special_delta_pairwise(np.asarray(delta), p)
        assert check.holds == (expected is None)
        assert check.witness == expected

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
        eps = PerturbationMap.rank_one([[0.0, 0.0, 0.0]])
        assert tensor_kadec_condition((3,), eps).holds

    def test_near_half(self):
        eps = PerturbationMap.rank_one([[0.0, 0.49]])
        assert tensor_kadec_condition((2,), eps).holds

    def test_failure_with_witness(self):
        eps = PerturbationMap.rank_one([[0.6, -0.4]])
        check = tensor_kadec_condition((2,), eps)
        assert not check.holds
        assert check.witness == (1, 0, 1)

    def test_general_mode_rejected(self):
        eps = PerturbationMap.general([0.0, 0.0])
        with pytest.raises(ValueError, match="rank-one"):
            tensor_kadec_condition((2,), eps)

    def test_missing_axis_entry(self):
        eps = PerturbationMap.rank_one([[0.0]])
        with pytest.raises(ValueError, match="does not cover"):
            tensor_kadec_condition((2,), eps)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_witness(self, data):
        dims = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        axes = [data.draw(st.lists(st.floats(-0.6, 0.6), min_size=mk, max_size=mk)) for mk in dims]
        axis = data.draw(st.integers(0, len(dims) - 1))
        if dims[axis] >= 2 and data.draw(st.booleans()):
            # force (j - i + a[j] - a[i]) / M to an integer, up to rounding
            i, j = data.draw(st.lists(st.integers(0, dims[axis] - 1), min_size=2, max_size=2, unique=True))
            shift = data.draw(st.sampled_from([-1, 0, 1])) * dims[axis]
            axes[axis][j] = axes[axis][i] + (i - j) + shift
        check = tensor_kadec_condition(dims, PerturbationMap.rank_one(axes))
        expected = _tensor_kadec_pairwise(dims, axes)
        assert check.holds == (expected is None)
        assert check.witness == expected


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

    def test_long_arc_diameter(self):
        # the first part spans more than half the circle: its diameter is
        # the pair (0.0, 0.5), not its endpoints (0.0, 0.6)
        dec = clump_decompose([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8], L=20, lambda_cap=1)
        assert dec.to_dict() == _clump_decompose_pairwise([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8], 20, 1)
        assert any("part diameter 0.5 " in r for r in dec.reasons)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_long_arc_matches_pairwise(self, data):
        # k jittered nodes over an arc of length A > 1/2, cut at threshold
        # 1.5 * spacing, plus one to three nodes in the rest of the circle
        k = data.draw(st.integers(16, 30))
        arc = data.draw(st.floats(0.55, 0.7))
        spacing = arc / (k - 1)
        jitter = data.draw(st.lists(st.floats(-0.2, 0.2), min_size=k, max_size=k))
        nodes = [spacing * (i + j) for i, j in enumerate(jitter)]
        threshold = 1.5 * spacing
        others = st.floats(arc + 2 * threshold, 1.0 - 2 * threshold)
        nodes += data.draw(st.lists(others, min_size=1, max_size=3, unique=True))
        offset = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        nodes = [x + offset for x in nodes]
        L = int(3.0 / threshold)
        assume(len(set(torus_canonical(nodes).tolist())) == len(nodes))
        dec = clump_decompose(nodes, L, 1)
        assert dec.to_dict() == _clump_decompose_pairwise(nodes, L, 1)

    @settings(max_examples=250, deadline=None)
    @given(nodes=_circle_nodes(min_size=1), L=st.integers(1, 400), lambda_cap=st.integers(1, 4))
    def test_matches_pairwise(self, nodes, L, lambda_cap):
        assume(len(set(torus_canonical(nodes).tolist())) == len(nodes))
        dec = clump_decompose(nodes, L, lambda_cap)
        assert dec.to_dict() == _clump_decompose_pairwise(nodes, L, lambda_cap)

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
        tables = [rng.uniform(-0.6, 0.6, mk) for mk in dims]
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
