import gc
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourstab.core_matrix import (
    ComplexDense,
    FrequencySet,
    NodeSet,
    PerturbationMap,
    build_dft,
    build_figure1,
    build_fourier,
    build_gamma,
    build_instability_submatrix,
    build_perturbed_dft_freq,
    build_vandermonde,
    figure1_gram,
    phase_matrix,
    rect_lattice_points,
    unit_entries,
)
from fourstab.core_matrix import _perturbed_dft_entries, _vandermonde_entries


class TestComplexDense:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ComplexDense(np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            ComplexDense(np.array([[1.0, 1j * np.inf]], dtype=complex))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ComplexDense(np.array([1.0, 2.0]))

    def test_immutable(self):
        mat = build_dft((2,))
        with pytest.raises(ValueError):
            mat.data[0, 0] = 5.0

    def test_json_round_trip(self):
        mat = build_gamma(NodeSet([0.0, 1 / 3, 0.77]), FrequencySet([0, 2, 5]))
        again = ComplexDense.from_json(mat.to_json())
        assert np.array_equal(mat.data, again.data)

    def test_json_shape_fields(self):
        import json

        doc = json.loads(build_dft((2, 3)).to_json())
        assert doc["rows"] == 6 and doc["cols"] == 6
        assert len(doc["data"]) == 36

    def test_csv_shape(self):
        text = build_dft((2,)).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 1 + 4

    def test_from_json_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            ComplexDense.from_json('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
        with pytest.raises(ValueError):
            ComplexDense.from_json('{"rows": 2, "data": []}')

    @pytest.mark.parametrize(
        "doc",
        [
            '{"rows": 1, "cols": 2, "data": [["a", "b"], [1, 0]]}',
            '{"rows": 1, "cols": 2, "data": [5, [1, 0]]}',
            '{"rows": 1, "cols": 2, "data": 5}',
            '{"rows": 1, "cols": 2, "data": [[true, false], [1, 0]]}',
            '{"rows": true, "cols": 2, "data": [[1, 0], [1, 0]]}',
            '{"rows": 1.5, "cols": 2, "data": [[1, 0], [1, 0]]}',
            '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400),
        ],
        ids=["string-parts", "bare-number-cell", "data-not-a-list", "bool-parts", "bool-rows", "float-rows",
             "int-beyond-float"],
    )
    def test_from_json_malformed_is_value_error(self, doc):
        with pytest.raises(ValueError, match="matrix JSON"):
            ComplexDense.from_json(doc)


def _reference_json(mat):
    """Per-entry formatter the batched ``to_json`` must reproduce byte for byte."""
    cells = ",".join(f"[{z.real:.17g},{z.imag:.17g}]" for z in mat.entries)
    return f'{{"rows":{mat.rows},"cols":{mat.cols},"data":[{cells}]}}'


def _reference_csv(mat):
    """Per-entry formatter the batched ``to_csv`` must reproduce byte for byte."""
    lines = ["row,col,re,im"]
    for r in range(mat.rows):
        for c in range(mat.cols):
            z = mat.data[r, c]
            lines.append(f"{r},{c},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


_SERIALIZED = {
    "dft4": lambda: build_dft((4,)),
    "dft2x3": lambda: build_dft((2, 3)),
    "instability511": lambda: build_instability_submatrix(511),
    "figure1-63": lambda: build_figure1(63),
    "random-unit-300x200": lambda: ComplexDense(
        np.exp(2j * np.pi * np.random.default_rng(8).random((300, 200)))
    ),
    "extremes-1x4": lambda: ComplexDense(
        np.array([[complex(-0.0, 0.0), complex(1e-300, -0.0), complex(0.0, 5e-324),
                   complex(-1.7976931348623157e308, 0.0)]])
    ),
}


class TestSerializationBytes:
    @pytest.mark.parametrize("name", list(_SERIALIZED))
    def test_matches_per_entry_formatters(self, name):
        mat = _SERIALIZED[name]()
        assert mat.to_json() == _reference_json(mat)
        assert mat.to_csv() == _reference_csv(mat)

    @pytest.mark.parametrize("name", list(_SERIALIZED))
    def test_json_round_trip_bit_identical(self, name):
        mat = _SERIALIZED[name]()
        again = ComplexDense.from_json(mat.to_json())
        assert np.array_equal(again.data.view(np.int64), mat.data.view(np.int64))


class TestPointSets:
    def test_nodes_canonicalized(self):
        ns = NodeSet([1.25, -0.5, 0.0])
        assert np.allclose(np.sort(ns.points.ravel()), [0.0, 0.25, 0.5])

    def test_nodes_duplicate_mod_1_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            NodeSet([0.25, 1.25])

    def test_nodes_in_unit_interval(self):
        # np.mod(-1e-17, 1.0) is 1.0; the canonical point is 0.0.
        for raw in ([-1e-17, 0.5, -1.25], [-5e-324], [[-1e-17, 0.25], [0.5, -1e-300]]):
            pts = NodeSet(raw).points
            assert np.all((pts >= 0.0) & (pts < 1.0))
        assert NodeSet([-1e-17]).points[0, 0] == 0.0

    def test_tiny_negative_is_duplicate_of_zero(self):
        with pytest.raises(ValueError, match="distinct"):
            NodeSet([0.0, -1e-17])

    def test_frequency_integer_flag(self):
        assert FrequencySet([0, 1, 2]).integer_flag
        assert not FrequencySet([0.5, 1.0]).integer_flag
        assert FrequencySet([[0, 1], [2, -3]]).integer_flag

    def test_frequency_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            FrequencySet([1, 1])

    def test_dimension_inferred(self):
        assert NodeSet([[0.1, 0.2], [0.3, 0.4]]).dim == 2
        assert FrequencySet([1, 2]).dim == 1


class TestPerturbationMap:
    def test_rank_one_assembly(self):
        eps = PerturbationMap.rank_one([[0.1, -0.2], [0.0, 0.05, 0.2]])
        assert eps.shifts((2, 3)).shape == (6, 2)
        assert np.allclose(eps.shifts((2, 3))[1 * 3 + 2], [-0.2, 0.2])

    def test_general_sup_norm(self):
        eps = PerturbationMap.general([0.1, -0.3])
        assert np.abs(eps.shifts((2,))).max() == 0.3
        assert eps.shifts((2,))[1, 0] == pytest.approx(-0.3)

    def test_shifts_follow_lattice_order(self):
        axes = [[0.1, -0.2], [0.0, 0.05, 0.2]]
        lattice = rect_lattice_points((2, 3)).astype(int)
        expected = [[axes[0][i], axes[1][j]] for i, j in lattice]
        assert PerturbationMap.rank_one(axes).shifts((2, 3)).tolist() == expected
        assert PerturbationMap.general(expected).shifts((2, 3)).tolist() == expected

    def test_missing_index(self):
        # a general table of the wrong shape, or a rank-one axis of the wrong length
        for eps, m in [
            (PerturbationMap.general([0.1]), (3,)),
            (PerturbationMap.general([0.1, 0.2]), (2, 1)),
            (PerturbationMap.rank_one([[0.0], [0.0, 0.1]]), (2, 2)),
            (PerturbationMap.rank_one([[0.0, 0.1, 0.2]]), (2,)),
        ]:
            with pytest.raises(ValueError, match="does not cover"):
                eps.shifts(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PerturbationMap.general([0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            PerturbationMap.rank_one([[0.0, 0.1], [bad]])


class TestBuildFourier:
    def test_zero_frequency(self):
        mat = build_fourier(FrequencySet([0]), NodeSet([0.5]))
        assert mat.data.shape == (1, 1)
        assert mat.data[0, 0] == 1.0

    def test_dft4_powers_of_i(self):
        freqs = FrequencySet([0, 1, 2, 3])
        nodes = NodeSet([0.0, 0.25, 0.5, 0.75])
        mat = build_fourier(freqs, nodes)
        j, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        expected = 1j ** (j * k)
        assert np.allclose(mat.data, expected, atol=1e-14)

    def test_third_root_column(self):
        mat = build_fourier(FrequencySet([0, 1]), NodeSet([1 / 3]))
        expected = np.array([[1.0], [np.exp(2j * np.pi / 3)]])
        assert np.allclose(mat.data, expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            build_fourier(FrequencySet([[0, 1]]), NodeSet([0.5]))


class TestBuildGamma:
    def test_half_integer_phases(self):
        mat = build_gamma(NodeSet([0.0, 0.5]), FrequencySet([0, 1]))
        assert np.array_equal(mat.data, np.array([[1, 1], [1, -1]], dtype=complex))

    def test_equals_dft_for_lattice(self):
        m = 4
        deltas = NodeSet([j / m for j in range(m)])
        p = FrequencySet(list(range(m)))
        assert np.allclose(build_gamma(deltas, p).data, build_dft((m,)).data, atol=1e-15)

    def test_quarter_offsets(self):
        mat = build_gamma(NodeSet([0.0, 0.5, 0.25]), FrequencySet([0, 1]))
        expected = np.array([[1, 1], [1, -1], [1, 1j]], dtype=complex)
        assert np.allclose(mat.data, expected, atol=1e-15)

    def test_rejects_non_integer_p(self):
        with pytest.raises(ValueError, match="integer"):
            build_gamma(NodeSet([0.0]), FrequencySet([0.5]))

    def test_transpose_of_fourier_bitwise(self):
        rng = np.random.default_rng(1)
        deltas = NodeSet(rng.random((5, 2)))
        p = FrequencySet(rng.integers(-9, 10, (4, 2)))
        gamma = build_gamma(deltas, p)
        fourier = build_fourier(p, deltas)
        assert np.array_equal(gamma.data, fourier.data.T)

    def test_integer_shift_of_delta_exact(self):
        # dyadic offsets so that adding an integer is lossless in binary
        base = np.array([[0.125], [0.6875], [0.375]])
        p = FrequencySet([0, 3, -2])
        a = build_gamma(NodeSet(base), p)
        b = build_gamma(NodeSet(base + np.array([[2.0], [-1.0], [5.0]])), p)
        assert np.array_equal(a.data, b.data)


class TestBuildVandermonde:
    def test_two_nodes(self):
        mat = build_vandermonde(2, [0.0, 0.5])
        assert np.array_equal(mat.data, np.array([[1, 1], [1, -1]], dtype=complex))

    def test_orthogonal_columns(self):
        mat = build_vandermonde(4, [0.0, 0.5])
        inner = np.vdot(mat.data[:, 0], mat.data[:, 1])
        assert abs(inner) < 1e-14

    def test_single_row(self):
        mat = build_vandermonde(1, [0.1, 0.6, 0.9])
        assert np.allclose(mat.data, 1.0)

    def test_duplicate_nodes_warn_not_raise(self):
        mat = build_vandermonde(3, [0.25, 1.25])
        assert mat.notes and "duplicate" in mat.notes[0]
        assert np.linalg.matrix_rank(mat.data) == 1

    def test_tiny_negative_duplicate_noted(self):
        mat = build_vandermonde(3, [0.0, -1e-17])
        assert mat.notes and "duplicate" in mat.notes[0]
        assert np.array_equal(mat.data[:, 0], mat.data[:, 1])

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            build_vandermonde(0, [0.1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_node_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nodes must be finite"):
                build_vandermonde(3, [bad, 0.5])


class TestBuildDft:
    def test_trivial(self):
        assert np.array_equal(build_dft((1,)).data, np.array([[1.0 + 0j]]))

    def test_singular_values_all_equal(self):
        s = np.linalg.svd(build_dft((4,)).data, compute_uv=False)
        assert np.allclose(s, 2.0, atol=1e-12)

    def test_product_lattice_unitary_identity(self):
        f = build_dft((2, 3)).data
        assert f.shape == (6, 6)
        assert np.allclose(f.conj().T @ f, 6 * np.eye(6), atol=1e-10)

    def test_lattice_lexicographic(self):
        pts = rect_lattice_points((2, 2))
        assert pts.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert rect_lattice_points((2,)).tolist() == [[0], [1]]
        assert rect_lattice_points((3, 1)).tolist() == [[0, 0], [1, 0], [2, 0]]


class TestBuildPerturbedDftFreq:
    def test_zero_perturbation_is_dft(self):
        eps = PerturbationMap.general([0.0, 0.0, 0.0])
        mat = build_perturbed_dft_freq((3,), eps)
        assert np.allclose(mat.data, build_dft((3,)).data, atol=1e-15)

    def test_direct_entries(self):
        eps = PerturbationMap.general([0.1, -0.1])
        mat = build_perturbed_dft_freq((2,), eps)
        freqs = np.array([0.1, 0.9])
        nodes = np.array([0.0, 0.5])
        expected = np.exp(2j * np.pi * freqs[:, None] * nodes[None, :])
        assert np.allclose(mat.data, expected, atol=1e-14)

    def test_uncovered_lattice_rejected(self):
        eps = PerturbationMap.general([0.0, 0.0])
        with pytest.raises(ValueError, match="cover"):
            build_perturbed_dft_freq((3,), eps)


class TestInstabilitySubmatrix:
    def test_three_by_three_entries(self):
        expected = np.array([[1, 1, 1], [1, 1j, -1], [1, -1, 1]], dtype=complex)
        assert np.allclose(build_instability_submatrix(3).data, expected, atol=1e-15)

    def test_singular_values_small(self):
        s = np.linalg.svd(build_instability_submatrix(3).data, compute_uv=False)
        assert np.allclose(s, [2.0, 2.0, 1.0], atol=1e-12)
        s5 = np.linalg.svd(build_instability_submatrix(5).data, compute_uv=False)
        assert np.allclose(s5, [math.sqrt(6)] * 4 + [1.0], atol=1e-12)

    def test_even_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            build_instability_submatrix(4)


class TestFigure1:
    def test_perturbation_table_n3(self):
        mat = build_figure1(3)
        eps = (0.0, -0.25, 0.25)
        j = np.arange(3)
        for k, e in enumerate(eps):
            expected = np.exp(2j * np.pi * j * (k + e) / 3)
            assert np.allclose(mat.data[:, k], expected, atol=1e-14)

    def test_single_entry_n5(self):
        mat = build_figure1(5)
        assert mat.data[1, 1] == pytest.approx(np.exp(2j * np.pi * 0.75 / 5), abs=1e-15)

    def test_first_row_ones(self):
        assert np.allclose(build_figure1(11).data[0], 1.0)

    def test_even_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            build_figure1(6)


def _phase_index(name, arg):
    """Exact numerators r of the phases r/M of a DFT-family matrix, and M.

    Written from each family's definition, independently of the builders;
    every product is below M**2, far inside int64.
    """
    if name == "instability":
        j = np.arange(arg)
        return np.outer(j, j) % (arg + 1), arg + 1
    if name == "figure1":  # j * (k + e(k)) / n = j * (4k + 4e(k)) / (4n)
        n, mhalf = arg, (arg - 1) // 2
        quarters = [4 * k + (0 if k == 0 else -1 if k <= mhalf else 1) for k in range(n)]
        return np.outer(np.arange(n), quarters) % (4 * n), 4 * n
    modulus = math.lcm(*arg)
    lattice = rect_lattice_points(arg).astype(np.int64)
    return (lattice @ (lattice * [modulus // m for m in arg]).T) % modulus, modulus


_EXACT_FAMILIES = {
    "instability": build_instability_submatrix,
    "figure1": build_figure1,
    "dft": build_dft,
}
_EXACT_CASES = [("instability", 255), ("instability", 509), ("figure1", 701), ("figure1", 2001),
                ("dft", (6, 10)), ("dft", (3, 4, 5))]


class TestExactRootsOfUnity:
    @pytest.mark.parametrize("name, arg", _EXACT_CASES)
    def test_entries_match_mpmath(self, name, arg):
        mpmath = pytest.importorskip("mpmath")
        r, modulus = _phase_index(name, arg)
        with mpmath.workdps(30):
            roots = np.array([complex(mpmath.expjpi(mpmath.mpf(2 * t) / modulus)) for t in range(modulus)])
        got = _EXACT_FAMILIES[name](arg).data
        assert np.max(np.abs(got - roots[r])) <= 4e-16

    @pytest.mark.parametrize("name, arg", _EXACT_CASES)
    def test_quarter_phases_exact(self, name, arg):
        r, modulus = _phase_index(name, arg)
        quarter = (4 * r) % modulus == 0
        got = _EXACT_FAMILIES[name](arg).data[quarter]
        want = np.array([1, 1j, -1, -1j])[4 * r[quarter] // modulus]
        assert got.size > 0 and np.array_equal(got, want)


class TestFigure1Gram:
    @pytest.mark.parametrize("n", [3, 5, 11, 101, 701, 1201])  # 701 and 1201 are prime
    def test_matches_dense(self, n):
        dense = build_figure1(n).data
        gram = figure1_gram(n)
        x = np.random.default_rng(n).standard_normal(n)
        want = dense @ (dense.conj().T @ x)
        for got in (gram.matvec(x), gram.rmatvec(x)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_real_symmetric(self, rng):
        n = 301
        gram = figure1_gram(n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        gx, gy = gram.matvec(x), gram.matvec(y)
        assert gram.dtype == np.float64 and gx.dtype == np.float64
        assert abs(y @ gx - gy @ x) <= 1e-12 * abs(y @ gx)
        with pytest.raises(TypeError):
            gram.matvec(x + 1j * y)

    def test_freed_without_the_cycle_collector(self):
        # A discarded Gram must not wait for gc.collect() to free its arrays.
        gc.collect()
        gc.disable()
        try:
            gram = figure1_gram(11)
            gram.matvec(np.ones(11))
            del gram
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_even_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            figure1_gram(6)


def mod_choose_unit_entries(phase):
    """Reference exp(2*pi*i*phase): the phase reduced with np.mod, the
    quadrant picked with np.choose from (c, s), (-s, c), (-c, -s), (s, -c)."""
    frac = np.mod(np.asarray(phase, dtype=float), 1.0)
    quarter = np.floor(4.0 * frac + 0.5)
    ang = 2.0 * np.pi * (frac - 0.25 * quarter)
    c, s = np.cos(ang), np.sin(ang)
    q = quarter.astype(int) % 4
    return np.choose(q, [c, -s, -c, s]) + 1j * np.choose(q, [s, c, -s, -c])


def _bits(a):
    return np.asarray(a).tobytes()


class TestUnitEntries:
    def test_bit_identical_to_mod_choose_reference(self, rng):
        edges = [0.0, -0.0, 1e-17, -1e-17, -2.0**-60, 1 - 2.0**-53, 0.125, -0.125, 0.375, 0.875,
                 2.0**52 + 0.5, -(2.0**52 + 0.5), 1e16, -1e16]
        quarters = np.arange(-40, 41) / 4
        phases = np.concatenate([
            edges,
            quarters,
            np.nextafter(quarters, np.inf),
            np.nextafter(quarters, -np.inf),
            np.arange(-40, 41) / 8,
            rng.uniform(-5, 5, 20_000),
            rng.uniform(-1e16, 1e16, 2_000),
            1e-12 * rng.standard_normal(2_000),
        ])
        assert _bits(unit_entries(phases)) == _bits(mod_choose_unit_entries(phases))
        stack = rng.uniform(-3, 3, (4, 5, 6))
        assert _bits(unit_entries(stack)) == _bits(mod_choose_unit_entries(stack))
        assert _bits(unit_entries(0.3)) == _bits(mod_choose_unit_entries(0.3))


class TestStackedEntries:
    """Each matrix of a stack equals its own unstacked evaluation, bit for bit."""

    def test_phase_matrix_broadcasts_leading_axes(self, rng):
        a, b = rng.uniform(-4, 4, (3, 5, 2)), rng.uniform(-4, 4, (6, 2))
        stacked = phase_matrix(a, b)
        assert stacked.shape == (3, 5, 6)
        for k in range(3):
            assert _bits(stacked[k]) == _bits(phase_matrix(a[k], b))
            assert _bits(stacked[k]) == _bits(phase_matrix(b, a[k]).T)

    def test_vandermonde_stack(self, rng):
        nodes = rng.uniform(-2, 2, (4, 7))
        stack = _vandermonde_entries(9, nodes)
        assert stack.shape == (4, 9, 7)
        for k in range(4):
            assert _bits(stack[k]) == _bits(build_vandermonde(9, nodes[k]).data)

    @pytest.mark.parametrize("dims", [(8,), (3, 4), (2, 2, 3)])
    def test_perturbed_dft_stack(self, rng, dims):
        size, d = math.prod(dims), len(dims)
        shifts = rng.uniform(-0.24, 0.24, (3, size, d))
        stack = _perturbed_dft_entries(dims, shifts)
        assert stack.shape == (3, size, size)
        for k in range(3):
            assert _bits(stack[k]) == _bits(build_perturbed_dft_freq(dims, PerturbationMap.general(shifts[k])).data)


@settings(max_examples=40, deadline=None)
@given(
    freqs=st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=8, unique=True),
    nodes=st.lists(
        st.floats(0, 1, exclude_max=True, allow_nan=False), min_size=1, max_size=8, unique=True
    ),
)
def test_entries_unimodular_and_frobenius(freqs, nodes):
    mat = build_fourier(FrequencySet(freqs), NodeSet(nodes))
    assert np.max(np.abs(np.abs(mat.data) - 1.0)) <= 1e-14
    target = mat.rows * mat.cols
    assert abs(np.linalg.norm(mat.data, "fro") ** 2 - target) <= 1e-10 * target


def test_integer_frequency_shift_preserves_spectrum(rng):
    freqs = rng.integers(-50, 50, (6, 2))
    freqs = np.unique(freqs, axis=0)
    nodes = NodeSet(rng.random((5, 2)))
    base = np.linalg.svd(build_fourier(FrequencySet(freqs), nodes).data, compute_uv=False)
    shifted = np.linalg.svd(
        build_fourier(FrequencySet(freqs + np.array([7, -3])), nodes).data, compute_uv=False
    )
    assert np.allclose(base, shifted, rtol=1e-10)


def test_figure1_is_perturbed_dft():
    # same matrix through the generic perturbed builder
    n = 9
    mhalf = (n - 1) // 2
    table = np.zeros(n)
    table[1 : mhalf + 1] = -0.25
    table[mhalf + 1 :] = 0.25
    via_eps = build_perturbed_dft_freq((n,), PerturbationMap.general(table))
    # figure1 perturbs the column index; entries agree because j*(k+e)/n = (k+e)*j/n
    assert np.allclose(build_figure1(n).data, via_eps.data.T, atol=1e-12)
