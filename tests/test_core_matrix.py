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
    figure1_operator,
    rect_lattice_points,
    select_columns,
)


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
        eps = PerturbationMap.rank_one([{0: 0.1, 1: -0.2}, {0: 0.0, 1: 0.05, 2: 0.2}])
        assert eps.dim == 2
        assert np.allclose(eps.value((1, 2)), [-0.2, 0.2])
        assert eps.sup_norm == pytest.approx(0.2)

    def test_general_sup_norm(self):
        eps = PerturbationMap.general({0: 0.1, 1: -0.3})
        assert eps.sup_norm == pytest.approx(0.3)
        assert eps.value((1,)) == pytest.approx(-0.3)

    def test_missing_index(self):
        eps = PerturbationMap.general({0: 0.1})
        with pytest.raises(KeyError):
            eps.value((3,))
        assert not eps.covers([(0,), (3,)])


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


class TestBuildPerturbedDftFreq:
    def test_zero_perturbation_is_dft(self):
        eps = PerturbationMap.general({k: 0.0 for k in range(3)})
        mat = build_perturbed_dft_freq((3,), eps)
        assert np.allclose(mat.data, build_dft((3,)).data, atol=1e-15)

    def test_direct_entries(self):
        eps = PerturbationMap.general({0: 0.1, 1: -0.1})
        mat = build_perturbed_dft_freq((2,), eps)
        freqs = np.array([0.1, 0.9])
        nodes = np.array([0.0, 0.5])
        expected = np.exp(2j * np.pi * freqs[:, None] * nodes[None, :])
        assert np.allclose(mat.data, expected, atol=1e-14)

    def test_node_subset_columns(self):
        eps = PerturbationMap.general({k: 0.0 for k in range(3)})
        mat = build_perturbed_dft_freq((3,), eps, node_subset=NodeSet([0.0, 1 / 3]))
        s = np.linalg.svd(mat.data, compute_uv=False)
        assert mat.data.shape == (3, 2)
        assert np.allclose(s, math.sqrt(3), atol=1e-12)

    def test_off_lattice_subset_rejected(self):
        eps = PerturbationMap.general({k: 0.0 for k in range(3)})
        with pytest.raises(ValueError, match="lattice"):
            build_perturbed_dft_freq((3,), eps, node_subset=NodeSet([0.1]))

    def test_uncovered_lattice_rejected(self):
        eps = PerturbationMap.general({0: 0.0, 1: 0.0})
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


class TestFigure1Operator:
    @pytest.mark.parametrize("n", [3, 5, 11, 101, 1201])
    def test_matches_dense(self, n):
        dense = build_figure1(n).data
        op = figure1_operator(n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2)) @ np.array([1.0, 1j])
        for got, want in ((op.matvec(x), dense @ x), (op.rmatvec(x), dense.conj().T @ x)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_adjoint_identity(self, rng):
        n = 301
        op = figure1_operator(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs = np.vdot(y, op.matvec(x)), np.vdot(op.rmatvec(y), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_even_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            figure1_operator(6)


class TestSelectColumns:
    def test_identity_columns(self):
        eye = ComplexDense(np.eye(3, dtype=complex))
        sub = select_columns(eye, [0, 2])
        assert np.array_equal(sub.data, np.eye(3, dtype=complex)[:, [0, 2]])

    def test_shape_differs_from_submatrix(self):
        sub = select_columns(build_dft((4,)), [0, 1, 2])
        assert sub.data.shape == (4, 3)
        assert build_instability_submatrix(3).data.shape == (3, 3)

    def test_orthogonal_pair(self):
        sub = select_columns(build_dft((4,)), [0, 2])
        s = np.linalg.svd(sub.data, compute_uv=False)
        assert np.allclose(s, 2.0, atol=1e-12)

    def test_bad_indices(self):
        mat = build_dft((3,))
        with pytest.raises(ValueError, match="range"):
            select_columns(mat, [0, 3])
        with pytest.raises(ValueError, match="distinct"):
            select_columns(mat, [1, 1])

    def test_notes_preserved(self):
        mat = build_vandermonde(3, [0.25, 1.25])
        assert select_columns(mat, [0]).notes == mat.notes


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
    table = {k: 0.0 for k in range(n)}
    for k in range(1, mhalf + 1):
        table[k] = -0.25
    for k in range(mhalf + 1, n):
        table[k] = 0.25
    via_eps = build_perturbed_dft_freq((n,), PerturbationMap.general(table))
    # figure1 perturbs the column index; entries agree because j*(k+e)/n = (k+e)*j/n
    assert np.allclose(build_figure1(n).data, via_eps.data.T, atol=1e-12)
