"""Construction of generalized Fourier matrices from frequency and node data.

Every matrix here has unimodular entries exp(2*pi*i * w.u) for a frequency w
and a node u.  The families covered:

    fourier      F(Omega, U)  rows = frequencies, cols = nodes
    gamma        G(Delta, P)  rows = torus offsets, cols = integer vectors
    vandermonde  V(L, X)      rows j = 0..L-1, nodes X on the unit circle
    dft          the unnormalized discrete Fourier transform on a product
                 lattice, plus its frequency-perturbed variants

Index conventions are fixed: multi-index sets are enumerated
lexicographically, torus coordinates are canonicalized into [0, 1).  Phases
are reduced modulo 1 before calling cos/sin, which keeps entries accurate
for large frequencies and makes integer-phase entries exact.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ComplexDense",
    "FrequencySet",
    "NodeSet",
    "PerturbationMap",
    "build_fourier",
    "build_gamma",
    "build_vandermonde",
    "build_dft",
    "build_perturbed_dft_freq",
    "build_instability_submatrix",
    "build_figure1",
    "figure1_operator",
    "select_columns",
    "rect_lattice_points",
]


def _as_point_array(points, what: str) -> np.ndarray:
    """Coerce a list of scalars / d-vectors into a float (count, dim) array."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{what}: expected a nonempty list of points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: points must be finite")
    return arr


def torus_canonical(x) -> np.ndarray:
    """x modulo 1 as floats in [0, 1).

    ``np.mod`` rounds a tiny negative input up to exactly 1.0, the same
    torus point as 0.0; that value is wrapped back to 0.0.  NaN (also what
    ``np.mod`` gives for an infinite input) passes through, so callers that
    require finite entries still reject it.
    """
    frac = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.where(frac == 1.0, 0.0, frac)


def _require_distinct(arr: np.ndarray, what: str) -> None:
    seen = set(map(tuple, arr))
    if len(seen) != arr.shape[0]:
        raise ValueError(f"{what}: points must be pairwise distinct")


def phase_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise dot products a_i . b_j, accumulated axis by axis.

    The fixed accumulation order makes phase_matrix(a, b) the exact
    (bitwise) transpose of phase_matrix(b, a).
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    for t in range(a.shape[1]):
        out += a[:, t, None] * b[None, :, t]
    return out


def unit_entries(phase: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*phase) from the phase reduced modulo 1, quadrant-folded.

    Folding to the nearest quarter turn keeps the cos/sin argument in
    [-pi/4, pi/4] and makes entries at quarter phases (1, i, -1, -i) exact.
    """
    frac = np.mod(np.asarray(phase, dtype=float), 1.0)
    quarter = np.floor(4.0 * frac + 0.5)
    ang = 2.0 * np.pi * (frac - 0.25 * quarter)
    c, s = np.cos(ang), np.sin(ang)
    q = (quarter.astype(int)) % 4
    re = np.choose(q, [c, -s, -c, s])
    im = np.choose(q, [s, c, -s, -c])
    return re + 1j * im


@dataclass(frozen=True, eq=False)
class ComplexDense:
    """Dense complex matrix, immutable after construction.

    ``notes`` collects non-fatal construction warnings (e.g. duplicate
    Vandermonde nodes); it is metadata and is not serialized.
    """

    data: np.ndarray
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"ComplexDense requires a nonempty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("ComplexDense entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """Row-major flat view of the entries."""
        return self.data.reshape(-1)

    def _entry_texts(self) -> list[list[str]]:
        """``%.17g`` text of every real and imaginary part, one list per row.

        Each distinct value is formatted once: the parts are keyed by bit
        pattern (so -0.0 stays apart from 0.0 and prints as ``-0``), the
        distinct ones go through one batched ``%``, and the texts are
        gathered back with the inverse index.  DFT-family matrices repeat
        few values (259 distinct parts among 522,242 at instability 511).
        """
        keys, inverse = np.unique(self.data.view(np.int64).reshape(-1), return_inverse=True)
        texts = (("%.17g\n" * keys.size) % tuple(keys.view(np.float64).tolist())).split("\n")
        return np.array(texts[:-1], dtype=object)[inverse].reshape(self.rows, -1).tolist()

    def to_json(self) -> str:
        """JSON document {"rows":R,"cols":C,"data":[[re,im],...]} row-major."""
        row = ",".join(["[%s,%s]"] * self.cols)
        cells = ",".join([row % tuple(parts) for parts in self._entry_texts()])
        return f'{{"rows":{self.rows},"cols":{self.cols},"data":[{cells}]}}'

    @classmethod
    def from_json(cls, text: str) -> "ComplexDense":
        """Inverse of ``to_json``, exact to the bit (sign of zero included).

        Any malformed document raises ``ValueError``: ``rows`` and ``cols``
        must be positive integers and ``data`` a list of rows*cols
        ``[re, im]`` pairs of JSON numbers (``true``/``false`` are not).
        """
        # json.loads reads "-0" as the int 0; as a float it keeps its sign.
        doc = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
        if not isinstance(doc, dict):
            raise ValueError("matrix JSON must be an object")
        try:
            rows, cols, data = doc["rows"], doc["cols"], doc["data"]
        except KeyError as exc:
            raise ValueError(f"matrix JSON missing field: {exc}") from exc
        for name, size in (("rows", rows), ("cols", cols)):
            if type(size) is not int or size < 1:
                raise ValueError(f"matrix JSON: {name} must be a positive integer, got {size!r}")
        if not isinstance(data, list) or len(data) != rows * cols:
            got = len(data) if isinstance(data, list) else type(data).__name__
            raise ValueError(f"matrix JSON: expected a list of {rows * cols} entries, got {got}")
        if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
            raise ValueError("matrix JSON: data must be a list of [re, im] pairs")
        kinds = set(map(type, itertools.chain.from_iterable(data)))
        if not kinds <= {int, float}:
            names = sorted(k.__name__ for k in kinds - {int, float})
            raise ValueError(f"matrix JSON: [re, im] parts must be numbers, got {', '.join(names)}")
        try:
            flat = np.fromiter(itertools.chain.from_iterable(data), dtype=float, count=2 * rows * cols)
        except OverflowError as exc:
            raise ValueError(f"matrix JSON: {exc}") from exc
        return cls(flat.view(np.complex128).reshape(rows, cols))

    def to_csv(self) -> str:
        """CSV with header row,col,re,im and one line per entry, row-major."""
        # Only the row label "R" differs between the rows' templates.
        row = "\n".join(["R,%d,%%s,%%s" % c for c in range(self.cols)])
        lines = [row.replace("R", str(r)) % tuple(parts) for r, parts in enumerate(self._entry_texts())]
        return "row,col,re,im\n" + "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FrequencySet:
    """Finite frequency set in R^d; integer-valued sets are flagged."""

    points: np.ndarray
    integer_flag: bool = field(init=False)

    def __post_init__(self):
        arr = _as_point_array(self.points, "FrequencySet")
        _require_distinct(arr, "FrequencySet")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)
        object.__setattr__(self, "integer_flag", bool(np.all(arr == np.round(arr))))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Finite node set on the torus T^d, canonicalized into [0, 1)^d."""

    points: np.ndarray

    def __post_init__(self):
        arr = torus_canonical(_as_point_array(self.points, "NodeSet"))
        _require_distinct(arr, "NodeSet (mod 1)")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class PerturbationMap:
    """Perturbation of a frequency lattice, general or rank-one.

    In rank-one mode the value at a multi-index n is assembled per axis as
    (a_1(n_1), ..., a_d(n_d)); only one component changes when a single
    entry of n changes.  ``sup_norm`` is the max absolute stored component.
    """

    dim: int
    mode: str
    general_table: Mapping[tuple[int, ...], np.ndarray] | None = None
    axis_tables: tuple[Mapping[int, float], ...] | None = None
    sup_norm: float = field(init=False)

    def __post_init__(self):
        if self.mode not in ("general", "rank_one"):
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        if self.mode == "general":
            if not self.general_table:
                raise ValueError("general perturbation requires a nonempty table")
            sup = max(float(np.max(np.abs(v))) for v in self.general_table.values())
        else:
            if self.axis_tables is None or len(self.axis_tables) != self.dim:
                raise ValueError("rank-one perturbation requires one table per axis")
            sup = 0.0
            for table in self.axis_tables:
                if table:
                    sup = max(sup, max(abs(float(v)) for v in table.values()))
        object.__setattr__(self, "sup_norm", sup)

    @classmethod
    def general(cls, table: Mapping, dim: int | None = None) -> "PerturbationMap":
        norm: dict[tuple[int, ...], np.ndarray] = {}
        for key, val in table.items():
            k = (int(key),) if np.isscalar(key) else tuple(int(x) for x in key)
            v = np.atleast_1d(np.asarray(val, dtype=float))
            if dim is None:
                dim = len(v)
            if len(k) != dim or len(v) != dim:
                raise ValueError(f"perturbation entry {key!r} has wrong dimension")
            norm[k] = v
        return cls(dim=dim, mode="general", general_table=norm)

    @classmethod
    def rank_one(cls, axis_tables: Sequence[Mapping[int, float]]) -> "PerturbationMap":
        tables = tuple({int(k): float(v) for k, v in t.items()} for t in axis_tables)
        return cls(dim=len(tables), mode="rank_one", axis_tables=tables)

    def value(self, index: Sequence[int]) -> np.ndarray:
        key = tuple(int(x) for x in index)
        if len(key) != self.dim:
            raise ValueError(f"index {key} has wrong dimension (expected {self.dim})")
        if self.mode == "general":
            if key not in self.general_table:
                raise KeyError(f"perturbation undefined at {key}")
            return self.general_table[key]
        return np.array([self.axis_tables[t][key[t]] for t in range(self.dim)])

    def covers(self, indices: Iterable[Sequence[int]]) -> bool:
        try:
            for idx in indices:
                self.value(idx)
        except KeyError:
            return False
        return True


def rect_lattice_points(m: Sequence[int]) -> np.ndarray:
    """Integer points of [0, M_1) x ... x [0, M_d), lexicographic order."""
    dims = [int(x) for x in m]
    if not dims or any(x < 1 for x in dims):
        raise ValueError(f"lattice sides must be positive integers, got {list(m)}")
    return np.array(list(itertools.product(*(range(x) for x in dims))), dtype=float)


def _fourier_from_arrays(freqs: np.ndarray, nodes: np.ndarray) -> ComplexDense:
    return ComplexDense(unit_entries(phase_matrix(freqs, nodes)))


def build_fourier(freqs: FrequencySet, nodes: NodeSet) -> ComplexDense:
    """F(Omega, U) with entry (j, k) = exp(2*pi*i * w_j . u_k)."""
    if freqs.dim != nodes.dim:
        raise ValueError(f"dimension mismatch: frequencies d={freqs.dim}, nodes d={nodes.dim}")
    return _fourier_from_arrays(freqs.points, nodes.points)


def build_gamma(deltas: NodeSet, p: FrequencySet) -> ComplexDense:
    """G(Delta, P) with entry (j, k) = exp(2*pi*i * delta_j . p_k).

    Rows follow Delta, columns follow P.  Equals build_fourier(P, Delta)
    transposed, entry for entry.
    """
    if not p.integer_flag:
        raise ValueError("gamma matrix requires an integer frequency set P")
    if deltas.dim != p.dim:
        raise ValueError(f"dimension mismatch: deltas d={deltas.dim}, P d={p.dim}")
    return _fourier_from_arrays(deltas.points, p.points)


def build_vandermonde(L: int, nodes: Sequence[float]) -> ComplexDense:
    """L x N matrix with entry (j, k) = exp(2*pi*i * j * x_k), j = 0..L-1.

    Duplicate nodes modulo 1 are allowed but recorded as a note on the
    result; the matrix is then rank deficient by construction.
    """
    if L < 1:
        raise ValueError(f"row count must be >= 1, got {L}")
    xs = np.asarray(list(nodes), dtype=float)
    if xs.ndim != 1 or xs.size < 1:
        raise ValueError("nodes must be a nonempty list of reals")
    if not np.all(np.isfinite(xs)):
        raise ValueError("nodes must be finite")
    xs = torus_canonical(xs)
    notes: tuple[str, ...] = ()
    if len(set(xs.tolist())) != xs.size:
        notes = ("duplicate nodes modulo 1: matrix is rank deficient",)
    rows = np.arange(L, dtype=float).reshape(-1, 1)
    mat = _fourier_from_arrays(rows, xs.reshape(-1, 1))
    return ComplexDense(mat.data, notes=notes)


def build_dft(m: Sequence[int]) -> ComplexDense:
    """Unnormalized DFT matrix of size prod(M) for the product lattice."""
    lattice = rect_lattice_points(m)
    scale = np.asarray([int(x) for x in m], dtype=float)
    return _fourier_from_arrays(lattice, lattice / scale)


def build_perturbed_dft_freq(
    m: Sequence[int],
    eps: PerturbationMap,
    node_subset: NodeSet | None = None,
) -> ComplexDense:
    """F(Omega', U) where Omega' = {j + eps(j)} perturbs the DFT lattice.

    U defaults to the full node lattice {k/M}; a proper subset selects
    columns.  Perturbed frequencies may collide, in which case the result
    is rank deficient (a legitimate object of study).
    """
    dims = [int(x) for x in m]
    lattice = rect_lattice_points(dims)
    if eps.dim != len(dims):
        raise ValueError(f"perturbation dimension {eps.dim} != lattice dimension {len(dims)}")
    if not eps.covers(lattice.astype(int)):
        raise ValueError("perturbation does not cover the frequency lattice")
    shifts = np.array([eps.value(idx) for idx in lattice.astype(int)])
    freqs = lattice + shifts

    scale = np.asarray(dims, dtype=float)
    full_nodes = lattice / scale
    if node_subset is None:
        nodes = full_nodes
    else:
        if node_subset.dim != len(dims):
            raise ValueError("node subset has wrong dimension")
        for u in node_subset.points:
            gaps = np.abs(full_nodes - u[None, :])
            wrap = np.minimum(gaps, 1.0 - gaps).max(axis=1)
            if wrap.min() > 1e-12:
                raise ValueError(f"node {tuple(u)} is not on the lattice {{k/M}}")
        nodes = node_subset.points
    return _fourier_from_arrays(freqs, nodes)


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"size must be an odd integer >= 3, got {n}")


def build_instability_submatrix(n: int) -> ComplexDense:
    """Leading n x n submatrix of the (n+1) x (n+1) DFT matrix, n odd."""
    _require_odd(n)
    j = np.arange(n, dtype=float).reshape(-1, 1)
    return _fourier_from_arrays(j, j / float(n + 1))


def _figure1_shifts(n: int) -> np.ndarray:
    """Perturbation table e(k), k = 0..n-1, of the figure-1 family (n odd).

    For n = 2m+1: e(0) = 0, e(k) = -1/4 for 1 <= k <= m and e(k) = +1/4 for
    m+1 <= k <= n-1 (the n-periodic extension of -sign(k)/4 on {-m..m}).
    """
    _require_odd(n)
    mhalf = (n - 1) // 2
    eps = np.zeros(n)
    eps[1 : mhalf + 1] = -0.25
    eps[mhalf + 1 :] = 0.25
    return eps


def build_figure1(n: int) -> ComplexDense:
    """Periodically sign-perturbed DFT: entry (j,k) = exp(2*pi*i*j*(k+e(k))/n).

    The table e(k) is given by ``_figure1_shifts``.
    """
    eps = _figure1_shifts(n)
    j = np.arange(n, dtype=float).reshape(-1, 1)
    cols = ((np.arange(n) + eps) / n).reshape(-1, 1)
    return _fourier_from_arrays(j, cols)


def figure1_operator(n: int):
    """``build_figure1(n)`` as a matrix-free ``scipy.sparse.linalg.LinearOperator``.

    Column k of the matrix is D_c W e_k with c = e(k), where W is the
    unnormalized DFT and D_c = diag(exp(2*pi*i*j*c/n)).  So F = sum_c D_c W P_c
    over c in {0, -1/4, +1/4}, with P_c the mask of the columns where
    e(k) = c: a matvec is three FFTs and O(n) memory, never an n x n array.
    """
    from scipy.sparse.linalg import LinearOperator

    eps = _figure1_shifts(n)
    j = np.arange(n, dtype=float)
    parts = [(eps == c, unit_entries(j * c / n)) for c in (0.0, -0.25, 0.25)]

    def matvec(x):
        x = np.ravel(x)
        return sum(d * np.fft.ifft(np.where(mask, x, 0.0)) for mask, d in parts) * n

    def rmatvec(y):
        y = np.ravel(y)
        return sum(np.where(mask, np.fft.fft(d.conj() * y), 0.0) for mask, d in parts)

    return LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec, dtype=np.complex128)


def select_columns(a: ComplexDense, idx: Sequence[int]) -> ComplexDense:
    """Column submatrix of ``a`` preserving the order of ``idx``."""
    cols = [int(i) for i in idx]
    if len(set(cols)) != len(cols):
        raise ValueError(f"column indices must be distinct, got {cols}")
    for i in cols:
        if not 0 <= i < a.cols:
            raise ValueError(f"column index {i} out of range [0, {a.cols})")
    return ComplexDense(a.data[:, cols], notes=a.notes)
