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
for large frequencies and makes integer-phase entries exact.  The builders
with rational nodes a/M (``build_dft``, ``build_instability_submatrix``,
``build_figure1``) reduce their phases exactly in integer arithmetic and read
the entries from one table of M-th roots of unity.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

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
    "figure1_gram",
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

    ``a`` is (..., R, d) and ``b`` is (..., C, d); leading axes broadcast,
    and the result is (..., R, C).  The fixed accumulation order makes
    phase_matrix(a, b) the exact (bitwise) transpose of phase_matrix(b, a),
    and each matrix of a stack equals its own unstacked evaluation.
    """
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (a.shape[-2], b.shape[-2]))
    for t in range(a.shape[-1]):
        out += a[..., :, t, None] * b[..., None, :, t]
    return out


def unit_entries(phase: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*phase) from the phase reduced modulo 1, quadrant-folded.

    Folding to the nearest quarter turn keeps the cos/sin argument in
    [-pi/4, pi/4] and makes entries at quarter phases (1, i, -1, -i) exact.
    ``x - floor(x)`` equals ``np.mod(x, 1.0)`` bit for bit (both are exact
    for |x| >= 1 and round x + 1 once for -1 < x < 0) and is cheaper.
    """
    x = np.asarray(phase, dtype=float)
    frac = x - np.floor(x)
    quarter = np.floor(4.0 * frac + 0.5)
    return _quarter_turned(frac - 0.25 * quarter, quarter.astype(int))


def _quarter_turned(offset: np.ndarray, quarter: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*(quarter/4 + offset)) for |offset| <= 1/8, exact at offset 0.

    With c, s = cos, sin of 2*pi*offset, quarter q mod 4 gives
    (c, s), (-s, c), (-c, -s), (s, -c): odd q swaps the pair, q in {1, 2}
    negates the real part and q in {2, 3} the imaginary part.
    """
    ang = 2.0 * np.pi * offset
    c, s = np.cos(ang), np.sin(ang)
    q = quarter % 4
    odd = (q & 1).astype(bool)
    re = np.where(odd, s, c)
    im = np.where(odd, c, s)
    np.negative(re, out=re, where=(q == 1) | (q == 2))
    np.negative(im, out=im, where=q >= 2)
    return re + 1j * im


def _require_finite(entries: np.ndarray) -> np.ndarray:
    """``entries`` itself; raises ValueError if any entry is not finite."""
    if not np.isfinite(entries.real).all() or not np.isfinite(entries.imag).all():
        raise ValueError("ComplexDense entries must be finite")
    return entries


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
        _require_finite(arr)
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
    """Perturbation eps of the frequency lattice [0, M_1) x ... x [0, M_d).

    General: ``values`` is a (P, d) array (or (P,) when d = 1) whose row k
    is eps at lattice point k in ``rect_lattice_points`` order.  Rank-one:
    ``axis_values`` holds one 1-D array a_t per axis and eps(n) is
    (a_1[n_1], ..., a_d[n_d]); only one component changes when a single
    entry of n changes.
    """

    values: np.ndarray | None = None
    axis_values: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if (self.values is None) == (self.axis_values is None):
            raise ValueError("perturbation requires exactly one of values (general) or axis_values (rank-one)")
        if self.values is None:
            arrays = tuple(np.array(a, dtype=float) for a in self.axis_values)
            if not arrays or any(a.ndim != 1 for a in arrays):
                raise ValueError("rank-one perturbation requires one 1-D array per axis")
            object.__setattr__(self, "axis_values", arrays)
        else:
            arrays = (_as_point_array(self.values, "general perturbation"),)
            object.__setattr__(self, "values", arrays[0])
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("perturbation values must be finite")

    @classmethod
    def general(cls, values) -> "PerturbationMap":
        return cls(values=values)

    @classmethod
    def rank_one(cls, axis_values) -> "PerturbationMap":
        return cls(axis_values=tuple(axis_values))

    def shifts(self, m: Sequence[int]) -> np.ndarray:
        """eps at every point of the lattice with sides ``m``, as a (P, d)
        array in ``rect_lattice_points`` order."""
        dims = [int(x) for x in m]
        if self.values is None:
            covered = [a.size for a in self.axis_values] == dims
        else:
            covered = self.values.shape == (math.prod(dims), len(dims))
        if not covered:
            raise ValueError(f"perturbation does not cover the frequency lattice {dims}")
        if self.values is not None:
            return self.values
        grids = np.meshgrid(*self.axis_values, indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)


def rect_lattice_points(m: Sequence[int]) -> np.ndarray:
    """Integer points of [0, M_1) x ... x [0, M_d), lexicographic order."""
    dims = [int(x) for x in m]
    if not dims or any(x < 1 for x in dims):
        raise ValueError(f"lattice sides must be positive integers, got {list(m)}")
    return np.array(list(itertools.product(*(range(x) for x in dims))), dtype=float)


def _fourier_from_arrays(freqs: np.ndarray, nodes: np.ndarray) -> ComplexDense:
    return ComplexDense(unit_entries(phase_matrix(freqs, nodes)))


def _roots_of_unity_matrix(freqs: np.ndarray, numerators: np.ndarray, modulus: int) -> ComplexDense:
    """Entry (j, k) = exp(2*pi*i * f_j . a_k / M) for integer vectors f_j, a_k.

    The nodes are u_k = a_k / M.  The phase index r = f_j . a_k mod M is
    reduced exactly in int64, each axis term mod M before the sum, so with
    0 <= f, a < M nothing overflows for M below 3e9.  The entries are then
    gathered from one table of the M-th roots of unity, folded to the
    nearest quarter turn in integers as well: 4r = qM + s with |s| <= M/2,
    so cos/sin see the offset s/(4M), rounded once.  Unlike float phases
    f . (a / M), this keeps every entry correct to rounding at any size, and
    where r/M is exact in floating point (M a power of two) the table equals
    ``unit_entries(r / M)`` bit for bit.
    """
    f = np.asarray(freqs, dtype=np.int64)
    a = np.asarray(numerators, dtype=np.int64)
    r = sum(np.multiply.outer(f[:, t], a[:, t]) % modulus for t in range(f.shape[1])) % modulus
    turns = np.arange(modulus, dtype=np.int64)
    quarter = (8 * turns + modulus) // (2 * modulus)  # floor(4r/M + 1/2), as unit_entries rounds
    table = _quarter_turned((4 * turns - quarter * modulus) / (4 * modulus), quarter)
    return ComplexDense(table[r])


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
    return ComplexDense(_vandermonde_entries(L, xs), notes=notes)


def _vandermonde_entries(L: int, nodes: np.ndarray) -> np.ndarray:
    """Entries exp(2*pi*i * j * x_k), j = 0..L-1, for a (..., N) node array.

    The result is (..., L, N): one Vandermonde matrix per node set of the
    stack, each equal bit for bit to its own unstacked evaluation.  Nodes
    are reduced into [0, 1) first; nothing else is checked.
    """
    rows = np.arange(L, dtype=float).reshape(-1, 1)
    return unit_entries(phase_matrix(rows, torus_canonical(nodes)[..., None]))


def build_dft(m: Sequence[int]) -> ComplexDense:
    """Unnormalized DFT matrix of size prod(M) for the product lattice.

    Node k/M has the numerators k_t * lcm(M) / M_t over lcm(M), so every
    entry is an exact lcm(M)-th root of unity.
    """
    lattice = rect_lattice_points(m).astype(np.int64)
    dims = [int(x) for x in m]
    modulus = math.lcm(*dims)
    return _roots_of_unity_matrix(lattice, lattice * (modulus // np.asarray(dims)), modulus)


def build_perturbed_dft_freq(m: Sequence[int], eps: PerturbationMap) -> ComplexDense:
    """F(Omega', U) where Omega' = {j + eps(j)} perturbs the DFT lattice and
    U is the node lattice {k/M}.

    Perturbed frequencies may collide, in which case the result is rank
    deficient (a legitimate object of study).
    """
    dims = [int(x) for x in m]
    return ComplexDense(_perturbed_dft_entries(dims, eps.shifts(dims)))


def _perturbed_dft_entries(dims: Sequence[int], shifts: np.ndarray) -> np.ndarray:
    """Entries of F(Omega', U) for a (..., P, d) stack of lattice shifts.

    Row j of each matrix is the lattice point j shifted by its row of
    ``shifts`` (in ``rect_lattice_points`` order), column k the node k/M.
    The result is (..., P, P), each matrix equal bit for bit to its own
    unstacked evaluation.
    """
    lattice = rect_lattice_points(dims)
    return unit_entries(phase_matrix(lattice + shifts, lattice / np.asarray(dims, dtype=float)))


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"size must be an odd integer >= 3, got {n}")


def build_instability_submatrix(n: int) -> ComplexDense:
    """Leading n x n submatrix of the (n+1) x (n+1) DFT matrix, n odd."""
    _require_odd(n)
    j = np.arange(n).reshape(-1, 1)
    return _roots_of_unity_matrix(j, j, n + 1)


def build_figure1(n: int) -> ComplexDense:
    """Periodically sign-perturbed DFT: entry (j,k) = exp(2*pi*i*j*(k+e(k))/n).

    For n = 2m+1 (n odd): e(0) = 0, e(k) = -1/4 for 1 <= k <= m and
    e(k) = +1/4 for m+1 <= k <= n-1 (the n-periodic extension of
    -sign(k)/4 on {-m..m}).  The node numerators 4k + 4e(k) are integers,
    so every entry is an exact 4n-th root of unity.
    """
    _require_odd(n)
    k = np.arange(n)
    numerators = 4 * k + np.where(k == 0, 0, np.where(k <= n // 2, -1, 1))
    return _roots_of_unity_matrix(k.reshape(-1, 1), numerators.reshape(-1, 1), 4 * n)


def figure1_gram(n: int):
    """F F^H for F = ``build_figure1(n)`` as a real symmetric
    ``scipy.sparse.linalg.LinearOperator``.

    Row j of F is exp(2*pi*i*j*x_k) over the nodes x_k = (k + e(k))/n, so
    (F F^H)_{j,j'} = t_{j-j'} with t_d = sum_k exp(2*pi*i*d*x_k): the Gram is
    Toeplitz.  The nodes are symmetric mod 1 (x_{n-k} = -x_k), so
    t_d = 1 + 2 sum_{k=1..m} cos(2*pi*d*(k - 1/4)/n) with n = 2m+1, which
    sums to t_0 = n, t_d = 1 for odd d and t_d = 1 - 1/sin(pi*(n-|d|)/(2n))
    for even d != 0.  A matvec embeds the Toeplitz matrix in a circulant of
    power-of-two size N >= 2n-1 (Chan and Ng, SIAM Review 1996): one
    rfft/irfft pair and O(n) memory, never an n x n array.  It takes real
    vectors only; ``numpy.fft.rfft`` raises TypeError on a complex one.
    """
    from scipy.sparse.linalg import LinearOperator

    _require_odd(n)
    t = np.ones(n)
    t[0] = n
    even = np.arange(2, n, 2)
    t[even] = 1.0 - 1.0 / np.sin(np.pi * (n - even) / (2 * n))
    size = 1 << (2 * n - 2).bit_length()
    col = np.zeros(size)
    col[:n] = t
    col[size - n + 1 :] = t[:0:-1]
    lam = np.fft.rfft(col).real  # the circulant is real symmetric, so its spectrum is real

    def matvec(x):
        return np.fft.irfft(lam * np.fft.rfft(np.ravel(x), size), size)[:n]

    return LinearOperator((n, n), matvec=matvec, rmatvec=matvec, dtype=np.float64)

