"""The benchmark's four workloads.

Each workload is a closed loop: one client in one process runs a fixed job
list (one *round*), every operation starting when the previous one ended.
Round ``i`` draws its inputs from ``numpy.random.default_rng([seed, i])``.
Shapes, sizes, reach and trial counts are constants here; the seed sets
only values, so every seed and every round does the same work.

The program is reached only through public names looked up at call time
(``fs.svd_values``, ``experiments.figure1_sweep``, ``cli.dispatch``), so a
traced round sees the wrappers ``tracing.install`` puts in their place.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

import fourstab as fs
from fourstab import cli, experiments


class Round:
    """Latencies and failures of one pass over a workload's job list."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, call, check) -> None:
        """Time ``call()`` as one operation, then ``check`` its result.

        ``check`` returns None when the result is right, else what is wrong.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:  # an operation that raises counts as failed
            self._took(time.perf_counter() - t0)
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return
        self._took(time.perf_counter() - t0)
        self._check(label, check, out)

    def batch(self, label: str, expected: int, call, check) -> None:
        """Time one sweep call of ``expected`` trials; each trial is one operation.

        Trial latencies are the sweep's own per-record ``wall_time_s``.
        """
        self.attempted += expected
        t0 = time.perf_counter()
        try:
            records = call()
        except Exception:
            self.wall_s += time.perf_counter() - t0
            self.failures.extend([f"{label}: {traceback.format_exc(limit=3)}"] * expected)
            return
        self.wall_s += time.perf_counter() - t0
        self.latencies.extend(r.wall_time_s for r in records)
        if len(records) != expected:
            self.failures.extend([f"{label}: {len(records)} records, expected {expected}"] * expected)
            return
        for i, rec in enumerate(records):
            self._check(f"{label} trial {i}", check, rec)

    def _took(self, seconds: float) -> None:
        self.wall_s += seconds
        self.latencies.append(seconds)

    def _check(self, label: str, check, out) -> None:
        try:
            problem = check(out)
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem:
            self.failures.append(f"{label}: {problem}")


class Workload:
    """A fixed job list, run once per ``round(index)``."""

    def finish(self) -> list[str]:
        """Checks made once after the timed rounds; returns what failed."""
        return []


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Figure1Scale(Workload):
    """figure1_sweep across CROSSOVER_DIM plus exact instability spectra.

    These matrices are fixed by n, so the seed sets only the job order.
    """

    name = "figure1_scale"
    # kappa of build_figure1(n) from a values-only dense SVD (numpy.linalg.svd);
    # both spectral routes agree with these to ~1e-14 relative.
    KAPPA = {
        51: 4.360181393252971,
        101: 4.926532165196559,
        301: 5.828881395524658,
        701: 6.525495850894007,
        1001: 6.818606165385056,
        1201: 6.968386731849267,
        2001: 7.387841265790133,
    }
    TOL = 1e-9

    def __init__(self, seed: int, smoke: bool, workdir: Path, workers: int):
        self.seed = seed
        if smoke:
            self.sizes, self.instability, crossover = (51, 101), (15, 31), 75
        else:
            self.sizes, self.instability = (301, 701, 1001, 1201, 2001), (255, 511)
            crossover = fs.spectral.CROSSOVER_DIM
        self.cfg = experiments.SweepConfig(crossover=crossover, workers=workers)

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, index])
        jobs = [(self._figure1, n) for n in self.sizes] + [(self._instability, n) for n in self.instability]
        rnd = Round()
        for k in rng.permutation(len(jobs)):
            job, n = jobs[k]
            job(rnd, int(n))
        return rnd

    def _figure1(self, rnd: Round, n: int) -> None:
        def check(records):
            rec = records[0]
            full = n <= self.cfg.crossover
            want = fs.spectral.METHOD_FULL if full else fs.spectral.METHOD_ITERATIVE
            if rec.params["method"] != want:
                return f"route {rec.params['method']}, expected {want}"
            kappa = rec.measured["kappa"]
            if _rel(kappa, self.KAPPA[n]) > self.TOL:
                return f"kappa {kappa!r} vs reference {self.KAPPA[n]!r}"
            return None

        rnd.op(f"figure1 n={n}", lambda: experiments.figure1_sweep([n], self.cfg), check)

    def _instability(self, rnd: Round, n: int) -> None:
        def call():
            return fs.svd_values(fs.build_instability_submatrix(n)), fs.instability_spectrum(n)

        def check(out):
            summary, exact = out
            dev = float(np.max(np.abs(np.asarray(summary.singular_values) - np.asarray(exact))))
            return None if dev <= self.TOL * math.sqrt(n + 1) else f"spectrum deviates by {dev:.3e}"

        rnd.op(f"instability n={n}", call, check)


def _distinct_points(rng: np.random.Generator, count: int, dim: int, span: int) -> list[tuple[int, ...]]:
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(int(x) for x in rng.integers(-span, span + 1, dim)))
    return sorted(pts)


class OracleCrossterms(Workload):
    """Function-side validation of square exponential systems (L = N).

    A square system is both a Riesz sequence and a frame, so one spec
    exercises riesz_ratio, frame_ratio of extremal_witness, gram_matrix and
    classify_system.  The oracle's K^2 cross-term loop dominates; no
    spectrum here is larger than 8 x 8.
    """

    name = "oracle_crossterms"
    SLACK = 1e-9
    FRAME_TRUNC = 10_000

    def __init__(self, seed: int, smoke: bool, workdir: Path, workers: int):
        self.seed = seed
        # (dimension, L = N, reach): K = L * (2 reach + 1)^dim coefficients.
        if smoke:
            self.shapes = [(1, 3, 1)] * 2 + [(2, 2, 1)]
        else:
            self.shapes = [(1, 8, 3)] * 8 + [(2, 4, 2)] * 2

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, index])
        rnd = Round()
        for dim, size, reach in self.shapes:
            spec = fs.ExponentialSystemSpec(
                fs.NodeSet(rng.random((size, dim))), fs.FrequencySet(_distinct_points(rng, size, dim, 5))
            )
            window = range(-reach, reach + 1)
            ns = list(window) if dim == 1 else [(a, b) for a in window for b in window]
            coeffs = {(j, n): complex(*rng.standard_normal(2)) for j in range(size) for n in ns}
            rnd.op(f"spec d={dim} L=N={size} K={len(coeffs)}", lambda: self._call(spec, coeffs), self._check)
        return rnd

    def _call(self, spec, coeffs):
        cls = fs.classify_system(spec)
        ratio = fs.riesz_ratio(spec, coeffs)
        frame = fs.frame_ratio(fs.extremal_witness(spec, "max"), self.FRAME_TRUNC)
        gram = fs.gram_matrix(spec)
        gamma = fs.build_gamma(spec.deltas, spec.p)
        return cls, ratio, frame, gram, gamma

    def _check(self, out):
        cls, ratio, frame, gram, gamma = out
        lo, hi = cls.lower_constant, cls.upper_constant
        if cls.kind != "RieszBasis":
            return f"square system classified {cls.kind}"
        if not lo - self.SLACK * hi <= ratio <= hi + self.SLACK * hi:
            return f"Riesz ratio {ratio!r} outside [{lo!r}, {hi!r}]"
        if abs(frame - hi) > 0.01 * hi:
            return f"frame ratio {frame!r} not within 1% of sigma_max^2 = {hi!r}"
        product = gamma.data.conj().T @ gamma.data
        dev = float(np.max(np.abs(gram.data - product)))
        if dev > 1e-10 * max(1.0, float(np.max(np.abs(product)))):
            return f"Gram identity deviates by {dev:.3e}"
        top = float(np.linalg.eigvalsh(gram.data)[-1])
        if _rel(top, hi) > 1e-9:
            return f"Gram top eigenvalue {top!r} vs upper constant {hi!r}"
        return None


def _no_violation(rec) -> str | None:
    return f"bound violated: {rec.violations} at {rec.params}" if rec.violated else None


class SoundnessSweeps(Workload):
    """Many small randomized trials through five sweeps; zero violations.

    Node sweeps here always accept their first draw and every node trial
    passes the applicability gate (sep >= 2/L keeps sigma_r/sigma_1 above
    C(0.15)); wellsep uses L in {4, 5}, where the sweep's own draw of n is
    always 2.  So the trial work is the same for every seed.
    """

    name = "soundness_sweeps"
    ELLS = (0.05, 0.1, 0.15, 0.2)
    NODE_ELLS = (0.04, 0.08, 0.12, 0.15)
    ALPHAS = (0.002, 0.004, 0.006, 0.008)

    def __init__(self, seed: int, smoke: bool, workdir: Path, workers: int):
        self.seed = seed
        self.workers = workers
        self.trials = 2 if smoke else 32

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, index])
        cfg = experiments.SweepConfig(seed=int(rng.integers(2**31)), trials=self.trials, workers=self.workers)
        t = self.trials
        rnd = Round()
        rnd.batch("freq 1-D m=24", 4 * t,
                  lambda: experiments.freq_stability_sweep([24], self.ELLS, False, cfg), _no_violation)
        rnd.batch("freq rank-one m=4x5", 4 * t,
                  lambda: experiments.freq_stability_sweep([4, 5], self.ELLS, True, cfg), _no_violation)
        rnd.batch("node L=48 n=8", 4 * t,
                  lambda: experiments.node_stability_sweep(48, 8, self.NODE_ELLS, cfg), _no_violation)
        rnd.batch("wellsep L=4,5", 2 * t,
                  lambda: experiments.wellsep_sweep([4, 5], cfg), _no_violation)
        rnd.batch("clump L=96 N=8", 4 * t,
                  lambda: experiments.clump_experiment(96, 8, self.ALPHAS, 2, cfg=cfg), _no_violation)
        return rnd


class CliRoundtrip(Workload):
    """Seven ``fourstab`` commands through ``cli.dispatch``, in process.

    The commands write to files, never to stdout.  The spectral command
    reads the matrix the build command wrote, and its singular values are
    checked against the instability spectrum the bounds command prints.
    """

    name = "cli_roundtrip"

    def __init__(self, seed: int, smoke: bool, workdir: Path, workers: int):
        self.seed = seed
        self.dir = workdir
        # At n = 101 the smoke round, which is also the warm-up, starts the BLAS threads.
        self.n, self.csv_n, self.trials = (101, 15, 2) if smoke else (511, 63, 16)

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def _dispatch(self, rnd: Round, argv: list[str], check) -> None:
        def checked(code):
            return f"exit code {code}" if code != 0 else check()

        rnd.op(" ".join(argv[:2]), lambda: cli.dispatch(argv), checked)

    def round(self, index: int) -> Round:
        rng = np.random.default_rng([self.seed, index])
        n, p = self.n, self._path
        config = {
            "command": "experiment",
            "experiment": "freq_stability",
            "m": [16],
            "ell_grid": [0.1, 0.2],
            "trials": self.trials,
            "seed": int(rng.integers(2**31)),
            "output": p("sweep.csv"),
        }
        Path(p("config.json")).write_text(json.dumps(config))
        deltas = rng.random(6)
        ints = [pt[0] for pt in _distinct_points(rng, 4, 1, 5)]
        ell = float(rng.uniform(0.01, 0.2))
        rnd = Round()
        self._dispatch(rnd, ["build", "--instability", str(n), "--out", p("matrix.json")], lambda: None)
        self._dispatch(rnd, ["spectral", "--input", p("matrix.json"), "--out", p("spectral.json")], lambda: None)
        self._dispatch(rnd, ["bounds", "--theorem", "instability", "--n", str(n), "--out", p("exact.json")],
                       self._check_spectrum)
        self._dispatch(rnd, ["build", "--figure1", str(self.csv_n), "--format", "csv", "--out", p("figure1.csv")],
                       self._check_csv)
        self._dispatch(rnd, ["experiment", "--config", p("config.json")], self._check_sweep)
        # "--flag=value": a leading minus sign would otherwise read as an option.
        self._dispatch(rnd, ["classify", "--deltas=" + ",".join(map(repr, deltas.tolist())),
                             "--p=" + ",".join(map(str, ints)), "--out", p("classify.json")],
                       lambda: self._check_classify(deltas, ints))
        self._dispatch(rnd, ["bounds", "--theorem", "dft-freq", "--m", "16", "--ell", repr(ell),
                             "--out", p("bounds.json")], self._check_bounds)
        return rnd

    def _read(self, name: str):
        return json.loads(Path(self._path(name)).read_text())

    def _check_spectrum(self):
        got = np.asarray(self._read("spectral.json")["singular_values"])
        exact = np.asarray(self._read("exact.json")["singular_values"])
        dev = float(np.max(np.abs(got - exact)))
        return None if dev <= 1e-9 * math.sqrt(self.n + 1) else f"spectral vs exact spectrum: {dev:.3e}"

    def _check_csv(self):
        lines = Path(self._path("figure1.csv")).read_text().splitlines()
        if lines[0] != "row,col,re,im" or len(lines) != self.csv_n**2 + 1:
            return f"CSV has {len(lines)} lines, header {lines[0]!r}"
        return None

    def _check_sweep(self):
        lines = Path(self._path("sweep.csv")).read_text().splitlines()
        if len(lines) != 2 * self.trials + 1:
            return f"sweep CSV has {len(lines)} lines"
        header = lines[0].split(",")
        cols = [i for i, h in enumerate(header) if h.startswith("violation_")]
        if any(row.split(",")[i] != "false" for row in lines[1:] for i in cols):
            return "sweep CSV records a bound violation"
        if not Path(self._path("sweep.csv.report.json")).is_file():
            return "sweep report missing"
        return None

    def _check_classify(self, deltas: np.ndarray, ints: list[int]):
        doc = self._read("classify.json")
        s = np.linalg.svd(np.exp(2j * np.pi * np.outer(deltas, ints)), compute_uv=False)
        if doc["kind"] != "Frame":
            return f"6 x 4 system classified {doc['kind']}"
        if _rel(doc["upper_constant"], s[0] ** 2) > 1e-9 or _rel(doc["lower_constant"], s[-1] ** 2) > 1e-9:
            return f"frame constants {doc['lower_constant']!r}, {doc['upper_constant']!r} vs {s[-1]**2!r}, {s[0]**2!r}"
        return None

    def _check_bounds(self):
        doc = self._read("bounds.json")
        if not doc["applicable"] or not doc["sigma_min_lower"] <= 4.0 <= doc["sigma_max_upper"]:
            return f"dft-freq bounds do not bracket sqrt(16): {doc}"
        return None

    def finish(self) -> list[str]:
        """The matrix file from the last round must read back bit for bit."""
        text = Path(self._path("matrix.json")).read_text()
        if not np.array_equal(fs.ComplexDense.from_json(text).data, fs.build_instability_submatrix(self.n).data):
            return ["from_json(to_json(A)) != A for the instability matrix"]
        return []


WORKLOADS = {w.name: w for w in (Figure1Scale, OracleCrossterms, SoundnessSweeps, CliRoundtrip)}
