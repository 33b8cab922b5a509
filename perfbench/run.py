#!/usr/bin/env python3
"""Benchmark of fourstab: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload in turn

Run from the root of a checkout; the program is imported from ``src/``.
The workloads are defined in ``workloads.py`` and the metrics, with their
units, in ``BENCHMARK.json``.  The run sets BLAS and sweep threads before
numpy is imported, warms up (first LAPACK call, BLAS thread pool, first
build) by running the job list once at small sizes, and then repeats the
job list for about ``--seconds`` seconds, at least a few times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (medians over
the traced rounds) and ``trace_overhead_frac``.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment, goes to ``.perfbench_out/``, and a traced run also
writes the spans of its last traced round there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

# (BLAS threads, sweep workers) per workload; the total stays <= nproc.
# Only figure1_scale, whose large SVDs are BLAS-bound, uses more than one
# thread: the others spend their time in Python, where a second BLAS thread
# or sweep worker thread adds GIL and scheduler contention on a shared host
# and makes the timings wander from run to run.
THREADS = {
    "figure1_scale": (NPROC, 1),
    "oracle_crossterms": (1, 1),
    "soundness_sweeps": (1, 1),
    "cli_roundtrip": (1, 1),
}
SETUP_SAMPLES = 3  # one in this process, the rest in fresh processes
PROBE_TIMEOUT_S = 120


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS) + ["all"],
                    help="one workload, or all of them, each in a process of its own")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, for the benchmark's own test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def _openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _environment(blas_threads: int, workers: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": blas_threads,
        "blas_threads_reported": _openblas_threads(),
        "sweep_workers": workers,
        "cpu_model": _cpu_model(),
        "nproc": NPROC,
        "FOURSTAB_THREADS": os.environ.get("FOURSTAB_THREADS"),
        "git_commit": _git_commit(),
    }


def _setup_probe(args) -> float:
    """Set-up time of a fresh process (import plus warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _measure(workload, seconds: float, traced: bool, layer_names):
    """Run rounds until the next one would end past ``seconds``.

    In a traced run, untraced and traced rounds alternate.  Returns the
    untraced rounds, the traced rounds, the per-layer metrics of each
    traced round, and the last traced round's tracer.
    """
    import tracing

    plain, traced_rounds, layers, durations = [], [], [], []
    last = None
    min_rounds = 2 if traced else 3
    start = time.perf_counter()
    index = 1
    while True:
        traced_turn = traced and len(traced_rounds) < len(plain)
        t0 = time.perf_counter()
        if traced_turn:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                rnd = workload.round(index)
            finally:
                tracing.uninstall(undo)
            traced_rounds.append(rnd)
            layers.append(tracing.layer_metrics(tracer, layer_names))
            last = tracer
        else:
            rnd = workload.round(index)
            plain.append(rnd)
        durations.append(time.perf_counter() - t0)
        index += 1
        enough = len(plain) >= min_rounds and (not traced or len(traced_rounds) >= min_rounds)
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            return plain, traced_rounds, layers, last


def _end_to_end(plain, setup_s: float, attempted: int, failed: int) -> dict[str, float]:
    # Percentiles linear between order statistics of all untraced op latencies.
    cuts = statistics.quantiles([x for r in plain for x in r.latencies], n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in plain),
        "ops_per_s": sum(r.attempted for r in plain) / sum(r.wall_s for r in plain),
        "op_p50_ms": 1e3 * cuts[49],
        "op_p90_ms": 1e3 * cuts[89],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }


def _run_all(args) -> int:
    """Every workload in a process of its own; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in THREADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    blas_threads, workers = THREADS[args.workload]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    os.environ["FOURSTAB_THREADS"] = str(workers)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fourstab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no fourstab sources under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        t0 = time.perf_counter()
        import fourstab  # noqa: F401  (import time is part of set-up)
        import workloads

        make = workloads.WORKLOADS[args.workload]
        workload = make(args.seed, args.smoke, workdir, workers)
        make(args.seed, True, workdir, workers).round(0)
        setup = [time.perf_counter() - t0]
        if args.setup_probe:
            print(setup[0])
            return 0
        if not args.trace:
            setup += [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

        traced = bool(args.trace)
        kind = "per_layer" if traced else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        layer_names = [n for n in units if n != "trace_overhead_frac"]
        plain, traced_rounds, layers, last = _measure(workload, args.seconds, traced, layer_names)
        rounds = plain + traced_rounds
        failures = [f for r in rounds for f in r.failures] + workload.finish()
        attempted = sum(r.attempted for r in rounds)
        failed = min(attempted, len(failures))
        if traced:
            values = {n: statistics.median_low(layer[n] for layer in layers) for n in layer_names}
            values["trace_overhead_frac"] = (
                statistics.median(r.wall_s for r in traced_rounds) / statistics.median(r.wall_s for r in plain) - 1.0
            )
        else:
            values = _end_to_end(plain, statistics.median(setup), attempted, failed)
        env = _environment(blas_threads, workers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = sum(len(r.latencies) for r in plain)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "environment": env, "setup_samples_s": setup, "metrics": values,
        "rounds": {"untraced": len(plain), "traced": len(traced_rounds)},
        "round_wall_s": {"untraced": [r.wall_s for r in plain], "traced": [r.wall_s for r in traced_rounds]},
        "latency_samples": samples, "failures": failures,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if last is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for span_id, name, start, end, parent in last.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent}) + "\n")

    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(plain)} untraced and {len(traced_rounds)} traced rounds, "
          f"{samples} op latency samples, {attempted} ops attempted, {failed} failed "
          f"(failed_frac {failed / attempted})")
    for failure in failures[:10]:
        print(f"FAILED {failure}".rstrip())
    for name, value in values.items():
        print(f"{name:42s} {value!r} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
