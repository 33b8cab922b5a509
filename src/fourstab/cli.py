"""Command-line surface: builders, spectra, bounds, classification, sweeps.

Subcommands: build, spectral, bounds, classify, verify, experiment.
Torus-valued inputs accept exact fractions ("1/2") as well as decimals so
degenerate rational cases can be expressed without rounding.  Exit codes:
0 success, 1 computation failure (JSON error object on stderr), 2 usage or
configuration error.  Every JSON document printed or written is strict JSON:
a non-finite number appears as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import bounds as bnd
from . import experiments as exp
from . import verify as verify_mod
from .core_matrix import (
    ComplexDense,
    FrequencySet,
    NodeSet,
    build_dft,
    build_figure1,
    build_gamma,
    build_instability_submatrix,
    build_vandermonde,
)
from .exp_systems import ExponentialSystemSpec, classify_system
from .spectral import svd_values

__all__ = ["main", "dispatch", "load_config", "CliConfig"]


def parse_real(text: str) -> float:
    """Parse a real number; fractions "p/q" are evaluated exactly."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def parse_scalars(text: str) -> list[float]:
    return [parse_real(tok) for tok in text.split(",") if tok.strip()]


def parse_points(text: str) -> list[list[float]]:
    """Semicolon-separated points with comma-separated components.

    Without semicolons the text is a list of scalars (dimension one).
    """
    if ";" in text:
        return [parse_scalars(part) for part in text.split(";") if part.strip()]
    return [[x] for x in parse_scalars(text)]


def parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


@dataclass
class CliConfig:
    command: str
    experiment: str = ""
    params: dict = field(default_factory=dict)
    seed: int = 0
    format: str = "json"
    output: str | None = None


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Config field types: (description for error messages, check).
_INT = ("an integer", _is_int)
_SEED = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_POSITIVE_INT = ("a positive integer", lambda v: _is_int(v) and v >= 1)
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_INTS = ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)))
_REALS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_real, v)))
_FORMAT = ('"json" or "csv"', lambda v: v in ("json", "csv"))
_PATH = ("a string or null", lambda v: v is None or isinstance(v, str))
_CONSTANTS = (
    'an object with numbers under "c_universal" and "c_small"',
    lambda v: isinstance(v, dict) and set(v) <= {"c_universal", "c_small"} and all(map(_is_real, v.values())),
)


# Fields every experiment config takes besides "command" and "experiment".
_COMMON_FIELDS = {
    "seed": (_SEED, 0),
    "trials": (_POSITIVE_INT, 1),
    "format": (_FORMAT, "json"),
    "output": (_PATH, None),
}

# Experiment name -> (required fields: type, optional fields: (type, default),
# run(params, sweep_config) returning the records, or a report dict for benchmark).
_EXPERIMENTS = {
    "figure1": ({"n_list": _INTS}, {}, lambda p, c: exp.figure1_sweep(p["n_list"], c)),
    "freq_stability": (
        {"m": _INTS, "ell_grid": _REALS},
        {"rank_one": (_BOOL, False)},
        lambda p, c: exp.freq_stability_sweep(p["m"], p["ell_grid"], p["rank_one"], c),
    ),
    "node_stability": (
        {"L": _INT, "n": _INT, "ell_grid": _REALS},
        {},
        lambda p, c: exp.node_stability_sweep(p["L"], p["n"], p["ell_grid"], c),
    ),
    "wellsep": ({"L_grid": _INTS}, {}, lambda p, c: exp.wellsep_sweep(p["L_grid"], c)),
    "benchmark": ({"m": _INTS}, {}, lambda p, c: exp.benchmark_comparison(p["m"], c)),
    "clump": (
        {"L": _INT, "n": _INT, "alpha_grid": _REALS, "lambda": _INT},
        {"constants": (_CONSTANTS, {})},
        lambda p, c: exp.clump_experiment(
            p["L"],
            p["n"],
            p["alpha_grid"],
            p["lambda"],
            (p["constants"].get("c_universal", 1.0), p["constants"].get("c_small", 1.0)),
            c,
        ),
    ),
}


def _checked(key: str, value, kind):
    description, check = kind
    if not check(value):
        raise ConfigError(key, f"must be {description}, got {value!r}")
    return value


def load_config(path: str) -> CliConfig:
    """Load and validate an experiment config file with defaults applied.

    A missing, unknown or wrongly typed field raises ConfigError naming it.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("path", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("json", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("json", "top level must be an object")
    if "command" not in doc:
        raise ConfigError("command", "missing")
    command = doc["command"]
    if command != "experiment":
        raise ConfigError("command", f"unsupported command {command!r}")
    if "experiment" not in doc:
        raise ConfigError("experiment", "missing")
    name = doc["experiment"]
    if not isinstance(name, str) or name not in _EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {name!r} (choices: {sorted(_EXPERIMENTS)})")
    required, optional, _ = _EXPERIMENTS[name]
    for key in required:
        if key not in doc:
            raise ConfigError(key, f"missing (required by experiment {name!r})")
    optional = {**_COMMON_FIELDS, **optional}
    types = {**required, **{key: kind for key, (kind, _) in optional.items()}}
    values = {key: default for key, (_, default) in optional.items()}
    for key, value in doc.items():
        if key in ("command", "experiment"):
            continue
        if key not in types:
            raise ConfigError(key, f"unknown field for experiment {name!r} (accepted: {sorted(types)})")
        values[key] = _checked(key, value, types[key])
    return CliConfig(
        command=command,
        experiment=name,
        params={k: v for k, v in values.items() if k not in ("seed", "format", "output")},
        seed=values["seed"],
        format=values["format"],
        output=values["output"],
    )


# --theorem name -> (function in fourstab.bounds, the flags giving its arguments
# in order).  A flag is required unless it has a default.
_THEOREMS = {
    "kadec": ("perturbed_frame_bounds", ("a", "b", "ell", "d", "rank-one")),
    "dft-freq": ("dft_freq_bounds", ("m", "ell", "rank-one")),
    "t3": ("dft_freq_bounds", ("m", "ell", "rank-one")),
    "weyl-freq": ("weyl_freq_bounds", ("sigma-r", "sigma-1", "L", "n", "d", "p-norm", "eps")),
    "weyl-node": ("weyl_node_bounds", ("sigma-r", "sigma-1", "p", "n", "p-norm", "eps")),
    "vandermonde-node": ("vandermonde_node_bounds", ("sigma-r", "sigma-1", "ell")),
    "rectangular": ("vandermonde_node_bounds", ("sigma-r", "sigma-1", "ell")),
    "wellsep": ("wellsep_bounds", ("L", "sep")),
    "clump": ("clump_bounds", ("L", "n", "alpha", "lam", "c-universal", "c-small")),
    "instability": ("instability_spectrum", ("n",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourstab",
        description="Generalized Fourier matrices: construction, spectra, stability bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", "--dft", dest="m", help="DFT lattice sides, e.g. 4 or 2,3")
        p.add_argument("--deltas", help="torus offsets (with --p builds the associated matrix)")
        p.add_argument("--p", help="integer vectors, e.g. 0,1 or 0,0;1,1")
        p.add_argument("--nodes", help="Vandermonde nodes (with --L)")
        p.add_argument("--L", type=int, help="Vandermonde row count")
        p.add_argument("--instability", type=int, help="leading submatrix of the (n+1)-DFT, n odd")
        p.add_argument("--figure1", type=int, help="sign-perturbed DFT of odd size n")

    p_build = sub.add_parser("build", help="construct a matrix and emit it")
    p_build.set_defaults(run=_cmd_build)
    add_matrix_source(p_build)
    p_build.add_argument("--out", help="output path (default stdout)")
    p_build.add_argument("--format", choices=("json", "csv"), default="json")

    p_spec = sub.add_parser("spectral", help="singular values and condition number")
    p_spec.set_defaults(run=_cmd_spectral)
    add_matrix_source(p_spec)
    p_spec.add_argument("--input", help="matrix JSON file produced by build")
    p_spec.add_argument("--out", help="output path (default stdout)")

    p_bounds = sub.add_parser("bounds", help="evaluate a closed-form stability bound")
    p_bounds.set_defaults(run=_cmd_bounds)
    p_bounds.add_argument("--theorem", required=True, choices=tuple(_THEOREMS))
    p_bounds.add_argument("--m", help="DFT lattice sides")
    p_bounds.add_argument("--ell", help="sup-norm perturbation size (fractions ok)")
    p_bounds.add_argument("--rank-one", action="store_true")
    p_bounds.add_argument("--a", help="lower frame constant")
    p_bounds.add_argument("--b", help="upper frame constant")
    p_bounds.add_argument("--d", type=int, default=1, help="dimension")
    p_bounds.add_argument("--sigma-r", help="smallest relevant singular value")
    p_bounds.add_argument("--sigma-1", help="largest singular value")
    p_bounds.add_argument("--L", type=int, help="row count")
    p_bounds.add_argument("--n", type=int, help="column count / matrix size")
    p_bounds.add_argument("--p", help="frequency points (weyl-node) ")
    p_bounds.add_argument("--p-norm", default="inf", help="perturbation norm exponent p")
    p_bounds.add_argument("--eps", help="additive perturbation size")
    p_bounds.add_argument("--sep", help="minimum node separation")
    p_bounds.add_argument("--alpha", help="intra-cluster spacing")
    p_bounds.add_argument("--lambda", dest="lam", type=int, help="cluster size cap")
    p_bounds.add_argument("--c-universal", default="1.0")
    p_bounds.add_argument("--c-small", default="1.0")
    p_bounds.add_argument("--out", help="output path (default stdout)")

    p_cls = sub.add_parser("classify", help="classify an exponential system")
    p_cls.set_defaults(run=_cmd_classify)
    p_cls.add_argument("--deltas", required=True)
    p_cls.add_argument("--p", required=True)
    p_cls.add_argument("--tol", help="rank tolerance override")
    p_cls.add_argument("--out", help="output path (default stdout)")

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="run a named sweep from a JSON config")
    p_exp.set_defaults(run=_cmd_experiment)
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int, help="override the config seed")
    p_exp.add_argument("--trials", type=int, help="override the config trial count")
    p_exp.add_argument("--out", help="override the config output path")
    p_exp.add_argument("--format", choices=("json", "csv"), help="override the config format")
    return parser


def _matrix_from_args(args) -> ComplexDense:
    if getattr(args, "input", None):
        return ComplexDense.from_json(Path(args.input).read_text())
    if args.m:
        return build_dft(parse_ints(args.m))
    if args.deltas and args.p:
        return build_gamma(NodeSet(parse_points(args.deltas)), FrequencySet(parse_points(args.p)))
    if args.nodes and args.L is not None:
        return build_vandermonde(args.L, [x[0] for x in parse_points(args.nodes)])
    if args.instability is not None:
        return build_instability_submatrix(args.instability)
    if args.figure1 is not None:
        return build_figure1(args.figure1)
    raise ValueError(
        "no matrix source given: use --m, --deltas/--p, --L/--nodes, --instability or --figure1"
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_build(args) -> int:
    mat = _matrix_from_args(args)
    _emit(mat.to_csv() if args.format == "csv" else mat.to_json(), args.out)
    return 0


def _cmd_spectral(args) -> int:
    mat = _matrix_from_args(args)
    _emit(exp.strict_json(svd_values(mat, residual=True).to_dict()), args.out)
    return 0


def _bound_argument(args, flag: str):
    value = getattr(args, flag.replace("-", "_"))
    if flag == "m":
        return parse_ints(value)
    if flag == "p":
        return FrequencySet(parse_points(value))
    return parse_real(value) if isinstance(value, str) else value


def _cmd_bounds(args) -> int:
    name, flags = _THEOREMS[args.theorem]
    missing = [f for f in flags if getattr(args, f.replace("-", "_")) in (None, "")]
    if missing:
        raise ValueError(f"--theorem {args.theorem} requires flags: {', '.join('--' + f for f in missing)}")
    result = getattr(bnd, name)(*(_bound_argument(args, f) for f in flags))
    if name == "instability_spectrum":
        doc = {"theorem": "instability_spectrum", "singular_values": result, "condition": result[0] / result[-1]}
    else:
        doc = result.to_dict()
    _emit(exp.strict_json(doc), args.out)
    return 0


def _cmd_classify(args) -> int:
    spec = ExponentialSystemSpec(NodeSet(parse_points(args.deltas)), FrequencySet(parse_points(args.p)))
    tol = parse_real(args.tol) if args.tol else None
    _emit(exp.strict_json(classify_system(spec, tol).to_dict()), args.out)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=_checked("seed", args.seed, _SEED))
    failures = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = _checked("seed", args.seed, _SEED)
    if args.trials is not None:
        cfg.params["trials"] = _checked("trials", args.trials, _POSITIVE_INT)
    if args.out is not None:
        cfg.output = args.out
    if args.format is not None:
        cfg.format = args.format
    sweep_cfg = exp.SweepConfig(seed=cfg.seed, trials=cfg.params["trials"], output_path=cfg.output)
    result = _EXPERIMENTS[cfg.experiment][2](cfg.params, sweep_cfg)
    if isinstance(result, dict):  # benchmark: one report, no records
        if not cfg.output:
            print(exp.strict_json(result))
        return 0
    violations = sum(1 for r in result if r.violated)
    if not cfg.output:
        if cfg.format == "csv":
            sys.stdout.write(exp.records_to_csv(result))
        else:
            print(exp.strict_json({"records": [r.to_dict() for r in result], "violations": violations}))
    return 0 if violations == 0 else 1


def dispatch(argv: list[str]) -> int:
    """Route a command line to its subcommand; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:  # a usage error, not a failed computation
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, ArithmeticError, RuntimeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
