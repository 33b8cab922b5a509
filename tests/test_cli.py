import json

import numpy as np
import pytest

from fourstab import bounds as bnd
from fourstab.cli import ConfigError, dispatch, load_config, parse_points, parse_real
from fourstab.core_matrix import ComplexDense, FrequencySet, build_dft
from fourstab.experiments import strict_json
from fourstab.spectral import svd_values


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_fractions_exact(self):
        assert parse_real("1/2") == 0.5
        assert parse_real("3/4") == 0.75
        assert parse_real("0.25") == 0.25
        assert parse_real("inf") == float("inf")

    def test_points_one_dim(self):
        assert parse_points("0,1/2") == [[0.0], [0.5]]

    def test_points_multi_dim(self):
        assert parse_points("0,0;1/2,1/4") == [[0.0, 0.0], [0.5, 0.25]]


class TestSpectralCommand:
    def test_dft_four(self, capsys):
        code, out, _ = run_cli(capsys, "spectral", "--m", "4")
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["singular_values"], 2.0, atol=1e-12)

    def test_round_trip_bit_identical(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        code, out, _ = run_cli(capsys, "build", "--m", "3", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "spectral", "--input", str(path))
        assert code == 0
        direct = strict_json(svd_values(build_dft((3,)), residual=True).to_dict())
        assert out.strip() == direct

    def test_singular_matrix_is_strict_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectral", "--deltas", "0,1/2", "--p", "0,2")
        assert code == 0
        doc = strict_loads(out)
        assert doc["condition"] is None and doc["condition_nonfinite"] == "inf"
        assert "residual_nonfinite" not in doc

    @pytest.mark.parametrize(
        "data", ['[["a", "b"], [1, 0]]', '[5, [1, 0]]', "5", '[[true, false], [1, 0]]']
    )
    def test_malformed_input_is_failure(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1, "cols": 2, "data": %s}' % data)
        code, out, err = run_cli(capsys, "spectral", "--input", str(path))
        assert code == 1 and out == ""
        assert strict_loads(err)["error"] == "ValueError"

    def test_no_source_is_failure(self, capsys):
        code, out, err = run_cli(capsys, "spectral")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestBuildCommand:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--m", "2,3")
        doc = json.loads(out)
        assert doc["rows"] == 6 and doc["cols"] == 6

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--m", "2", "--format", "csv")
        assert out.startswith("row,col,re,im")

    def test_vandermonde_source(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--L", "4", "--nodes", "0,1/2")
        assert code == 0
        mat = ComplexDense.from_json(out)
        assert mat.rows == 4 and mat.cols == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--instability", "0"], "size must be an odd integer >= 3, got 0"),
            (["--figure1", "0"], "size must be an odd integer >= 3, got 0"),
            (["--L", "0", "--nodes", "0.1"], "row count must be >= 1, got 0"),
        ],
    )
    def test_zero_size_names_the_builder_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "build", *argv)
        assert code == 1
        assert out == ""
        assert strict_loads(err)["message"] == message

    def test_gamma_source(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--deltas", "0,1/2,1/4", "--p", "0,1")
        assert code == 0
        mat = ComplexDense.from_json(out)
        assert mat.rows == 3 and mat.cols == 2
        assert mat.data[2, 1] == 1j


def _instability_doc(n):
    values = bnd.instability_spectrum(n)
    return {"theorem": "instability_spectrum", "singular_values": values, "condition": values[0] / values[-1]}


# Every --theorem name: its flags and the direct library call it must reproduce.
THEOREM_CASES = {
    "kadec": (
        ["--a", "1", "--b", "2", "--ell", "1/10", "--d", "2"],
        lambda: bnd.perturbed_frame_bounds(1.0, 2.0, 0.1, 2, False).to_dict(),
    ),
    "dft-freq": (
        ["--m", "4,4", "--ell", "0.2", "--rank-one"],
        lambda: bnd.dft_freq_bounds([4, 4], 0.2, True).to_dict(),
    ),
    "t3": (["--m", "16", "--ell", "0.1"], lambda: bnd.dft_freq_bounds((16,), 0.1).to_dict()),
    "weyl-freq": (
        ["--sigma-r", "2", "--sigma-1", "3", "--L", "8", "--n", "4", "--eps", "0.01", "--p-norm", "2"],
        lambda: bnd.weyl_freq_bounds(2.0, 3.0, 8, 4, 1, 2.0, 0.01).to_dict(),
    ),
    "weyl-node": (
        ["--sigma-r", "2", "--sigma-1", "3", "--p", "0,1,2", "--n", "3", "--eps", "0.01"],
        lambda: bnd.weyl_node_bounds(2.0, 3.0, FrequencySet([[0], [1], [2]]), 3, float("inf"), 0.01).to_dict(),
    ),
    "vandermonde-node": (
        ["--sigma-r", "5", "--sigma-1", "6", "--ell", "0.1"],
        lambda: bnd.vandermonde_node_bounds(5.0, 6.0, 0.1).to_dict(),
    ),
    "rectangular": (
        ["--sigma-r", "7", "--sigma-1", "8", "--ell", "1/20"],
        lambda: bnd.vandermonde_node_bounds(7.0, 8.0, 0.05).to_dict(),
    ),
    "wellsep": (["--L", "4", "--sep", "1/2"], lambda: bnd.wellsep_bounds(4, 0.5).to_dict()),
    "clump": (
        ["--L", "96", "--n", "8", "--alpha", "0.001", "--lambda", "2", "--c-universal", "0.5", "--c-small", "2"],
        lambda: bnd.clump_bounds(96, 8, 0.001, 2, 0.5, 2.0).to_dict(),
    ),
    "instability": (["--n", "5"], lambda: _instability_doc(5)),
}


class TestBoundsCommand:
    @pytest.mark.parametrize("theorem", list(THEOREM_CASES))
    def test_t3_pass_through(self, capsys, theorem):
        flags, direct = THEOREM_CASES[theorem]
        code, out, _ = run_cli(capsys, "bounds", "--theorem", theorem, *flags)
        assert code == 0
        assert strict_loads(out) == json.loads(strict_json(direct()))

    def test_infinite_p_norm_is_named(self, capsys):
        flags, _ = THEOREM_CASES["weyl-node"]  # --p-norm left at its default, inf
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "weyl-node", *flags)
        assert code == 0
        inputs = strict_loads(out)["inputs"]
        assert inputs["p"] is None and inputs["p_nonfinite"] == "inf"
        assert "eps_nonfinite" not in inputs

    def test_gated_ell_is_report_not_error(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "t3", "--m", "4", "--ell", "0.3")
        assert code == 0
        doc = json.loads(out)
        assert doc["applicable"] is False

    def test_wellsep(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theorem", "wellsep", "--L", "4", "--sep", "1/2"
        )
        doc = json.loads(out)
        assert doc["sigma_min_lower"] == pytest.approx(2.0)

    def test_instability(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theorem", "instability", "--n", "5")
        doc = json.loads(out)
        assert doc["condition"] == pytest.approx(6**0.5)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["weyl-freq", "--sigma-r", "nan", "--sigma-1", "1", "--L", "4", "--n", "4", "--eps", "0.1"],
                "need sigma_n <= sigma_1, got nan and 1.0",
            ),
            (
                ["weyl-node", "--sigma-r", "1", "--sigma-1", "2", "--p", "0,1", "--n", "2", "--eps", "nan"],
                "perturbation size must be nonnegative, got nan",
            ),
            (
                ["weyl-freq", "--sigma-r", "1", "--sigma-1", "2", "--L", "4", "--n", "4", "--eps", "0.1"]
                + ["--p-norm", "nan"],
                "p must lie in [1, inf], got nan",
            ),
        ],
    )
    def test_weyl_nan_input_exits_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bounds", "--theorem", *argv)
        assert code == 1
        assert out == ""
        assert strict_loads(err)["message"] == message

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--c-universal", "nan", "universal constants must be positive and finite, got nan and 1.0"),
            ("--c-small", "nan", "universal constants must be positive and finite, got 1.0 and nan"),
            ("--c-universal", "inf", "universal constants must be positive and finite, got inf and 1.0"),
            ("--alpha", "nan", "intra-cluster spacing alpha must be a number, got nan"),
        ],
    )
    def test_clump_non_finite_input_exits_one(self, capsys, flag, value, message):
        argv = {"--L": "100", "--n": "10", "--alpha": "0.001", "--lambda": "2", flag: value}
        code, out, err = run_cli(capsys, "bounds", "--theorem", "clump", *(x for kv in argv.items() for x in kv))
        assert code == 1
        assert out == ""
        assert strict_loads(err)["message"] == message

    def test_missing_flags_fail_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--theorem", "t3")
        assert code == 1
        assert "requires" in json.loads(err)["message"]


class TestClassifyCommand:
    def test_riesz_basis(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--deltas", "0,0.5", "--p", "0,1")
        doc = json.loads(out)
        assert doc["kind"] == "RieszBasis"
        assert doc["lower_constant"] == pytest.approx(2.0, rel=1e-10)
        assert doc["upper_constant"] == pytest.approx(2.0, rel=1e-10)

    def test_fraction_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--deltas", "0,1/2", "--p", "0,2")
        assert json.loads(out)["kind"] == "Degenerate"

    @pytest.mark.parametrize("tol", ["0", "-1", "1", "2", "nan"])
    def test_tolerance_outside_unit_interval_exits_one(self, capsys, tol):
        code, out, err = run_cli(capsys, "classify", "--deltas", "0,0.5", "--p", "0,1", f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert "tolerance" in strict_loads(err)["message"]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["spectral", "--bogus", "1"])
        assert exc.value.code == 2

    def test_computation_failure_is_one(self, capsys):
        code, out, err = run_cli(capsys, "build", "--instability", "4")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestLoadConfig:
    def test_minimal_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "experiment", "experiment": "figure1", "n_list": [3, 5]}))
        cfg = load_config(str(path))
        assert cfg.seed == 0 and cfg.format == "json"
        assert cfg.params["n_list"] == [3, 5]

    def test_missing_command_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "figure1", "n_list": [3]}))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field_name == "command"

    def test_missing_required_param(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "experiment", "experiment": "freq_stability", "m": [8]}))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field_name == "ell_grid"

    def test_bad_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "figure1"}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert "command" in err

    @pytest.mark.parametrize(
        "doc, field_name",
        [
            ({"experiment": "figure1", "n_list": "abc"}, "n_list"),
            ({"experiment": "figure1", "n_list": [3], "bogus": 1}, "bogus"),
            ({"experiment": "figure1", "n_list": [3], "trials": True}, "trials"),
            ({"experiment": "wellsep", "L_grid": [16], "seed": -1}, "seed"),
            ({"experiment": "wellsep", "L_grid": [16], "crossover": 5}, "crossover"),
            ({"experiment": "freq_stability", "m": [4], "ell_grid": [0.1], "rank_one": "no"}, "rank_one"),
            (
                {"experiment": "clump", "L": 96, "n": 8, "alpha_grid": [1e-4], "lambda": 2, "constants": [1, 2]},
                "constants",
            ),
            ({"experiment": "figure1", "n_list": [3], "output": 5}, "output"),
            ({"experiment": "figure1", "n_list": [3], "crossover": 5}, "crossover"),
        ],
    )
    def test_mistyped_or_unknown_field_exits_two(self, capsys, tmp_path, doc, field_name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "experiment", **doc}))
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field_name == field_name
        code, out, err_text = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert repr(field_name) in err_text
        assert out == ""


class TestExperimentCommand:
    def test_figure1_from_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "experiment", "experiment": "figure1", "n_list": [3, 5]}))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 2

    def test_csv_output_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "command": "experiment",
                    "experiment": "figure1",
                    "n_list": [3, 5, 7],
                    "output": str(out_file),
                }
            )
        )
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("n,method")
        assert len(lines) == 4

    def test_repeat_run_byte_identical(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "command": "experiment",
                    "experiment": "wellsep",
                    "L_grid": [16],
                    "trials": 5,
                    "seed": 11,
                    "output": str(out_file),
                }
            )
        )
        run_cli(capsys, "experiment", "--config", str(path))
        first = out_file.read_bytes()
        run_cli(capsys, "experiment", "--config", str(path))
        assert out_file.read_bytes() == first


    def test_cli_overrides_config(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"command": "experiment", "experiment": "wellsep", "L_grid": [16], "trials": 2}
            )
        )
        run_cli(capsys, "experiment", "--config", str(path), "--seed", "5", "--out", str(out_a))
        run_cli(
            capsys,
            "experiment",
            "--config",
            str(path),
            "--seed",
            "5",
            "--trials",
            "4",
            "--out",
            str(out_b),
        )
        assert out_a.exists() and out_b.exists()
        assert len(out_b.read_text().splitlines()) == len(out_a.read_text().splitlines()) + 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param("experiment", "--trials", "0", id="--trials-0"),
            pytest.param("experiment", "--seed", "-1", id="--seed--1"),
            pytest.param("verify", "--seed", "-1", id="verify---seed--1"),
        ],
    )
    def test_bad_override_exits_two(self, capsys, tmp_path, command, flag, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "experiment", "experiment": "wellsep", "L_grid": [16]}))
        argv = ["experiment", "--config", str(path)] if command == "experiment" else [command]
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2
        assert repr(flag[2:]) in err
        assert out == ""


    def test_node_draw_failure_exits_one(self, capsys, tmp_path):
        # 8 nodes cannot be drawn 2/16 apart with the sweep's jitter
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"command": "experiment", "experiment": "node_stability", "L": 16, "n": 8, "ell_grid": [0.2]})
        )
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 1
        assert strict_loads(err)["error"] == "RuntimeError"

    def test_non_applicable_trials_are_strict_json(self, capsys, tmp_path):
        out_file = tmp_path / "node.csv"
        doc = {"command": "experiment", "experiment": "node_stability", "L": 64, "n": 16, "ell_grid": [0.24]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        rec = strict_loads(out)["records"][0]
        assert rec["params"]["applicable"] is False
        assert rec["measured"]["sigma_r_pert"] is None
        assert rec["measured"]["sigma_r_pert_nonfinite"] == "nan"
        path.write_text(json.dumps({**doc, "output": str(out_file)}))
        run_cli(capsys, "experiment", "--config", str(path))
        report = strict_loads(out_file.with_suffix(".csv.report.json").read_text())
        assert report["records"][0]["bounds"]["sigma_min_lower"] is None
        assert ",nan,nan," in out_file.read_text()


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out
