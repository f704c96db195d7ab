import hashlib
import json

import numpy as np
import pytest

from hsangle import ComplexMatrix, abs_op, witness_triple
from hsangle.cli import main


def write_matrix(path, m):
    path.write_text(json.dumps(m.to_json_dict()))
    return str(path)


@pytest.fixture
def witness_files(tmp_path):
    x, y, z = witness_triple()
    return {
        "x": write_matrix(tmp_path / "x.json", x),
        "y": write_matrix(tmp_path / "y.json", y),
        "z": write_matrix(tmp_path / "z.json", z),
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngle:
    def test_json_output(self, capsys, witness_files):
        code, out, _ = run_cli(capsys, "angle", witness_files["x"], witness_files["y"])
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_x"] == 1.0
        assert payload["norm_y"] == 1.0
        assert payload["cos"] == 0.0  # disjoint entries

    def test_text_and_json_agree(self, capsys, witness_files):
        code, json_out, _ = run_cli(capsys, "angle", witness_files["x"], witness_files["z"])
        assert code == 0
        payload = json.loads(json_out)
        code, text_out, _ = run_cli(
            capsys, "--format", "text", "angle", witness_files["x"], witness_files["z"]
        )
        assert code == 0
        text_values = {}
        for line in text_out.strip().splitlines():
            key, _, value = line.partition(" = ")
            text_values[key] = float(value)
        assert text_values["cos"] == payload["cos"]
        assert text_values["sin"] == payload["sin"]
        assert text_values["inner.re"] == payload["inner"]["re"]

    def test_zero_operand_exits_2(self, capsys, tmp_path, witness_files):
        zero = write_matrix(tmp_path / "zero.json", ComplexMatrix(np.zeros((2, 2), dtype=complex)))
        code, _, err = run_cli(capsys, "angle", zero, witness_files["x"])
        assert code == 2
        assert "zero" in err

    def test_tiny_operands(self, capsys, tmp_path):
        tiny = write_matrix(tmp_path / "tiny.json", ComplexMatrix(1e-200 * np.eye(2)))
        code, out, _ = run_cli(capsys, "angle", tiny, tiny)
        assert code == 0
        payload = json.loads(out)
        assert payload["cos"] == 1.0
        assert payload["sin"] == 0.0


class TestAbs:
    def test_matches_library(self, capsys, witness_files):
        code, out, _ = run_cli(capsys, "abs", witness_files["z"])
        assert code == 0
        x, _, z = witness_triple()
        got = ComplexMatrix.from_json_dict(json.loads(out))
        assert np.allclose(got.a, abs_op(z).a, atol=1e-14)

    def test_franca_flag(self, capsys, witness_files):
        code, out, _ = run_cli(capsys, "abs", "--franca", witness_files["z"])
        assert code == 0
        got = ComplexMatrix.from_json_dict(json.loads(out))
        _, _, z = witness_triple()
        assert np.allclose(got.a, abs_op(z).a, atol=1e-10)

    def test_franca_wrong_shape_exits_2(self, capsys, tmp_path):
        m3 = write_matrix(tmp_path / "m3.json", ComplexMatrix(np.eye(3, dtype=complex)))
        code, _, err = run_cli(capsys, "abs", "--franca", m3)
        assert code == 2
        assert "2x2" in err


class TestPolar:
    def test_residuals_small(self, capsys, witness_files):
        code, out, _ = run_cli(capsys, "polar", witness_files["x"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"u", "abs", "residuals"}
        assert len(payload["residuals"]) == 5
        assert all(v <= 1e-10 for v in payload["residuals"].values())


class TestCheck:
    def test_equal_pair_zero_slack(self, capsys, witness_files):
        code, out, _ = run_cli(
            capsys, "check", "--id", "CS_21", witness_files["x"], witness_files["x"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert abs(payload["slack"]) <= 1e-12

    def test_sharp_witness(self, capsys, witness_files):
        code, out, _ = run_cli(
            capsys, "check", "--id", "T37", witness_files["x"], witness_files["z"]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lhs"] - 8.0**0.25) <= 1e-9
        assert abs(payload["slack"]) <= 1e-9

    def test_unknown_id_exits_2(self, capsys, witness_files):
        code, _, err = run_cli(
            capsys, "check", "--id", "T99", witness_files["x"], witness_files["y"]
        )
        assert code == 2
        assert "unknown inequality id" in err

    def test_shape_mismatch_exits_2(self, capsys, tmp_path, witness_files):
        m3 = write_matrix(tmp_path / "m3.json", ComplexMatrix(np.eye(3, dtype=complex)))
        code, _, _ = run_cli(capsys, "check", "--id", "CS_21", witness_files["x"], m3)
        assert code == 2


class TestVerify:
    def test_deterministic_and_green(self, capsys):
        args = ("verify", "--trials", "20", "--dims", "2..3", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 14
        for line in lines:
            payload = json.loads(line)
            assert payload["violations"] == 0
            assert payload["trials"] == 20

    def test_dim_list_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--dims", "1,4", "--seed", "1")
        assert code == 0

    def test_bad_dims_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "5", "--dims", "x..y")
        assert code == 2
        assert "--dims" in err

    def test_out_of_range_dims_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "5", "--dims", "65")
        assert code == 2
        assert err.startswith("error:") and "dim" in err

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "trials" in err

    # sha256 of the stdout, captured when both moduli of an operand came from
    # its one SVD.  A change that moves any output bit must re-baseline these
    # on purpose and state the largest worst_slack drift.
    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ("--trials", "30", "--dims", "1..8", "--seed", "7"),
                "b51961d745eed6a948289949d577ec37c0f4380669d2cdc3cd32b36be4ac3c89",
            ),
            (
                ("--trials", "2", "--dims", "32,64", "--seed", "7"),
                "fd3271629fd71a9d1da5b245d9abf2455dbd5cb2c35caa41f1c9ef43e982dd61",
            ),
        ],
    )
    def test_golden_output(self, capsys, argv, sha256):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestRepro:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "repro")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 4

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "text", "repro")
        assert code == 0
        assert "checks[0].name" in out
        assert "passed = True" in out


class TestScan:
    def test_small_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--id", "T37", "--dim", "1", "--iters", "200", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["best_ratio"] <= 1.0 + 1e-9
        assert payload["iterations"] == 200

    def test_unscannable_id_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--id", "CS_21", "--dim", "2", "--iters", "10")
        assert code == 2


class TestInputHandling:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "abs", "/nonexistent/никогда.json")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "abs", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    def test_shape_mismatch_in_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]}))
        code, _, err = run_cli(capsys, "abs", str(bad))
        assert code == 2
        assert "shape mismatch" in err

    def test_nonfinite_entries_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"rows": 1, "cols": 1, "re": [["inf"]], "im": [[0.0]]})
        )
        code, _, _ = run_cli(capsys, "abs", str(bad))
        assert code == 2

    def test_output_file(self, capsys, tmp_path, witness_files):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "--output", str(target), "angle", witness_files["x"], witness_files["y"]
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["cos"] == 0.0

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--output", str(tmp_path / "missing" / "out.json"), "repro")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "out.json" in err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_positive(self, capsys, monkeypatch, raw):
        code, _, err = run_cli(capsys, "--tol", raw, "repro")
        assert code == 2
        assert "--tol" in err
        monkeypatch.setenv("HSANGLE_TOL", raw)
        code, _, err = run_cli(capsys, "repro")
        assert code == 2
        assert "HSANGLE_TOL" in err

    def test_env_tol_override(self, capsys, monkeypatch, witness_files):
        monkeypatch.setenv("HSANGLE_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "repro")
        assert code == 2
        assert "HSANGLE_TOL" in err
        monkeypatch.setenv("HSANGLE_TOL", "1e-6")
        code, _, _ = run_cli(capsys, "repro")
        assert code == 0

    def test_seventeen_digit_text_numbers(self, capsys, witness_files):
        code, out, _ = run_cli(
            capsys, "--format", "text", "check", "--id", "T36", witness_files["x"], witness_files["y"]
        )
        assert code == 0
        for line in out.strip().splitlines():
            key, _, value = line.partition(" = ")
            if key in {"lhs", "rhs"}:
                # .17g round-trips float64 exactly
                assert float(value) == pytest.approx(2.0, abs=1e-12)
