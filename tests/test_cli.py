import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hsangle
from hsangle import ComplexMatrix, GeneratorSpec, abs_op, check, generate, scale, witness_triple
from hsangle.cli import _COMMANDS, main
from hsangle.scan import (
    _SCAN_RESTARTS, _SLICE_POLISH_FEV, _SLICE_RESTARTS, _SLICE_SHARE, _largest_fit,
)


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

    # Every entry of y is 1.7e308, in float64's top binade, so sigma_1 of y
    # exceeds float64's maximum: the SVD gives non-finite moduli, and the
    # cosines over them are finite and wrong (T214ii lhs 0.148, rhs 0.0;
    # T214iii lhs 2.0, rhs 1.956).  Both ids have degree 0, so a scale-free
    # answer exists, and the pair holds once scaled by a power of two.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("inequality_id", ["T214ii", "T214iii"])
    def test_top_binade_operand_holds(self, capsys, tmp_path, inequality_id):
        top = ComplexMatrix(np.full((3, 3), 1.7e308, dtype=complex))
        x = write_matrix(tmp_path / "x.json", generate(GeneratorSpec("ginibre", 3, 1)))
        y = write_matrix(tmp_path / "y.json", top)
        code, out, _ = run_cli(capsys, "check", "--id", inequality_id, x, y)
        assert code == 0 and json.loads(out)["holds"] is True


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

    @pytest.mark.parametrize("dims", ["1..10000000000000000000", "1..100000000000000000"])
    def test_dims_range_beyond_max_dim_exits_2_before_it_is_built(self, capsys, dims):
        # Building either range would fail: the first overflows list(), the
        # second raises a MemoryError without a message.
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--dims", dims)
        assert code == 2 and out == ""
        assert err == f"error: --dims must name dimensions in 1..64, got {dims!r}\n"

    def test_error_without_a_message_is_named_by_its_class(self, capsys, monkeypatch):
        def fail(args):
            raise MemoryError()

        monkeypatch.setitem(_COMMANDS, "repro", fail)
        code, out, err = run_cli(capsys, "repro")
        assert code == 2 and out == ""
        assert err == "error: MemoryError\n"

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_trials_too_many_to_allocate_exit_2(self, capsys):
        # The first array of 2**55 trials takes 2**58 bytes, beyond any
        # address space, so the allocation fails at once.
        code, out, err = run_cli(capsys, "verify", "--trials", str(2**55), "--dims", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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

    def test_unknown_id_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--id", "BOGUS", "--dim", "2", "--iters", "10")
        assert code == 2
        assert "unknown inequality id 'BOGUS'; known: CS_21" in err

    def test_dim_over_the_simplex_cap_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--id", "T37", "--dim", "64", "--iters", "100000")
        assert code == 2 and out == ""
        assert "256 MiB" in err and "the largest dim that fits is 38" in err
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        assert "256 MiB" in capsys.readouterr().out

    def test_help_states_the_dims_that_the_simplex_cap_gives(self, capsys):
        # The largest dims at which every restart's simplex, and one, fit
        # the cap: T37's free pair, then R33's normal pair with its two
        # diagonals; and the restarts in the gauge-fixed slice, which follow
        # the budget.
        (all_raw, all_normal), (one_raw, one_normal) = (
            [_largest_fit(iid, k) for iid in ("T37", "R33")] for k in (_SCAN_RESTARTS, 1)
        )
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert (
            f"{_SCAN_RESTARTS} Nelder-Mead restarts run in lockstep "
            f"(where a scan fixes X diagonal, 1 to {_SLICE_RESTARTS}: one per "
            f"{_SLICE_POLISH_FEV}-evaluation polish in {_SLICE_SHARE} of --iters)"
        ) in text
        assert (
            f"fewer than {_SCAN_RESTARTS} restarts run above dim {all_raw} ({all_normal} for R33), "
            f"and a dim above {one_raw} ({one_normal} for R33)"
        ) in text


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv", [["check", "--id", "T34"], ["angle"], ["--format", "text", "angle"]]
    )
    def test_result_outside_float64_exits_2(self, tmp_path, argv):
        # For 1e160-scaled operands norm(X+Y)^2, a side of T34, and <X, Y>
        # are about 1e321: outside float64.
        self.assert_exits_2(tmp_path, argv, 1e160, 3)

    @pytest.mark.parametrize("inequality_id", ["T214ii", "T37"])
    def test_in_range_sides_of_large_operands_answer(self, tmp_path, inequality_id):
        # The norms of 1e160-scaled operands, about 3e160, are in range, and
        # so are the sides of T37; T214ii's sides are cosines, of degree 0.
        proc = self.run_scaled(tmp_path, ["check", "--id", inequality_id], 1e160, 3, "normal")
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        x, y = (generate(GeneratorSpec("normal", 3, s)) for s in (0, 1))
        base = check(inequality_id, x, y)
        assert got["holds"] is base.holds is True
        if inequality_id == "T214ii":
            for side in ("lhs", "rhs"):
                want = getattr(base, side)
                assert abs(got[side] - want) <= 4 * np.spacing(want)

    def test_inner_product_modulus_outside_float64_exits_2(self, tmp_path):
        # At 1e154 the parts of <X, Y> are finite but its modulus is not.
        self.assert_exits_2(tmp_path, ["check", "--id", "CS_21"], 1e154, 2)

    def test_squared_inner_product_outside_float64_exits_2(self, tmp_path):
        # At 1e154 |<X, Y>| is finite but its square, a side of T213, is not.
        self.assert_exits_2(tmp_path, ["check", "--id", "T213"], 1e154, 2, "ginibre")

    @pytest.mark.parametrize("command", ["abs", "polar"])
    def test_a_decomposition_that_overflows_names_the_result(self, capsys, tmp_path, command):
        # Every entry is 1.7e308, so sigma_1 of the 3x3 operand, 5.1e308, is
        # outside float64: the decomposition of a finite operand overflows,
        # and the error names the result, not the input.
        top = ComplexMatrix(np.full((3, 3), 1.7e308, dtype=complex))
        code, out, err = run_cli(capsys, command, write_matrix(tmp_path / "top.json", top))
        assert code == 2 and out == ""
        assert "result outside float64" in err and "overflowed" in err
        assert "non-finite entry" not in err

    def test_the_2x2_closed_form_takes_a_top_binade_operand(self, capsys, tmp_path):
        # The closed form scales the 2x2 operand, and |X| = X here.
        top = ComplexMatrix(np.full((2, 2), 1.7e308, dtype=complex))
        code, out, _ = run_cli(capsys, "abs", write_matrix(tmp_path / "top.json", top))
        assert code == 0 and json.loads(out)["re"] == top.a.real.tolist()

    def test_overflow_warnings_stay_off_stderr(self, tmp_path):
        # numpy warns of the overflow in the square; stderr holds only the
        # one error line.
        proc = self.run_scaled(tmp_path, ["check", "--id", "T213"], 1e154, 2, "ginibre")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    @staticmethod
    def run_scaled(tmp_path, argv, factor, dim, kind):
        """The CLI on two operands of the ensemble scaled by factor, run as a
        user runs it, outside the test run's warning filter."""
        specs = (GeneratorSpec(kind, dim, s) for s in (0, 1))
        x, y = (
            write_matrix(tmp_path / f"{s.seed}.json", scale(factor, generate(s))) for s in specs
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hsangle.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "hsangle.cli", *argv, x, y],
            capture_output=True, text=True, env=env, timeout=120,
        )

    @classmethod
    def assert_exits_2(cls, tmp_path, argv, factor, dim, kind="normal"):
        proc = cls.run_scaled(tmp_path, argv, factor, dim, kind)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "outside float64" in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error:")
        assert "Traceback" not in proc.stderr


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

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, "abs", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed JSON in {bad}")

    def test_integer_beyond_float64_exits_2(self, capsys, tmp_path, witness_files):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 1, "cols": 1, "re": [[1' + "0" * 400 + ']], "im": [[0]]}')
        code, out, err = run_cli(capsys, "angle", str(bad), witness_files["x"])
        assert (code, out) == (2, "")
        assert err.startswith("error: matrix JSON entries not numeric")

    @pytest.mark.parametrize(
        "re, im, refused",
        [([["2.5", True]], [[0, False]], "re entries must be numbers, got JSON string"),
         ([[1.0, 2.0]], [[0, None]], "im entries must be numbers, got JSON null")],
        ids=["string", "null"],
    )
    def test_entry_that_is_not_a_json_number_exits_2(self, capsys, tmp_path, re, im, refused):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 1, "cols": 2, "re": re, "im": im}))
        code, out, err = run_cli(capsys, "abs", str(bad))
        assert (code, out, err) == (2, "", f"error: matrix JSON {refused}\n")

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

    @pytest.mark.parametrize("command", ["abs", "polar"])
    def test_lapack_failure_exits_2(self, capsys, tmp_path, monkeypatch, command):
        # At 3x3 both commands take the SVD.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        x = write_matrix(tmp_path / "x.json", generate(GeneratorSpec("ginibre", 3, 1)))
        monkeypatch.setattr(np.linalg, "svd", failing)
        code, out, err = run_cli(capsys, command, x)
        assert (code, out) == (2, "")
        assert err == "error: singular value decomposition failed: SVD did not converge\n"

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
    def test_tol_must_be_finite_and_positive(self, capsys, raw):
        code, _, err = run_cli(capsys, "--tol", raw, "repro")
        assert code == 2
        assert "--tol" in err

    def test_environment_sets_no_tolerance(self, capsys, monkeypatch):
        # Output depends on argv and input files only: no command reads a
        # tolerance from the environment.
        argv = ("verify", "--trials", "30", "--dims", "1..8", "--seed", "7")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        for raw in ("1e-300", "abc"):
            monkeypatch.setenv("HSANGLE_TOL", raw)
            assert run_cli(capsys, *argv) == expected
            assert run_cli(capsys, "repro")[0] == 0

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
