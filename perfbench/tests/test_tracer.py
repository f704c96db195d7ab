"""The tracing wrappers must not change what hsangle computes or prints."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from tracer import HOOKS, Tracer, layer_metrics  # noqa: E402

import hsangle  # noqa: E402


def _hooked_names():
    names = [(importlib.import_module(m), a) for m, a, *_ in HOOKS]
    names.append((hsangle.matrix_core.ComplexMatrix, "__post_init__"))
    names.append((hsangle.random_lab, "_ratio_for"))
    return {(owner, attr): getattr(owner, attr) for owner, attr in names if hasattr(owner, attr)}


def _traced_verify_matches(argv):
    code, plain, _ = worker.call_cli(argv)
    before = _hooked_names()
    rec = SpanRecorder()
    with Tracer(rec):
        traced_code, traced, _ = worker.call_cli(argv, rec)
    assert _hooked_names() == before
    assert traced_code == code == 0
    assert traced.encode() == plain.encode()
    return rec


def test_traced_verify_stdout_is_byte_identical_small_dims():
    argv = ["verify", "--trials", "3", "--dims", "1..8", "--seed", "11"]
    rec = _traced_verify_matches(argv)
    trials = 3 * len(worker.IDS)
    names = {rec.name_of(i) for i in range(len(rec))}
    assert {"cli.main", "random_lab.trial", "random_lab.generate", "inequality_suite.check",
            "spectral.abs_op", "spectral.svd", "matrix_core.construct", "hs_geometry.hs_norm"} <= names
    assert sum(rec.name_of(i) == "random_lab.trial" for i in range(len(rec))) == trials


def test_traced_verify_stdout_is_byte_identical_large_dims():
    _traced_verify_matches(["verify", "--trials", "1", "--dims", "32,64", "--seed", "5"])


def test_traced_scan_returns_the_same_result():
    plain = hsangle.sharpness_scan("T37", 2, 400, 3).to_json_dict()
    rec = SpanRecorder()
    with Tracer(rec):
        traced = hsangle.sharpness_scan("T37", 2, 400, 3).to_json_dict()
    assert traced == plain
    evals = [i for i in range(len(rec)) if rec.name_of(i) == "random_lab.scan.ratio"]
    assert [rec.trace_id[i] for i in evals] == list(range(len(evals)))


def test_layer_self_times_account_for_the_traced_calls():
    argv = ["verify", "--trials", "2", "--dims", "1..4", "--seed", "2"]
    rec = SpanRecorder()
    with Tracer(rec):
        worker.call_cli(argv, rec)
    wall = rec.end[0] - rec.start[0]  # the cli.main root span
    m = layer_metrics(rec, 2 * len(worker.IDS), wall, worker.ALL_DIMS, worker.KINDS, worker.IDS)
    shares = sum(m[f"{layer}.self_share"] for layer in
                 ("random_lab", "inequality_suite", "hs_geometry", "spectral", "matrix_core"))
    cli_share = m["cli.self_ms_per_run"] * 1e6 / wall
    assert abs(shares + cli_share - 1.0) < 1e-9
    assert abs(m["trace.accounted_share"] - 1.0) < 1e-9
    assert m["spectral.svd.calls_per_op"] == m["spectral.svd.matrices_per_op"] > 0


def test_verify_failures_counts_violations_and_rejects_non_strict_json():
    argv = ["verify", "--trials", "2", "--dims", "1..2", "--seed", "0"]
    _, out, _ = worker.call_cli(argv)
    assert worker.verify_failures(out, 2) == 0
    lines = out.splitlines()
    violated = lines[0].replace('"violations": 0', '"violations": 1')
    assert worker.verify_failures("\n".join([violated] + lines[1:]), 2) == 1
    wrong_count = lines[1].replace('"trials": 2', '"trials": 3')
    assert worker.verify_failures("\n".join([lines[0], wrong_count] + lines[2:]), 2) == 2
    nan = lines[0].split('"worst_slack": ')[0] + '"worst_slack": NaN}'
    assert worker.verify_failures("\n".join([nan] + lines[1:]), 2) == 2 * len(worker.IDS)
    assert worker.verify_failures("\n".join(lines[1:]), 2) == 2 * len(worker.IDS)


def test_calls_rejected_as_a_whole_are_left_out_of_the_timing(monkeypatch):
    w = worker.WORKLOADS["verify_small"]
    monkeypatch.setattr(worker, "call_cli", lambda argv, rec=None: (2, "", (0.0, 1e-6)))
    [call] = worker.run_verify(w, 2, 0)
    assert call.failed == call.ops == 2 * len(worker.IDS) and call.interval is None

    class OffBand:
        best_ratio = 0.5

        def to_json_dict(self):
            return {"best_ratio": self.best_ratio}

    monkeypatch.setattr(hsangle, "sharpness_scan", lambda *a: OffBand())
    calls = worker.run_scans(worker.WORKLOADS["scan_sharp"], 0)
    assert [c.interval for c in calls] == [None, None]
    assert all(c.failed == c.ops == worker.SCAN_ITERATIONS for c in calls)
