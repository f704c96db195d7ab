import time

import numpy as np
import pytest

from hsangle import (
    ComplexMatrix,
    CounterRng,
    ENSEMBLE_KINDS,
    GeneratorSpec,
    UnknownInequalityError,
    applicable_specs,
    derive_seed,
    generate,
    hs_norm,
    is_psd,
    reproduce_witnesses,
    run_property_suite,
    run_single_trial,
    sharpness_scan,
)
from hsangle import random_lab
from hsangle.random_lab import fnv1a64, mix64


class TestPrng:
    def test_fnv1a64_reference_values(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_scalar_and_vector_mix_agree(self):
        rng = CounterRng(12345)
        bits = rng.raw(16)
        golden = 0x9E3779B97F4A7C15
        expected = [mix64((12345 + (i + 1) * golden) % 2**64) for i in range(16)]
        assert bits.tolist() == expected

    def test_stream_continuation(self):
        a = CounterRng(7)
        b = CounterRng(7)
        split = np.concatenate([a.uniforms(5), a.uniforms(5)])
        whole = b.uniforms(10)
        assert np.array_equal(split, whole)

    def test_uniform_range_and_determinism(self):
        u = CounterRng(99).uniforms(10000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)
        assert np.array_equal(u, CounterRng(99).uniforms(10000))
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        z = CounterRng(3).normals(100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_complex_normal_unit_variance(self):
        c = CounterRng(4).complex_normals(50000)
        assert abs(np.mean(np.abs(c) ** 2) - 1.0) < 0.03

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(1, "trial:T37", i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(1, "a", 0) != derive_seed(1, "b", 0)
        assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)


class TestGenerate:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("gaussian", 4, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("ginibre", 0, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("ginibre", 65, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("ginibre", 4, -1)

    def test_deterministic_and_seed_sensitive(self):
        a = generate(GeneratorSpec("ginibre", 5, 11))
        b = generate(GeneratorSpec("ginibre", 5, 11))
        c = generate(GeneratorSpec("ginibre", 5, 12))
        assert np.array_equal(a.a, b.a)
        assert not np.array_equal(a.a, c.a)

    def test_hermitian_exact(self):
        for seed in range(10):
            m = generate(GeneratorSpec("hermitian", 6, seed))
            assert np.array_equal(m.a, m.a.conj().T)

    def test_normal_commutes(self):
        for seed in range(10):
            m = generate(GeneratorSpec("normal", 6, seed)).a
            dev = np.linalg.norm(m @ m.conj().T - m.conj().T @ m)
            assert dev <= 1e-12 * (1.0 + np.linalg.norm(m) ** 2)

    def test_unitary_orthonormal(self):
        for seed in range(10):
            u = generate(GeneratorSpec("unitary", 6, seed)).a
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12

    def test_psd_is_psd(self):
        for seed in range(10):
            assert is_psd(generate(GeneratorSpec("psd", 5, seed)), 1e-10)

    def test_rank_deficient_rank(self):
        for dim in (2, 5, 8):
            for seed in range(5):
                m = generate(GeneratorSpec("rank_deficient", dim, seed)).a
                s = np.linalg.svd(m, compute_uv=False)
                rank = int(np.sum(s > 1e-10 * s[0]))
                assert rank == (dim + 1) // 2

    def test_ginibre_entry_scale(self):
        m = generate(GeneratorSpec("ginibre", 8, 123)).a
        assert abs(np.mean(np.abs(m) ** 2) - 1.0) < 0.3


class TestPropertySuite:
    def specs(self, dims=(2, 3, 4)):
        return [GeneratorSpec(kind, d) for kind in ENSEMBLE_KINDS for d in dims]

    def test_deterministic_reports(self):
        a = run_property_suite(["CS_21", "T35"], self.specs(), 50, 1e-9, 42)
        b = run_property_suite(["CS_21", "T35"], self.specs(), 50, 1e-9, 42)
        assert a == b

    def test_cs21_never_violates(self):
        specs = [GeneratorSpec("ginibre", 4)]
        (report,) = run_property_suite(["CS_21"], specs, 1000, 1e-9, 7)
        assert report.violations == 0
        assert report.trials == 1000
        assert report.worst_slack >= -1e-9
        assert report.ensembles == ("ginibre",)

    def test_worst_seed_replays(self):
        specs = self.specs()
        (report,) = run_property_suite(["T35"], specs, 200, 1e-9, 99)
        rep = run_single_trial("T35", applicable_specs("T35", specs), report.worst_seed, 1e-9)
        assert rep.slack / rep.scale == report.worst_slack

    def test_r33_restricted_to_normal_ensembles(self):
        (report,) = run_property_suite(["R33"], self.specs(), 100, 1e-9, 5)
        assert set(report.ensembles) == {"hermitian", "normal", "psd", "unitary"}
        assert report.violations == 0

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownInequalityError):
            run_property_suite(["NOPE"], self.specs(), 10, 1e-9, 0)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_property_suite(["CS_21"], self.specs(), 0, 1e-9, 0)

    def test_json_shape(self):
        (report,) = run_property_suite(["T31"], self.specs(), 20, 1e-9, 1)
        d = report.to_json_dict()
        assert set(d) == {"id", "trials", "violations", "worst_slack", "worst_seed", "ensembles"}


class TestRepro:
    def test_all_targets_met_quickly(self):
        t0 = time.perf_counter()
        report = reproduce_witnesses()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert report.passed
        names = [c.name for c in report.checks]
        assert len(names) == 4
        by_name = {c.name: c for c in report.checks}
        assert by_name["norm(|X*|+|Y*|)"].deviation <= 1e-12
        assert by_name["sqrt(2)*norm(|X|+|Y|)"].deviation <= 1e-12
        assert by_name["norm(X+Z)"].deviation <= 1e-9
        assert by_name["sum_sharp_constant*norm(|X|+|Z|)"].deviation <= 1e-9


class TestSharpnessScan:
    def test_dim1_never_exceeds_one(self):
        result = sharpness_scan("T37", 1, 1000, 21)
        assert result.best_ratio <= 1.0 + 1e-9

    def test_deterministic(self):
        a = sharpness_scan("T36", 2, 2000, 13)
        b = sharpness_scan("T36", 2, 2000, 13)
        assert a.best_ratio == b.best_ratio
        assert np.array_equal(a.witness_x.a, b.witness_x.a)

    def test_quick_scans_make_progress(self):
        r37 = sharpness_scan("T37", 2, 15000, 0)
        assert r37.best_ratio >= 0.99 * r37.target
        assert r37.best_ratio <= r37.target * (1.0 + 1e-9)
        r36 = sharpness_scan("T36", 2, 15000, 0)
        assert r36.best_ratio >= 0.99 * r36.target
        assert r36.best_ratio <= r36.target * (1.0 + 1e-9)

    def test_r33_normal_parameterization(self):
        result = sharpness_scan("R33", 2, 3000, 5)
        assert result.best_ratio <= 1.0 + 1e-9
        assert result.best_ratio >= 0.99
        # witnesses must actually be normal matrices
        for w in (result.witness_x, result.witness_y):
            m = w.a
            assert np.linalg.norm(m @ m.conj().T - m.conj().T @ m) <= 1e-10 * (
                1.0 + np.linalg.norm(m) ** 2
            )

    def test_witness_pair_reproduces_ratio(self):
        result = sharpness_scan("T37", 2, 5000, 3)
        from hsangle import abs_op

        num = hs_norm(ComplexMatrix(result.witness_x.a + result.witness_y.a))
        den = hs_norm(ComplexMatrix(abs_op(result.witness_x).a + abs_op(result.witness_y).a))
        assert abs(num / den - result.best_ratio) <= 1e-12

    def test_unscannable_id_rejected(self):
        with pytest.raises(ValueError):
            sharpness_scan("CS_21", 2, 100, 0)

    @pytest.mark.parametrize("iid", ["T36", "T37", "C32", "R33"])
    def test_exact_evaluation_budget(self, monkeypatch, iid):
        calls = 0
        ratio_for = random_lab._ratio_for

        def counting_ratio_for(inequality_id):
            ratio = ratio_for(inequality_id)

            def counted(x, y):
                nonlocal calls
                calls += 1
                return ratio(x, y)

            return counted

        monkeypatch.setattr(random_lab, "_ratio_for", counting_ratio_for)
        for n in (1, 101, 250):
            calls = 0
            sharpness_scan(iid, 2, n, 0)
            assert calls == n

    def test_json_shape(self):
        d = sharpness_scan("T37", 1, 50, 0).to_json_dict()
        assert set(d) == {"id", "best_ratio", "target", "iterations", "witness_x", "witness_y"}
