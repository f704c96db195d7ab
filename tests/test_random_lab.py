import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hsangle import (
    ComplexMatrix,
    CounterRng,
    ENSEMBLE_KINDS,
    INEQUALITY_IDS,
    GeneratorSpec,
    UnknownInequalityError,
    ValidationError,
    applicable_specs,
    derive_seed,
    generate,
    hs_norm,
    is_normal,
    is_psd,
    reproduce_witnesses,
    run_property_suite,
    run_single_trial,
    sharpness_scan,
)
import hsangle
from hsangle import scan
from hsangle.random_lab import (
    _GOLDEN,
    _MASK64,
    _OPERAND_LABELS,
    MAX_DIM,
    NORMAL_ENSEMBLE_KINDS,
    _derive_seeds,
    _draw,
    fnv1a64,
    mix64,
)
from hsangle.spectral import _exactly_hermitian
from pins import charged_points

def _unxorshift(z: int, shift: int) -> int:
    """The inverse of z ^ (z >> shift) on 64 bits, by repeating it."""
    y = z
    for _ in range(64 // shift + 1):
        y = z ^ (y >> shift)
    return y


def _unmix64(z: int) -> int:
    """The inverse of mix64: each xor-shift undone, each multiplier by its
    inverse mod 2^64."""
    z = _unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return _unxorshift(z, 30)


def _seed_with_unit_uniform(position: int, low: int = 0) -> int:
    """A seed whose stream's uniform number `position` (1-based) is exactly 1,
    so that a Box-Muller radius there is sqrt(-0.0) = -0.0."""
    z = _unmix64((_MASK64 ^ 2047) | low)
    return (z - position * _GOLDEN) & _MASK64


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

    def test_unmix64_inverts_mix64(self):
        for z in (0, 1, 2**63, _MASK64, 0x123456789ABCDEF0):
            assert mix64(_unmix64(z)) == z and _unmix64(mix64(z)) == z
        assert CounterRng(_seed_with_unit_uniform(3)).uniforms(4)[2] == 1.0

    # Seed arrays of shape (), (k,) and (2, k); the last ones reach u1 = 1 at
    # the first, the second and the third pair of their streams.
    SEED_SHAPES = [
        np.uint64(12345),
        np.array([0, 7, 2**63, _MASK64], dtype=np.uint64),
        np.array(
            [[_seed_with_unit_uniform(1), _seed_with_unit_uniform(3, 5)],
             [_seed_with_unit_uniform(5, 2047), 99]],
            dtype=np.uint64,
        ),
    ]

    @pytest.mark.parametrize("seeds", SEED_SHAPES, ids=["()", "(k,)", "(2, k)"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 4096])
    def test_complex_normals_follow_the_contract(self, seeds, n):
        # The module docstring's contract, (z[2k] + i z[2k+1]) / sqrt(2) of
        # z = normals(2 n), bit for bit, signed zeros included; the stream
        # goes on from the same counter.
        a, b = CounterRng(seeds), CounterRng(seeds)
        z = b.normals(2 * n)
        expected = (z[..., 0::2] + 1j * z[..., 1::2]) / math.sqrt(2.0)
        got = a.complex_normals(n)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert a.raw(3).tobytes() == b.raw(3).tobytes()

    def test_unit_uniform_gives_a_positive_zero(self):
        # Where u1 = 1 the radius is -0.0; the contract's complex division
        # gives +0.0 to both parts, whatever the signs of cos and sin.
        for position, low in ((1, 0), (1, 5), (1, 2047), (3, 0), (3, 1)):
            c = CounterRng(_seed_with_unit_uniform(position, low)).complex_normals(2)
            zero = c[(position - 1) // 2]
            assert zero.tobytes() == np.complex128(0.0).tobytes()

    def test_operand_seeds_are_derive_seed(self):
        # The operand seeds run_property_suite takes, _derive_seeds(t,
        # label, 0) for each of _OPERAND_LABELS, are derive_seed(t,
        # "operand-x"/"operand-y", 0), for a numpy scalar and a 0-d trial
        # seed too, with no uint64 scalar left to warn about overflow.
        seeds = [derive_seed(3, "trial:T37", i) for i in range(50)] + [0, _MASK64]
        seeds = np.array(seeds, dtype=np.uint64)
        assert _OPERAND_LABELS == ("operand-x", "operand-y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = [_derive_seeds(seeds, label, 0) for label in _OPERAND_LABELS]
            scalar = [_derive_seeds(np.uint64(seeds[0]), label, 0) for label in _OPERAND_LABELS]
            zero_d = [_derive_seeds(np.array(seeds[-1]), label, 0) for label in _OPERAND_LABELS]
            trial = _derive_seeds(np.uint64(_MASK64), "trial:T37", np.arange(50, dtype=np.uint64))
        for row, one, last, label in zip(both, scalar, zero_d, _OPERAND_LABELS):
            assert row.shape == seeds.shape and row.dtype == np.uint64
            assert row.tolist() == [derive_seed(int(t), label, 0) for t in seeds]
            assert one.shape == last.shape == ()
            assert one.item() == row[0] and last.item() == row[-1]
        assert trial.tolist() == [derive_seed(_MASK64, "trial:T37", i) for i in range(50)]
        assert seeds[-1] == _MASK64  # the input is not mixed in place

    @pytest.mark.parametrize("master, index, name, value", [
        (-1, 0, "master_seed", -1), (2**64, 0, "master_seed", 2**64), (0, -1, "index", -1),
        (0, 2**64, "index", 2**64),
    ])
    def test_derive_seed_refuses_a_value_outside_64_bits(self, master, index, name, value):
        # Each once ran as its value mod 2^64.
        with pytest.raises(ValueError, match=f"{name} must be an unsigned 64-bit integer, got {value}$"):
            derive_seed(master, "x", index)
        top = mix64(mix64(mix64(_MASK64) ^ fnv1a64(b"x")) ^ _MASK64)
        assert derive_seed(_MASK64, "x", _MASK64) == top

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_counter_rng_refuses_an_int_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an unsigned 64-bit integer, got {seed}$"):
            CounterRng(seed)
        # An array of signed seeds is refused, not cast to uint64.
        with pytest.raises(TypeError, match="seeds must be an int or uint64, got int64"):
            CounterRng(np.array([-1, 7]))
        # A uint64 seed array keeps its top value's bits.
        top = np.array([_MASK64], dtype=np.uint64)
        assert CounterRng(top).raw(4)[0].tolist() == CounterRng(_MASK64).raw(4).tolist()
        assert CounterRng(_MASK64).raw(1)[0] == mix64((_MASK64 + _GOLDEN) & _MASK64)

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

    @pytest.mark.parametrize("kind", NORMAL_ENSEMBLE_KINDS)
    def test_every_normal_kind_draw_is_normal(self, kind):
        # verify tests no R33 operand for normality: it admits only these
        # kinds, so each of their draws must pass is_normal at every dim.
        # Every hermitian and psd draw is exactly Hermitian, whatever the
        # matmul kernel, so its moduli take eigh on every machine.
        for dim in range(1, MAX_DIM + 1):
            seeds = np.arange(64 if dim <= 8 else 8, dtype=np.uint64) + np.uint64(dim << 32)
            draws = _draw(kind, dim, seeds)
            assert all(is_normal(ComplexMatrix(m)) for m in draws)
            assert kind not in ("hermitian", "psd") or _exactly_hermitian(draws).all()

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
        for dims, trials in ((range(1, 9), 200), ((32, 64), 6)):
            specs = self.specs(dims)
            for report in run_property_suite(INEQUALITY_IDS, specs, trials, 1e-9, 99):
                iid = report.inequality_id
                rep = run_single_trial(iid, specs, report.worst_seed, 1e-9)
                replayed = np.float64(rep.slack / rep.scale)
                assert replayed.tobytes() == np.float64(report.worst_slack).tobytes()

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.5])
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, tol):
        # With a NaN tol every trial would count as a violation, and with
        # -0.5 about half of them; an infinite tol would hide violations.
        specs = [GeneratorSpec("ginibre", 2), GeneratorSpec("normal", 2)]
        match = f"tol must be finite and positive, got {tol!r}"
        with pytest.raises(ValidationError, match=match):
            run_property_suite(["CS_21"], specs, 20, tol, 1)
        with pytest.raises(ValidationError, match=match):
            run_single_trial("CS_21", specs, 1, tol)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        # Each of these seeds once ran as 2^64 - 1, its value mod 2^64.
        specs = self.specs()
        with pytest.raises(ValueError, match=f"master_seed must be an unsigned 64-bit integer, got {seed}"):
            run_property_suite(["CS_21"], specs, 2, 1e-9, seed)
        with pytest.raises(ValueError, match=f"trial_seed must be an unsigned 64-bit integer, got {seed}"):
            run_single_trial("CS_21", specs, seed, 1e-9)
        top = run_property_suite(["CS_21"], specs, 2, 1e-9, 2**64 - 1)
        assert top[0].trials == 2

    def test_a_run_of_no_ids_reports_nothing(self):
        specs = [GeneratorSpec("ginibre", 2), GeneratorSpec("normal", 3)]
        assert run_property_suite([], specs, 5) == []
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_property_suite([], specs, 0)

    def test_an_id_that_admits_none_of_the_specs_is_refused(self):
        with pytest.raises(ValueError, match="no applicable ensembles for R33"):
            applicable_specs("R33", [GeneratorSpec("ginibre", 2)])

    def test_a_trial_without_specs_is_refused(self):
        with pytest.raises(ValueError, match="no ensembles to pick from for T37"):
            run_single_trial("T37", [], 1, 1e-9)

    def test_json_shape(self):
        (report,) = run_property_suite(["T31"], self.specs(), 20, 1e-9, 1)
        d = report.to_json_dict()
        assert list(d) == ["id", "trials", "violations", "worst_slack", "worst_seed", "ensembles"]
        assert d["id"] == "T31" and d["ensembles"] == list(report.ensembles)


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


class _FirstStack(Exception):
    """Stops a scan at its first charge, carrying the size of that stack."""


def _first_stack(monkeypatch, *args) -> int:
    """The number of points in the first stack that sharpness_scan(*args)
    charges, the initial simplices of every restart; the scan stops there."""

    def stop(budget, points, f=None):
        raise _FirstStack(len(points))

    with monkeypatch.context() as m:
        m.setattr(scan._Budget, "charge", stop)
        with pytest.raises(_FirstStack) as stopped:
            sharpness_scan(*args)
    return stopped.value.args[0]


class TestSharpnessScan:
    def test_dim1_never_exceeds_one(self):
        result = sharpness_scan("T37", 1, 1000, 21)
        assert result.best_ratio <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=f"master_seed must be an unsigned 64-bit integer, got {seed}"):
            sharpness_scan("T37", 1, 50, seed)
        assert sharpness_scan("T37", 1, 50, 2**64 - 1).iterations == 50

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

    def test_small_budget_allocates_only_the_simplices_it_evaluates(self):
        # At dim 16 one simplex of T37's 1024 parameters holds 8 MiB; six
        # restarts and their copies held about 270 MiB for ten evaluations.
        tracemalloc.start()
        try:
            sharpness_scan("T37", 16, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("iid, dim, largest", [("T37", 64, 38), ("T36", 39, 38), ("R33", 38, 37)])
    def test_a_simplex_over_the_cap_is_refused_before_any_allocation(self, iid, dim, largest):
        # One T37 simplex at dim 64 holds 2 GiB; the refusal allocates none of it.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"largest dim that fits is {largest}$"):
                sharpness_scan(iid, dim, 100_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_polish_in_the_slice_takes_at_most_its_evaluations(self, monkeypatch):
        # With one restart every charge of n + 1 points is the initial
        # simplex of a polish, so the charges between two of them are one
        # polish.  At this seed the first four polishes run to the slice's
        # limit, an eighth of the free pairs' 6000.
        decode, n, _, polish = scan._search_space("T37", 2, 3250)
        sizes, charge = [], scan._Budget.charge

        def recording_charge(budget, points, f=None):
            sizes.append(min(len(points), budget.left))
            return charge(budget, points, f)

        monkeypatch.setattr(scan._Budget, "charge", recording_charge)
        def one_restart(iid, dim, budget):
            return decode, n, 1, polish

        monkeypatch.setattr(scan, "_search_space", one_restart)
        sharpness_scan("T37", 2, 3250, 2)
        polishes = []
        for size in sizes:
            if size == n + 1:
                polishes.append(0)
            polishes[-1] += size
        assert polish == scan._SLICE_POLISH_FEV == 750
        assert len(polishes) == 5 and max(polishes) <= polish
        assert min(polishes[:4]) >= polish - 1

    @pytest.mark.parametrize("fit", [36, 18, 9, 7, 6, 2, 1])
    def test_restarts_fit_the_simplex_cap(self, monkeypatch, fit):
        # T37 at dim 2 searches the slice's n = 10 parameters, with 36
        # restarts at 100 000 evaluations, so a simplex holds 8 n (n + 1)
        # bytes.  The first stack charged is the initial simplices of every
        # restart; where all 36 restarts fit, the cap changes nothing.
        n, restarts = scan._search_space("T37", 2, 100_000)[1:3]
        simplex = 8 * n * (n + 1)
        default = sharpness_scan("T37", 2, 100_000, 7) if fit == restarts else None
        monkeypatch.setattr(scan, "_SCAN_SIMPLEX_BYTES", (fit + 1) * simplex - 1)
        assert (n, restarts) == (10, 36)
        assert _first_stack(monkeypatch, "T37", 2, 100_000, 7) == fit * (n + 1)
        if default is not None:
            result = sharpness_scan("T37", 2, 100_000, 7)
            assert result.best_ratio == default.best_ratio
            assert result.witness_x.a.tobytes() == default.witness_x.a.tobytes()
        monkeypatch.setattr(scan, "_SCAN_SIMPLEX_BYTES", simplex - 1)
        with pytest.raises(ValueError, match="largest dim that fits is 1$"):
            sharpness_scan("T37", 2, 100_000, 7)

    @pytest.mark.parametrize("iid", ["T37", "T36"])
    def test_the_slice_width_follows_the_budget(self, monkeypatch, iid):
        # Restarts x polish is held at 0.27 of the budget, with polishes of
        # 750 and 1 to 36 restarts.  A budget below one polish starts as
        # many restarts as its initial simplices of 11 points (the slice's
        # n = 10 parameters, plus one) reach.
        widths = {b: _first_stack(monkeypatch, iid, 2, b, 0) / 11
                  for b in (200, 4_000, 20_000, 100_000)}
        assert widths == {200: 19, 4_000: 1, 20_000: 7, 100_000: 36}

    @pytest.mark.parametrize("iid, seed", [("T37", 2), ("T37", 21), ("T36", 42), ("T36", 6)])
    def test_a_short_scan_in_the_slice_ends_in_the_band(self, iid, seed):
        # With 18 restarts of 1500 evaluations at every budget, these
        # 20 000-evaluation scans ended below 0.999 of the target, at
        # 0.98984, 0.99290, 0.99859 and 0.99848; with the 7 restarts of 750
        # that the budget now gives, at 0.999898, 0.999968, 1.0 and 1.0.
        result = sharpness_scan(iid, 2, 20_000, seed)
        assert 0.999 * result.target <= result.best_ratio <= result.target * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [4268117012, 3017, 1017, 1020])
    def test_the_stalled_seeds_end_in_the_band(self, seed):
        # 4268117012 is run_seed("scan_sharp", 4) of perfbench/workloads.py:
        # T37 ended at 0.9998975 of its target there when it searched free
        # pairs with seven restarts.  At 3017 it ended at 0.9998058 in the
        # slice with polishes of 6000 evaluations.  1017 was the worst of
        # 1000-1299 with nine restarts and polishes of 3000 (0.9999370), and
        # 1020 with 18 and polishes of 1500 (0.9999511).  With 36 restarts
        # and polishes of 750, at native dispatch, the four end at
        # 0.9999999, 0.9999960, 0.9999993 and 0.9999994.
        result = sharpness_scan("T37", 2, 100_000, seed)
        assert 0.9999 * result.target <= result.best_ratio <= result.target * (1.0 + 1e-9)

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

    def test_normal_codec_decodes_a_singular_point_without_warnings(self):
        # A zero on the diagonal of R keeps the phase 1 instead of dividing
        # 0 by 0; the pair is V diag(0) V*, so zero.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xy = scan._normal_pair(np.zeros(24), 2)
        assert xy.shape == (2, 1, 2, 2) and not xy.any()

    def test_witness_pair_reproduces_ratio(self):
        result = sharpness_scan("T37", 2, 5000, 3)
        from hsangle import abs_op

        num = hs_norm(ComplexMatrix(result.witness_x.a + result.witness_y.a))
        den = hs_norm(ComplexMatrix(abs_op(result.witness_x).a + abs_op(result.witness_y).a))
        assert abs(num / den - result.best_ratio) <= 1e-12

    def test_unscannable_id_rejected(self):
        with pytest.raises(ValueError):
            sharpness_scan("CS_21", 2, 100, 0)

    @pytest.fixture
    def charged(self, monkeypatch):
        """The parameter rows that sharpness_scan charges to its budget, in
        order."""
        rows = []
        charge = scan._Budget.charge

        def recording_charge(budget, points, f=None):
            rows.extend(points[: budget.left])
            return charge(budget, points, f)

        monkeypatch.setattr(scan._Budget, "charge", recording_charge)
        return rows

    @pytest.mark.parametrize("iid", ["T36", "T37", "C32", "R33"])
    def test_exact_evaluation_budget(self, monkeypatch, charged, iid):
        points = 0
        ratio_for = scan._ratio_for

        def counting_ratio_for(inequality_id):
            ratio = ratio_for(inequality_id)

            def counted(xy):
                nonlocal points
                points += xy.shape[1]
                return ratio(xy)

            return counted

        monkeypatch.setattr(scan, "_ratio_for", counting_ratio_for)
        # The charged points sum to the budget, also where it is smaller than
        # the first stack, the initial simplices of every restart (35 to 343
        # points at these dims), which is then cut.
        for dim in (1, 2, 3):
            for n in (1, 7, 101, 250, 1000):
                m, restarts = scan._search_space(iid, dim, n)[1:3]
                points, charged[:] = 0, []
                sharpness_scan(iid, dim, n, 0)
                assert len(charged) == n
                # The ratio sees exactly the charged points, except at dim 2
                # once the initial simplices are charged (119 points for C32,
                # 175 for R33; for T36 and T37 in the slice, more than 250
                # below one polish, and 11 at 1000): a step there also
                # values the points it does not take.  A scan whose budget
                # ends in its initial simplices evaluates nothing after them.
                if dim == 2 and n > restarts * (m + 1):
                    assert points > n
                else:
                    assert points == n

    # R33 at dim 1 meets the stop rules after 680 of the 900 evaluations.
    @pytest.mark.parametrize("iid, dim, n, stops", [("T37", 2, 748, False), ("R33", 1, 900, True)])
    def test_one_restart_evaluates_the_points_of_scipy_nelder_mead(self, iid, dim, n, stops):
        # The reference: scipy's Nelder-Mead from the same start point, with
        # the same stop rules and the budget as its maxfev.  Below the polish
        # limit no polish ends where scipy's run would go on.
        minimize = pytest.importorskip("scipy.optimize").minimize
        charged = charged_points(iid, dim, n, 4)
        decode, nparams, _, polish = scan._search_space(iid, dim, n)
        assert n <= polish - 2
        ratio, seen = scan._ratio_for(iid), []

        def objective(p):
            seen.append(p.copy())
            return -ratio(decode(p, dim))[0]

        x0 = CounterRng(derive_seed(4, "scan:" + iid, dim)).normals(nparams)
        result = minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxfev": n, "xatol": 1e-13, "fatol": 1e-14},
        )
        m = len(seen)
        assert len(charged) == n and (m < n) == stops
        assert all(a.tobytes() == b.tobytes() for a, b in zip(charged, seen))
        if stops:
            # The chain's next polish starts from the best vertex.
            assert charged[m].tobytes() == result.x.tobytes()

    # T37's chains run their _SCAN_POLISH_CHAIN = 4 links.  Each chained
    # polish of R33 gains no more than 1e-15 on the polish before, so a fresh
    # start follows it.
    @pytest.mark.parametrize("iid, dim, n, seed, starts", [
        ("T37", 2, 6000, 2, "fresh chained chained chained fresh chained chained chained"),
        ("R33", 1, 3000, 4, "fresh chained fresh chained fresh"),
    ])
    def test_a_restart_chains_its_polishes_while_they_gain(self, iid, dim, n, seed, starts):
        # With one restart, a polish begins at m + 1 charged rows that are its
        # initial simplex: row k + 1 differs from row 0 in coordinate k alone.
        # Its start is fresh when it is the stream's next normal draw, and
        # chained when it is the best charged row of the polish before.
        rows = np.array(charged_points(iid, dim, n, seed))
        decode, m = scan._search_space(iid, dim, n)[:2]
        ratios = np.fmax(scan._ratio_for(iid)(decode(rows, dim)), -np.inf)
        begins = [j for j in range(len(rows) - m) if all(
            np.flatnonzero(rows[j + 1 + k] != rows[j]).tolist() == [k] for k in range(m)
        )]
        rng, kinds = CounterRng(derive_seed(seed, "scan:" + iid, dim)), []
        for i, j in enumerate(begins):
            last = slice(begins[i - 1], j)
            if i and rows[j].tobytes() == rows[last][ratios[last].argmax()].tobytes():
                kinds.append("chained")
            else:
                assert rows[j].tobytes() == rng.normals(m).tobytes()
                kinds.append("fresh")
        assert " ".join(kinds) == starts

    @pytest.mark.parametrize(
        "iid, n, seed", [("T37", 3000, 1), ("T36", 3000, 2), ("C32", 2000, 3), ("R33", 2000, 4)]
    )
    def test_best_ratio_is_the_best_charged_point(self, charged, iid, n, seed):
        # At dim 2 a step values points it does not take; none of them may
        # set the best.  The best is the first charged point of the largest
        # ratio, recomputed here as one stack.
        result = sharpness_scan(iid, 2, n, seed)
        xy = scan._search_space(iid, 2, n)[0](np.array(charged), 2)
        ratios = np.fmax(scan._ratio_for(iid)(xy), -np.inf)
        i = ratios.argmax()
        assert result.best_ratio == ratios[i]
        assert result.witness_x.a.tobytes() == xy[0, i].tobytes()
        assert result.witness_y.a.tobytes() == xy[1, i].tobytes()

    def test_import_loads_no_scipy(self):
        code = "import sys, hsangle; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hsangle.__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_json_keys_in_field_order(self):
        report = reproduce_witnesses()
        d = report.to_json_dict()
        assert list(d) == ["checks", "passed"]
        for c, row in zip(report.checks, d["checks"], strict=True):
            assert list(row) == ["name", "value", "target", "tol", "deviation", "ok"]
            assert (row["deviation"], row["ok"]) == (c.deviation, c.ok)

    def test_json_shape(self):
        d = sharpness_scan("T37", 1, 50, 0).to_json_dict()
        assert set(d) == {"id", "best_ratio", "target", "iterations", "witness_x", "witness_y"}
