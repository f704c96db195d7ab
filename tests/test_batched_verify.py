"""The batched trial engine against the per-trial loop it replaces.

run_property_suite draws and checks the trials of each spec as stacks of
operands.  The reference here is the per-trial loop, kept in test code and
built on run_single_trial, the replay oracle: the JSON of both must be
byte-identical, and so must every trial's holds and slack/scale.
"""

import json
import math

import numpy as np
import pytest

from hsangle import (
    ENSEMBLE_KINDS,
    ComplexMatrix,
    INEQUALITY_IDS,
    GeneratorSpec,
    SuiteReport,
    applicable_specs,
    check,
    derive_seed,
    generate,
    run_property_suite,
    run_single_trial,
)
from hsangle import random_lab
from hsangle.inequality_suite import _check_stack
from hsangle.random_lab import _STACK_ENTRIES, _draw
from pins import GENERATE, pinned_digests


def per_trial_suite(ids, specs, trials, tol, master_seed):
    """run_property_suite as one run_single_trial per trial."""
    reports = []
    for iid in ids:
        pool = applicable_specs(iid, specs)
        violations, worst, worst_seed = 0, math.inf, 0
        for i in range(trials):
            ts = derive_seed(master_seed, "trial:" + iid, i)
            rep = run_single_trial(iid, pool, ts, tol)
            if not rep.holds:
                violations += 1
            rel = rep.slack / rep.scale
            if rel < worst:
                worst, worst_seed = rel, ts
        kinds = tuple(dict.fromkeys(s.kind for s in pool))
        reports.append(SuiteReport(iid, trials, violations, worst, worst_seed, kinds))
    return reports


def as_json(reports):
    return json.dumps([r.to_json_dict() for r in reports])


SEEDS = (0, 7, 42, 12345)
# (dims, trials per id); 9..64 is split so that each case stays short.
DIM_SETS = [
    (tuple(range(1, 9)), 120),
    ((1,), 60),
    ((1, 2), 60),
    (tuple(range(9, 23)), 8),
    (tuple(range(23, 37)), 5),
    (tuple(range(37, 51)), 3),
    (tuple(range(51, 65)), 3),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims, trials", DIM_SETS, ids=lambda v: f"{v[0]}..{v[-1]}" if isinstance(v, tuple) else str(v))
def test_json_is_byte_identical_to_the_per_trial_loop(dims, trials, seed):
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    batched = run_property_suite(INEQUALITY_IDS, specs, trials, 1e-9, seed)
    assert as_json(batched) == as_json(per_trial_suite(INEQUALITY_IDS, specs, trials, 1e-9, seed))


def test_one_check_stack_per_dim_under_the_cap(monkeypatch):
    # The trials of every ensemble of a dim share their stacks: one stack
    # per (id, dim) where the dim's trials fit in _STACK_ENTRIES // dim^2
    # pairs, else as few as fit, each within the cap.  Each (kind, dim) is
    # drawn as few times as its own trials need, so at dims 8 and 12 a draw
    # may span two stacks.  The JSON is still the per-trial loop's.
    checks, draws = [], []

    def counting_check_stack(iid, xy, tol):
        checks.append((iid, xy.shape[2], xy.shape[1]))
        return _check_stack(iid, xy, tol)

    def counting_draw(kind, dim, seeds):
        draws.append((kind, dim))
        return _draw(kind, dim, seeds)

    monkeypatch.setattr(random_lab, "_check_stack", counting_check_stack)
    monkeypatch.setattr(random_lab, "_draw", counting_draw)
    dims, trials, seed = (1, 3, 8, 12), 300, 5
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    batched = run_property_suite(INEQUALITY_IDS, specs, trials, 1e-9, seed)
    expected_checks, expected_draws = [], []
    for iid in INEQUALITY_IDS:
        pool = applicable_specs(iid, specs)
        picked = [pool[derive_seed(seed, "trial:" + iid, i) % len(pool)] for i in range(trials)]
        for dim in dims:
            step = _STACK_ENTRIES // dim**2
            at_dim = sum(s.dim == dim for s in picked)
            assert at_dim > 2 * len(pool) // len(dims)  # several kinds at each dim
            expected_checks += [(iid, dim, min(step, at_dim - i)) for i in range(0, at_dim, step)]
            for spec in pool:
                if spec.dim == dim:
                    expected_draws += [(spec.kind, dim)] * -(-picked.count(spec) // step)
    assert checks == expected_checks
    assert draws == expected_draws
    assert as_json(batched) == as_json(per_trial_suite(INEQUALITY_IDS, specs, trials, 1e-9, seed))


def test_verify_draws_only_what_the_next_stack_needs(monkeypatch):
    # _STACK_ENTRIES bounds what a check holds; drawing lazily bounds what
    # waits beside it.  Before each check, the pairs drawn but not yet
    # checked beyond the stack in hand are fewer than one stack's worth.
    events = []

    def recording_check_stack(iid, xy, tol):
        events.append(("check", xy.shape[2], xy.shape[1]))
        return _check_stack(iid, xy, tol)

    def recording_draw(kind, dim, seeds):
        events.append(("draw", dim, seeds.shape[1]))
        return _draw(kind, dim, seeds)

    monkeypatch.setattr(random_lab, "_check_stack", recording_check_stack)
    monkeypatch.setattr(random_lab, "_draw", recording_draw)
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in (1, 3, 8, 12)]
    run_property_suite(INEQUALITY_IDS, specs, 300, 1e-9, 5)
    drawn = checked = 0
    split = False
    for what, dim, pairs in events:
        if what == "draw":
            drawn += pairs
            continue
        waiting = drawn - checked - pairs
        assert 0 <= waiting < _STACK_ENTRIES // dim**2
        split |= waiting > 0
        checked += pairs
    assert drawn == checked and split


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_each_stacked_trial_is_bit_equal_to_check(inequality_id):
    kinds = ("hermitian", "normal", "psd", "unitary") if inequality_id == "R33" else ENSEMBLE_KINDS
    for kind in kinds:
        for dim in (1, 2, 3, 5, 8):
            seeds = np.arange(30, dtype=np.uint64) * np.uint64(2654435761) + np.uint64(dim)
            xy = _draw(kind, dim, np.stack((seeds, seeds + np.uint64(1))))
            holds, rel = _check_stack(inequality_id, xy, 1e-9)
            for i in range(len(seeds)):
                spec = (GeneratorSpec(kind, dim, int(s)) for s in (seeds[i], seeds[i] + np.uint64(1)))
                rep = check(inequality_id, *map(generate, spec))
                assert holds[i] == rep.holds
                assert rel[i].tobytes() == np.float64(rep.slack / rep.scale).tobytes()


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_zero_operands_follow_check(inequality_id):
    # The angle ids hold with both sides 0 on a zero operand; the others
    # evaluate their sides as usual.
    kind = "normal" if inequality_id == "R33" else "ginibre"
    a = _draw(kind, 3, np.arange(4, dtype=np.uint64))
    zero = np.zeros_like(a[0])
    xy = np.array([[zero, a[0], zero, a[1]], [a[2], zero, zero, a[3]]])
    holds, rel = _check_stack(inequality_id, xy, 1e-9)
    for i in range(xy.shape[1]):
        rep = check(inequality_id, ComplexMatrix(xy[0, i]), ComplexMatrix(xy[1, i]))
        assert holds[i] == rep.holds
        assert rel[i].tobytes() == np.float64(rep.slack / rep.scale).tobytes()
    holds, rel = _check_stack(inequality_id, xy[:, 2:3], 1e-9)
    assert holds.tolist() == [True] and rel.tolist() == [0.0]


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 17, 32, 64])
def test_stacked_draw_equals_generate(kind, dim):
    seeds = np.array([0, 1, 99, 2**63, 2**64 - 1], dtype=np.uint64)
    stack = _draw(kind, dim, seeds)
    for s, a in zip(seeds.tolist(), stack):
        assert a.tobytes() == generate(GeneratorSpec(kind, dim, s)).a.tobytes()


def test_generate_keeps_its_bits():
    # sha256 of every ensemble's draws, computed by tests/pins.py at its
    # pinned dispatch level; a change to any ensemble's bits must
    # re-baseline this and the verify digests.
    digests = pinned_digests()
    if digests is None:
        pytest.skip("this machine cannot enable numpy's X86_V3 dispatch")
    assert digests[GENERATE] == "68f6d7a3e803574d356ed4466fa6531d39b1cc9a36823247d9210324952fdc2d"
