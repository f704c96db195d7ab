"""The batched trial engine against the per-trial loop it replaces.

run_property_suite draws one trial sequence, as stacks of operand pairs, and
checks every id on the pairs of the trials it takes.  The reference here is
the per-trial loop, kept in test code and built on run_single_trial, the
replay oracle: the JSON of both must be byte-identical, and so must every
trial's holds and slack/scale.
"""

import functools
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
from hsangle.inequality_suite import NotNormalError, _OperandStack, _check_stack
from hsangle.matrix_core import _ct
from hsangle.random_lab import _MASK64, _STACK_ENTRIES, _draw, _trial_seeds


@functools.cache
def turns(master_seed, specs):
    """The order in which `specs` specs take turns: that of their "turns:all" hashes."""
    return sorted(range(specs), key=lambda k: derive_seed(master_seed, "turns:all", k))


def trial_seed(master_seed, i, specs):
    """The seed of trial i of the sequence with `specs` specs, one trial at
    a time: the specs take turns in the order of their "turns:all" hashes,
    and the trial's spec replaces the remainder mod specs of derive_seed's
    value, from the block below where that passes 2^64 - 1."""
    h = derive_seed(master_seed, "trial:all", i)
    seed = h - h % specs + turns(master_seed, specs)[i % specs]
    return seed if seed <= _MASK64 else seed - specs


def taken(iid, specs, trials, master_seed):
    """The (index, seed) of each trial an id takes: walking the one sequence,
    the first `trials` whose spec's kind the id admits."""
    admitted = {s.kind for s in applicable_specs(iid, specs)}
    out, i = [], 0
    while len(out) < trials:
        ts = trial_seed(master_seed, i, len(specs))
        if specs[ts % len(specs)].kind in admitted:
            out.append((i, ts))
        i += 1
    return out


def drawn_trials(ids, specs, trials, master_seed):
    """The (index, seed) of each trial some id takes, in sequence order."""
    return sorted(set().union(*(taken(iid, specs, trials, master_seed) for iid in ids)))


def per_trial_suite(ids, specs, trials, tol, master_seed):
    """run_property_suite as one run_single_trial per id and trial."""
    reports = []
    for iid in ids:
        violations, worst, worst_seed = 0, math.inf, 0
        for _, ts in taken(iid, specs, trials, master_seed):
            rep = run_single_trial(iid, specs, ts, tol)
            if not rep.holds:
                violations += 1
            rel = rep.slack / rep.scale
            if rel < worst:
                worst, worst_seed = rel, ts
        kinds = tuple(dict.fromkeys(s.kind for s in applicable_specs(iid, specs)))
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
    # The drawn trials of every ensemble of a dim share one sequence of
    # stacks, spec by spec and in trial order: one stack per dim where they
    # fit in _STACK_ENTRIES // dim^2 pairs, else as few as fit, each within
    # the cap.  Each id is checked once on each stack that holds trials it
    # takes, with a mask of those pairs.  Each (kind, dim) is drawn as few
    # times as its trials need, so at dims 8 and 12 a draw may span two
    # stacks.  The JSON is still the per-trial loop's.
    checks, stacks, draws = [], [], []

    def recording_stack(xy):
        stacks.append((xy.shape[2], xy.shape[1]))
        return _OperandStack(xy)

    def counting_check_stack(iid, pair, tol, sel):
        checks.append((iid, pair.xy.shape[2], len(sel), int(sel.sum())))
        return _check_stack(iid, pair, tol, sel)

    def counting_draw(kind, dim, seeds):
        draws.append((kind, dim))
        return _draw(kind, dim, seeds)

    monkeypatch.setattr(random_lab, "_OperandStack", recording_stack)
    monkeypatch.setattr(random_lab, "_check_stack", counting_check_stack)
    monkeypatch.setattr(random_lab, "_draw", counting_draw)
    dims, trials, seed = (1, 3, 8, 12), 300, 5
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    batched = run_property_suite(INEQUALITY_IDS, specs, trials, 1e-9, seed)
    takes = {iid: {i for i, _ in taken(iid, specs, trials, seed)} for iid in INEQUALITY_IDS}
    spec_of = {i: specs[ts % len(specs)] for i, ts in drawn_trials(INEQUALITY_IDS, specs, trials, seed)}
    expected_checks, expected_stacks, expected_draws, partly = [], [], [], set()
    for dim in dims:
        step = _STACK_ENTRIES // dim**2
        # The drawn trials at this dim, ensemble by ensemble.
        mine = {spec: [i for i in spec_of if spec_of[i] == spec] for spec in specs if spec.dim == dim}
        at_dim = [i for trials_of_spec in mine.values() for i in trials_of_spec]
        for start in range(0, len(at_dim), step):
            stack = at_dim[start : start + step]
            expected_stacks.append((dim, len(stack)))
            for iid in INEQUALITY_IDS:
                selected = len(takes[iid] & set(stack))
                if selected:
                    expected_checks.append((iid, dim, len(stack), selected))
                if 0 < selected < len(stack):
                    partly.add(iid)
        expected_draws += [(spec.kind, dim) for spec, t in mine.items() for _ in range(0, len(t), step)]
    assert checks == expected_checks
    assert stacks == expected_stacks
    assert draws == expected_draws
    # The later trials, which only R33 takes, share stacks with the first
    # ones: every id reads only some pairs of some stack it is checked on.
    assert partly == set(INEQUALITY_IDS)
    assert as_json(batched) == as_json(per_trial_suite(INEQUALITY_IDS, specs, trials, 1e-9, seed))


def test_verify_draws_only_what_the_next_stack_needs(monkeypatch):
    # _STACK_ENTRIES bounds what a check holds; drawing lazily bounds what
    # waits beside it.  Before each stack is checked, the pairs drawn but not
    # yet checked beyond the stack in hand are fewer than one stack's worth.
    events = []

    def recording_stack(xy):
        events.append(("check", xy.shape[2], xy.shape[1]))
        return _OperandStack(xy)

    def recording_draw(kind, dim, seeds):
        events.append(("draw", dim, seeds.shape[1]))
        return _draw(kind, dim, seeds)

    monkeypatch.setattr(random_lab, "_OperandStack", recording_stack)
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
    # Each trial some id takes is drawn and checked once.
    assert drawn == checked == len(drawn_trials(INEQUALITY_IDS, specs, 300, 5)) and split


@pytest.mark.parametrize("ids", [INEQUALITY_IDS, ("R33",), ("T213", "L32")],
                         ids=["registry", "R33", "T213-L32"])
def test_one_sequence_draws_and_decomposes_each_taken_trials_pair_once(ids, monkeypatch):
    # The full registry draws the pairs of trials 0 .. T-1, which the 13
    # ids that admit every ensemble take, and of the trials that only R33
    # takes, and no others.  Each drawn matrix reaches exactly one
    # decomposition, once, however many ids read it, each by a mask of the
    # rows it takes: eigh if it is exactly Hermitian, else the SVD.
    svd, eigh, draw = np.linalg.svd, np.linalg.eigh, random_lab._draw
    svds, eighs, draws = [], [], []

    def counting(solver, into):
        def counted(a, *args, **kwargs):
            into.extend(a.reshape(-1, *a.shape[-2:]).copy())
            return solver(a, *args, **kwargs)

        return counted

    def counting_draw(kind, dim, seeds):
        xy = draw(kind, dim, seeds)
        draws.extend(m.tobytes() for m in xy.reshape(-1, dim, dim))
        return xy

    monkeypatch.setattr(np.linalg, "svd", counting(svd, svds))
    monkeypatch.setattr(np.linalg, "eigh", counting(eigh, eighs))
    monkeypatch.setattr(random_lab, "_draw", counting_draw)
    dims, trials, seed = (1, 3, 8, 12), 300, 11
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    run_property_suite(ids, specs, trials, 1e-9, seed)
    if ids == INEQUALITY_IDS:
        r33_only = [i for i, _ in taken("R33", specs, trials, seed) if i >= trials]
        assert 0 < len(r33_only) < trials
        assert len(draws) == 2 * (trials + len(r33_only))
    assert len(draws) == 2 * len(drawn_trials(ids, specs, trials, seed))
    assert sorted(m.tobytes() for m in svds + eighs) == sorted(draws)
    assert eighs and all(np.array_equal(m, _ct(m)) for m in eighs)
    assert not any(np.array_equal(m, _ct(m)) for m in svds)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_specs_of_a_pool_take_turns_whatever_the_seed(seed):
    # Each round of n trials runs every spec once, so each of n specs gets
    # trials // n trials or one more, whatever the seed.
    index = np.arange(1000, dtype=np.uint64)
    for n in (48, 32, 7, 1):
        seeds = _trial_seeds(np.uint64(seed), index, n)
        picks = (seeds % np.uint64(n)).tolist()
        for start in range(0, 1000 - n + 1, n):
            assert sorted(picks[start : start + n]) == list(range(n))
        assert seeds.tolist() == [trial_seed(seed, i, n) for i in range(1000)]


def test_a_call_of_fewer_trials_than_specs_meets_specs_the_seed_chooses():
    firsts = {tuple(int(s) % 48 for s in _trial_seeds(np.uint64(m), np.arange(3, dtype=np.uint64), 48))
              for m in range(20)}
    assert len(firsts) == 20


def test_trial_seeds_near_the_top_stay_below_two_to_the_64(monkeypatch):
    # Where the hashed seed lies within the spec count of 2^64 - 1,
    # the trial's remainder may not fit above it: the seed comes from the
    # block below, with the same remainder.
    top = np.array([_MASK64 - 40, _MASK64 - 2, _MASK64, _MASK64], dtype=np.uint64)
    derive = random_lab._derive_seeds
    monkeypatch.setattr(random_lab, "_derive_seeds", lambda master, label, index: (
        top.copy() if label.startswith("trial:") else derive(master, label, index)))
    seeds = _trial_seeds(np.uint64(0), np.arange(4, dtype=np.uint64), 24)
    turns = sorted(range(24), key=lambda k: derive_seed(0, "turns:all", k))[:4]
    assert turns == [0, 5, 20, 17]
    # 2^64 - 1 is 15 mod 24, so the blocks of 24 that hold these hashes
    # start at _MASK64 - 63, - 15, - 15, - 15; turns 20 and 17 do not fit
    # in the last block and come from the one below.
    assert seeds.tolist() == [_MASK64 - 63, _MASK64 - 10, _MASK64 - 19, _MASK64 - 22]
    assert (seeds % np.uint64(24)).tolist() == turns


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_each_stacked_trial_is_bit_equal_to_check(inequality_id):
    kinds = ("hermitian", "normal", "psd", "unitary") if inequality_id == "R33" else ENSEMBLE_KINDS
    for kind in kinds:
        for dim in (1, 2, 3, 5, 8):
            seeds = np.arange(30, dtype=np.uint64) * np.uint64(2654435761) + np.uint64(dim)
            xy = _draw(kind, dim, np.stack((seeds, seeds + np.uint64(1))))
            holds, rel = _check_stack(inequality_id, _OperandStack(xy), 1e-9)
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
    holds, rel = _check_stack(inequality_id, _OperandStack(xy), 1e-9)
    for i in range(xy.shape[1]):
        rep = check(inequality_id, ComplexMatrix(xy[0, i]), ComplexMatrix(xy[1, i]))
        assert holds[i] == rep.holds
        assert rel[i].tobytes() == np.float64(rep.slack / rep.scale).tobytes()
    holds, rel = _check_stack(inequality_id, _OperandStack(xy[:, 2:3]), 1e-9)
    assert holds.tolist() == [True] and rel.tolist() == [0.0]


@pytest.mark.parametrize("dim", [2, 3])
def test_r33_reads_the_rows_its_mask_selects(dim):
    # On a stack that mixes normal and ginibre pairs, R33's check over the
    # normal rows is that of a stack of only those rows, bit for bit.  The
    # stack is not tested for normality: check refuses a non-normal X or Y
    # where the operands enter, and verify draws only normal ensembles.
    normal = _draw("normal", dim, np.arange(8, dtype=np.uint64)).reshape(2, 4, dim, dim)
    ginibre = _draw("ginibre", dim, np.arange(8, dtype=np.uint64)).reshape(2, 4, dim, dim)
    xy = np.concatenate((normal, ginibre), axis=1)[:, [0, 4, 5, 1, 2, 6, 3, 7]]
    sel = np.isin(np.arange(8), (0, 3, 4, 6))
    masked = _check_stack("R33", _OperandStack(xy), 1e-9, sel)
    alone = _check_stack("R33", _OperandStack(xy[:, sel]), 1e-9)
    assert [s.tobytes() for s in masked] == [s.tobytes() for s in alone]
    for name, (x, y) in (("X", (ginibre[0, 0], normal[1, 0])), ("Y", (normal[0, 0], ginibre[1, 0]))):
        with pytest.raises(NotNormalError, match=f"R33 requires normal operands; {name} is not"):
            check("R33", ComplexMatrix(x), ComplexMatrix(y))


@pytest.mark.parametrize("dim", [2, 3])
def test_ids_sharing_a_stack_check_what_each_checks_alone(dim):
    # What one id forms on the shared stack (moduli, norms, cosines) serves
    # the next bit for bit, in any order, with zero operands among the pairs.
    a = _draw("ginibre", dim, np.arange(40, dtype=np.uint64))
    xy = a.reshape(2, 20, dim, dim).copy()
    xy[0, 3] = xy[1, 7] = xy[:, 11] = 0.0
    ids = [iid for iid in INEQUALITY_IDS if iid != "R33"]
    alone = {iid: _check_stack(iid, _OperandStack(xy), 1e-9) for iid in ids}
    for order in (ids, ids[::-1]):
        pair = _OperandStack(xy)
        for iid in order:
            holds, rel = _check_stack(iid, pair, 1e-9)
            assert holds.tolist() == alone[iid][0].tolist()
            assert rel.tobytes() == alone[iid][1].tobytes()


SUITE_SPECS = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in range(1, 9)]


def test_a_subset_run_reports_what_the_full_run_reports():
    # The trials an id takes depend on the specs it admits only, not on the
    # other ids.
    full = {r.inequality_id: r for r in run_property_suite(INEQUALITY_IDS, SUITE_SPECS, 150, 1e-9, 7)}
    for iid in INEQUALITY_IDS:
        assert run_property_suite([iid], SUITE_SPECS, 150, 1e-9, 7) == [full[iid]]
    subset = ["T37", "R33", "CS_21", "T37"]
    assert run_property_suite(subset, SUITE_SPECS, 150, 1e-9, 7) == [full[i] for i in subset]


def test_every_worst_seed_replays_with_the_suites_spec_list():
    for report in run_property_suite(INEQUALITY_IDS, SUITE_SPECS, 300, 1e-9, 7):
        rep = run_single_trial(report.inequality_id, SUITE_SPECS, report.worst_seed, 1e-9)
        assert np.float64(rep.slack / rep.scale).tobytes() == np.float64(report.worst_slack).tobytes()


def test_run_single_trial_replays_r33_from_the_suites_spec_list_and_refuses_other_kinds():
    # R33 takes trials of the normal kinds from the one sequence over every
    # ensemble; each of its worst seeds replays from that list.  A seed that
    # picks a kind R33 does not admit is refused by name, before any draw.
    for master in range(6):
        (report,) = run_property_suite(["R33"], SUITE_SPECS, 40, 1e-9, master)
        rep = run_single_trial("R33", SUITE_SPECS, report.worst_seed, 1e-9)
        assert np.float64(rep.slack / rep.scale).tobytes() == np.float64(report.worst_slack).tobytes()
    ginibre = next(i for i, s in enumerate(SUITE_SPECS) if s.kind == "ginibre")
    seed = 1000 * len(SUITE_SPECS) + ginibre
    with pytest.raises(ValueError, match="R33 does not admit ginibre"):
        run_single_trial("R33", SUITE_SPECS, seed, 1e-9)
    assert run_single_trial("CS_21", SUITE_SPECS, seed, 1e-9).holds


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 17, 32, 64])
def test_stacked_draw_equals_generate(kind, dim):
    seeds = np.array([0, 1, 99, 2**63, 2**64 - 1], dtype=np.uint64)
    stack = _draw(kind, dim, seeds)
    for s, a in zip(seeds.tolist(), stack):
        assert a.tobytes() == generate(GeneratorSpec(kind, dim, s)).a.tobytes()

