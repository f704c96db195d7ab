"""The one path from an operand pair to the registry sides: check, the
scanner's ratios and the sharp-witness reproduction all read the same
formulas over one pair type, the moduli of both operands of a pair come
from one eigh call over the exactly Hermitian ones and one SVD call over
the rest, or from the closed form for 2x2, and each norm and inner
product of a pair stack is computed once."""

import math

import numpy as np
import pytest

from hsangle import (
    ENSEMBLE_KINDS,
    ComplexMatrix,
    GeneratorSpec,
    INEQUALITY_IDS,
    abs_adjoint,
    abs_op,
    angle_report,
    applicable_specs,
    check,
    cosine_expansion,
    derive_seed,
    franca_abs_2x2,
    generate,
    is_normal,
    reproduce_witnesses,
    run_property_suite,
    sin_angle,
    witness_triple,
)
from hsangle import cli, hs_geometry, inequality_suite, matrix_core, scan
from hsangle.hs_geometry import _norms
from hsangle.inequality_suite import _OperandStack, _check_stack
from hsangle.random_lab import _OPERAND_LABELS, _draw, _trial_seeds
from hsangle.scan import SCAN_TARGETS, _ratio_for, _search_space


def decompositions(monkeypatch, name):
    """The arrays passed to np.linalg's solver of that name from now on."""
    calls = []
    solver = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(a)
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrices passed to np.linalg.svd since the test began."""
    return decompositions(monkeypatch, "svd")


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices passed to np.linalg.eigh since the test began."""
    return decompositions(monkeypatch, "eigh")


def matrices(a):
    """The number of matrices in a stack (..., d, d)."""
    return math.prod(a.shape[:-2])


def pair(kind, dim, seed):
    x = generate(GeneratorSpec(kind, dim, 2 * seed))
    y = generate(GeneratorSpec(kind, dim, 2 * seed + 1))
    return x, y


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_check_makes_one_svd_per_operand_and_none_for_cs21(inequality_id, svd_calls):
    # One call over the stack of both operands.
    kind = "normal" if inequality_id == "R33" else "ginibre"
    for seed in range(5):
        x, y = pair(kind, 3, seed)
        svd_calls.clear()
        check(inequality_id, x, y)
        assert [matrices(a) for a in svd_calls] == ([] if inequality_id == "CS_21" else [2])


def test_verify_makes_two_svds_per_trial_in_one_call_per_stack(svd_calls, eigh_calls, monkeypatch, capsys):
    # Counted over the trials whose operands are not 2x2: those take the
    # closed form and no SVD.  The registry draws one trial sequence and
    # checks each id on the trials it takes, so the two decompositions, eigh
    # for the exactly Hermitian operands and the SVD for the rest, cover
    # each drawn pair once, in one call each per stack.
    digests = []
    for module in (inequality_suite, matrix_core):
        monkeypatch.setattr(module, "digest", lambda *mats: digests.append(mats))
    trials, dims, seed = 300, (1, 2, 3), 5
    assert cli.main(["verify", "--trials", str(trials), "--dims", "1..3", "--seed", str(seed)]) == 0
    capsys.readouterr()
    # One stack per dim that some drawn trial picks; at these dims no stack
    # reaches the size cap.  R33 takes the first `trials` trials of the
    # normal kinds, the other ids trials 0 .. trials - 1.
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    normal = {s.kind for s in applicable_specs("R33", specs)}
    seeds = _trial_seeds(np.uint64(seed), np.arange(2 * trials, dtype=np.uint64), len(specs))
    picks = [specs[int(t) % len(specs)] for t in seeds]
    r33 = [i for i, spec in enumerate(picks) if spec.kind in normal][:trials]
    picked = [picks[i].dim for i in sorted(set(range(trials)) | set(r33)) if picks[i].dim != 2]
    calls = svd_calls + eigh_calls
    assert all(a.shape[-2:] != (2, 2) for a in calls)
    assert sum(map(matrices, calls)) == 2 * len(picked)
    assert len(svd_calls) == len(eigh_calls) == len(set(picked))
    assert digests == []


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_hermitian_and_psd_operands_take_eigh_and_the_others_the_svd(dim, svd_calls, eigh_calls):
    # Every hermitian and psd draw is exactly Hermitian on every machine, so
    # eigh receives exactly the operands of those kinds, and the SVD the
    # others, of the trials that the picks draw: trials 0 .. trials - 1 and
    # R33's first `trials` of the normal kinds.
    trials, seed = 60, 5
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS]
    run_property_suite(INEQUALITY_IDS, specs, trials, master_seed=seed)
    normal = {s.kind for s in applicable_specs("R33", specs)}
    seeds = _trial_seeds(np.uint64(seed), np.arange(2 * trials, dtype=np.uint64), len(specs))
    picks = [specs[int(t) % len(specs)].kind for t in seeds]
    r33 = [i for i, kind in enumerate(picks) if kind in normal][:trials]
    routes = {"eigh": [], "svd": []}
    for i in sorted(set(range(trials)) | set(r33)):
        operands = [[derive_seed(int(seeds[i]), label, 0)] for label in _OPERAND_LABELS]
        xy = _draw(picks[i], dim, np.array(operands, dtype=np.uint64))
        route = "eigh" if picks[i] in ("hermitian", "psd") else "svd"
        routes[route] += [m.tobytes() for m in xy.reshape(-1, dim, dim)]
    for route, calls in (("eigh", eigh_calls), ("svd", svd_calls)):
        received = [m.tobytes() for a in calls for m in a.reshape(-1, dim, dim)]
        assert sorted(received) == sorted(routes[route])


@pytest.mark.parametrize("inequality_id", ["T36", "T37"])
def test_each_scan_evaluation_makes_two_svds(inequality_id, svd_calls, monkeypatch):
    # One SVD call of 2k matrices per ratio call over a stack of k points.
    evals = []
    ratio_for = scan._ratio_for

    def counting_ratio_for(iid):
        ratio = ratio_for(iid)

        def counted(xy):
            before = len(svd_calls)
            value = ratio(xy)
            evals.append((xy.shape[1], [matrices(a) for a in svd_calls[before:]]))
            return value

        return counted

    monkeypatch.setattr(scan, "_ratio_for", counting_ratio_for)
    scan.sharpness_scan(inequality_id, 3, 400, 3)
    assert sum(k for k, _ in evals) == 400
    assert all(e == [2 * k] for k, e in evals)
    assert len(svd_calls) == len(evals)


def test_a_stack_with_zero_operands_is_decomposed_once(svd_calls, eigh_calls):
    # The angle ids check the pairs without a zero operand on the moduli of
    # the whole stack, which the other ids read too: one call in all of
    # each decomposition, eigh for the zero operands, which are exactly
    # Hermitian, and the SVD for the ten others.
    a = _draw("ginibre", 3, np.arange(12, dtype=np.uint64)).reshape(2, 6, 3, 3).copy()
    a[0, 1] = a[1, 4] = 0.0
    pair = _OperandStack(a)
    for inequality_id in INEQUALITY_IDS:
        if inequality_id != "R33":
            _check_stack(inequality_id, pair, 1e-9)
    assert [matrices(m) for m in svd_calls] == [10]
    assert [matrices(m) for m in eigh_calls] == [2]


def test_each_pair_stack_takes_its_inner_products_once(monkeypatch):
    # <X, Y>, <|X|, |Y|> and <|X*|, |Y*|>, each read by T213 and by the
    # cosines of the angle ids, are one _inners call each.
    sizes = []
    inners = hs_geometry._inners

    def counting(x, y):
        sizes.append(matrices(x))
        return inners(x, y)

    monkeypatch.setattr(hs_geometry, "_inners", counting)
    pair = _OperandStack(_draw("ginibre", 3, np.arange(12, dtype=np.uint64)).reshape(2, 6, 3, 3))
    for inequality_id in INEQUALITY_IDS:
        if inequality_id != "R33":
            _check_stack(inequality_id, pair, 1e-9)
    assert sizes == [6, 6, 6]


@pytest.mark.parametrize("kind, inners, norms", [("hermitian", 2, 8), ("ginibre", 3, 12)])
def test_one_moduli_array_is_one_pair(kind, inners, norms, norm_calls, monkeypatch):
    # Every id over one 48x48 pair reads <., .>, the norms, norm(. + .),
    # norm(. - .) and the sine residual of each of its pairs once: (X, Y),
    # (|X|, |Y|) and (|X*|, |Y*|), but only two pairs when every operand is
    # exactly Hermitian and the moduli are one array.
    inner_calls = []
    take_inners = hs_geometry._inners

    def counting(x, y):
        inner_calls.append(x)
        return take_inners(x, y)

    monkeypatch.setattr(hs_geometry, "_inners", counting)
    x, y = pair(kind, 48, 0)
    stack = _OperandStack(np.array(((x.a,), (y.a,))))
    for inequality_id in INEQUALITY_IDS:
        _check_stack(inequality_id, stack, 1e-9)
    assert (stack.adj is stack.abs) == (kind == "hermitian")
    assert (len(inner_calls), len(norm_calls)) == (inners, norms)


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_the_moduli_of_an_all_hermitian_stack_are_one_pair(dim, svd_calls, eigh_calls):
    # Each exactly Hermitian X has |X*| = |X|: adj and abs hold the one
    # array of one eigh call.  A stack with one other operand forms both,
    # and so does the 2x2 closed form, which tests no operand.
    h = _draw("hermitian", dim, np.arange(8, dtype=np.uint64)).reshape(2, 4, dim, dim)
    pair = _OperandStack(h)
    assert pair.adj.xy is pair.abs.xy
    assert [matrices(m) for m in eigh_calls] == [8] and svd_calls == []
    mixed = h.copy()
    mixed[1, 2] = _draw("ginibre", dim, np.arange(1, dtype=np.uint64))[0]
    for other in (mixed, _draw("hermitian", 2, np.arange(8, dtype=np.uint64)).reshape(2, 4, 2, 2)):
        pair = _OperandStack(other)
        assert pair.adj.xy is not pair.abs.xy


def test_a_hermitian_operand_forms_no_commutator(monkeypatch):
    # is_normal forms the commutator and its norm only for an operand that
    # is not exactly Hermitian: one _norms call of each over it.
    sizes = []
    norms = inequality_suite._norms

    def counting(a):
        sizes.append(matrices(a))
        return norms(a)

    monkeypatch.setattr(inequality_suite, "_norms", counting)
    for kind in ("hermitian", "normal"):
        a = _draw(kind, 3, np.arange(4, dtype=np.uint64))
        sizes.clear()
        assert all(is_normal(ComplexMatrix(m)) for m in a)
        assert sizes == ([] if kind == "hermitian" else [1] * 8)


def test_verify_forms_no_commutator(monkeypatch):
    # R33's domain is enforced by verify's ensemble admission, not on the
    # stacks it checks: a full-registry call tests no operand for normality.
    norms = []
    monkeypatch.setattr(inequality_suite, "_norms", lambda a: norms.append(a) or _norms(a))
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in (1, 2, 3)]
    reports = run_property_suite(INEQUALITY_IDS, specs, 200, master_seed=3)
    assert [r.violations for r in reports] == [0] * len(INEQUALITY_IDS)
    assert norms == []


# 2x2 moduli come in closed form: no check, scan, verify or modulus at dim 2
# reaches the SVD.
@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_check_at_dim_2_makes_no_svd(inequality_id, svd_calls):
    kind = "normal" if inequality_id == "R33" else "ginibre"
    for seed in range(5):
        check(inequality_id, *pair(kind, 2, seed))
    assert svd_calls == []


@pytest.mark.parametrize("inequality_id", sorted(SCAN_TARGETS))
def test_scan_at_dim_2_makes_no_svd(inequality_id, svd_calls):
    scan.sharpness_scan(inequality_id, 2, 400, 3)
    assert svd_calls == []


def test_verify_and_moduli_at_dim_2_make_no_svd(svd_calls, capsys):
    assert cli.main(["verify", "--trials", "100", "--dims", "2", "--seed", "5"]) == 0
    capsys.readouterr()
    x, y = pair("rank_deficient", 2, 0)
    abs_op(x), abs_adjoint(y), franca_abs_2x2(x)
    assert svd_calls == []


@pytest.mark.parametrize("inequality_id", sorted(SCAN_TARGETS))
def test_stacked_ratio_is_the_one_point_ratio_bit_for_bit(inequality_id):
    ratio = _ratio_for(inequality_id)
    decode, nparams = _search_space(inequality_id, 2, 1)[:2]
    p = np.random.default_rng(29).normal(size=(16, nparams))
    if inequality_id in ("C32", "R33"):
        # Point 3 has Y = X up to one part in 2^50: a degenerate denominator.
        p[3, 8:16] = p[3, :8] * (1.0 + 2.0**-50)
        if inequality_id == "R33":
            p[3, 20:24] = p[3, 16:20]
    xy = decode(p, 2)
    stacked = ratio(xy)
    assert stacked.shape == (16,)
    for i in range(16):
        one = decode(p[i], 2)
        assert one.tobytes() == xy[:, i : i + 1].tobytes()
        assert ratio(one).tobytes() == stacked[i : i + 1].tobytes()
    if inequality_id in ("C32", "R33"):
        assert stacked[3] == -math.inf
    assert np.isfinite(np.delete(stacked, 3)).all()


@pytest.mark.parametrize(
    "inequality_id, dim, decoder",
    [("T37", 2, "_slice_pair"), ("C32", 2, "_raw_pair"), ("R33", 2, "_normal_pair"),
     ("T36", 3, "_raw_pair"), ("R33", 3, "_normal_pair")],
)
def test_a_scan_checks_the_pairs_its_decoder_gives_in_place(inequality_id, dim, decoder, monkeypatch):
    # The ratio builds its operand stack on the decoder's (2, k, d, d) array
    # itself: no pair is copied between decoding and checking.
    decoded, received = [], []
    decode = getattr(scan, decoder)
    assert _search_space(inequality_id, dim, 500)[0] is decode

    def recording_decode(p, d):
        decoded.append(decode(p, d))
        return decoded[-1]

    def recording_stack(xy):
        received.append(xy)
        return _OperandStack(xy)

    monkeypatch.setattr(scan, decoder, recording_decode)
    monkeypatch.setattr(scan, "_OperandStack", recording_stack)
    scan.sharpness_scan(inequality_id, dim, 500, 1)
    # The last decode gives the witness pair, which is not checked again.
    assert len(received) == len(decoded) - 1 > 1
    assert all(np.shares_memory(xy, d) for xy, d in zip(received, decoded))


@pytest.mark.parametrize("inequality_id", sorted(SCAN_TARGETS))
def test_scan_ratio_is_target_times_lhs_over_rhs(inequality_id):
    target = SCAN_TARGETS[inequality_id]
    ratio = _ratio_for(inequality_id)
    decode, nparams = _search_space(inequality_id, 3, 1)[:2]
    rng = np.random.default_rng(17)
    for _ in range(50):
        xy = decode(rng.normal(size=nparams), 3)
        rep = check(inequality_id, ComplexMatrix(xy[0, 0]), ComplexMatrix(xy[1, 0]))
        assert abs(ratio(xy) - target * rep.lhs / rep.rhs) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slice_pair_puts_s_on_the_diagonal_of_x_and_y_in_place(dim):
    # A row is [s, re Y, im Y]: dim + 2 dim^2 reals.
    p = np.random.default_rng(31).normal(size=(5, dim * (2 * dim + 1)))
    xy = scan._slice_pair(p, dim)
    assert xy.shape == (2, 5, dim, dim)
    for i, row in enumerate(p):
        y = np.empty((dim, dim), dtype=complex)
        y.real, y.imag = row[dim:].reshape(2, dim, dim)
        assert xy[0, i].tobytes() == np.diag(row[:dim]).astype(complex).tobytes()
        assert xy[1, i].tobytes() == y.tobytes()
        assert scan._slice_pair(row, dim).tobytes() == xy[:, i : i + 1].tobytes()


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
@pytest.mark.parametrize(
    "inequality_id",
    [i for i in sorted(SCAN_TARGETS) if _search_space(i, 2, 1)[0] is scan._slice_pair],
)
def test_the_slice_keeps_the_ratio_of_every_pair(inequality_id, kind):
    # The premise of the scan's slice at dim 2, for every id that searches
    # it: with X = W diag(s) V*, the pair (diag(s), W* Y V) is jointly
    # unitarily equivalent to (X, Y), so the slice's point
    # [s, re W* Y V, im W* Y V] has the ratio of (X, Y).
    decode, n = _search_space(inequality_id, 2, 1)[:2]
    ratio = _ratio_for(inequality_id)
    xy = np.array([[m.a for m in ms] for ms in zip(*(pair(kind, 2, seed) for seed in range(32)))])
    w, s, vh = np.linalg.svd(xy[0])
    gauged = w.conj().swapaxes(1, 2) @ xy[1] @ vh.conj().swapaxes(1, 2)
    p = np.concatenate([s, gauged.real.reshape(-1, 4), gauged.imag.reshape(-1, 4)], axis=1)
    assert p.shape == (32, n)
    free, sliced = ratio(xy), ratio(decode(p, 2))
    assert np.isfinite(free).all()
    assert np.all(np.abs(sliced - free) <= 1e-14 * free)


def test_repro_values_are_the_check_sides():
    x, y, z = witness_triple()
    t36, t37 = check("T36", x, y), check("T37", x, z)
    values = [c.value for c in reproduce_witnesses().checks]
    assert values == [t36.lhs, t36.rhs, t37.lhs, t37.rhs]


@pytest.fixture
def norm_calls(monkeypatch):
    """The number of matrices in each stack passed to hs_geometry._norms,
    under the name it has in either module, since the test began."""
    calls = []
    norms = hs_geometry._norms

    def counting(a):
        calls.append(matrices(a))
        return norms(a)

    monkeypatch.setattr(hs_geometry, "_norms", counting)
    monkeypatch.setattr(inequality_suite, "_norms", counting)
    return calls


# Each consumer takes the norms of the two operands of each pair it reads in
# one call of 2 matrices, once: one pair for the angle functions, three
# ((X, Y) and the two pairs of moduli) for the angle checks.  A call of 1
# matrix is the residual norm of one pair's sine.
@pytest.mark.parametrize(
    "consumer, expected",
    [
        (lambda x, y: check("T214i", x, y), [2, 2, 2]),
        (lambda x, y: check("T214ii", x, y), [2, 2, 2]),
        (lambda x, y: check("T214iii", x, y), [1, 1, 1, 2, 2, 2]),
        (angle_report, [1, 2]),
        (sin_angle, [1, 2]),
        (lambda x, y: cosine_expansion(x, y, 1), [2]),
    ],
    ids=["T214i", "T214ii", "T214iii", "angle_report", "sin_angle", "cosine_expansion"],
)
def test_each_operand_norm_is_computed_once(consumer, expected, norm_calls):
    for seed in range(3):
        x, y = pair("ginibre", 3, seed)
        norm_calls.clear()
        consumer(x, y)
        assert sorted(norm_calls) == expected
