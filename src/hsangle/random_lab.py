"""Seeded matrix ensembles, the randomized property-suite driver and the
sharp witness reproduction.

Reproducibility contract
------------------------
All randomness flows from one explicit 64-bit generator so that identical
seeds give bit-identical reports:

* stream: ``out[i] = mix64(seed + (i+1) * 0x9E3779B97F4A7C15)`` where
  ``mix64`` is the splitmix64 finalizer
  (``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
  z ^= z>>31``), all arithmetic mod 2^64;
* uniforms: top 53 bits, mapped to (0, 1] via ``((out >> 11) + 1) * 2^-53``;
* normals: Box-Muller on consecutive uniform pairs (u1, u2) giving
  ``r cos(2 pi u2), r sin(2 pi u2)`` with ``r = sqrt(-2 ln u1)``;
* complex normals: ``(z[2k] + i z[2k+1]) / sqrt(2)`` (unit total variance);
* derived seeds: ``mix64(mix64(mix64(master) ^ fnv1a64(label)) ^ index)``.

Per-trial seeds are derived by hashing, never by sequential draws, so trials
are independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import ComplexMatrix, _ct
from .inequality_suite import (DEFAULT_CHECK_TOL, SQRT2, InequalityReport, _OperandStack,
                               _check_stack, _lookup, check)
from .spectral import _hermitian_part, _vdv

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# mix64's constants, the stream's step and the uniforms' shift as uint64
# scalars, for the array forms.
_S30, _S27, _S31, _S11 = (np.uint64(k) for k in (30, 27, 31, 11))
_M1, _M2, _GOLDEN_U64 = (np.uint64(k) for k in (0xBF58476D1CE4E5B9, 0x94D049BB133111EB, _GOLDEN))
# The factor numpy's complex division by the real SQRT2 scales both parts by.
_INV_SQRT2 = 1.0 / SQRT2

ENSEMBLE_KINDS = ("ginibre", "hermitian", "normal", "psd", "rank_deficient", "unitary")
# Kinds whose samples are normal matrices by construction.
NORMAL_ENSEMBLE_KINDS = ("hermitian", "normal", "psd", "unitary")

MAX_DIM = 64
# The labels under which a trial seed derives the seeds of its X and Y.
_OPERAND_LABELS = ("operand-x", "operand-y")
# run_property_suite and the scanner stack no more entries per operand than
# one MAX_DIM x MAX_DIM matrix holds.
_STACK_ENTRIES = MAX_DIM * MAX_DIM


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master_seed: int, label: str, index: int) -> int:
    """Deterministic sub-seed for (master, label, index)."""
    h = mix64(master_seed & _MASK64)
    h = mix64(h ^ fnv1a64(label.encode("utf-8")))
    return mix64(h ^ (index & _MASK64))


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """mix64 of each entry of a uint64 array, in place; returns z (a numpy
    scalar becomes a new 0-d array, which wraps where a scalar would warn)."""
    z = np.asarray(z)
    t = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=t)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=t)
    return z


def _derive_seeds(master, label: str, index) -> np.ndarray:
    """derive_seed over uint64 arrays of master seeds or of indices."""
    h = _mix64_vec(np.array(master, dtype=np.uint64))
    h ^= np.uint64(fnv1a64(label.encode("utf-8")))
    return _mix64_vec(_mix64_vec(h) ^ index)


class CounterRng:
    """Counter-based splitmix64 stream; see the module docstring.  Given a
    uint64 array of seeds, it draws their streams side by side, one row per
    seed."""

    def __init__(self, seed):
        self._seed = np.asarray(seed & _MASK64, dtype=np.uint64)[..., None]
        self._index = 0

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        idx *= _GOLDEN_U64
        return _mix64_vec(self._seed + idx)

    def uniforms(self, n: int) -> np.ndarray:
        bits = self.raw(n)
        bits >>= _S11
        u = bits.astype(np.float64)
        u += 1.0
        u *= 2.0**-53
        return u

    def normals(self, n: int) -> np.ndarray:
        # Each pair (u1, u2) is overwritten by its r cos and r sin.
        u = self.uniforms(n + n % 2)
        r = np.sqrt(-2.0 * np.log(u[..., 0::2]))
        ang = (2.0 * math.pi) * u[..., 1::2]
        np.multiply(r, np.cos(ang), out=u[..., 0::2])
        np.multiply(r, np.sin(ang), out=u[..., 1::2])
        return u[..., :n]

    def complex_normals(self, n: int) -> np.ndarray:
        """(z[2k] + i z[2k+1]) / sqrt(2) of z = normals(2 n), as z scaled in
        place by 1/sqrt(2) and read as complex: the bits of numpy's complex
        division by the real sqrt(2), which scales both parts by 1/sqrt(2).
        Where u1 = 1, r is -0.0 and that division gives +0.0 to both parts,
        whatever their signs; so does this."""
        z = self.normals(2 * n)
        z *= _INV_SQRT2
        out = z.view(complex)
        if not out.all():
            out[out == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Which ensemble to draw from, at what dimension, from what seed."""

    kind: str
    dim: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; known: {ENSEMBLE_KINDS}")
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def _gaussian(rng: CounterRng, rows: int, cols: int) -> np.ndarray:
    z = rng.complex_normals(rows * cols)
    return z.reshape(z.shape[:-1] + (rows, cols))


def _phase_fixed_q(a: np.ndarray) -> np.ndarray:
    """The QR factor Q of a, or of each matrix of a stack, with the phases of
    diag(R) moved into it; Haar distributed when a is Ginibre."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    m = np.abs(d)
    # A zero on the diagonal (a singular a) keeps the phase 1.
    phases = np.divide(d, m, out=np.ones_like(d), where=m != 0.0)
    return q * phases[..., None, :]


def _draw(kind: str, dim: int, seeds: np.ndarray) -> np.ndarray:
    """One matrix of the ensemble per uint64 seed of an array of seeds, as a
    stack (*seeds.shape, dim, dim); each matrix is bit-equal to the one drawn
    from its seed alone."""
    rng = CounterRng(seeds)
    if kind == "ginibre":
        return _gaussian(rng, dim, dim)
    if kind == "hermitian":
        return _hermitian_part(_gaussian(rng, dim, dim))
    if kind == "normal":
        v = _phase_fixed_q(_gaussian(rng, dim, dim))
        return _vdv(v, rng.complex_normals(dim))
    if kind == "psd":
        g = _gaussian(rng, dim, dim)
        return _hermitian_part(_ct(g) @ g / dim)
    if kind == "rank_deficient":
        r = (dim + 1) // 2
        left = _gaussian(rng, dim, r)
        return left @ _gaussian(rng, r, dim)
    return _phase_fixed_q(_gaussian(rng, dim, dim))  # unitary


def generate(spec: GeneratorSpec) -> ComplexMatrix:
    """Draw one matrix; deterministic in spec.seed."""
    return ComplexMatrix(_draw(spec.kind, spec.dim, np.array([spec.seed], dtype=np.uint64))[0])


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate of one randomized verification run for one inequality.

    worst_slack is the smallest slack/scale ratio seen; worst_seed is the
    trial seed that produced it and replays to the identical report.
    """

    inequality_id: str
    trials: int
    violations: int
    worst_slack: float
    worst_seed: int
    ensembles: tuple

    def to_json_dict(self) -> dict:
        return {
            "id": self.inequality_id,
            "trials": self.trials,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "worst_seed": self.worst_seed,
            "ensembles": list(self.ensembles),
        }


def _admits(inequality_id: str, kind: str) -> bool:
    """Whether an id admits the operands of an ensemble kind: an id whose
    domain is "normal" admits only the kinds whose samples are normal."""
    return _lookup(inequality_id).domain != "normal" or kind in NORMAL_ENSEMBLE_KINDS


def applicable_specs(inequality_id: str, specs) -> list:
    """The specs of the list whose ensembles the inequality admits."""
    _lookup(inequality_id)
    pool = [s for s in specs if _admits(inequality_id, s.kind)]
    if not pool:
        raise ValueError(f"no applicable ensembles for {inequality_id}")
    return pool


def run_single_trial(
    inequality_id: str, specs, trial_seed: int, tol: float
) -> InequalityReport:
    """One trial: pick the spec specs[seed % len(specs)], draw a pair, check.
    A spec whose kind the id does not admit is refused with a ValueError.
    Given run_property_suite's specs, replays any of its trials bit for bit."""
    specs = list(specs)
    if not specs:
        raise ValueError(f"no ensembles to pick from for {inequality_id}")
    spec = specs[trial_seed % len(specs)]
    if not _admits(inequality_id, spec.kind):
        raise ValueError(f"{inequality_id} does not admit {spec.kind} operands")
    seeds = [[derive_seed(trial_seed, label, 0)] for label in _OPERAND_LABELS]
    xy = _draw(spec.kind, spec.dim, np.array(seeds, dtype=np.uint64))
    return check(inequality_id, ComplexMatrix(xy[0, 0]), ComplexMatrix(xy[1, 0]), tol)


def _trial_seeds(master, index: np.ndarray, specs: int) -> np.ndarray:
    """The seeds of trials `index` of the sequence over `specs` specs.  The
    specs take turns, in the order of their hashes derive_seed(master,
    "turns:all", k): trial i runs the (i mod specs)-th spec of that order.
    Its seed is derive_seed(master, "trial:all", i) with the remainder mod
    `specs` replaced by that spec's index, since a seed picks spec seed %
    specs, as run_single_trial does.  So every spec gets trials // specs
    trials or one more, and a call's work barely depends on the master
    seed, while a call of fewer trials than specs still meets specs the
    seed chooses."""
    n = np.uint64(specs)
    order = _derive_seeds(master, "turns:all", np.arange(specs, dtype=np.uint64))
    turns = np.argsort(order, kind="stable").astype(np.uint64)
    h = _derive_seeds(master, "trial:all", index)
    base = h - h % n
    seeds = base + turns[index % n]
    # Past 2^64 - 1 (h within `specs` of it), take the seed from the block below.
    return np.where(seeds < base, seeds - n, seeds)


def _stacks(groups, operands: np.ndarray, dim: int):
    """The operand pairs of the trials of groups, a list of (kind, trial
    indices) at one dim, as consecutive pair stacks (trials, xy) of at most
    step = _STACK_ENTRIES // dim**2 pairs, in group order.  Each group is
    drawn at most step trials at a time, from its columns of operands (2,
    trials), and only when the next stack needs it: a stack may hold several
    kinds, and a draw may be split between two stacks."""
    step = _STACK_ENTRIES // dim**2
    draws = (_draw(kind, dim, operands[:, t[i : i + step]])
             for kind, t in groups for i in range(0, len(t), step))
    trials, held = np.concatenate([t for _, t in groups]), []
    for start in range(0, len(trials), step):
        trial = trials[start : start + step]
        while sum(h.shape[1] for h in held) < len(trial):
            held.append(next(draws))
        xy = np.concatenate(held, axis=1)
        held = [xy[:, len(trial) :]]
        yield trial, np.ascontiguousarray(xy[:, : len(trial)])


def run_property_suite(
    ids, specs, trials: int, tol: float = DEFAULT_CHECK_TOL, master_seed: int = 0
) -> list:
    """Randomized verification: `trials` seeded trials per id over the spec list.

    Every id reads one trial sequence.  Trial i has the seed
    ``derive_seed(master_seed, "trial:all", i)`` with its remainder mod
    len(specs) set so that the specs take turns in an order the master
    seed shuffles (_trial_seeds).  The seed picks the trial's spec,
    specs[seed % len(specs)], and draws its pair.  Each id takes the first
    `trials` trials whose spec's kind it admits, and every id that takes a
    trial is checked on its one pair: the ids that admit every spec take
    trials 0 .. trials - 1, and R33 the first `trials` of the normal kinds.
    So an id's report depends neither on execution order nor on the other
    ids asked for, and only the trials some id takes are drawn.  The drawn
    trials of each dim, of every ensemble, are one sequence of stacks, spec
    by spec and in trial order (_stacks), each decomposed once for all the
    ids.  Each id is checked once per stack that holds trials it takes, on
    the rows it takes (_check_stack's mask).  Each trial's holds and
    slack/scale are bit-equal to those of run_single_trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ids, specs = list(ids), list(specs)
    if not ids:
        return []
    # Every id's specs, checked before any trial runs.
    kinds = {iid: tuple(dict.fromkeys(s.kind for s in applicable_specs(iid, specs))) for iid in ids}
    admits = np.array([[_admits(iid, s.kind) for s in specs] for iid in kinds])
    # Each round of len(specs) trials runs every spec once, so the first
    # ceil(trials / m) rounds, m the fewest specs an id admits, hold the
    # trials of every id.
    rounds = -(-trials // int(admits.sum(axis=1).min()))
    index = np.arange(rounds * len(specs), dtype=np.uint64)
    seeds = _trial_seeds(np.uint64(master_seed & _MASK64), index, len(specs))
    which = (seeds % np.uint64(len(specs))).astype(np.intp)
    # taken[k, i]: whether the k-th id takes trial i.
    admitted = admits[:, which]
    taken = admitted & (np.cumsum(admitted, axis=1) <= trials)
    drawn = taken.any(axis=0)
    seeds, which, taken = seeds[drawn], which[drawn], taken[:, drawn]
    operands = np.array([_derive_seeds(seeds, name, 0) for name in _OPERAND_LABELS])
    # An id's holds and slack/scale for each drawn trial, where it takes it.
    holds = {iid: np.empty(len(seeds), dtype=bool) for iid in kinds}
    rel = {iid: np.empty(len(seeds)) for iid in kinds}
    for dim in dict.fromkeys(s.dim for s in specs):
        groups = [(s.kind, np.flatnonzero(which == k)) for k, s in enumerate(specs) if s.dim == dim]
        for trial, xy in _stacks(groups, operands, dim):
            pair = _OperandStack(xy)
            for iid, sel in zip(kinds, taken[:, trial]):
                mine = trial[sel]
                if len(mine):
                    holds[iid][mine], rel[iid][mine] = _check_stack(iid, pair, tol, sel)
    reports = {}
    for iid, sel in zip(kinds, taken):
        h, r = holds[iid][sel], rel[iid][sel]
        # The first smallest slack/scale in trial order; a NaN is never the worst.
        i = int(np.argmin(np.where(np.isnan(r), math.inf, r)))
        worst, worst_seed = (float(r[i]), int(seeds[sel][i])) if r[i] < math.inf else (math.inf, 0)
        violations = int(np.count_nonzero(~h))
        reports[iid] = SuiteReport(iid, trials, violations, worst, worst_seed, kinds[iid])
    return [reports[iid] for iid in ids]


# ---------------------------------------------------------------------------
# Hard-coded extremal pairs attaining the sharp constants.

def witness_triple():
    """The 2x2 triple (X, Y, Z) attaining equality in T36 (X, Y) and T37 (X, Z)."""
    x = ComplexMatrix.from_rows([[0.0, 0.0], [-1.0, 0.0]])
    y = ComplexMatrix.from_rows([[0.0, 0.0], [0.0, 1.0]])
    z = ComplexMatrix.from_rows([[0.0, 0.0], [1.0 - SQRT2, math.sqrt(math.sqrt(8.0) - 2.0)]])
    return x, y, z


@dataclass(frozen=True)
class ReproCheck:
    name: str
    value: float
    target: float
    tol: float

    @property
    def deviation(self) -> float:
        return abs(self.value - self.target)

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "target": self.target,
            "tol": self.tol,
            "deviation": self.deviation,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ReproReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"checks": [c.to_json_dict() for c in self.checks], "passed": self.passed}


def reproduce_witnesses() -> ReproReport:
    """Recompute the four sharp-witness quantities, the sides of T36 at (X, Y)
    and of T37 at (X, Z), and compare them to their targets."""
    x, y, z = witness_triple()
    t36, t37 = check("T36", x, y), check("T37", x, z)
    root8_4 = 8.0**0.25
    return ReproReport((
        ReproCheck("norm(|X*|+|Y*|)", t36.lhs, 2.0, 1e-12),
        ReproCheck("sqrt(2)*norm(|X|+|Y|)", t36.rhs, 2.0, 1e-12),
        ReproCheck("norm(X+Z)", t37.lhs, root8_4, 1e-9),
        ReproCheck("sum_sharp_constant*norm(|X|+|Z|)", t37.rhs, root8_4, 1e-9),
    ))
