"""Seeded matrix ensembles, the randomized property-suite driver, the sharp
witness reproduction, and a restarted Nelder-Mead scanner for extremal pairs.

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
from scipy.optimize import minimize

from .matrix_core import ComplexMatrix
from .inequality_suite import (
    _REGISTRY,
    INEQUALITY_IDS,
    NORMAL_ONLY_IDS,
    SQRT2,
    SUM_SHARP_CONSTANT,
    InequalityReport,
    UnknownInequalityError,
    _Pair,
    check,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ENSEMBLE_KINDS = ("ginibre", "hermitian", "normal", "psd", "rank_deficient", "unitary")
# Kinds whose samples are normal matrices by construction.
NORMAL_ENSEMBLE_KINDS = ("hermitian", "normal", "psd", "unitary")

MAX_DIM = 64


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


def _mix64_vec(x: np.ndarray) -> np.ndarray:
    z = x.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class CounterRng:
    """Counter-based splitmix64 stream; see the module docstring."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._index = 0

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        return _mix64_vec(self._seed + idx * np.uint64(_GOLDEN))

    def uniforms(self, n: int) -> np.ndarray:
        bits = self.raw(n)
        return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        ang = (2.0 * math.pi) * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(ang)
        z[1::2] = r * np.sin(ang)
        return z[:n]

    def complex_normals(self, n: int) -> np.ndarray:
        z = self.normals(2 * n)
        return (z[0::2] + 1j * z[1::2]) / SQRT2


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


def _ginibre(rng: CounterRng, dim: int) -> np.ndarray:
    return rng.complex_normals(dim * dim).reshape(dim, dim)


def _phase_fixed_q(a: np.ndarray) -> np.ndarray:
    """The QR factor Q of a with the phases of diag(R) moved into it; Haar
    distributed when a is Ginibre."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) == 0.0, 1.0 + 0.0j, d / np.abs(d))
    return q * phases


def _normal(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """V diag(d) V* for unitary V."""
    return (v * d) @ v.conj().T


def generate(spec: GeneratorSpec) -> ComplexMatrix:
    """Draw one matrix; deterministic in spec.seed."""
    rng = CounterRng(spec.seed)
    dim = spec.dim
    if spec.kind == "ginibre":
        a = _ginibre(rng, dim)
    elif spec.kind == "hermitian":
        g = _ginibre(rng, dim)
        a = (g + g.conj().T) / 2.0
    elif spec.kind == "normal":
        v = _phase_fixed_q(_ginibre(rng, dim))
        a = _normal(v, rng.complex_normals(dim))
    elif spec.kind == "psd":
        g = _ginibre(rng, dim)
        a = g.conj().T @ g / dim
    elif spec.kind == "rank_deficient":
        r = (dim + 1) // 2
        left = rng.complex_normals(dim * r).reshape(dim, r)
        right = rng.complex_normals(r * dim).reshape(r, dim)
        a = left @ right
    else:  # unitary
        a = _phase_fixed_q(_ginibre(rng, dim))
    return ComplexMatrix(a)


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


def applicable_specs(inequality_id: str, specs) -> list:
    """Restrict the spec pool to ensembles the inequality admits."""
    pool = list(specs)
    if inequality_id in NORMAL_ONLY_IDS:
        pool = [s for s in pool if s.kind in NORMAL_ENSEMBLE_KINDS]
    if not pool:
        raise ValueError(f"no applicable ensembles for {inequality_id}")
    return pool


def run_single_trial(
    inequality_id: str, specs, trial_seed: int, tol: float
) -> InequalityReport:
    """One trial: pick a spec from the pool by seed, draw a pair, check."""
    pool = list(specs)
    spec = pool[trial_seed % len(pool)]
    x = generate(GeneratorSpec(spec.kind, spec.dim, derive_seed(trial_seed, "operand-x", 0)))
    y = generate(GeneratorSpec(spec.kind, spec.dim, derive_seed(trial_seed, "operand-y", 0)))
    return check(inequality_id, x, y, tol)


def run_property_suite(
    ids, specs, trials: int, tol: float = 1e-9, master_seed: int = 0
) -> list:
    """Randomized verification: `trials` seeded trials per id over the spec pool.

    Per-trial seeds are ``derive_seed(master_seed, "trial:" + id, i)``, so the
    outcome does not depend on execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ids = list(ids)
    for iid in ids:
        if iid not in INEQUALITY_IDS:
            raise UnknownInequalityError(f"unknown inequality id {iid!r}")
    reports = []
    for iid in ids:
        pool = applicable_specs(iid, specs)
        violations = 0
        worst = math.inf
        worst_seed = 0
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


# ---------------------------------------------------------------------------
# Sharpness scanner.

SCAN_TARGETS = {
    "T36": SQRT2,
    "T37": SUM_SHARP_CONSTANT,
    "C32": SQRT2,
    "R33": 1.0,
}

_SCAN_POLISH_CHAIN = 4
_SCAN_POLISH_FEV = 6000


@dataclass(frozen=True)
class ScanResult:
    inequality_id: str
    best_ratio: float
    target: float
    witness_x: ComplexMatrix
    witness_y: ComplexMatrix
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "id": self.inequality_id,
            "best_ratio": self.best_ratio,
            "target": self.target,
            "iterations": self.iterations,
            "witness_x": self.witness_x.to_json_dict(),
            "witness_y": self.witness_y.to_json_dict(),
        }


def _ratio_for(inequality_id: str):
    """The scan objective target * lhs / rhs of the registry entry, at most
    the target and equal to it at a sharp pair.  A vanishing denominator
    gives -inf; for C32 and R33 that is X - Y negligible against the
    operands."""
    sides, target = _REGISTRY[inequality_id], SCAN_TARGETS[inequality_id]
    rel = 1e-12 if inequality_id in ("C32", "R33") else 0.0

    def ratio(x, y):
        pair = _Pair(x, y)
        lhs, rhs = sides(pair)
        if rhs == 0.0 or (rel and rhs <= target * rel * max(pair.nx, pair.ny, 1.0)):
            return -math.inf
        return target * lhs / rhs

    return ratio


class _RawPairCodec:
    """Parameters are [re X, im X, re Y, im Y], each dim^2 row-major."""

    def __init__(self, dim: int):
        self.dim = dim
        self.block = dim * dim
        self.nparams = 4 * self.block

    def decode(self, p: np.ndarray):
        d, b = self.dim, self.block
        x = (p[0:b] + 1j * p[b : 2 * b]).reshape(d, d)
        y = (p[2 * b : 3 * b] + 1j * p[3 * b : 4 * b]).reshape(d, d)
        return x, y


class _NormalPairCodec:
    """Parameters for a pair constrained to the normal matrices:
    X = V diag(d) V* with V the phase-fixed QR factor of a free matrix A.
    Layout: [re A_x, im A_x, re A_y, im A_y, re d_x, im d_x, re d_y, im d_y].
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.block = dim * dim
        self.nparams = 4 * self.block + 4 * dim

    def _unitary(self, re, im):
        return _phase_fixed_q((re + 1j * im).reshape(self.dim, self.dim))

    def decode(self, p: np.ndarray):
        b, d = self.block, self.dim
        vx = self._unitary(p[0:b], p[b : 2 * b])
        vy = self._unitary(p[2 * b : 3 * b], p[3 * b : 4 * b])
        o = 4 * b
        dx = p[o : o + d] + 1j * p[o + d : o + 2 * d]
        dy = p[o + 2 * d : o + 3 * d] + 1j * p[o + 3 * d : o + 4 * d]
        return _normal(vx, dx), _normal(vy, dy)


def sharpness_scan(
    inequality_id: str, dim: int, iterations: int, master_seed: int = 0
) -> ScanResult:
    """Maximize the lhs/rhs-coefficient ratio within exactly `iterations`
    evaluations.

    Each restart draws a standard normal start point and runs a chain of up
    to four derivative-free Nelder-Mead searches, each starting where the
    last ended, until one fails to improve; restarts continue until the
    budget is spent.  Deterministic in master_seed.  The scanner corroborates
    sharpness; it certifies nothing.
    """
    if inequality_id not in SCAN_TARGETS:
        raise ValueError(
            f"{inequality_id!r} has no scannable ratio form; known: {sorted(SCAN_TARGETS)}"
        )
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    target = SCAN_TARGETS[inequality_id]
    codec = _NormalPairCodec(dim) if inequality_id == "R33" else _RawPairCodec(dim)
    ratio_fn = _ratio_for(inequality_id)
    rng = CounterRng(derive_seed(master_seed, "scan:" + inequality_id, dim))

    evals = 0

    def evaluate(p):
        nonlocal evals
        evals += 1
        x, y = codec.decode(p)
        return ratio_fn(x, y)

    best, best_params = -math.inf, None
    while evals < iterations:
        start, current = rng.normals(codec.nparams), -math.inf
        for _ in range(_SCAN_POLISH_CHAIN):
            remaining = iterations - evals
            if remaining < 1:
                break
            result = minimize(
                lambda p: -evaluate(p),
                start,
                method="Nelder-Mead",
                options={
                    "maxfev": min(_SCAN_POLISH_FEV, remaining),
                    "xatol": 1e-13,
                    "fatol": 1e-14,
                },
            )
            value = -result.fun
            if best_params is None or value > best:
                best, best_params = value, result.x.copy()
            if value <= current + 1e-15:
                break
            current, start = value, result.x
    wx, wy = codec.decode(best_params)
    return ScanResult(
        inequality_id, float(best), target, ComplexMatrix(wx), ComplexMatrix(wy), iterations
    )
