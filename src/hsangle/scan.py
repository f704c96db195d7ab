"""The sharpness scanner: restarted Nelder-Mead in lockstep over the ratio
target * lhs / rhs of a registry record, searching for extremal pairs."""

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import ComplexMatrix
from .inequality_suite import _REGISTRY, _OperandStack, _lookup, _sides
from .random_lab import _STACK_ENTRIES, MAX_DIM, CounterRng, _phase_fixed_q, derive_seed
from .spectral import _CLOSED_SHAPE, _vdv

SCAN_TARGETS = {i: r.target for i, r in _REGISTRY.items() if r.target is not None}

# Restarts run in lockstep, each a chain of at most _SCAN_POLISH_CHAIN
# Nelder-Mead polishes of at most _SCAN_POLISH_FEV evaluations.  In the
# gauge-fixed slice (_search_space) a polish takes at most _SLICE_POLISH_FEV,
# and the restarts follow the budget: restarts x polish is what a scan
# leaves unfinished when its budget ends, so it is held at _SLICE_SHARE of
# the budget, with at least one restart and at most _SLICE_RESTARTS.
_SCAN_RESTARTS, _SCAN_POLISH_CHAIN, _SCAN_POLISH_FEV = 7, 4, 6000
_SLICE_RESTARTS, _SLICE_POLISH_FEV, _SLICE_SHARE = 36, 750, 0.27
# The simplices, (n+1) x n floats per restart, hold at most this many bytes:
# fewer restarts run where seven do not fit (above dim 23, above 22 for R33),
# and a dim whose one simplex does not fit (above 38, above 37 for R33) is
# refused.  The scan's peak memory is a few times this.
_SCAN_SIMPLEX_BYTES = 256 * 2**20
# Nelder-Mead stop rules, and the steps of the initial simplex along each
# axis (relative for a nonzero coordinate, absolute for a zero one).
_SCAN_XATOL, _SCAN_FATOL = 1e-13, 1e-14
_SCAN_NONZDELT, _SCAN_ZDELT = 0.05, 0.00025
# The coefficients 1 + t of xbar and t of worst in the points
# (1 + t) xbar - t worst of a step, shaped (4, 1, 1): the reflection (t = 1),
# then, by expand + outside, the point that may follow it: inside (t = -1/2)
# or outside (t = 1/2) contraction, or expansion (t = 2).
_SCAN_XBAR, _SCAN_WORST = np.array([[2.0, 0.5, 1.5, 3.0], [1.0, -0.5, 0.5, 2.0]])[..., None, None]


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
    """The scan objective target * lhs / rhs of the registry record, at most
    the target and equal to it at a sharp pair: ratio(xy) maps a pair stack
    (2, k, d, d), such as a decoder gives, to the k ratios.  A denominator
    that vanishes, or falls below the record's floor relative to the
    operands, gives -inf."""
    r = _lookup(inequality_id)

    def ratio(xy):
        pair = _OperandStack(xy)
        lhs, rhs = _sides(inequality_id, pair)
        floor = r.target * r.floor * np.maximum(pair.norms.max(axis=0), 1.0) if r.floor else 0.0
        out = np.empty(len(rhs))
        out.fill(-math.inf)
        return np.divide(r.target * lhs, rhs, out=out, where=rhs > floor)

    return ratio


def _raw_pair(p: np.ndarray, dim: int) -> np.ndarray:
    """The pair stack (2, k, dim, dim) of the k parameter rows of p
    (k, 4 dim^2), or of one row: [re X, im X, re Y, im Y], each dim^2
    row-major."""
    q = p.reshape(-1, 2, 2, dim, dim)
    # One copy moves each entry's (re, im) to the last axis, read as complex.
    return np.ascontiguousarray(q.transpose(1, 0, 3, 4, 2)).view(complex)[..., 0]


def _normal_pair(p: np.ndarray, dim: int) -> np.ndarray:
    """The pair stack (2, k, dim, dim) of normal matrices V diag(d) V*, with
    V the phase-fixed QR factor of a free matrix A, of the k parameter rows
    of p (k, n), or of one row (n,).  Row layout: [re A_x, im A_x, re A_y,
    im A_y, re d_x, im d_x, re d_y, im d_y]."""
    p = np.atleast_2d(p)
    q = p[:, 4 * dim * dim :].reshape(len(p), 2, 2, dim).transpose(1, 2, 0, 3)
    return _vdv(_phase_fixed_q(_raw_pair(p[:, : 4 * dim * dim], dim)), q[:, 0] + 1j * q[:, 1])


def _slice_pair(p: np.ndarray, dim: int) -> np.ndarray:
    """The pair stack (2, k, dim, dim) of X = diag(s), s real, and Y free,
    of the k parameter rows of p (k, 2 dim^2 + dim), or of one row:
    [s, re Y, im Y], Y row-major.  A ratio invariant under (X, Y) ->
    (UXW, UYW) takes every value it has on pairs on this slice: with
    X = W diag(s) V*, (X, Y) has the ratio of (diag(s), W* Y V)."""
    p = p.reshape(-1, dim * (2 * dim + 1))
    xy = np.zeros((2, len(p), dim, dim), dtype=complex)
    xy[0].reshape(len(p), -1)[:, :: dim + 1] = p[:, :dim]
    y = p[:, dim:].reshape(-1, 2, dim, dim)
    xy.real[1], xy.imag[1] = y[:, 0], y[:, 1]
    return xy


def _search_space(inequality_id: str, dim: int, budget: int):
    """(decode, n, restarts, polish) of a scan of inequality_id at dim with
    budget evaluations: the decoder of its parameter rows, their count n,
    the lockstep restarts and the evaluations a polish may take.  R33
    searches normal pairs.  At dim 2 an id whose target a pair attains (no
    denominator floor: T36 and T37) searches the gauge-fixed slice with
    polishes of _SLICE_POLISH_FEV evaluations, in as many restarts as
    _SLICE_SHARE of the budget gives polishes, between 1 and
    _SLICE_RESTARTS: restarts x polish is what a scan leaves unfinished
    when its budget ends, and a larger share left more of its scans short of
    the band, while a wider lockstep steps more points for the same fixed
    cost.  A budget below one polish finishes none at any width, and runs
    _SLICE_RESTARTS restarts, as many as its initial simplices reach.  Above
    dim 2 the slice searched worse, and C32, whose supremum is approached
    only as Y -> X, searched worse in it at dim 2 too.  Every other scan
    searches free pairs with _SCAN_RESTARTS restarts."""
    record = _lookup(inequality_id)
    if record.domain == "normal":
        return _normal_pair, 4 * dim * dim + 4 * dim, _SCAN_RESTARTS, _SCAN_POLISH_FEV
    if dim == 2 and not record.floor:
        restarts = _SLICE_RESTARTS
        if budget >= _SLICE_POLISH_FEV:
            restarts = max(1, min(restarts, math.floor(_SLICE_SHARE * budget / _SLICE_POLISH_FEV)))
        return _slice_pair, 2 * dim * dim + dim, restarts, _SLICE_POLISH_FEV
    return _raw_pair, 4 * dim * dim, _SCAN_RESTARTS, _SCAN_POLISH_FEV


def _simplex_fit(inequality_id: str, dim: int) -> int:
    """How many (n+1) x n simplices of a scan of inequality_id at dim fit
    _SCAN_SIMPLEX_BYTES."""
    n = _search_space(inequality_id, dim, 1)[1]  # n does not depend on the budget
    return _SCAN_SIMPLEX_BYTES // (8 * n * (n + 1))


def _largest_fit(inequality_id: str, simplices: int = 1) -> int:
    """The largest dim at which that many simplices of a scan of
    inequality_id fit _SCAN_SIMPLEX_BYTES."""
    return max(d for d in range(1, MAX_DIM + 1) if _simplex_fit(inequality_id, d) >= simplices)


# hsangle scan's --dim help: the restarts, and the dims the simplex cap gives.
_DIM_HELP = (
    f"1..{MAX_DIM}; {_SCAN_RESTARTS} Nelder-Mead restarts run in lockstep "
    f"(where a scan fixes X diagonal, 1 to {_SLICE_RESTARTS}: one per "
    f"{_SLICE_POLISH_FEV}-evaluation polish in {_SLICE_SHARE} of --iters); "
    f"the simplices may hold {_SCAN_SIMPLEX_BYTES >> 20} MiB, "
    f"so fewer than {_SCAN_RESTARTS} restarts run above dim "
    f"{_largest_fit('T37', _SCAN_RESTARTS)} ({_largest_fit('R33', _SCAN_RESTARTS)} for R33), "
    f"and a dim above {_largest_fit('T37')} ({_largest_fit('R33')} for R33), "
    "whose one simplex does not fit, exits 2"
)


class _Budget:
    """A scan's evaluations left and the best point charged to it; the one
    place that values parameter rows, by the id's ratio over the pairs that
    decode gives at dim."""

    def __init__(self, inequality_id: str, dim: int, decode, evaluations: int):
        self.ratio, self.dim, self.decode = _ratio_for(inequality_id), dim, decode
        self.chunk = _STACK_ENTRIES // dim**2
        self.left, self.best, self.params = evaluations, -math.inf, None

    def values(self, points: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        """Writes -ratio of each row of points, minimized, to f, or to a new
        array (a NaN ratio gives +inf), chunk rows at a time.  Returns f."""
        if f is None and 0 < len(points) <= self.chunk:
            return np.fmin(-self.ratio(self.decode(points, self.dim)), math.inf)
        f = np.empty(len(points)) if f is None else f
        for i in range(0, len(points), self.chunk):
            p = points[i : i + self.chunk]
            np.fmin(-self.ratio(self.decode(p, self.dim)), math.inf, out=f[i : i + len(p)])
        return f

    def charge(self, points: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
        """Charge the rows of points, of values f (-ratio), in order: the
        rows past the budget get +inf in f, the others may set the best.
        Without f, values only the rows within the budget.  Returns f."""
        k = min(len(points), self.left)
        if k < len(points):
            f = self.values(points[:k], np.empty(len(points))) if f is None else f
            f[k:] = math.inf
        elif f is None:
            f = self.values(points)
        if k:
            self.left -= k
            i = f.argmin()
            if self.params is None or -f[i] > self.best:
                self.best, self.params = -f[i], points[i].copy()
        return f


def sharpness_scan(
    inequality_id: str, dim: int, iterations: int, master_seed: int = 0
) -> ScanResult:
    """Maximize the lhs/rhs-coefficient ratio within exactly `iterations`
    evaluations.

    The restarts that the id's search space at dim gives the budget
    (_search_space; fewer if the budget ends in their first simplices, or if
    their simplices would hold more than _SCAN_SIMPLEX_BYTES; a dim where
    one does is refused) run Nelder-Mead (Nelder and Mead 1965; coefficients
    1, 2, 1/2, 1/2) in lockstep over its parameter rows.  Each step
    evaluates the initial simplices of the polishes that begin, then the
    reflections and the expansions and contractions that follow them, then
    the shrink points.  At dim 2, where the moduli come in closed form and a
    stack of 144 points (36 restarts) costs less than three times as much as
    one point, the reflections and all three points that may follow each are
    one stack; above dim 2 they are two stacks, the second holding only the
    points that follow.  A restart draws a standard normal start point and
    runs a chain of polishes, each starting where the last ended, until one
    fails to improve; then it draws a fresh start, in restart order.  A
    polish ends at the stop rules, when fewer than two of the evaluations
    the search space gives it remain, or at a shrink that would pass them
    (an initial simplex of more points is evaluated whole).  The budget
    counts the charged points exactly: those plain Nelder-Mead evaluates, in
    its order, never the points that a step at dim 2 values ahead but does
    not take.  The last stack is cut to the budget, and the scan ends once
    it is spent.  A stack is decoded and evaluated _STACK_ENTRIES entries
    per operand at a time.  Deterministic in master_seed.  The scanner
    corroborates sharpness; it certifies nothing.
    """
    record = _lookup(inequality_id)
    if record.target is None:
        raise ValueError(
            f"{inequality_id!r} has no scannable ratio form; known: {sorted(SCAN_TARGETS)}"
        )
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    decode, n, restarts, polish = _search_space(inequality_id, dim, iterations)
    fit = _simplex_fit(inequality_id, dim)
    if not fit:
        raise ValueError(
            f"a scan of {inequality_id} at dim {dim} needs more than the "
            f"{_SCAN_SIMPLEX_BYTES >> 20} MiB its Nelder-Mead simplex may hold; "
            f"the largest dim that fits is {_largest_fit(inequality_id)}"
        )
    rng = CounterRng(derive_seed(master_seed, "scan:" + inequality_id, dim))
    budget, lookahead = _Budget(inequality_id, dim, decode, iterations), (dim, dim) == _CLOSED_SHAPE
    # The simplices are vertex-major: sim[v] holds vertex v of every restart
    # and fsim[v] its values, each sorted from best (v = 0) to worst.
    r, axis = min(restarts, -(-iterations // (n + 1)), fit), np.arange(n)
    cols, sim, fsim = np.arange(r), np.empty((n + 1, r, n)), np.empty((n + 1, r))
    fev, link, last = np.zeros(r, dtype=int), np.zeros(r, dtype=int), np.full(r, -math.inf)
    x0, fresh, begin = rng.normals(r * n).reshape(r, n), np.ones(r, dtype=bool), True
    inf_row = np.full(r, math.inf)
    while budget.left:
        if begin:
            s = np.repeat(x0[:, None], n + 1, axis=1)
            s[:, axis + 1, axis] = np.where(x0 != 0.0, (1.0 + _SCAN_NONZDELT) * x0, _SCAN_ZDELT)
            fs = budget.charge(s.reshape(-1, n)).reshape(-1, n + 1)
            if not budget.left:
                break
            i, order = np.arange(len(fs))[:, None], fs.argsort(axis=1)
            sim[:, fresh], fsim[:, fresh] = s[i, order].swapaxes(0, 1), fs[i, order].T
            fev[fresh] = n + 1
        # xr = pts[0] holds the reflections and succ[expand + outside] the
        # points that may follow them; with lookahead all four are valued
        # ahead in one stack, charged only where Nelder-Mead evaluates them.
        xbar, worst, fworst = np.add.reduce(sim[:-1]) / n, sim[-1], fsim[-1]
        pts = _SCAN_XBAR * xbar - _SCAN_WORST * worst
        xr, succ = pts[0], pts[1:]
        ahead = budget.values(pts.reshape(-1, n)).reshape(4, r) if lookahead else None
        fr = budget.charge(xr, None if ahead is None else ahead[0])
        # Where the reflection is not kept outright: expansion, outside or
        # inside contraction.  Its point is taken where it beats the worst
        # vertex and the reflection, which an expansion must beat strictly
        # (f2 is +inf where there is none); a contraction that is not taken
        # shrinks the simplex.  fr is never NaN, so ~below[0] is fr >= fsim[-2].
        expand, below = fr < fsim[0], fr < fsim[-2:]
        second = expand | ~below[0]
        step = expand.view(np.uint8) + below[1].view(np.uint8)
        x2, f2 = succ[step, cols], inf_row.copy()
        a2 = None if ahead is None else ahead[1:][step, cols].compress(second)
        f2[second] = budget.charge(x2.compress(second, axis=0), a2)
        take = (f2 < fworst) & np.where(expand, f2 < fr, f2 <= fr)
        shrink = second & ~(expand | take)
        # The worst vertex becomes the second point where it is taken, else
        # the reflection, except where the simplex shrinks.
        moved = ~shrink
        np.copyto(worst, xr, where=moved[:, None])
        np.copyto(worst, x2, where=take[:, None])
        np.copyto(fworst, fr, where=moved)
        np.copyto(fworst, f2, where=take)
        fev += 1 + second
        over = shrink & (fev > polish - n)
        shrink ^= over
        if np.count_nonzero(shrink):
            h = sim[:1, shrink] + 0.5 * (sim[1:, shrink] - sim[:1, shrink])
            sim[1:, shrink] = h
            fsim[1:, shrink] = budget.charge(h.swapaxes(0, 1).reshape(-1, n)).reshape(-1, n).T
            fev[shrink] += n
        # Sort each restart's vertices by flat indices into sim and fsim.
        order = fsim.argsort(axis=0)
        order *= r
        order += cols
        sim, fsim = sim.reshape(-1, n).take(order, axis=0), fsim.take(order)
        # A restart whose polish ends goes on from the best vertex while the
        # chain improves, else from a fresh start.
        flat = fsim[-1] <= fsim[0] + _SCAN_FATOL
        if np.count_nonzero(flat):
            flat[flat] = np.abs(sim[1:, flat] - sim[:1, flat]).max(axis=(0, 2)) <= _SCAN_XATOL
        fresh = flat | over | (fev > polish - 2)
        begin = np.count_nonzero(fresh)
        if begin:
            value = -fsim[0, fresh]
            go = (value > last[fresh] + 1e-15) & (link[fresh] + 1 < _SCAN_POLISH_CHAIN)
            x0 = sim[0, fresh]
            x0[~go] = rng.normals(np.count_nonzero(~go) * n).reshape(-1, n)
            last[fresh] = np.where(go, value, -math.inf)
            link[fresh] = np.where(go, link[fresh] + 1, 0)
    wx, wy = map(ComplexMatrix, decode(budget.params, dim)[:, 0])
    return ScanResult(inequality_id, float(budget.best), record.target, wx, wy, iterations)
