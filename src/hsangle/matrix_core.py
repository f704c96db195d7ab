"""Dense complex matrices and the arithmetic primitives everything else builds on.

Values are immutable wrappers around ``complex128`` arrays.  Construction
rejects non-finite entries, which keeps every downstream contract total.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """A matrix or vector failed a construction or parsing invariant."""


class ShapeError(ValidationError):
    """Operand shapes do not conform."""


def _validated(entries, ndim: int) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128, order="C")
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0 or min(arr.shape) < 1:
        raise ValidationError(f"dimensions must be positive, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("non-finite entry (NaN or Inf) rejected")
    arr.setflags(write=False)
    return arr


# The JSON type of a parsed value, for naming an entry that is not a number.
_JSON_TYPES = {str: "string", bool: "boolean", type(None): "null", list: "array", dict: "object"}


def _json_grid(grid, field: str, rows: int, cols: int) -> np.ndarray:
    """The float64 rows x cols array of a JSON array of rows arrays of cols
    numbers each.  A boolean, string or null entry is refused by its JSON
    type, not read as a number or as NaN."""
    if not (
        isinstance(grid, list)
        and len(grid) == rows
        and all(isinstance(row, list) and len(row) == cols for row in grid)
    ):
        raise ValidationError(
            f"matrix JSON shape mismatch: declared {rows}x{cols}, "
            f"but {field} is not {rows} arrays of {cols} entries"
        )
    for row in grid:
        for e in row:
            if isinstance(e, bool) or not isinstance(e, (int, float)):
                kind = _JSON_TYPES.get(type(e), type(e).__name__)
                raise ValidationError(f"matrix JSON {field} entries must be numbers, got JSON {kind}")
    try:
        return np.array(grid, dtype=np.float64)
    except OverflowError as exc:
        raise ValidationError(f"matrix JSON entries not numeric: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """Immutable dense complex matrix.  ``a`` is a read-only complex128 array."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _validated(self.a, 2))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def from_rows(cls, rows) -> "ComplexMatrix":
        return cls(np.asarray(rows, dtype=np.complex128))

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": self.a.real.tolist(),
            "im": self.a.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj) -> "ComplexMatrix":
        if not isinstance(obj, dict):
            raise ValidationError("matrix JSON must be an object")
        missing = {"rows", "cols", "re", "im"} - set(obj)
        if missing:
            raise ValidationError(f"matrix JSON missing fields: {sorted(missing)}")
        rows, cols = obj["rows"], obj["cols"]
        if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in (rows, cols)):
            raise ValidationError("rows and cols must be positive integers")
        re, im = (_json_grid(obj[field], field, rows, cols) for field in ("re", "im"))
        return cls(re + 1j * im)


@dataclass(frozen=True, eq=False)
class ComplexVector:
    """Immutable complex vector, used by the rank-one constructor."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _validated(self.v, 1))

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @classmethod
    def from_entries(cls, entries) -> "ComplexVector":
        return cls(np.asarray(entries, dtype=np.complex128))

    def as_column(self) -> ComplexMatrix:
        return ComplexMatrix(self.v.reshape(-1, 1))


class _cached:
    """A cached property: fn(obj), computed on the first read and stored on
    obj, where later reads find it.  functools.cached_property does the same
    but, before Python 3.12, takes a lock on every first read, which costs
    about as much as a numpy call on a small stack."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def identity(n: int) -> ComplexMatrix:
    return ComplexMatrix(np.eye(n, dtype=np.complex128))


def zeros(rows: int, cols: int) -> ComplexMatrix:
    return ComplexMatrix(np.zeros((rows, cols), dtype=np.complex128))


def adjoint(x: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return ComplexMatrix(x.a.conj().T)


def trace(x: ComplexMatrix) -> complex:
    if not x.is_square:
        raise ShapeError(f"trace requires a square matrix, got {x.rows}x{x.cols}")
    return complex(np.trace(x.a))


def matmul(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    if x.cols != y.rows:
        raise ShapeError(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    return ComplexMatrix(x.a @ y.a)


def add(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    if x.a.shape != y.a.shape:
        raise ShapeError(f"cannot add {x.rows}x{x.cols} and {y.rows}x{y.cols}")
    return ComplexMatrix(x.a + y.a)


def scale(gamma: complex, x: ComplexMatrix) -> ComplexMatrix:
    return ComplexMatrix(gamma * x.a)


def vec_inner(a: ComplexVector, b: ComplexVector) -> complex:
    """Vector inner product, conjugate-linear in the second argument."""
    if a.dim != b.dim:
        raise ShapeError(f"vector dims differ: {a.dim} vs {b.dim}")
    return complex(np.sum(a.v * b.v.conj()))


def rank_one(a: ComplexVector, b: ComplexVector) -> ComplexMatrix:
    """Rank-one operator c -> <c,b> a; entries a[i] * conj(b[j])."""
    return ComplexMatrix(np.outer(a.v, b.v.conj()))


def digest(*mats: ComplexMatrix) -> str:
    """Short stable hex digest of one or more matrices (shape + entry bytes)."""
    h = hashlib.sha256()
    for m in mats:
        h.update(np.int64(m.rows).tobytes())
        h.update(np.int64(m.cols).tobytes())
        h.update(np.ascontiguousarray(m.a).tobytes())
    return h.hexdigest()[:16]
