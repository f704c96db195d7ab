"""Command-line entry point: compute, check, verify, reproduce, scan.

Matrices are always passed as JSON files ({"rows", "cols", "re", "im"}).
Exit codes: 0 success, 1 a verified quantity missed its target or an
inequality was violated, 2 bad input (malformed JSON, shape mismatch,
unknown id, zero operand where an angle is required, --dims outside 1..64,
a tolerance that is not finite and positive, an unwritable --output, a
result outside float64, a request too large to allocate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .matrix_core import ComplexMatrix, ValidationError
from .spectral import EigensolverError, abs_op, polar, polar_identity_residuals
from .hs_geometry import angle_report
from .inequality_suite import DEFAULT_CHECK_TOL, INEQUALITY_IDS, check
from .random_lab import (
    ENSEMBLE_KINDS,
    MAX_DIM,
    GeneratorSpec,
    reproduce_witnesses,
    run_property_suite,
)
from .scan import _DIM_HELP, sharpness_scan

# Every custom input error (ValidationError, ZeroOperandError, ...) is a
# ValueError; OSError covers unreadable and unwritable paths, MemoryError a
# request too large to allocate, such as verify --trials 2**55.
_INPUT_ERRORS = (ValueError, OSError, EigensolverError, MemoryError)


def _load_matrix(path: str) -> ComplexMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    return ComplexMatrix.from_json_dict(obj)


def _fmt(value) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return format(value, ".17g")


def _text_lines(obj, prefix="") -> list:
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            lines.extend(_text_lines(val, name))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            lines.extend(_text_lines(val, f"{prefix}[{i}]"))
    else:
        lines.append(f"{prefix} = {_fmt(obj)}")
    return lines


def _emit(payloads, args) -> None:
    """Write one JSON object (or text block) per payload, line-separated;
    a result outside float64 is an error in either format."""
    try:
        blocks = [json.dumps(p, allow_nan=False) for p in payloads]
    except ValueError as exc:
        raise ValidationError(f"result outside float64 (inf or nan): {exc}") from exc
    if args.format == "text":
        blocks = ["\n".join(_text_lines(p)) for p in payloads]
    out = "\n".join(blocks) + "\n"
    if args.output == "-":
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)


def _parse_dims(raw: str) -> list:
    """--dims as a list, from "lo..hi" or "d1,d2,...": every dimension must
    lie in [1, MAX_DIM], and a range's ends are checked before it is built."""
    span = ".." in raw
    try:
        ends = [int(p) for p in (raw.split("..", 1) if span else raw.split(","))]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --dims {raw!r}: use e.g. 1..8 or 2,4,6") from exc
    if not all(1 <= d <= MAX_DIM for d in ends):
        raise ValidationError(f"--dims must name dimensions in 1..{MAX_DIM}, got {raw!r}")
    dims = list(range(ends[0], ends[1] + 1)) if span else ends
    if not dims:
        raise ValidationError(f"--dims names no dimension, got {raw!r}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsangle",
        description="Hilbert-Schmidt angles, decompositions, and inequality verification.",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_CHECK_TOL, help="relative tolerance (default 1e-9)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default="-", metavar="PATH", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angle", help="cosine/sine/inner product for a pair")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("abs", help="operator absolute value")
    p.add_argument("x")

    p = sub.add_parser("polar", help="polar decomposition plus identity residuals")
    p.add_argument("x")

    p = sub.add_parser("check", help="evaluate one registry inequality")
    p.add_argument("--id", required=True, dest="inequality_id", metavar="ID")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("verify", help="randomized suite over the whole registry")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--dims", default="1..8")
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("repro", help="recompute the sharp-witness quantities")

    p = sub.add_parser("scan", help="search for extremal pairs")
    p.add_argument("--id", required=True, dest="inequality_id", metavar="ID")
    p.add_argument("--dim", type=int, required=True, help=_DIM_HELP)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


# Each command returns its payloads and whether every verified quantity
# met its target; main alone emits them and maps the verdict to 0 or 1.
def _cmd_angle(args):
    return [angle_report(_load_matrix(args.x), _load_matrix(args.y)).to_json_dict()], True


def _cmd_abs(args):
    return [abs_op(_load_matrix(args.x)).to_json_dict()], True


def _cmd_polar(args):
    x = _load_matrix(args.x)
    parts = polar(x)
    payload = {
        "u": parts.u.to_json_dict(),
        "abs": parts.abs.to_json_dict(),
        "residuals": polar_identity_residuals(x, parts),
    }
    return [payload], True


def _cmd_check(args):
    rep = check(args.inequality_id, _load_matrix(args.x), _load_matrix(args.y), args.tol)
    return [rep.to_json_dict()], rep.holds


def _cmd_verify(args):
    dims = _parse_dims(args.dims)
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    reports = run_property_suite(INEQUALITY_IDS, specs, args.trials, args.tol, args.seed)
    return [r.to_json_dict() for r in reports], all(r.violations == 0 for r in reports)


def _cmd_repro(args):
    report = reproduce_witnesses()
    return [report.to_json_dict()], report.passed


def _cmd_scan(args):
    result = sharpness_scan(args.inequality_id, args.dim, args.iters, args.seed)
    # Exceeding the proved-sharp target signals broken numerics, not a discovery.
    return [result.to_json_dict()], result.best_ratio <= result.target * (1.0 + 1e-9)


_COMMANDS = {
    "angle": _cmd_angle,
    "abs": _cmd_abs,
    "polar": _cmd_polar,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "repro": _cmd_repro,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # An overflow on an accepted input ends in a non-finite result, which
    # _emit maps to exit 2; numpy's warnings about it would only add noise.
    try:
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise ValidationError(f"--tol must be finite and positive, got {args.tol!r}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            payloads, passed = _COMMANDS[args.command](args)
        _emit(payloads, args)
        return 0 if passed else 1
    except _INPUT_ERRORS as exc:
        # An error without a message, such as a MemoryError, is named by its class.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
