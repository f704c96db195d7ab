"""Command-line entry point: compute, check, verify, reproduce, scan.

Matrices are always passed as JSON files ({"rows", "cols", "re", "im"}).
Exit codes: 0 success, 1 a verified quantity missed its target or an
inequality was violated, 2 bad input (malformed JSON, shape mismatch,
unknown id, zero operand where an angle is required, out-of-range --dims,
a tolerance that is not finite and positive, an unwritable --output).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .matrix_core import ComplexMatrix, ValidationError
from .spectral import EigensolverError, abs_op, franca_abs_2x2, polar, polar_identity_residuals
from .hs_geometry import angle_report
from .inequality_suite import INEQUALITY_IDS, check
from .random_lab import (
    ENSEMBLE_KINDS,
    GeneratorSpec,
    reproduce_witnesses,
    run_property_suite,
    sharpness_scan,
)

# Every custom input error (ValidationError, ZeroOperandError, ...) is a
# ValueError; OSError covers unreadable and unwritable paths.
_INPUT_ERRORS = (ValueError, OSError, EigensolverError)


def _tolerance(cli_tol) -> float:
    """--tol, else HSANGLE_TOL, else 1e-9; either must be finite and positive."""
    if cli_tol is not None:
        source, raw = "--tol", cli_tol
    else:
        source, raw = "HSANGLE_TOL", os.environ.get("HSANGLE_TOL", "1e-9")
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValidationError(f"{source} is not a number: {raw!r}") from exc
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"{source} must be finite and positive, got {raw!r}")
    return tol


def _load_matrix(path: str) -> ComplexMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    """Write one JSON object (or text block) per payload, line-separated."""
    if args.format == "json":
        out = "\n".join(json.dumps(p) for p in payloads) + "\n"
    else:
        out = "\n".join("\n".join(_text_lines(p)) for p in payloads) + "\n"
    if args.output == "-":
        sys.stdout.write(out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)


def _parse_dims(raw: str) -> list:
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(p) for p in raw.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --dims {raw!r}: use e.g. 1..8 or 2,4,6") from exc
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"--dims must name positive dimensions, got {raw!r}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsangle",
        description="Hilbert-Schmidt angles, decompositions, and inequality verification.",
    )
    parser.add_argument("--tol", type=float, default=None, help="relative tolerance (default 1e-9; HSANGLE_TOL overrides the default)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default="-", metavar="PATH", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angle", help="cosine/sine/inner product for a pair")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("abs", help="operator absolute value")
    p.add_argument("x")
    p.add_argument("--franca", action="store_true", help="use the closed 2x2 formula")

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
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_angle(args, tol) -> int:
    rep = angle_report(_load_matrix(args.x), _load_matrix(args.y))
    _emit([rep.to_json_dict()], args)
    return 0


def _cmd_abs(args, tol) -> int:
    x = _load_matrix(args.x)
    result = franca_abs_2x2(x) if args.franca else abs_op(x)
    _emit([result.to_json_dict()], args)
    return 0


def _cmd_polar(args, tol) -> int:
    x = _load_matrix(args.x)
    parts = polar(x)
    payload = {
        "u": parts.u.to_json_dict(),
        "abs": parts.abs.to_json_dict(),
        "residuals": polar_identity_residuals(x, parts),
    }
    _emit([payload], args)
    return 0


def _cmd_check(args, tol) -> int:
    rep = check(args.inequality_id, _load_matrix(args.x), _load_matrix(args.y), tol)
    _emit([rep.to_json_dict()], args)
    return 0 if rep.holds else 1


def _cmd_verify(args, tol) -> int:
    dims = _parse_dims(args.dims)
    specs = [GeneratorSpec(kind, dim) for kind in ENSEMBLE_KINDS for dim in dims]
    reports = run_property_suite(INEQUALITY_IDS, specs, args.trials, tol, args.seed)
    _emit([r.to_json_dict() for r in reports], args)
    return 0 if all(r.violations == 0 for r in reports) else 1


def _cmd_repro(args, tol) -> int:
    report = reproduce_witnesses()
    _emit([report.to_json_dict()], args)
    return 0 if report.passed else 1


def _cmd_scan(args, tol) -> int:
    result = sharpness_scan(args.inequality_id, args.dim, args.iters, args.seed)
    _emit([result.to_json_dict()], args)
    # Exceeding the proved-sharp target signals broken numerics, not a discovery.
    return 0 if result.best_ratio <= result.target * (1.0 + 1e-9) else 1


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
    try:
        return _COMMANDS[args.command](args, _tolerance(args.tol))
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
