"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(bad flags, files, or JSON; a JSON diagnostic naming the offending field
goes to stderr), 3 numerical failure (singular contour, unresolved point,
and similar; diagnostic JSON to stderr).

All artifacts are deterministic for a fixed configuration and seed: JSON
is emitted with sorted keys and 17-significant-digit floats, CSV uses the
same float format, and no output contains timestamps or timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import is_dataclass

from .classify import (
    asymptotic_equiv,
    is_asymptotic_quasinilpotent,
    quasinilpotent_equiv,
    verdict_to_dict,
)
from .errors import (
    AsymspecError,
    BadParameter,
    DimensionMismatch,
    LengthMismatch,
    OutOfRange,
    ParseError,
    SchemaError,
)
from .exprs import Var, parse_constant, parse_expr
from .families import (
    FamilySpec,
    HGrid,
    family_eval_stack,
    family_from_dict,
    geometric_grid,
    tail_vanishes,
)
from .funcalc import ContourSpec, expr_function, family_funcalc, require_enclosing
from .linalg import matrix_to_dict
from .spectrum import (
    ComplexRegion,
    default_epsilon,
    default_region,
    field_to_csv,
    quotient_norm_bounds,
    resolvent_norm_field,
    series_resolvent,
    spectrum_estimate,
    spectrum_to_dict,
)
from .verification import DEFAULT_SEED, SUITE_NAMES, run_all_suites

_CONFIG_ERRORS = (
    SchemaError,
    BadParameter,
    ParseError,
    OutOfRange,
    DimensionMismatch,
    LengthMismatch,
)


# ---------------------------------------------------------------------------
# canonical serialization: sorted keys, %.17g floats, inf/nan as strings


def _canon(obj, pieces: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        pieces.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            pieces.append("%.17g" % obj)
        else:
            pieces.append(json.dumps("nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")))
    elif isinstance(obj, complex):
        _canon([obj.real, obj.imag], pieces)
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)))
            pieces.append(":")
            _canon(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(",")
            _canon(item, pieces)
        pieces.append("]")
    else:
        raise BadParameter(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    pieces: list[str] = []
    _canon(obj, pieces)
    return "".join(pieces) + "\n"


def _emit(args, artifacts: dict[str, str], summary: str | None = None) -> int:
    """With --out, write the artifacts (file name -> text) there and print the
    summary line; without it, write the first artifact's text to stdout.
    Returns the success exit code."""
    if not args.out:
        sys.stdout.write(next(iter(artifacts.values())))
        return 0
    os.makedirs(args.out, exist_ok=True)
    for name, text in artifacts.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    if summary is not None:
        print(summary)
    print(f"artifacts written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_complex_flag(text: str, flag: str) -> complex:
    try:
        return parse_constant(text)
    except ParseError as exc:
        raise SchemaError(f"bad complex literal: {exc}", path=flag) from exc


def _load_family(path: str, flag: str) -> FamilySpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read the file: {exc}", path=flag) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"the file is not valid JSON: {exc}", path=flag) from exc
    return family_from_dict(data)


def _grid_from_args(args) -> "HGrid":
    return geometric_grid(args.grid_h0, args.grid_ratio, args.grid_count, args.tail_window)


def _region_from_args(args, fam, grid, default_resolution: int = 101):
    upper = None
    if args.region_half_width is None or args.epsilon is None:
        upper = quotient_norm_bounds(fam, grid).upper
    if args.region_half_width is None:
        half_width = default_region(upper).half_width
    else:
        half_width = args.region_half_width
    center = _parse_complex_flag(args.region_center, "--region-center")
    resolution = args.resolution if args.resolution is not None else default_resolution
    region = ComplexRegion(center, half_width, resolution)
    if args.epsilon is not None:
        return region, args.epsilon
    # sigma_min is 1-Lipschitz in lambda, so the grid point nearest an
    # eigenvalue has sigma_min <= spacing/sqrt(2) < 0.75 * spacing: an epsilon
    # of at least 0.75 * spacing flags it wherever the eigenvalue falls
    return region, max(default_epsilon(upper), 0.75 * region.spacing)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-h0", type=float, default=1.0, help="largest h sample (default 1)")
    p.add_argument("--grid-ratio", type=float, default=0.5, help="geometric ratio (default 0.5)")
    p.add_argument("--grid-count", type=int, default=20, help="number of samples (default 20)")
    p.add_argument("--tail-window", type=int, default=6, help="tail window size (default 6)")


def _add_region_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--region-center", default="0", help="center of the square region (complex literal)"
    )
    p.add_argument(
        "--region-half-width", type=float, default=None, help="half width (default: auto)"
    )
    p.add_argument(
        "--resolution", type=int, default=None, help="points per axis, odd (default depends)"
    )
    p.add_argument(
        "--epsilon", type=float, default=None, help="spectrum threshold 1/epsilon (default: auto)"
    )


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="directory for artifacts (default: stdout only)")


def _tail_dict(tail) -> dict:
    return {
        "value": tail.value,
        "trend": tail.trend.value,
        "window_values": list(tail.window_values),
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_spectrum(args) -> int:
    fam = _load_family(args.family, "--family")
    grid = _grid_from_args(args)
    region, epsilon = _region_from_args(args, fam, grid)
    field = resolvent_norm_field(fam, region, grid)
    estimate = spectrum_estimate(field, epsilon)
    artifacts = {"spectrum.json": canonical_json(spectrum_to_dict(estimate))}
    if args.out:
        artifacts["field.csv"] = field_to_csv(field)
    return _emit(args, artifacts, f"clusters: {len(estimate.clusters)}")


def _cmd_field(args) -> int:
    fam = _load_family(args.family, "--family")
    grid = _grid_from_args(args)
    region, _ = _region_from_args(args, fam, grid)
    return _emit(args, {"field.csv": field_to_csv(resolvent_norm_field(fam, region, grid))})


def _emit_verdict(args, verdict) -> int:
    summary = f"{verdict.kind.value}: {verdict.result.value}"
    return _emit(args, {"verdict.json": canonical_json(verdict_to_dict(verdict))}, summary)


def _cmd_equiv(args) -> int:
    fam = _load_family(args.family, "--family")
    other = _load_family(args.family2, "--family2")
    grid = _grid_from_args(args)
    return _emit_verdict(args, asymptotic_equiv(fam, other, grid, args.tol))


def _cmd_qequiv(args) -> int:
    fam = _load_family(args.family, "--family")
    other = _load_family(args.family2, "--family2")
    grid = _grid_from_args(args)
    tol = args.tol if args.tol is not None else 1e-3
    return _emit_verdict(args, quasinilpotent_equiv(fam, other, grid, args.nmax, tol))


def _cmd_qnil(args) -> int:
    fam = _load_family(args.family, "--family")
    grid = _grid_from_args(args)
    tol = args.tol if args.tol is not None else 1e-3
    return _emit_verdict(args, is_asymptotic_quasinilpotent(fam, grid, args.nmax, tol))


def _cmd_funcalc(args) -> int:
    fam = _load_family(args.family, "--family")
    grid = _grid_from_args(args)
    try:
        ast = parse_expr(args.expr)
    except ParseError as exc:
        raise SchemaError(f"bad expression: {exc}", path="--expr") from exc
    if _variables(ast) - {"z"}:
        raise SchemaError("only the variable z (alias lambda) may appear", path="--expr")
    center = _parse_complex_flag(args.contour_center, "--contour-center")
    contour = ContourSpec(center, args.contour_radius, args.nodes)

    region, epsilon = _region_from_args(args, fam, grid, default_resolution=41)
    src_estimate = spectrum_estimate(
        resolvent_norm_field(fam, region, grid), epsilon
    )
    # the mapped spectrum is meaningless if the contour misses part of the
    # source spectrum, so refuse rather than emit a wrong report
    require_enclosing(contour, src_estimate.clusters)

    func = expr_function(ast)
    image = family_funcalc(fam, func, contour)
    window = grid.window_samples
    tail = [
        {"h": h, "matrix": matrix_to_dict(m)}
        for h, m in zip(window, family_eval_stack(image, window))
    ]
    mapped = [
        {
            "source_centroid": [c.centroid.real, c.centroid.imag],
            "image": list(_complex_pair(func(c.centroid))),
        }
        for c in src_estimate.clusters
    ]
    payload = {
        "expr": args.expr,
        "contour": {
            "center": [contour.center.real, contour.center.imag],
            "radius": contour.radius,
            "nodes": contour.nodes,
        },
        "encloses_source_spectrum": True,
        "source_spectrum": spectrum_to_dict(src_estimate),
        "mapped_centroids": mapped,
        "tail": tail,
    }
    summary = "encloses source spectrum: true"
    return _emit(args, {"funcalc_report.json": canonical_json(payload)}, summary)


def _variables(node) -> set[str]:
    """Names of the variables an expression tree reads."""
    if isinstance(node, Var):
        return {node.name}
    return set().union(*(_variables(v) for v in vars(node).values() if is_dataclass(v)))


def _complex_pair(z: complex) -> tuple[float, float]:
    return float(z.real), float(z.imag)


def _cmd_series(args) -> int:
    target = _load_family(args.family, "--family")
    source = _load_family(args.family2, "--family2")
    grid = _grid_from_args(args)
    lam = _parse_complex_flag(args.at, "--at")
    tol = args.tol if args.tol is not None else 1e-6
    transport = series_resolvent(target, source, lam, grid, args.nmax)
    ok = tail_vanishes(transport.left_defect, tol) and tail_vanishes(transport.right_defect, tol)
    window = grid.window_samples
    tail_matrices = [
        {"h": h, "matrix": matrix_to_dict(m)}
        for h, m in zip(window, transport.matrices[-len(window):])
    ]
    payload = {
        "lambda": list(_complex_pair(lam)),
        "n_terms": transport.n_terms,
        "tol": tol,
        "left_defect": _tail_dict(transport.left_defect),
        "right_defect": _tail_dict(transport.right_defect),
        "last_term_tail": transport.last_term_tail,
        "defects_vanish": ok,
        "tail_matrices": tail_matrices,
    }
    summary = f"defects vanish: {str(ok).lower()}"
    return _emit(args, {"series_report.json": canonical_json(payload)}, summary)


def _cmd_verify(args) -> int:
    names = tuple(args.suite) if args.suite else None
    results = run_all_suites(args.seed, names)
    for result in results:
        print(f"suite {result.name}: {'PASS' if result.passed else 'FAIL'}")
    all_passed = all(r.passed for r in results)
    failed = sum(1 for r in results if not r.passed)
    print("all suites passed" if all_passed else f"{failed} suite(s) failed")
    if args.out:
        payload = {
            "seed": args.seed,
            "all_passed": all_passed,
            "suites": [
                {"name": r.name, "passed": r.passed, "details": r.details} for r in results
            ],
        }
        _emit(args, {"verify_report.json": canonical_json(payload)})
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymspec",
        description="Spectral analysis of matrix families parameterized by h in (0, 1].",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("spectrum", help="estimate the family spectrum over a region")
    p.add_argument("--family", required=True, help="family JSON file")
    _add_grid_flags(p)
    _add_region_flags(p)
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("field", help="dump the resolvent norm field as CSV")
    p.add_argument("--family", required=True, help="family JSON file")
    _add_grid_flags(p)
    _add_region_flags(p)
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_field)

    p = sub.add_parser("equiv", help="asymptotic equivalence verdict for two families")
    p.add_argument("--family", required=True)
    p.add_argument("--family2", required=True)
    _add_grid_flags(p)
    p.add_argument("--tol", type=float, default=None, help="vanish tolerance (default: auto)")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("qequiv", help="quasinilpotent equivalence verdict for two families")
    p.add_argument("--family", required=True)
    p.add_argument("--family2", required=True)
    _add_grid_flags(p)
    p.add_argument("--nmax", type=int, default=24, help="max bracket order (default 24)")
    p.add_argument("--tol", type=float, default=None, help="root tolerance (default 1e-3)")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_qequiv)

    p = sub.add_parser("qnil", help="asymptotic quasinilpotence verdict for one family")
    p.add_argument("--family", required=True)
    _add_grid_flags(p)
    p.add_argument("--nmax", type=int, default=24, help="max power (default 24)")
    p.add_argument("--tol", type=float, default=None, help="root tolerance (default 1e-3)")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_qnil)

    p = sub.add_parser("funcalc", help="apply f via contour quadrature to a family")
    p.add_argument("--family", required=True)
    p.add_argument("--expr", required=True, help="scalar expression in z, e.g. 'z^2' or 'exp(z)'")
    p.add_argument("--contour-center", required=True, help="complex literal")
    p.add_argument("--contour-radius", type=float, required=True)
    p.add_argument("--nodes", type=int, default=256, help="quadrature nodes, power of two >= 64")
    _add_grid_flags(p)
    _add_region_flags(p)
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_funcalc)

    p = sub.add_parser(
        "series", help="transport the resolvent of --family2 to --family by bracket series"
    )
    p.add_argument("--family", required=True, help="target family")
    p.add_argument("--family2", required=True, help="source family (resolvent known here)")
    p.add_argument("--at", required=True, help="complex point lambda")
    _add_grid_flags(p)
    p.add_argument("--nmax", type=int, default=12, help="series terms (default 12)")
    p.add_argument("--tol", type=float, default=None, help="defect tolerance (default 1e-6)")
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help=f"run only the named suite (repeatable); choices: {', '.join(SUITE_NAMES)}",
    )
    _add_out_flag(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except _CONFIG_ERRORS as exc:
        field = getattr(exc, "path", None)
        sys.stderr.write(canonical_json({"error": str(exc), "field": field}))
        return 2
    except AsymspecError as exc:
        sys.stderr.write(canonical_json({"error": str(exc), "kind": type(exc).__name__}))
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
