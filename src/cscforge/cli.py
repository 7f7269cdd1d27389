"""Command line front end.

Subcommands: inspect, phi, metric, angles, gauss-bonnet, classify, verify.
Exit codes: 0 success, 1 parse error, 2 hypothesis failure, 3 geometry/grid
error, no standard pattern (classify) or zeros not resolved in floating
point, 4 verification failure.  Output
is data (CSV/JSON) and byte-stable for a fixed invocation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import is_infinity
from .classify import (
    CASE_PLUS_MINUS,
    CASE_SIMPLE,
    CASE_UNIT_RESIDUES,
    StandardFormCase,
    a0_in_standard_coordinates,
    normalize_form,
    reduce_to_football,
    standard_form,
)
from .errors import (
    BadInitialValue,
    CscForgeError,
    DuplicatePole,
    HypothesesFailed,
    InvalidCaseData,
    PatternMismatch,
    ResidueMismatch,
    ZeroResidue,
    ZeroTableFailed,
)
from .forms import check_hypotheses, form_from_json
from .metric import (
    GridSpec,
    MetricField,
    gauss_curvature_fd,
    negation_invariance_check,
    sample_points_avoiding,
    suggest_grid,
    write_density_grid,
)
from .phifield import PhiField, solve_phi_closed
from .singularities import estimate_cone_angle, exclusion_points, gauss_bonnet_check

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_HYPOTHESES = 2
EXIT_GEOMETRY = 3
EXIT_VERIFY = 4

# (error types, stderr label, exit code); the first match wins
_FAILURES = (
    ((HypothesesFailed, DuplicatePole, ZeroResidue), "hypothesis failure", EXIT_HYPOTHESES),
    ((InvalidCaseData, BadInitialValue), "parse error", EXIT_PARSE),
    ((PatternMismatch, ResidueMismatch), "no standard pattern", EXIT_GEOMETRY),
    ((ZeroTableFailed,), "zero table failed", EXIT_GEOMETRY),
    ((CscForgeError,), "geometry error", EXIT_GEOMETRY),
    ((FileNotFoundError, KeyError, TypeError, ValueError), "parse error", EXIT_PARSE),
)


def _parse_complex(value) -> complex:
    """A finite point from 're,im', a complex literal or a job-file number."""
    if isinstance(value, str):
        parts = value.split(",")
        z = complex(float(parts[0]), float(parts[1])) if len(parts) == 2 else complex(value)
    else:
        z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"point {value!r} is not finite")
    return z


def _parse_grid(text: str) -> GridSpec:
    cx, cy, half, n = text.split(",")
    grid = GridSpec(complex(float(cx), float(cy)), float(half), int(n))
    # the span 2 half and the extreme coordinates |c| + half must not overflow
    c, w = grid.center, abs(grid.half_width)
    if not all(map(math.isfinite, (2.0 * w, abs(c.real) + w, abs(c.imag) + w))) or grid.n < 1:
        raise ValueError(f"grid {text!r} needs finite points and n >= 1")
    return grid


def _parse_step(value) -> float:
    h = float(value)
    if not 0.0 < h < math.inf:
        raise ValueError(f"stencil spacing {value!r} is not positive and finite")
    return h


def _parse_standard(text: str) -> StandardFormCase:
    if ":" not in text:
        raise ValueError("standard case spec must look like 'case:key=value,...'")
    name, _, body = text.partition(":")
    aliases = {
        "simple": CASE_SIMPLE,
        "unit": CASE_UNIT_RESIDUES,
        "unit_residues": CASE_UNIT_RESIDUES,
        "pm": CASE_PLUS_MINUS,
        "plus_minus": CASE_PLUS_MINUS,
    }
    case = aliases.get(name.strip())
    if case is None:
        raise ValueError(f"unknown standard case {name!r}")
    kwargs = {}
    for item in body.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key in ("lambda", "alpha"):
            kwargs["alpha"] = float(value)
        elif key == "a":
            kwargs["a"] = complex(value)
        else:
            raise ValueError(f"unknown standard case key {key!r}")
    if "alpha" not in kwargs:
        raise ValueError("standard case needs alpha (or lambda)")
    return StandardFormCase(case, kwargs["alpha"], kwargs.get("a"))


def _point_json(p):
    if is_infinity(p):
        return "inf"
    return [p.real, p.imag]


def _merge_config(args):
    """Fill every setting of the subcommand whose flag was not given from the
    ``--config`` JSON object, then from the defaults."""
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in {"phi0": 2.0, "h": 1e-3, **cfg}.items():
        if getattr(args, key, False) is None:
            setattr(args, key, value)


def _load_form(args):
    if (args.form is None) == (args.standard is None):
        raise ValueError("give exactly one form source (--form or --standard)")
    if args.standard is not None:
        return standard_form(_parse_standard(args.standard))
    if isinstance(args.form, dict):
        return form_from_json(args.form)
    text = args.form.strip()
    if not text.startswith("{"):
        text = Path(text).read_text()
    return form_from_json(text)


def _phi(args, form) -> PhiField:
    p0 = None if args.p0 is None else _parse_complex(args.p0)
    return solve_phi_closed(form, p0, float(args.phi0))


def _field(args, form, k_required=True) -> MetricField:
    k = args.K
    if k is None:
        if k_required:
            raise ValueError("this command needs --K")
        k = 1
    phi = _phi(args, form)
    if k not in (-1, 0, 1):  # a --config value may be any JSON number
        raise ValueError("curvature sign must be one of -1, 0, 1")
    return MetricField(phi, int(k))


def _emit(args, text: str):
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_inspect(args) -> int:
    form = _load_form(args)
    report = check_hypotheses(form)
    divisor = form.divisor()
    residues = [
        {"a": _point_json(a), "residue": [lam.real, lam.imag]}
        for a, lam in form.poles
    ]
    if form.infinity_pole_order() == 1:
        r = form.residue_at_infinity()
        residues.append({"a": "inf", "residue": [r.real, r.imag]})
    doc = {
        "divisor": [
            {"point": _point_json(p), "weight": float(w)} for p, w in divisor
        ],
        "residues": residues,
        "is_third_kind": report.is_third_kind,
        "residues_all_real_nonzero": report.residues_all_real_nonzero,
        "real_part_exact": report.real_part_exact,
        "diagnostics": list(report.diagnostics),
    }
    _emit(args, _dump(doc))
    return EXIT_OK if report.ok else EXIT_HYPOTHESES


def cmd_phi(args) -> int:
    form = _load_form(args)
    field = _field(args, form, k_required=False)
    points = [_parse_complex(t) for t in (args.at or [])]
    if not points and args.grid is None:
        raise ValueError("phi needs --at points or --grid")
    if points:
        doc = {
            "a0": field.phi.a0,
            "values": [
                {"z": [z.real, z.imag], "phi": field.phi.value(z)} for z in points
            ],
        }
        _emit(args, _dump(doc))
        return EXIT_OK
    grid = _parse_grid(args.grid)
    pts = grid.points()
    vals = field.phi.value_many(pts)
    lines = ["x,y,phi"]
    lines += [f"{z.real:.17g},{z.imag:.17g},{v:.17g}" for z, v in zip(pts, vals)]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _locate_phi2_crossings(field: MetricField, pts: np.ndarray, x: np.ndarray,
                           nx: int) -> np.ndarray:
    """Points of the K=-1 degeneracy locus (offset potential x = 0): a
    60-step bisection on the first eight grid edges where x flips sign, rows
    first, or, when none flips, the grid points where |x| < 1e-9."""
    grid, x = pts.reshape(-1, nx), x.reshape(-1, nx)
    rows, cols = x[:, :-1] * x[:, 1:] < 0, x[:-1] * x[1:] < 0
    a = np.concatenate([grid[:, :-1][rows], grid[:-1][cols]])[:8]
    b = np.concatenate([grid[:, 1:][rows], grid[1:][cols]])[:8]
    if a.size == 0:
        return pts[np.abs(x.ravel()) < 1e-9][:8]
    fa = field.phi.offset_potential_many(a)
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = field.phi.offset_potential_many(m)
        left = fa * fm <= 0
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    return 0.5 * (a + b)


def cmd_metric(args) -> int:
    form = _load_form(args)
    field = _field(args, form)
    if args.grid is None:
        raise ValueError("metric needs --grid cx,cy,half,n")
    grid = _parse_grid(args.grid)
    h = _parse_step(args.h)
    pts = grid.points()
    touch = max(2.0 * h, 1e-6)
    touched = [p for p in exclusion_points(field) if np.min(np.abs(pts - p)) < touch]
    if touched:
        plural = "s" if len(touched) > 1 else ""
        names = ", ".join(repr(p) for p in touched)
        sys.stderr.write(f"grid touches the singular point{plural} {names}\n")
        return EXIT_GEOMETRY
    if field.K == -1:
        xvals = field.phi.offset_potential_many(pts)
        if np.min(np.abs(xvals)) < 1e-9 or np.max(xvals) > 0 > np.min(xvals):
            hits = _locate_phi2_crossings(field, pts, xvals, grid.n)
            locus = ", ".join(f"({z.real:.6g},{z.imag:.6g})" for z in hits)
            sys.stderr.write(
                "grid crosses the K=-1 degeneracy locus (field value 2) "
                f"near: {locus}\n"
            )
            return EXIT_GEOMETRY
    if args.out:
        with open(args.out, "w") as fh:
            max_resid = write_density_grid(field, grid, h, fh)
        sys.stdout.write(f"max_curvature_residual={max_resid:.17g}\n")
    else:
        import io

        buf = io.StringIO()
        max_resid = write_density_grid(field, grid, h, buf)
        sys.stdout.write(buf.getvalue())
        sys.stdout.write(f"# max_curvature_residual={max_resid:.17g}\n")
    return EXIT_OK


def _angle_report_json(rep) -> dict:
    return {
        "point": _point_json(rep.point),
        "predicted_angle": rep.predicted_angle,
        "fitted_angle": rep.fitted_angle,
        "regression_r2": rep.regression_r2,
        "conical": rep.conical,
        "fit_radii": list(rep.fit_radii),
        "note": rep.note,
    }


def cmd_angles(args) -> int:
    form = _load_form(args)
    field = _field(args, form)
    radii = None
    if args.radii:
        lo, hi, n = args.radii.split(",")
        if not all(math.isfinite(float(r)) for r in (lo, hi)):
            raise ValueError(f"radii {args.radii!r} are not finite")
        radii = np.geomspace(float(lo), float(hi), int(n))
    reports = []
    for info in field.singular_points:
        rep = estimate_cone_angle(field, info.location, radii)
        reports.append(_angle_report_json(rep))
    _emit(args, _dump({"angles": reports}))
    return EXIT_OK


def cmd_gauss_bonnet(args) -> int:
    form = _load_form(args)
    field = _field(args, form)
    rep = gauss_bonnet_check(field)
    doc = {
        "chi": rep.chi,
        "deg_d": rep.deg_d,
        "total_area": rep.total_area,
        "expected_area": rep.expected_area,
        "K": rep.K,
        "residual": rep.residual,
        "error_estimate": rep.error_estimate,
        "nodes": rep.nodes,
    }
    _emit(args, _dump(doc))
    return EXIT_OK


def cmd_classify(args) -> int:
    form = _load_form(args)
    case = normalize_form(form)
    doc = {
        "case": case.case,
        "alpha": case.alpha,
        "a": None if case.a is None else [case.a.real, case.a.imag],
        "scale": [case.scale.real, case.scale.imag],
    }
    a0_std = a0_in_standard_coordinates(case, _phi(args, form).a0)
    p_fb, football = reduce_to_football(case, a0_std)
    doc["football"] = {
        "alpha": football.alpha,
        "variant": football.variant,
        "b": football.b,
        "scale_from_standard": [p_fb.real, p_fb.imag],
        "a0_standard": a0_std,
    }
    _emit(args, _dump(doc))
    return EXIT_OK


def cmd_verify(args) -> int:
    form = _load_form(args)
    field = _field(args, form)
    grid = suggest_grid(field) if args.grid is None else _parse_grid(args.grid)
    h = _parse_step(args.h)

    def check_curvature():
        curv = gauss_curvature_fd(field, grid, h)
        return {
            "max_abs_residual": curv.max_abs_residual,
            "tolerance": 1e-3,
            "grid": curv.description,
            "pass": bool(curv.max_abs_residual < 1e-3),
        }

    def check_angles():
        angle_entries = []
        angles_ok = True
        for info in field.singular_points:
            rep = estimate_cone_angle(field, info.location)
            entry = _angle_report_json(rep)
            if info.predicted_angle is not None:
                ok = (
                    abs(rep.fitted_angle - info.predicted_angle)
                    <= 0.01 * info.predicted_angle
                )
            else:
                ok = not rep.conical
            entry["pass"] = bool(ok)
            angles_ok = angles_ok and ok
            angle_entries.append(entry)
        return {"points": angle_entries, "pass": bool(angles_ok)}

    def check_gauss_bonnet():
        gb = gauss_bonnet_check(field)
        return {
            "total_area": gb.total_area,
            "expected_area": gb.expected_area,
            "residual": gb.residual,
            "error_estimate": gb.error_estimate,
            "nodes": gb.nodes,
            "tolerance": 0.01 * gb.expected_area,
            "pass": bool(gb.residual < 0.01 * gb.expected_area),
        }

    def check_negation():
        phi0 = float(args.phi0)
        start = phi0 if phi0 != 2.0 else 1.5
        neg = negation_invariance_check(form, min(start, 4.0 - start))
        return {
            "max_discrepancy": neg,
            "tolerance": 1e-10,
            "pass": bool(neg < 1e-10),
        }

    def check_classification():
        try:
            case = normalize_form(form)
        except (PatternMismatch, ResidueMismatch):
            return {"applicable": False, "pass": True}
        a0_std = a0_in_standard_coordinates(case, field.phi.a0)
        p, football = reduce_to_football(case, a0_std)
        # z = c w carries the family's coordinates to the form's, so the
        # field density at c w times |c|^2 is the family density at w
        c = case.scale * p
        ws = sample_points_avoiding([z / c for z in exclusion_points(field)], 100, 20201)
        gap = float(np.max(np.abs(np.exp(football.log_density_many(ws))
                                   - np.exp(field.log_density_many(c * ws)) * abs(c) ** 2)))
        return {
            "applicable": True,
            "case": case.case,
            "alpha": case.alpha,
            "b": football.b if football.variant == "integer" else None,
            "max_density_gap": gap,
            "tolerance": 1e-9,
            "pass": bool(gap < 1e-9),
        }

    jobs = [("curvature", check_curvature)]
    if field.K == 1:
        jobs += [
            ("angles", check_angles),
            ("gauss_bonnet", check_gauss_bonnet),
            ("negation_invariance", check_negation),
            ("classification", check_classification),
        ]
    checks = {name: fn() for name, fn in jobs}

    all_pass = all(entry["pass"] for entry in checks.values())
    doc = {"checks": checks, "pass": bool(all_pass)}
    _emit(args, _dump(doc))
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------


def _add_form_args(p: argparse.ArgumentParser):
    p.add_argument("--form", help="inline JSON or a path to a form document")
    p.add_argument("--standard", help="standard case, e.g. 'pm:alpha=2,a=2+0j'")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="output path (default: stdout)")


def _add_field_args(p: argparse.ArgumentParser):
    p.add_argument("--K", type=int, choices=(-1, 0, 1), help="curvature sign")
    p.add_argument("--p0", help="base point 're,im'")
    p.add_argument("--phi0", type=float, help="initial value in (0,4)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cscforge",
        description="constant-curvature metrics from third-kind differentials",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="divisor, residues, hypothesis report")
    _add_form_args(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("phi", help="evaluate the solved field")
    _add_form_args(p)
    _add_field_args(p)
    p.add_argument("--at", action="append",
                   help="point 're,im' (repeatable; use --at=-1,2 for "
                        "negative coordinates)")
    p.add_argument("--grid", help="grid 'cx,cy,half,n'")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("metric", help="write a density/curvature CSV grid")
    _add_form_args(p)
    _add_field_args(p)
    p.add_argument("--grid", help="grid 'cx,cy,half,n'")
    p.add_argument("--h", type=float, help="stencil spacing (default 1e-3)")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("angles", help="cone-angle reports at singular points")
    _add_form_args(p)
    _add_field_args(p)
    p.add_argument("--radii", help="fit radii 'min,max,count'")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("gauss-bonnet", help="total area against 2 pi (chi + deg D)")
    _add_form_args(p)
    _add_field_args(p)
    p.set_defaults(func=cmd_gauss_bonnet)

    p = sub.add_parser("classify", help="standard case data and family params")
    _add_form_args(p)
    _add_field_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="bundled verification report")
    _add_form_args(p)
    _add_field_args(p)
    p.add_argument("--grid", help="grid 'cx,cy,half,n' (default: auto)")
    p.add_argument("--h", type=float, help="stencil spacing (default 1e-3)")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        _merge_config(args)
        return args.func(args)
    except (CscForgeError, FileNotFoundError, KeyError, TypeError, ValueError) as exc:
        label, code = next((label, code) for types, label, code in _FAILURES
                           if isinstance(exc, types))
        sys.stderr.write(f"{label}: {exc}\n")
        return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
