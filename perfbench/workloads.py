"""The four workloads: their inputs, the op each runs, and the check on it.

Every op goes through the package's public entry points: ``cli.main`` with
stdout captured for the CLI workloads, ``phifield.integrate_phi_along_path``
for the path oracle.  An op's result is checked against references the
benchmark computes itself (pole sums, two-cone areas, the closed form).

A workload also carries envelope probes, paper-allowed inputs that fail
today, run untimed so a later fix cannot look like a latency change, and a
self-check that injects a wrong result from the benchmark's side to show
the failure gate works.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from cscforge import classify, cli, errors, forms, metric, phifield

import corpus
from corpus import Form

FOUR_PI = 4.0 * math.pi
GRID_N = 150
GRID_HALF = 0.1

# Benchmark-side tolerances: the acceptance bounds where the repository
# fixes one, otherwise far above the rounding level of a correct answer.
AREA_REL_TOL = 0.01
CURVATURE_TOL = 1e-3
PAIR_TOL = 1e-6
LOOP_TOL = 1e-8
LOCATION_REL_TOL = 1e-9
ZERO_REL_TOL = 1e-8
CLASSIFY_REL_TOL = 1e-8


@dataclass
class Result:
    output: bytes                  # compared across repeats of one input
    error: Optional[str]           # why the op failed, or None
    accuracy: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    label: str                     # names the input in failure reports
    call: Callable[[], object]     # the timed part
    collect: Callable[[object], Result]  # the untimed check


@dataclass
class Workload:
    name: str
    ops: List[Op]
    probes: Callable[[], List[Op]]  # built after the timed loop, not in set-up
    self_check: Callable[[], Tuple[str, Optional[str]]]
    scratch: Optional[Path] = None

    def cleanup(self):
        if self.scratch is not None and self.scratch.exists():
            self.scratch.unlink()


def attempt(op: Op, runner: Optional[Callable] = None) -> Tuple[float, Result]:
    """Run one op, timing only its call; an exception is a failure.
    ``runner(label, call)`` wraps the call (the tracer's root span)."""
    start = time.perf_counter()
    try:
        raw = runner(op.label, op.call) if runner else op.call()
    except Exception as exc:  # the loop must go on; the op is reported failed
        return time.perf_counter() - start, Result(
            b"", f"{type(exc).__name__}: {exc}"
        )
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.collect(raw)
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, Result(b"", f"unreadable output: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def run_cli(argv: List[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_reason(code: int, err: str) -> str:
    """The exit code and the program's last error line (warnings skipped)."""
    lines = [ln for ln in err.splitlines()
             if ln.strip() and not ln[0].isspace() and "Warning: " not in ln]
    return f"exit {code}" + (f": {lines[-1]}" if lines else "")


_CASES = {
    "simple": classify.CASE_SIMPLE,
    "unit": classify.CASE_UNIT_RESIDUES,
    "pm": classify.CASE_PLUS_MINUS,
}


def program_form(form: Form):
    """The package's form object for a generated input, built the way the
    CLI builds it from the same arguments."""
    if form.spec is None:
        return forms.form_from_json(form.to_json())
    m = form.meta
    return classify.standard_form(classify.StandardFormCase(_CASES[m["case"]], m["alpha"], m["a"]))


@contextlib.contextmanager
def scaled_density(factor: float):
    """Inject a wrong result: scale every metric density by ``factor``."""
    original = metric.MetricField.__dict__["log_density_many"]
    shift = math.log(factor)

    def log_density_many(self, pts, chart="z"):
        return original(self, pts, chart) + shift

    metric.MetricField.log_density_many = log_density_many
    try:
        yield
    finally:
        metric.MetricField.log_density_many = original


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


# ---------------------------------------------------------------------------
# verify-corpus
# ---------------------------------------------------------------------------


def _verify_op(form: Form) -> Op:
    argv = ["verify", *form.source_args(), "--K", "1"]

    def collect(raw) -> Result:
        code, out, err = raw
        acc: Dict[str, float] = {}
        doc = json.loads(out) if out.startswith("{") else None
        if doc is not None:
            checks = doc["checks"]
            acc["metric.curvature.max_abs_residual"] = checks["curvature"]["max_abs_residual"]
            if "gauss_bonnet" in checks:
                gb = checks["gauss_bonnet"]
                acc["singularities.gauss_bonnet.max_rel_residual"] = (
                    gb["residual"] / gb["expected_area"])
                acc["metric.negation.max_discrepancy"] = (
                    checks["negation_invariance"]["max_discrepancy"])
                rel = [abs(p["fitted_angle"] - p["predicted_angle"]) / p["predicted_angle"]
                       for p in checks["angles"]["points"]
                       if p["predicted_angle"] is not None]
                if rel:
                    acc["singularities.cone.max_rel_err"] = max(rel)
        if code != 0 or doc is None or not doc["pass"]:
            failed = [k for k, v in (doc or {}).get("checks", {}).items() if not v["pass"]]
            reason = _exit_reason(code, err)
            if failed:
                reason += " (failed: " + ", ".join(sorted(failed)) + ")"
            return Result(out.encode(), reason, acc)
        if form.two_cone_alpha is not None:
            area = doc["checks"]["gauss_bonnet"]["total_area"]
            expect = FOUR_PI * form.two_cone_alpha
            if abs(area - expect) > AREA_REL_TOL * expect:
                return Result(out.encode(),
                              f"two-cone area {area!r} is not 4 pi alpha = {expect!r}", acc)
        return Result(out.encode(), None, acc)

    return Op(f"verify {form.label}", lambda: run_cli(argv), collect)


def build_verify_corpus(seed: int, scratch: Path) -> Workload:
    ops = [_verify_op(f) for f in corpus.corpus(seed)]

    def probes():
        return [_verify_op(f) for f in corpus.probe_forms()]

    def self_check():
        op = ops[0]
        with scaled_density(1.05):
            _, res = attempt(op)
        return op.label + " (density scaled by 1.05)", res.error

    return Workload("verify-corpus", ops, probes, self_check)


# ---------------------------------------------------------------------------
# oracle-paths
# ---------------------------------------------------------------------------


def _segment_clearance(z1: complex, z2: complex, p: complex) -> float:
    d = z2 - z1
    t = max(0.0, min(1.0, ((p - z1).real * d.real + (p - z1).imag * d.imag) / abs(d) ** 2))
    return abs(p - (z1 + t * d))


def endpoint_pair(form: Form, rng: np.random.Generator) -> Tuple[complex, complex]:
    """Endpoints at least 0.25 from every pole, the segment 0.2 clear."""
    poles = [a for a, _ in form.poles]
    for _ in range(100000):
        z1 = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
        z2 = complex(rng.uniform(-2.2, 2.2), rng.uniform(-2.2, 2.2))
        if abs(z1 - z2) < 0.1:
            continue
        if any(abs(z1 - p) < 0.25 or abs(z2 - p) < 0.25 for p in poles):
            continue
        if all(_segment_clearance(z1, z2, p) >= 0.2 for p in poles):
            return z1, z2
    raise RuntimeError(f"endpoint sampling starved for {form.label}")


def clear_loop(form: Form, rng: np.random.Generator) -> np.ndarray:
    """A 257-vertex circle whose radius stays 0.15 from every pole."""
    poles = [a for a, _ in form.poles]
    for _ in range(4000):
        c = complex(rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8))
        for radius in (0.25, 0.4, 0.6):
            if all(abs(abs(p - c) - radius) > 0.15 for p in poles):
                return c + radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 257))
    raise RuntimeError(f"no clear loop for {form.label}")


def _build_field(form: Form):
    prog = program_form(form)
    return prog, phifield.solve_phi_closed(prog, None, 2.0)


def _oracle_op(form: Form, path, loop: bool, built=None, offset: float = 0.0) -> Op:
    """One oracle run plus its closed-form comparison.  A closed loop must
    return to its start value.  ``built`` is the (form, field) pair made in
    set-up; without it the op builds them (envelope probes).  ``offset``
    perturbs the reference (self-check)."""
    path = [complex(z) for z in path]
    kind = "loop" if loop else "pair"
    tol = LOOP_TOL if loop else PAIR_TOL
    key = "phifield.oracle.max_loop_err" if loop else "phifield.oracle.max_pair_err"

    def call():
        prog, field_ = built or _build_field(form)
        start = 2.0 if loop else field_.value(path[0])
        try:
            got = phifield.integrate_phi_along_path(prog, path, start)
        except errors.CscForgeError as exc:
            return exc
        ref = start if loop else field_.value(path[-1])
        return got, ref + offset

    def collect(raw) -> Result:
        if isinstance(raw, Exception):
            return Result(b"", f"{type(raw).__name__}: {raw}")
        got, ref = raw
        err = abs(got - ref)
        out = repr(got).encode()
        if not err < tol:
            return Result(out, f"|RK4 - closed form| = {err:.3e} >= {tol:g}", {key: err})
        return Result(out, None, {key: err})

    return Op(f"oracle {kind} {form.label} from {path[0]:.4f}", call, collect)


def build_oracle_paths(seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    rounds: List[List[Op]] = [[] for _ in range(5)]
    first = None
    for form in corpus.corpus(seed):
        built = _build_field(form)
        for r in range(4):
            pair = endpoint_pair(form, rng)
            first = first or (form, pair, built)
            rounds[r].append(_oracle_op(form, pair, False, built))
        rounds[4].append(_oracle_op(form, clear_loop(form, rng), True, built))
    ops = [op for rnd in rounds for op in rnd]  # four pairs per loop

    def probes():
        probe_rng = np.random.default_rng(20220412)
        return [_oracle_op(f, endpoint_pair(f, probe_rng), False)
                for f in corpus.probe_forms()]

    def self_check():
        form, pair, built = first
        op = _oracle_op(form, pair, False, built, offset=1e-5)
        _, res = attempt(op)
        return op.label + " (closed-form reference offset by 1e-5)", res.error

    return Workload("oracle-paths", ops, probes, self_check)


# ---------------------------------------------------------------------------
# density-grid
# ---------------------------------------------------------------------------


def _grid_op(form: Form, K: int, center: complex, out_path: Path) -> Op:
    argv = ["metric", *form.source_args(), "--K", str(K),
            f"--grid={center.real!r},{center.imag!r},{GRID_HALF!r},{GRID_N}",
            "--out", str(out_path)]

    def collect(raw) -> Result:
        code, out, err = raw
        if code != 0:
            return Result(out.encode(), _exit_reason(code, err))
        data = out_path.read_bytes()
        digest = _sha(out.encode(), data)
        rows = data.count(b"\n")
        if rows != GRID_N * GRID_N + 1 or not data.startswith(b"x,y,rho,phi,K_est\n"):
            return Result(digest, f"{rows} CSV rows, expected {GRID_N * GRID_N + 1}")
        resid = float(out.strip().split("=", 1)[1])
        acc = {"metric.curvature.max_abs_residual": resid}
        if not resid < CURVATURE_TOL:
            return Result(digest, f"max curvature residual {resid:.3e} >= {CURVATURE_TOL:g}", acc)
        return Result(digest, None, acc)

    return Op(f"metric K={K} {form.label}", lambda: run_cli(argv), collect)


def build_density_grid(seed: int, scratch: Path) -> Workload:
    forms_ = corpus.corpus(seed)
    ks = (1, 0, -1)
    ops = []
    for r in range(3):  # each round mixes all three curvature signs
        for j, form in enumerate(forms_):
            K = ks[(j + r) % 3]
            field_ = metric.MetricField(
                phifield.solve_phi_closed(program_form(form), None, 2.0), K)
            grid = metric.suggest_grid(field_)
            ops.append(_grid_op(form, K, grid.center, scratch))

    def probes():
        return [_grid_op(f, 1, corpus.clear_patch(f), scratch)
                for f in corpus.probe_forms()]

    target = next(op for op in ops if op.label.startswith("metric K=1 "))

    def self_check():
        with scaled_density(1.05):
            _, res = attempt(target)
        return target.label + " (density scaled by 1.05)", res.error

    return Workload("density-grid", ops, probes, self_check, scratch)


# ---------------------------------------------------------------------------
# inspect-forms
# ---------------------------------------------------------------------------


def _point(p):
    return None if p == "inf" else complex(p[0], p[1])


def _divisor_error(form: Form, doc: dict, residue_scale: float = 1.0) -> Optional[str]:
    """Compare a reported divisor with the one the pole data forces."""
    div = [(_point(e["point"]), e["weight"]) for e in doc["divisor"]]
    if sum(w for _, w in div) != -2:
        return f"divisor degree {sum(w for _, w in div)} != -2"
    poles = [a for a, _ in form.poles]

    def is_pole(z):
        return any(abs(z - a) <= LOCATION_REL_TOL * max(1.0, abs(a)) for a in poles)

    finite = [(z, w) for z, w in div if z is not None]
    at_inf = sum(w for z, w in div if z is None)
    reported_poles = [z for z, w in finite if w == -1 and is_pole(z)]
    if len(reported_poles) != len(poles):
        return f"{len(reported_poles)} of {len(poles)} poles reported with weight -1"
    zeros = [(z, w) for z, w in finite if not (w == -1 and is_pole(z))]
    case = form.meta.get("case")
    if case in ("unit", "pm"):
        alpha = form.meta["alpha"]
        want_inf = -1 if case == "unit" else alpha - 1
        if (len(zeros) != 1 or abs(zeros[0][0]) > ZERO_REL_TOL
                or zeros[0][1] != alpha - 1 or at_inf != want_inf):
            shown = ", ".join(f"{w:g}*({z.real:.3g}{z.imag:+.3g}j)" for z, w in zeros)
            return (f"divisor is not the {case} pattern with alpha={alpha}: "
                    f"zeros {shown or 'none'}, weight {at_inf:g} at infinity")
        return None
    degree = len(corpus.eta_numerator(form.poles, form.exact_part)) - 1
    want_inf = len(poles) - degree - 2
    if at_inf != want_inf:
        return f"weight {at_inf:g} at infinity, expected {want_inf}"
    if any(w != 1 for _, w in zeros) or len(zeros) != degree:
        return f"{len(zeros)} zeros reported, expected {degree} simple zeros"
    for z, _ in zeros:
        val, mag = corpus.eta_terms(form, z, residue_scale)
        if abs(val) > ZERO_REL_TOL * mag:
            return f"zero {z:.6g} not confirmed: |eta| = {abs(val):.3e} vs terms {mag:.3e}"
    return None


def _inspect_op(form: Form, residue_scale: float = 1.0) -> Op:
    argv = ["inspect", *form.source_args()]
    expected_code = 2 if form.exact_part else 0

    def collect(raw) -> Result:
        code, out, err = raw
        if code != expected_code:
            return Result(out.encode(), _exit_reason(code, err) + f", expected exit {expected_code}")
        return Result(out.encode(), _divisor_error(form, json.loads(out), residue_scale))

    return Op(f"inspect {form.label}", lambda: run_cli(argv), collect)


def _classify_op(form: Form) -> Op:
    argv = ["classify", *form.source_args()]
    meta = form.meta
    want_case = _CASES[meta["case"]]

    def collect(raw) -> Result:
        code, out, err = raw
        if code != 0:
            return Result(out.encode(), _exit_reason(code, err))
        doc = json.loads(out)
        if doc["case"] != want_case or doc["alpha"] != meta["alpha"]:
            return Result(out.encode(), f"classified as {doc['case']} alpha={doc['alpha']}")
        p = abs(meta.get("p", 1.0))
        scale = abs(complex(*doc["scale"]))
        if abs(scale - p) > CLASSIFY_REL_TOL * p:
            return Result(out.encode(), f"|scale| {scale!r}, expected |p| = {p!r}")
        if meta["a"] is not None:
            a = complex(*doc["a"])
            if abs(a - meta["a"]) > CLASSIFY_REL_TOL * max(1.0, abs(meta["a"])):
                return Result(out.encode(), f"a = {a!r}, expected {meta['a']!r}")
        return Result(out.encode(), None)

    return Op(f"classify {form.label}", lambda: run_cli(argv), collect)


def rescaled_standard(rng: np.random.Generator, case: str, alpha: int) -> Form:
    """A unit or plus/minus standard form moved by a seeded z = p w."""
    p = complex(rng.uniform(0.6, 1.6) * np.exp(2j * math.pi * rng.uniform()))
    a = None
    if case == "pm":
        while True:
            a = complex(rng.uniform(0.4, 2.5) * np.exp(2j * math.pi * rng.uniform()))
            if abs(a - 1.0) >= 0.3:
                break
    label = f"{case}:alpha={alpha}" + (f",a={a:.4f}" if a is not None else "") + f" p={p:.4f}"
    meta = {"case": case, "alpha": alpha, "a": a, "p": p}
    return Form(label, corpus.standard_poles(case, alpha, a, p), meta=meta)


def build_inspect_forms(seed: int, scratch: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    spread = [corpus.spread_form(rng, n, f"poles={n}" + (",sum=0" if n % 3 == 0 else ""),
                                 balanced=(n % 3 == 0))
              for n in range(2, 17)]
    exact = [corpus.spread_form(rng, n, f"poles={n},H-degree={1 + k % 2}",
                                exact_degree=1 + k % 2)
             for k, n in enumerate((2, 5, 8, 11, 14))]
    # plus/minus forms stop at alpha 5: at alpha 6 the order-5 zeros at 0
    # and infinity are sometimes split into clusters (probe "pm:alpha=6")
    standard = [rescaled_standard(rng, case, alpha)
                for case, top in (("unit", 6), ("pm", 5)) for alpha in range(2, top + 1)]
    pool = spread + exact + standard
    inspected = [pool[(7 * k) % len(pool)] for k in range(len(pool))]
    ops: List[Op] = []
    for k, form in enumerate(inspected):  # alternate inspect and classify
        ops.append(_inspect_op(form))
        ops.append(_classify_op(standard[k % len(standard)]))

    def probes():
        probe = {f.label: f for f in corpus.probe_forms()}
        seven = corpus.parse_spec("unit:alpha=7")
        a, p = 0.67 + 0.06j, 1.56 + 0j
        six = Form("pm:alpha=6,a=0.67+0.06j p=1.56", corpus.standard_poles("pm", 6, a, p),
                   meta={"case": "pm", "alpha": 6, "a": a, "p": p})
        return [
            _inspect_op(seven),
            _classify_op(seven),
            _inspect_op(six),
            _classify_op(six),
            _classify_op(probe["pm:alpha=7,a=2+0j"]),
            _inspect_op(probe["pm:alpha=9,a=2+0j"]),
        ] + [_inspect_op(probe[f"poles={n}"]) for n in (17, 24, 40)]

    def self_check():
        op = _inspect_op(spread[0], residue_scale=1.01)
        _, res = attempt(op)
        return op.label + " (reference residue scaled by 1.01)", res.error

    return Workload("inspect-forms", ops, probes, self_check)


WORKLOADS = {
    "verify-corpus": build_verify_corpus,
    "oracle-paths": build_oracle_paths,
    "density-grid": build_density_grid,
    "inspect-forms": build_inspect_forms,
}
