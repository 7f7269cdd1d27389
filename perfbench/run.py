"""Benchmark of cscforge: four closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it replays the same ops with spans around the package's
public callables and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object.  Trace files go to
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it

ACCURACY_KEYS = (
    "singularities.gauss_bonnet.max_rel_residual",
    "singularities.cone.max_rel_err",
    "metric.curvature.max_abs_residual",
    "metric.negation.max_discrepancy",
    "phifield.oracle.max_pair_err",
    "phifield.oracle.max_loop_err",
)


def import_package():
    """Import cscforge from this checkout's src/ and nowhere else."""
    if not (SRC / "cscforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'cscforge'}")
    sys.path.insert(0, str(SRC))
    import cscforge

    if Path(cscforge.__file__).resolve().parent != SRC / "cscforge":
        sys.exit(f"perfbench: cscforge imported from {cscforge.__file__}, not {SRC}")


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cscforge").glob("*.py")))


@dataclass
class Pass:
    """Outcome of running ops in a closed loop."""

    latencies: List[float] = field(default_factory=list)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    accuracy: Dict[str, float] = field(default_factory=dict)
    busy: float = 0.0  # op time spent, checks excluded


def run_op(wl, k: int, digests: Dict[int, bytes], res: Pass, runner=None):
    """Run op ``k`` once into ``res``.  Repeats of one input must give
    byte-identical output."""
    import workloads

    op = wl.ops[k]
    elapsed, out = workloads.attempt(op, runner)
    res.latencies.append(elapsed)
    res.busy += elapsed
    error = out.error
    if error is None and digests.setdefault(k, out.output) != out.output:
        error = "output differs from an earlier run of the same input"
    if error is not None:
        res.failures.append((op.label, error))
    for key, val in out.accuracy.items():
        if math.isfinite(val):
            res.accuracy[key] = max(res.accuracy.get(key, 0.0), val)


def run_loop(wl, seconds: float, digests: Dict[int, bytes], pause=None) -> Pass:
    """Cycle through the workload's ops until ``seconds`` of op time;
    ``pause(busy)`` runs between ops, outside the timed window."""
    res = Pass()
    i = 0
    while res.busy < seconds:
        if pause is not None:
            pause(res.busy)
        run_op(wl, i % len(wl.ops), digests, res)
        i += 1
    return res


def run_probes(wl) -> List[Tuple[str, Optional[str]]]:
    import workloads

    return [(op.label, workloads.attempt(op)[1].error) for op in wl.probes()]


def measure_setup(args) -> float:
    """Wall time from process start to the first timed op, in a fresh
    interpreter: import, input generation and one warm-up op.  The child
    reports it against the spawn time, so waiting on its exit (polled when
    a timeout is set) adds nothing."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only", repr(time.time())],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def report_probes(probes, self_check) -> None:
    for label, error in probes:
        if error is not None:
            print(f"envelope probe failed: {label} -- {error}")
        else:
            print(f"envelope probe passed: {label}")
    label, error = self_check
    if error is None:
        print(f"self-check FAILED: injected fault on {label} went undetected")
    else:
        print(f"self-check: injected fault on {label} detected -- {error}")


def untraced(args, wl, digests) -> Tuple[Dict[str, float], Pass, bool]:
    import workloads

    # set-up is repeated at even steps of the timed window, so that its
    # median spans the machine's slow drifts like the op latencies do; the
    # child leaves cold caches behind, so an untimed op follows it
    setups: List[float] = []

    def pause(busy: float):
        if len(setups) < SETUP_REPEATS and busy >= args.seconds * len(setups) / SETUP_REPEATS:
            setups.append(measure_setup(args))
            workloads.attempt(wl.ops[0])

    timed = run_loop(wl, args.seconds, digests, pause)
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = run_probes(wl)
    check = wl.self_check()

    lat = timed.latencies
    ok_ops = len(lat) - len(timed.failures)
    ptail, pct = tail(lat)
    n_probe_fail = sum(1 for _, e in probes if e is not None)
    attempted = len(lat) + len(probes)
    fail_share = (len(timed.failures) + n_probe_fail) / attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(lat),
        "op_ptail_s": ptail,
        "ops_per_s": ok_ops / timed.busy,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {wl.name} seed {args.seed}: {len(lat)} timed ops over "
          f"{timed.busy:.2f} s of op time, {len(wl.ops)} distinct inputs; "
          f"src LOC {src_loc()}")
    print(f"setup_s      {metrics['setup_s']:.4f} s  (median of "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"op_p50_s     {metrics['op_p50_s']:.6f} s  (n={len(lat)})")
    print(f"op_ptail_s   {ptail:.6f} s  (p{pct:.1f}, {TAIL_BEYOND} of n={len(lat)} beyond)")
    print(f"ops_per_s    {metrics['ops_per_s']:.4f} 1/s")
    print(f"fail_share   {fail_share:.4f} ratio  ({len(timed.failures)} of {len(lat)} "
          f"timed ops, {n_probe_fail} of {len(probes)} envelope probes)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    for label, error in timed.failures:
        print(f"timed op failed: {label} -- {error}")
    report_probes(probes, check)
    return metrics, timed, check[1] is not None


def _largest_other(shares: Dict[str, float], skip: Tuple[str, ...]) -> float:
    return max((v for k, v in shares.items() if k not in skip), default=0.0)


def _no_calls(span: str):
    """An exact-count prediction: the span is never entered."""
    return (f"{span}.calls per op is 0", lambda L, I, S: L[f"{span}.calls"],
            lambda v: v == 0, True)


# The bypass design, checked on every traced run: per workload, a statement,
# the measured value it rests on (from per-op layers L, inclusive shares I
# and self-time shares S of op time), the test on that value, and whether
# the prediction is an exact count.  A violated exact count makes the run
# incorrect; the time shares are reported only, as they move with noise.
PREDICTIONS = {
    "verify-corpus": [
        _no_calls("phifield.integrate_phi_along_path"),
        ("singularities.total_metric_area with children, as a share of op time, "
         "exceeds every span outside its ancestors",
         lambda L, I, S: I.get("singularities.total_metric_area", 0.0) - _largest_other(
             I, ("op", "cli.main", "singularities.gauss_bonnet_check",
                 "singularities.total_metric_area")),
         lambda v: v > 0, False),
    ],
    "oracle-paths": [
        _no_calls("metric.log_density_many"),
        ("phifield.integrate_phi_along_path share of op time is at least 0.9",
         lambda L, I, S: I.get("phifield.integrate_phi_along_path", 0.0), lambda v: v >= 0.9,
         False),
    ],
    "density-grid": [
        _no_calls("phifield.integrate_phi_along_path"),
        ("metric.write_density_grid self-time share exceeds every other span's",
         lambda L, I, S: S.get("metric.write_density_grid", 0.0) - _largest_other(
             S, ("metric.write_density_grid",)),
         lambda v: v > 0, False),
    ],
    "inspect-forms": [
        _no_calls("phifield.integrate_phi_along_path"),
        _no_calls("metric.log_density_many"),
    ],
}


def traced(args, wl, digests) -> Tuple[Dict[str, float], Pass, bool]:
    """Each op twice in a row, once untraced and once under spans, until
    the untraced runs have spent half the run's time.  Pairing per op keeps
    the machine's drift out of the overhead; the order alternates, so the
    warm caches of the second run of a pair favour neither side."""
    import tracing

    base, spans = Pass(), Pass()
    tracer = tracing.Tracer()
    i = 0
    while base.busy < args.seconds / 2.0:
        k = i % len(wl.ops)
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                run_op(wl, k, digests, base)
                continue
            tracer.install()
            try:
                run_op(wl, k, digests, spans, runner=tracer.run_op)
            finally:
                tracer.uninstall()
        i += 1
    differ = sum(1 for _, e in spans.failures if e.startswith("output differs"))
    probes = run_probes(wl)
    check = wl.self_check()

    layers = tracer.per_op_layers()
    inclusive, own = tracer.shares()
    metrics = dict(layers)
    metrics["trace.overhead_share"] = spans.busy / base.busy - 1.0
    for key in ACCURACY_KEYS:
        metrics[key] = max(base.accuracy.get(key, 0.0), spans.accuracy.get(key, 0.0))
    metrics["envelope.failed"] = float(sum(1 for _, e in probes if e is not None))

    predictions = []
    for text, measure, test, exact in PREDICTIONS[wl.name]:
        value = measure(layers, inclusive, own)
        held = bool(test(value))
        predictions.append({"prediction": text, "value": value, "held": held,
                            "exact_count": exact})
        print(f"prediction {'held' if held else 'VIOLATED'}: {text} (value {value!r})")
    counts_held = all(p["held"] for p in predictions if p["exact_count"])
    print(f"workload {wl.name} seed {args.seed}: {len(base.latencies)} ops untraced "
          f"({base.busy:.2f} s), same ops traced ({spans.busy:.2f} s); "
          f"{differ} traced outputs differ from untraced")
    overhead = metrics["trace.overhead_share"]
    print(f"trace.overhead_share {overhead:.4f}"
          + ("  (negative: below the machine's noise, unresolved)" if overhead < 0 else ""))
    top = sorted(own.items(), key=lambda kv: -kv[1])[:8]
    print("self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in top))
    report_probes(probes, check)

    path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.dump(path, summary={
        "workload": wl.name,
        "seed": args.seed,
        "predictions": predictions,
        "inclusive_share": inclusive,
        "self_share": own,
        "calls_by_input": tracer.calls_by_label(),
        "probes": [{"input": label, "error": error} for label, error in probes],
        "metrics": metrics,
        "environment": environment(),
    })
    print(f"spans written to {path.relative_to(ROOT)}")

    combined = Pass(latencies=base.latencies + spans.latencies,
                    failures=base.failures + spans.failures)
    for label, error in combined.failures:
        print(f"timed op failed: {label} -- {error}")
    return metrics, combined, check[1] is not None and counts_held


def environment() -> Dict[str, object]:
    import numpy

    threads = {k: os.environ.get(k) for k in (
        "CSC_FORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS")}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_settings": threads,
        "src_loc": src_loc(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="SPAWN_TIME", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("CSC_FORGE_THREADS", None)  # the program's default: serial
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    OUT.mkdir(parents=True, exist_ok=True)
    seed = args.seed % (1 << 64)  # numpy seeds must be non-negative
    wl = workloads.WORKLOADS[args.workload](seed, OUT / f"grid-{os.getpid()}.csv")
    try:
        digests: Dict[int, bytes] = {}
        _, warm = workloads.attempt(wl.ops[0])  # warm-up, the end of set-up
        if warm.error is None:
            digests[0] = warm.output
        if args.setup_only is not None:
            print(time.time() - args.setup_only)
            return 0
        run = traced if args.trace else untraced
        metrics, timed, gates_ok = run(args, wl, digests)
    finally:
        wl.cleanup()

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not computed: {missing}")
    print(json.dumps({
        "correct": not timed.failures and gates_ok,
        "attempted": len(timed.latencies),
        "failed": len(timed.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
