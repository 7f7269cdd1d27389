"""Write perfbench/RECORD.json, the run record: one traced run per workload.

    python3 perfbench/record.py

Each run takes BENCHMARK.json's ``run_seconds`` and seed 1.  The record holds the environment (nproc, Python, numpy, BLAS and thread
settings), src LOC, the seed, each workload's rationale from BENCHMARK.json,
the bypass predictions with the values they rest on, the envelope probe
outcomes, the per-layer metrics and, for verify-corpus, the exact call
count of every traced span for each input.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "perfbench" / "RECORD.json"
SEED = 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        trace = ROOT / "perfbench" / "_out" / f"trace-{name}-seed{SEED}.json"
        summary = json.loads(trace.read_text())["summary"]
        record["environment"] = summary["environment"]
        entry = {
            "why": wl["why"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "predictions": summary["predictions"],
            "envelope_probes": summary["probes"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        if name == "verify-corpus":
            entry["calls_by_input"] = summary["calls_by_input"]
        record["workloads"][name] = entry
        print(f"{name}: correct={result['correct']} predictions held="
              f"{all(p['held'] for p in summary['predictions'])}")
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
