"""Benchmark of qrep: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout of qrep.  Workloads:
exel-loring-large, stability-sweep, cli-files (see perfbench/README.md).

``--trace 0`` prints the end-to-end metrics: setup_s (median over
SETUPS fresh processes), case_s.p50, cases_per_s and peak_rss_mb (of the
process that ran the timed cases).  ``--trace 1`` runs one process that
traces every second case and prints the per-layer metrics.  Every worker is
started one after another with a single BLAS thread, so at most one
process computes at a time.  The last line of stdout is the JSON result;
the full record goes to perfbench/out/result-*.json.

This launcher imports neither numpy nor qrep.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("exel-loring-large", "stability-sweep", "cli-files")


def worker_env() -> dict:
    # One BLAS thread, fixed before numpy loads in the worker; qrep's
    # QREP_TOL_* overrides are dropped so every run uses the default policy.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QREP_TOL_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "qrep" / "__init__.py").is_file():
        print(f"no qrep sources under {ROOT / 'src'}; run from a qrep checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        setups = [run_worker(args, deadline, True)["setup_s"] for _ in range(SETUPS - 1)]
    record = run_worker(args, deadline, False)
    setups.append(record["setup_s"])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in record["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record["setup_runs_s"] = setups
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
