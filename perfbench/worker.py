"""One measuring process, started by run.py with one BLAS thread.

Set-up is timed from the top of this file: importing numpy and qrep,
building the workload's inputs, and one untimed warm-up case, whose first
``k_invariant`` runs qrep's lazy orientation calibration.  With
``--setup-only`` the process stops there.  Otherwise it runs cases until
``--seconds`` have passed and checks every case's outputs.  With
``--trace 1`` every second case runs under the tracer until the workload's
``traced_cases`` are done, and the run lasts at least that long.  The last
line of stdout is one JSON object; details go to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _host() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def _per_layer(tracer, traced_cases, det_evals, times) -> dict:
    import tracing

    tot = tracer.totals()
    per_case = 1.0 / traced_cases
    m = {}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.calls"] = (tot["calls"][name] * per_case, "count")
        m[f"{name}.self_s"] = (tot["self_s"][name] * per_case, "s")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (tot["layer_self_s"][layer] * per_case, "s")
    for name in ("linalg.eig_n3", "linalg.det_n3"):
        m[name] = (tot[name] * per_case, "count")
    m["cli.bytes_written"] = (tot["cli.bytes_written"] * per_case, "B")
    m["invariants.det_evaluations"] = (statistics.fmean(det_evals), "count")
    m["trace.overhead_s"] = (statistics.median(times[True])
                             - statistics.median(times[False]), "s")
    return m


def _end_to_end(times) -> dict:
    """case_s.p50, cases_per_s and peak_rss_mb; run.py adds setup_s."""
    return {
        "case_s.p50": (statistics.median(times), "s"),
        "cases_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(args, workdir: Path) -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    wl.case(0)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        return {"setup_s": setup_s}
    threads = _threads()
    if threads is not None and threads != 1:
        raise SystemExit(f"worker runs {threads} threads; expected one BLAS thread")

    tracer = tracing.Tracer() if args.trace else None
    times = {False: [], True: []}
    attempted = failed = wrong = traced_cases = 0
    det_evals, problems = [], []
    start = time.perf_counter()
    i = 1
    while True:
        # The first wl.traced_cases even cases are traced, so that a seed
        # fixes the traced inputs and with them every count.
        traced = tracer is not None and i % 2 == 0 and traced_cases < wl.traced_cases
        if traced:
            traced_cases += 1
            tracer.install()
        t = time.perf_counter()
        try:
            out, error = wl.case(i), None
        except Exception as exc:  # a case fails when qrep raises
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if traced:
            tracer.uninstall()
        attempted += 1
        try:
            issues = [error] if error else wl.check(i, out)
        except Exception as exc:  # an output the checks cannot read is wrong
            issues = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if issues:
            failed += 1
            wrong += error is None
            problems.append({"case": i, "issues": issues})
        else:
            times[traced].append(dt)
            if traced:
                det_evals.append(wl.det_evaluations(out))
        i += 1
        if (time.perf_counter() - start >= args.seconds
                and (tracer is None or traced_cases == wl.traced_cases)):
            break

    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "setup_s": setup_s, "problems": problems,
              "case_times_s": times[False], "host": _host()}
    if tracer is None:
        if not times[False]:
            raise SystemExit(f"no case completed; first failure: {problems[0]}")
        result["metrics"] = _end_to_end(times[False])
    else:
        if not (times[True] and times[False]):
            raise SystemExit("the traced run needs a traced and an untraced case")
        result["traced_case_times_s"] = times[True]
        result["metrics"] = _per_layer(tracer, traced_cases, det_evals, times)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
