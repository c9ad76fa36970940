"""One benchmark worker process: set up, then repeat one workload command.

Run from the root of a polyhess checkout with ``src`` on ``PYTHONPATH``
(``run.py`` starts it that way).  The worker imports polyhess, parses the
workload's config and builds its setting (the set-up, timed from the first
line of this file), then calls ``polyhess.cli.main`` in-process with the
same seed until ``--seconds`` have passed, and at least twice, so that
every run checks determinism.  With ``--trace 1`` the repeats alternate
traced and untraced, starting with a traced one, and the traced ones record
spans.  The last line of
standard output is one JSON object with the results.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from polyhess import cli  # noqa: E402

from spans import SpanRecorder, count_under, layer_metrics, traced  # noqa: E402
from workloads import (  # noqa: E402
    COUNTERS, J_SPANS, SPAN_NAMES, TRACE_TARGETS, WORKLOADS, Outcome, gate)

MIN_REPEATS = 2


def set_up(workload) -> None:
    """The work a command does before its solver starts: config parse and setting."""
    path = workload.option("--config")
    if path is None:
        return
    cfg = cli.load_config(path)
    form = workload.option("--form")
    if form is not None:
        cfg = dataclasses.replace(cfg, form=form)
    lam = cfg.lambda_schedule[0] if workload.command == "continuation" else None
    cli.build_setting(cfg, lam=lam)


def run_command(argv: list, out_dir: Path) -> tuple[Outcome, float]:
    """One in-process CLI command: its outputs and its wall time."""
    shutil.rmtree(out_dir, ignore_errors=True)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a failed benchmark
        traceback.print_exc()
        code = 1
    elapsed = time.perf_counter() - t0
    run_json = out_dir / "run.json"
    csv = out_dir / "continuation.csv"
    return Outcome(
        exit_code=code,
        stdout=buf.getvalue(),
        run_json=json.loads(run_json.read_text()) if run_json.is_file() else None,
        csv_text=csv.read_text() if csv.is_file() else None,
    ), elapsed


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "fft_workers": scipy.fft.get_workers(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    set_up(workload)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run_dir = Path(args.run_dir)
    out_dir = run_dir / "out"
    argv = list(workload.argv) + ["--seed", str(args.seed)]
    if workload.command != "verify":
        argv += ["--out", str(out_dir)]
    recorder = SpanRecorder()
    outcomes, untraced_s, traced_s, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(outcomes) % 2 == 0
        recorder.run_id = len(outcomes)
        recorder.counters = {}
        ctx = traced(recorder, TRACE_TARGETS) if trace_this else contextlib.nullcontext()
        with ctx:
            outcome, elapsed = run_command(argv, out_dir)
        outcomes.append(outcome)
        (traced_s if trace_this else untraced_s).append(elapsed)
        if trace_this:
            counts.append(recorder.counters)
        if len(outcomes) >= MIN_REPEATS and time.perf_counter() - start >= args.seconds:
            break

    attempted, failed = gate(workload, outcomes)
    result = {
        "setup_s": setup_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "environment": environment(),
    }
    if args.trace:
        spans = recorder.spans
        recorder.write_csv(run_dir / "spans.csv")
        layers = layer_metrics(spans, SPAN_NAMES)
        counters = {key: statistics.median(c.get(key, 0) for c in counts) for key in COUNTERS}
        mp_iters = counters["solvers.mp_iters"]
        j_in_mp = count_under(spans, J_SPANS, "solvers.mountain_pass")
        result.update(
            spans=len(spans),
            layers=layers,
            counters=counters,
            J_per_mp_iter=j_in_mp / mp_iters if mp_iters else 0.0,
            overhead_s=statistics.median(traced_s) - statistics.median(untraced_s),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
