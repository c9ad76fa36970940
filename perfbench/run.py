"""polyhess benchmark: time the CLI end to end and per layer, and gate its outputs.

Run from the root of a polyhess checkout:

    python3 perfbench/run.py --workload hess3d --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Workloads: hess3d, strong128, weak_cont, verify (see ``workloads.py``).
Each run starts ``SETUP_PROBES`` short workers that only set up, then one
worker that sets up and repeats the workload's command with the given seed
(``worker.py``).  With ``--trace 0`` it reports the end-to-end metrics:

    wall_s       median wall time of one command (untraced repeats)
    setup_s      median, over all workers, of start -> first command ready
    peak_rss_mb  peak resident memory of the timing worker
    pass_ratio   operations that passed the gate / operations attempted

With ``--trace 1`` it reports per-layer metrics from spans recorded around
the polyhess functions (``spans.py``), plus ``overhead_s``: the median
traced repeat minus the median untraced one.  Traced and untraced repeats
alternate, traced first, so ``overhead_s`` also carries first-call costs.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The exit code is nonzero, with no result printed, when the
checkout has no polyhess sources or a worker crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import COUNTERS, SPAN_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 2
# OpenBLAS threads for every worker (numpy's default on a 2-CPU machine),
# capped at nproc.  The thread count sets the order of BLAS reductions, so it
# is part of the workload definition: strong128 sits at the residual roundoff
# floor, and with one thread its seed-0 solve ends in NonconvergenceError.
BLAS_THREADS = 2
RUN_TIMEOUT_S = 170.0  # per workload, set-up probes included
RUNS_DIR = HERE / ".runs"

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.incl_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["energy.J_per_mp_iter"] = "count"
    units["overhead_s"] = "s"
    return units


def threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(threads())
    return env


def run_worker(root: Path, options: list, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *options],
        cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 0.0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the worker result plus all set-up samples."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    run_dir = RUNS_DIR / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    options = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--run-dir", str(run_dir)]
    setups = [run_worker(root, options + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = run_worker(root, options, deadline)
    result["setup_samples"] = setups + [result["setup_s"]]
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if not trace:
        values = {
            "wall_s": statistics.median(result["untraced_s"]),
            "setup_s": statistics.median(result["setup_samples"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        }
        units = END_TO_END
    else:
        values = {"overhead_s": result["overhead_s"],
                  "energy.J_per_mp_iter": result["J_per_mp_iter"]}
        values.update(result["counters"])
        for name, layer in result["layers"].items():
            for key, value in layer.items():
                values[f"{name}.{key}"] = value
        units = per_layer_units()
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def describe(name: str, result: dict, metrics: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] {len(result['untraced_s'])} untraced + {len(result['traced_s'])} traced "
          f"repeats, {len(result['setup_samples'])} set-up samples, "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({"environment": result["environment"]}))
    for key, metric in metrics.items():
        if "self_s" in key or key in END_TO_END or "." not in key:
            print(f"  {key:44s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polyhess" / "cli.py").is_file():
        print(f"error: {root} is not a polyhess checkout (no src/polyhess/cli.py)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        try:
            result = measure(root, name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        metrics = metrics_of(result, args.trace)
        describe(name, result, metrics)
        summary[name] = {"correct": result["failed"] == 0 and result["attempted"] > 0,
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": metrics}
    print(json.dumps(summary[names[0]] if len(names) == 1 else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
