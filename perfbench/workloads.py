"""Workload definitions, traced layers and the correctness gate.

Every workload is one ``polyhess`` CLI command, run in-process through
``polyhess.cli.main``.  An operation is one solve, one continuation row (as
many as ``reference.json`` lists) or one verify check; the gate turns the
outputs of each repeat of the command into per-operation pass/fail verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
REL_TOL = 1e-3
VERIFY_CHECKS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments, before the --seed and --out the benchmark adds

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> Optional[str]:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None


WORKLOADS = {
    w.name: w for w in (
        Workload("hess3d", ("solve", "--config", "configs/hess3d.cfg")),
        Workload("strong128", ("solve", "--config", "perfbench/configs/strong128.cfg")),
        Workload("weak_cont", ("continuation", "--config", "configs/ma2d.cfg", "--form", "weak")),
        # The energy suite is left out: at seed 1 its gradient_consistency_strong
        # check fails (worst rel err 1.3e-4, tol 1e-4), and a workload must pass
        # at every seed.  Its layers are timed by the solve workloads.
        Workload("verify", ("verify", "--suite", "algebra", "--suite", "exponents",
                            "--suite", "grid")),
    )
}


def _traced(module: str, functions: str, counters: Optional[dict] = None):
    counters = counters or {}
    return [(f"polyhess.{module}", fn, f"{module}.{fn}", counters.get(fn))
            for fn in functions.split()]


def _record_length(result) -> int:
    return len(result[1])


# (module, attribute, span name, counter) for every traced function
TRACE_TARGETS = (
    _traced("cli", "main load_config build_setting")
    + _traced("solvers", "solve_run minimize_local mountain_pass continuation_in_lambda gmres",
              {"minimize_local": ("solvers.descent_iters", _record_length),
               "mountain_pass": ("solvers.mp_iters", _record_length)})
    + _traced("energy", "evaluate_J evaluate_J_weak evaluate_H residual_strong "
                        "residual_weak_field fit_minorant geometry_witnesses")
    + _traced("grid", "hessian sk_field half_order polyharmonic gradient_centered "
                      "invert_polyharmonic seminorm seminorm_inner inner")
    + _traced("hessian_algebra", "sk_of_stack sk_partials_stack sk_of_matrix sk_partials "
                                 "sigma_k shifted_trace_identity")
    + _traced("exponents", "regime_report")
    + _traced("verify", "suite_algebra suite_exponents suite_grid")
)
SPAN_NAMES = tuple(t[2] for t in TRACE_TARGETS)
COUNTERS = ("solvers.descent_iters", "solvers.mp_iters")
J_SPANS = ("energy.evaluate_J", "energy.evaluate_J_weak")


def _close(value, ref) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def _pair_ok(values: dict, ref: dict, lam: float) -> bool:
    if not all(_close(values[key], ref[key]) for key in ("J_m", "J_star", "sep")):
        return False
    return lam <= 0.0 or values["J_m"] < 0.0 < values["J_star"]


@dataclass
class Outcome:
    """What one repeat of a workload command left behind."""

    exit_code: int
    stdout: str
    run_json: Optional[dict] = None
    csv_text: Optional[str] = None


def operations(workload: Workload, out: Outcome) -> list:
    """(key, passed) per operation of one repeat.

    ``key`` is the operation's output, compared across repeats for the
    determinism check.
    """
    ok = out.exit_code == 0
    if workload.command == "verify":
        lines = [ln for ln in out.stdout.splitlines() if ln.split()[1:2] in (["PASS"], ["FAIL"])]
        ops = [(ln, ok and ln.split()[1] == "PASS") for ln in lines]
        missing = VERIFY_CHECKS - len(ops)
        return ops + [(None, False)] * max(missing, 0)
    ref = REFERENCE[workload.name]
    expected = len(ref["rows"]) if workload.command == "continuation" else 1
    if out.run_json is None or "results" not in out.run_json:
        return [(None, False)] * expected
    results = out.run_json["results"]
    config = out.run_json["config"]
    if workload.command == "solve":
        tol = config["solver"]["grad_tol"]
        passed = (ok and results["residual_m"] <= tol and results["residual_star"] <= tol
                  and _pair_ok(results, ref, config["lam"]))
        return [(json.dumps(results, sort_keys=True), passed)]
    csv_lines = (out.csv_text or "").splitlines()[1:]
    table = results["table"]
    ops = []
    for i in range(max(len(table), expected)):
        if i >= min(len(table), len(csv_lines), expected):
            ops.append((None, False))
            continue
        row, ref_row = table[i], ref["rows"][i]
        passed = (ok and row["converged"] and row["lambda"] == ref_row["lambda"]
                  and _pair_ok(row, ref_row, row["lambda"]))
        ops.append((json.dumps(row, sort_keys=True) + "\n" + csv_lines[i], passed))
    return ops


def gate(workload: Workload, outcomes: list) -> tuple[int, int]:
    """(attempted, failed) over all repeats, including the determinism check.

    Every repeat ran the same seed, so each operation's output must match the
    first repeat's exactly; a mismatch fails that operation.
    """
    per_repeat = [operations(workload, out) for out in outcomes]
    first = per_repeat[0]
    attempted = failed = 0
    for ops in per_repeat:
        if len(ops) != len(first):
            ops = ops + [(None, False)] * (len(first) - len(ops))
        for (key, passed), (key0, _) in zip(ops, first):
            attempted += 1
            if not passed or key is None or key != key0:
                failed += 1
    return attempted, failed
