"""Batch front end: exponent reports, invariant suites, solve and continuation runs.

Config files are flat key/value INI text with the sections below (JSON with
the same nested structure is accepted too; files whose first non-blank
character is ``{`` are parsed as JSON):

    [problem]            [domain]          [datum]
    n = 2                nodes = 64        kind = constant | gaussian | checker | file
    k = 2                extent = 1.0      value = 1.0
    alpha = 2 (opt)                        width = 0.1   (gaussian)
    form = strong|weak                     blocks = 2    (checker)
                                           path = dump   (file, base path of .f64)
    [lambda]             [solver]                        [output]
    value = 0.05         grad_tol = 1e-06                directory = runs
    schedule = 0.0,0.01  max_iters = 400                 dump_fields = false
                         step_rule = backtracking
                         path_points = 17
                         deform_tol = 3e-05
                         seed = 0
                         fit_samples = 48
                         krylov_rtol = 0.001
                         krylov_restart = 40
                         krylov_outer = 5

The ``[solver]`` keys are the fields of ``SolverConfig``.  Unknown sections
or keys are rejected.  Exit codes: 0 success, 2 config error, 3 solver
nonconvergence/geometry failure, 4 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .energy import EnergySetting, Form, make_setting
from .errors import CapabilityError, ConfigError, PolyhessError
from .exponents import ProblemParams, regime_report
from .grid import BoxDomain, ScalarField, dump_field, from_function, load_field
from .solvers import SolverConfig, continuation_in_lambda, solve_run
from .verify import run_suites

_DATUM_KINDS = ("constant", "gaussian", "checker", "file")


@dataclass
class RunConfig:
    n: int = 2
    k: int = 2
    alpha: Optional[int] = None
    form: str = "strong"
    nodes: tuple = (64,)
    extent: tuple = (1.0,)
    datum_kind: str = "constant"
    datum_value: float = 1.0
    datum_width: float = 0.1
    datum_blocks: int = 2
    datum_path: Optional[str] = None
    lam: float = 0.0
    lambda_schedule: Optional[tuple] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_dir: str = "runs"
    dump_fields: bool = False

    def __post_init__(self):
        if self.form not in ("strong", "weak"):
            raise ConfigError(f"form must be strong or weak, got {self.form!r}")
        if self.datum_kind not in _DATUM_KINDS:
            raise ConfigError(f"datum kind must be one of {_DATUM_KINDS}")
        if not math.isfinite(self.lam):
            raise ConfigError(f"lambda.value must be finite, got {self.lam!r}")
        if self.lambda_schedule is not None and not all(
                math.isfinite(v) for v in self.lambda_schedule):
            raise ConfigError(f"lambda.schedule must be finite, got {self.lambda_schedule!r}")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


# section -> key -> (target attribute, converter)
_SCHEMA = {
    "problem": {
        "n": ("n", int),
        "k": ("k", int),
        "alpha": ("alpha", int),
        "form": ("form", str),
    },
    "domain": {
        "nodes": ("nodes", _parse_int_list),
        "extent": ("extent", _parse_float_list),
    },
    "datum": {
        "kind": ("datum_kind", str),
        "value": ("datum_value", float),
        "width": ("datum_width", float),
        "blocks": ("datum_blocks", int),
        "path": ("datum_path", str),
    },
    "lambda": {
        "value": ("lam", float),
        "schedule": ("lambda_schedule", _parse_float_list),
    },
    "solver": {f.name: (f.name, type(f.default)) for f in fields(SolverConfig)},
    "output": {
        "directory": ("out_dir", str),
        "dump_fields": ("dump_fields", _parse_bool),
    },
}


def parse_config_text(text: str) -> RunConfig:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            nested = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        flat = {}
        for section, entries in nested.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(entries, dict):
                raise ConfigError(f"section {section!r} must be an object")
            for key, value in entries.items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section {section!r}")
                flat[(section, key)] = value if isinstance(value, str) else json.dumps(value)
        return _config_from_flat(flat)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    flat = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            flat[(section, key)] = value
    return _config_from_flat(flat)


def _config_from_flat(flat: dict) -> RunConfig:
    cfg_kwargs = {}
    solver_kwargs = {}
    for (section, key), raw in flat.items():
        attr, conv = _SCHEMA[section][key]
        if isinstance(raw, str):
            raw = raw.strip()
        try:
            value = conv(raw) if conv is not str else str(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
        if section == "solver":
            solver_kwargs[attr] = value
        else:
            cfg_kwargs[attr] = value
    try:
        solver = SolverConfig(**solver_kwargs)
        cfg = RunConfig(solver=solver, **cfg_kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_to_ini(cfg: RunConfig) -> str:
    """Canonical INI rendering: fixed section order, every non-None value written."""
    parser = configparser.ConfigParser(interpolation=None)
    values = {
        "problem": {
            "n": cfg.n, "k": cfg.k, "alpha": cfg.alpha, "form": cfg.form,
        },
        "domain": {
            "nodes": " ".join(str(v) for v in cfg.nodes),
            "extent": " ".join(repr(v) for v in cfg.extent),
        },
        "datum": {
            "kind": cfg.datum_kind, "value": repr(cfg.datum_value),
            "width": repr(cfg.datum_width), "blocks": cfg.datum_blocks,
            "path": cfg.datum_path,
        },
        "lambda": {
            "value": repr(cfg.lam),
            "schedule": None if cfg.lambda_schedule is None
            else " ".join(repr(v) for v in cfg.lambda_schedule),
        },
        "solver": {key: repr(val) if isinstance(val, float) else val
                   for key, val in asdict(cfg.solver).items()},
        "output": {
            "directory": cfg.out_dir,
            "dump_fields": "true" if cfg.dump_fields else "false",
        },
    }
    for section in ("problem", "domain", "datum", "lambda", "solver", "output"):
        parser[section] = {}
        for key, val in values[section].items():
            if val is None:
                continue
            parser[section][key] = str(val)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def build_domain(cfg: RunConfig) -> BoxDomain:
    nodes = cfg.nodes
    if len(nodes) == 1:
        nodes = nodes * cfg.n
    if len(nodes) != cfg.n:
        raise ConfigError(f"{len(nodes)} node counts given for an N={cfg.n} problem")
    try:
        return BoxDomain(nodes=nodes, extent=cfg.extent if len(cfg.extent) > 1
                         else cfg.extent * cfg.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_datum(cfg: RunConfig, domain: BoxDomain, ghost_width: int) -> ScalarField:
    kind = cfg.datum_kind
    if kind == "file":
        if not cfg.datum_path:
            raise ConfigError("datum kind 'file' needs datum.path")
        try:
            f = load_field(cfg.datum_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load datum dump {cfg.datum_path}: {exc}") from exc
        if f.domain != domain:
            raise ConfigError("datum dump does not match the configured domain")
        return ScalarField(domain, f.values, ghost_width)
    if kind == "constant":
        fn = lambda *mesh: cfg.datum_value * np.ones_like(mesh[0])
    elif kind == "gaussian":
        center = tuple(0.5 * e for e in domain.extent)

        def fn(*mesh):
            s2 = sum((x - c) ** 2 for x, c in zip(mesh, center))
            return cfg.datum_value * np.exp(-s2 / (2.0 * cfg.datum_width**2))
    else:  # checker
        def fn(*mesh):
            total = np.zeros_like(mesh[0], dtype=int)
            for x, e in zip(mesh, domain.extent):
                total = total + np.floor(x * cfg.datum_blocks / e).astype(int)
            return cfg.datum_value * np.where(total % 2 == 0, 1.0, -1.0)
    return from_function(domain, fn, ghost_width)


def build_setting(cfg: RunConfig, lam: Optional[float] = None) -> EnergySetting:
    try:
        params = ProblemParams(cfg.n, cfg.k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    form = Form(cfg.form)
    alpha = cfg.alpha if cfg.alpha is not None else form.alpha_formula(params)
    domain = build_domain(cfg)
    # a negative alpha is left for make_setting to reject with its own reason
    f = build_datum(cfg, domain, ghost_width=max(alpha, 0))
    try:
        return make_setting(params, cfg.lam if lam is None else lam, f,
                            form=form, alpha=alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _alpha_source(s: EnergySetting) -> str:
    if s.alpha_overridden:
        return "override"
    return f"{s.form.alpha_formula.__name__} formula"


def _summary_base(cfg: RunConfig, s: EnergySetting, command: str) -> dict:
    report = regime_report(s.params)
    return {
        "command": command,
        "config": asdict(cfg),
        "seed": cfg.solver.seed,
        "regime_report": report.to_json_dict(),
        "alpha": {"value": s.alpha, "source": _alpha_source(s)},
    }


def _write_summary(out_dir: Path, summary: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return path


def cmd_exponents(args) -> int:
    try:
        params = ProblemParams(args.n, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = regime_report(params)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_suites(args.suite or None, seed=args.seed, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(f"{r.suite}.{r.name}") for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{(r.suite + '.' + r.name).ljust(width)}  {status}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 4


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "lam", None) is not None:
        cfg = replace(cfg, lam=args.lam)
    if getattr(args, "form", None) is not None:
        cfg = replace(cfg, form=args.form)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, seed=args.seed))
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        s = build_setting(cfg)
    except (ConfigError, CapabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    summary = _summary_base(cfg, s, "solve")
    try:
        run = solve_run(s, cfg.solver)
    except PolyhessError as exc:
        summary["error"] = str(exc)
        record = getattr(exc, "record", None)
        if record is not None:
            summary["partial_record"] = record.to_json_dict()
        summary["wall_clock_s"] = time.perf_counter() - t0
        path = _write_summary(out_dir, summary)
        print(f"solve failed: {exc} (summary at {path})", file=sys.stderr)
        return 3
    pair = run.pair
    artifacts = []
    if cfg.dump_fields:
        for name, fld in (("u_m", pair.u_m), ("u_star", pair.u_star)):
            raw, meta = dump_field(fld, out_dir / name)
            artifacts += [str(raw), str(meta)]
    summary["results"] = {
        "J_m": pair.J_m,
        "J_star": pair.J_star,
        "sep": pair.sep,
        "residual_m": pair.residual_m,
        "residual_star": pair.residual_star,
        "minorant": {"C1": run.fit.C1, "C2": run.fit.C2, "k": run.fit.k},
        "radii": {"R0": run.geometry.R0, "R1": run.geometry.R1,
                  "R_M": run.geometry.R_M, "h_max": run.geometry.h_max},
        "far_scale": run.far_scale,
        "record_minimize": run.record_minimize.to_json_dict(),
        "record_mountain": run.record_mountain.to_json_dict(),
    }
    summary["artifacts"] = artifacts
    summary["wall_clock_s"] = time.perf_counter() - t0
    path = _write_summary(out_dir, summary)
    print(f"J_m={pair.J_m:.6e}  J_star={pair.J_star:.6e}  sep={pair.sep:.6e}")
    print(f"summary written to {path}")
    return 0


def cmd_continuation(args) -> int:
    t0 = time.perf_counter()
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if cfg.lambda_schedule is None:
            raise ConfigError("continuation needs lambda.schedule in the config")
        s = build_setting(cfg, lam=cfg.lambda_schedule[0])
    except (ConfigError, CapabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    summary = _summary_base(cfg, s, "continuation")
    try:
        table = continuation_in_lambda(s, cfg.lambda_schedule, cfg.solver)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "continuation.csv"
    csv_path.write_text(table.to_csv_text())
    converged = [r for r in table.rows if r.converged]
    summary["results"] = {
        "rows": len(table.rows),
        "converged_rows": len(converged),
        "largest_converged_lambda": table.largest_converged_lambda(),
        "table": [
            {"lambda": r.lam, "J_m": r.J_m, "J_star": r.J_star,
             "sep": r.sep, "converged": r.converged}
            for r in table.rows
        ],
    }
    summary["artifacts"] = [str(csv_path)]
    summary["wall_clock_s"] = time.perf_counter() - t0
    path = _write_summary(out_dir, summary)
    print(f"{len(converged)}/{len(table.rows)} rows converged; table at {csv_path}")
    print(f"summary written to {path}")
    return 0 if converged else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhess",
        description="Polyharmonic k-Hessian two-solution solver and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="print the exact exponent report as JSON")
    p_exp.add_argument("--n", type=int, required=True, help="spatial dimension N")
    p_exp.add_argument("--k", type=int, required=True, help="Hessian order k")
    p_exp.set_defaults(func=cmd_exponents)

    p_ver = sub.add_parser("verify", help="run the invariant suites")
    p_ver.add_argument("--suite", action="append",
                       help="restrict to a suite (repeatable): algebra, exponents, grid, energy")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.set_defaults(func=cmd_verify)

    p_sol = sub.add_parser("solve", help="run a two-solution solve from a config file")
    p_sol.add_argument("--config", required=True)
    p_sol.add_argument("--lambda", dest="lam", type=float, default=None)
    p_sol.add_argument("--form", choices=("strong", "weak"), default=None)
    p_sol.add_argument("--seed", type=int, default=None)
    p_sol.add_argument("--out", default=None)
    p_sol.set_defaults(func=cmd_solve)

    p_con = sub.add_parser("continuation", help="sweep lambda per the config schedule")
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--form", choices=("strong", "weak"), default=None)
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=cmd_continuation)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
