"""Batch front end: exponent reports, invariant suites, solve and continuation runs.

Config files are flat key/value INI text with the sections below (JSON with
the same nested structure is accepted too, a list standing for a
space-separated value and ``null`` for the key's default; files whose first
non-blank character is ``{`` are parsed as JSON):

    [problem]            [domain]          [datum]
    n = 2                nodes = 64        kind = constant | gaussian | checker | file
    k = 2                extent = 1.0      value = 1.0
    alpha = 2 (opt)                        width = 0.1   (gaussian)
    form = strong|weak                     blocks = 2    (checker)
                                           path = dump   (file, base path of .f64)
    [lambda]             [solver]                        [output]
    value = 0.05         grad_tol = 1e-06                directory = runs
    schedule = 0.0,0.01  max_iters = 400                 dump_fields = false
                         path_points = 17
                         deform_tol = 3e-05
                         seed = 0

The keys come from the dataclass fields: each ``RunConfig`` field names its
``(section, key)`` in its metadata, and the ``[solver]`` keys are the fields
of ``SolverConfig``.  Values are checked when the config is built, so a bad
value (a gaussian ``width`` so narrow that the datum vanishes at every node
among them) exits 2 before any solve starts, and so does an output directory
that cannot be created.  Unknown sections or keys are rejected.  Exit codes:
0 success, 2 config error (``config error: ...`` on stderr), 3 solver
nonconvergence/geometry failure, 4 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
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
from .grid import BoxDomain, ScalarField, dump_field, from_function, inner, load_field
from .solvers import SolverConfig, check_lambda_schedule, continuation_in_lambda, solve_run
from .verify import run_suites

_DATUM_KINDS = ("constant", "gaussian", "checker", "file")


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


def _ini(section: str, key: str, default, parse=None):
    """A field read from ``[section] key``, parsed by ``parse`` or its default's type."""
    return field(default=default, metadata={"ini": (section, key), "parse": parse})


@dataclass
class RunConfig:
    n: int = _ini("problem", "n", 2)
    k: int = _ini("problem", "k", 2)
    alpha: Optional[int] = _ini("problem", "alpha", None, int)
    form: str = _ini("problem", "form", "strong")
    nodes: tuple = _ini("domain", "nodes", (64,), _parse_int_list)
    extent: tuple = _ini("domain", "extent", (1.0,), _parse_float_list)
    datum_kind: str = _ini("datum", "kind", "constant")
    datum_value: float = _ini("datum", "value", 1.0)
    datum_width: float = _ini("datum", "width", 0.1)
    datum_blocks: int = _ini("datum", "blocks", 2)
    datum_path: Optional[str] = _ini("datum", "path", None, str)
    lam: float = _ini("lambda", "value", 0.0)
    lambda_schedule: Optional[tuple] = _ini("lambda", "schedule", None, _parse_float_list)
    solver: SolverConfig = field(default_factory=SolverConfig)  # the [solver] section
    out_dir: str = _ini("output", "directory", "runs")
    dump_fields: bool = _ini("output", "dump_fields", False, _parse_bool)

    def __post_init__(self):
        if self.form not in ("strong", "weak"):
            raise ConfigError(f"form must be strong or weak, got {self.form!r}")
        if self.datum_kind not in _DATUM_KINDS:
            raise ConfigError(f"datum kind must be one of {_DATUM_KINDS}")
        if not math.isfinite(self.datum_value):
            raise ConfigError(f"datum.value must be finite, got {self.datum_value!r}")
        if not 0.0 < self.datum_width < math.inf:
            raise ConfigError(
                f"datum.width must be positive and finite, got {self.datum_width!r}")
        if self.datum_blocks < 1:
            raise ConfigError(f"datum.blocks must be at least 1, got {self.datum_blocks!r}")
        if not math.isfinite(self.lam):
            raise ConfigError(f"lambda.value must be finite, got {self.lam!r}")
        if self.lambda_schedule is not None:
            if not all(math.isfinite(v) for v in self.lambda_schedule):
                raise ConfigError(f"lambda.schedule must be finite, got {self.lambda_schedule!r}")
            check_lambda_schedule(self.lambda_schedule)


def _build_schema() -> dict:
    """section -> key -> (attribute, parser), sections and keys in field order."""
    schema = {}
    for f in fields(RunConfig):
        if f.name == "solver":
            schema["solver"] = {g.name: (g.name, type(g.default)) for g in fields(SolverConfig)}
        else:
            section, key = f.metadata["ini"]
            schema.setdefault(section, {})[key] = (f.name, f.metadata["parse"] or type(f.default))
    return schema


_SCHEMA = _build_schema()


@contextlib.contextmanager
def _config_values():
    """Report a value that ``RunConfig``, ``SolverConfig`` or ``ProblemParams``
    rejects as a ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> RunConfig:
    if text.lstrip().startswith("{"):
        try:
            sections = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    flat = {}
    for section, entries in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(entries, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key, value in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            if isinstance(value, list):  # a JSON list: its items space-separated
                value = " ".join(v if isinstance(v, str) else json.dumps(v) for v in value)
            if value is not None:  # JSON null keeps the key's default
                flat[(section, key)] = value if isinstance(value, str) else json.dumps(value)
    cfg_kwargs, solver_kwargs = {}, {}
    for (section, key), raw in flat.items():
        attr, conv = _SCHEMA[section][key]
        raw = raw.strip()
        try:
            value = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
        (solver_kwargs if section == "solver" else cfg_kwargs)[attr] = value
    with _config_values():
        return RunConfig(solver=SolverConfig(**solver_kwargs), **cfg_kwargs)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _render(value) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    return str(value)


def config_to_ini(cfg: RunConfig) -> str:
    """Canonical INI rendering: schema order, every non-None value written."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        owner = cfg.solver if section == "solver" else cfg
        parser[section] = {}
        for key, (attr, _) in keys.items():
            text = _render(getattr(owner, attr))
            if text is not None:
                parser[section][key] = text
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def build_domain(cfg: RunConfig) -> BoxDomain:
    nodes = cfg.nodes
    if len(nodes) == 1:
        nodes = nodes * cfg.n
    if len(nodes) != cfg.n:
        raise ConfigError(f"{len(nodes)} node counts given for an N={cfg.n} problem")
    return BoxDomain(nodes=nodes, extent=cfg.extent)


def build_datum(cfg: RunConfig, domain: BoxDomain) -> ScalarField:
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
        return f
    if kind == "constant":
        fn = lambda *mesh: cfg.datum_value * np.ones_like(mesh[0])
    elif kind == "gaussian":
        center = tuple(0.5 * e for e in domain.extent)

        def fn(*mesh):
            s2 = sum((x - c) ** 2 for x, c in zip(mesh, center))
            with np.errstate(divide="ignore", invalid="ignore"):  # width**2 may underflow
                bump = np.exp(-s2 / (2.0 * cfg.datum_width**2))
            if not np.any(bump):
                raise ConfigError(f"datum.width = {cfg.datum_width!r} is too narrow: "
                                  "the gaussian datum vanishes at every node")
            return cfg.datum_value * bump
    else:  # checker
        def fn(*mesh):
            total = np.zeros_like(mesh[0], dtype=int)
            for x, e in zip(mesh, domain.extent):
                total = total + np.floor(x * cfg.datum_blocks / e).astype(int)
            return cfg.datum_value * np.where(total % 2 == 0, 1.0, -1.0)
    f = from_function(domain, fn)
    if not np.all(np.isfinite(f.values)):
        raise ConfigError(f"the {kind} datum has non-finite values")
    return f


def build_setting(cfg: RunConfig, lam: Optional[float] = None,
                  sweep: bool = False) -> EnergySetting:
    """The setting at ``lam`` (default ``cfg.lam``; with ``sweep``, the first
    value of ``cfg.lambda_schedule``).

    Every nonzero lambda the run uses (that one, or with ``sweep`` the whole
    schedule) must pair with a nonzero datum: when lambda * int f^2
    underflows to 0 the mountain-pass geometry has no datum witness, so the
    config is rejected here rather than after the minorant fit.
    """
    if sweep and cfg.lambda_schedule is None:
        raise ConfigError("continuation needs lambda.schedule in the config")
    lams = cfg.lambda_schedule if sweep else (cfg.lam if lam is None else lam,)
    with _config_values():
        params = ProblemParams(cfg.n, cfg.k)
        form = Form(cfg.form)
        f = build_datum(cfg, build_domain(cfg))
        s = make_setting(params, lams[0], f, form=form, alpha=cfg.alpha)
    pairing = inner(f, f)
    for value in lams:
        if value != 0.0 and np.any(f.values) and not abs(value) * pairing > 0.0:
            raise ConfigError(f"lambda * int f^2 underflows to 0 at lambda = {value!r}: "
                              "the datum is too small to pair with lambda")
    return s


def _start(args, command: str) -> tuple[RunConfig, EnergySetting, Path, dict]:
    """Config with the command-line overrides, setting, output directory, summary head."""
    cfg = load_config(args.config)
    overrides = {name: getattr(args, name) for name in ("lam", "form", "out_dir")
                 if getattr(args, name, None) is not None}
    with _config_values():
        if args.seed is not None:
            overrides["solver"] = replace(cfg.solver, seed=args.seed)
        cfg = replace(cfg, **overrides)
    s = build_setting(cfg, sweep=command == "continuation")
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    return cfg, s, out_dir, {
        "command": command,
        "config": asdict(cfg),
        "seed": cfg.solver.seed,
        "regime_report": regime_report(s.params).to_json_dict(),
        "alpha": {"value": s.alpha, "source": "override" if s.alpha_overridden
                  else f"{s.form.alpha_formula.__name__} formula"},
    }


def _finite(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _finish(out_dir: Path, summary: dict, t0: float) -> Path:
    """Stamp the wall time and write ``run.json`` as strict JSON (NaN and inf as null)."""
    summary["wall_clock_s"] = time.perf_counter() - t0
    path = out_dir / "run.json"
    path.write_text(json.dumps(_finite(summary), indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path


def cmd_exponents(args) -> int:
    with _config_values():
        params = ProblemParams(args.n, args.k)
    print(json.dumps(regime_report(params).to_json_dict(), indent=2))
    return 0


def cmd_verify(args) -> int:
    results = run_suites(args.suite or None, seed=args.seed)  # ConfigError: exit 2 in main
    width = max(len(f"{r.suite}.{r.name}") for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{(r.suite + '.' + r.name).ljust(width)}  {status}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 4


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    cfg, s, out_dir, summary = _start(args, "solve")
    try:
        run = solve_run(s, cfg.solver)
    except PolyhessError as exc:
        summary["error"] = str(exc)
        record = getattr(exc, "record", None)
        if record is not None:
            summary["partial_record"] = record.to_json_dict()
        path = _finish(out_dir, summary, t0)
        print(f"solve failed: {exc} (summary at {path})", file=sys.stderr)
        return 3
    pair, geom = run.pair, run.geometry
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
        "residual_m_stencil": pair.residual_m_stencil,
        "residual_star": pair.residual_star,
        "residual_star_stencil": pair.residual_star_stencil,
        "minorant": {"C1": geom.C1, "C2": geom.C2, "k": geom.k},
        "radii": {"R0": geom.R0, "R1": geom.R1, "R_M": geom.R_M, "h_max": geom.h_max},
        "record_minimize": run.record_minimize.to_json_dict(),
        "record_mountain": run.record_mountain.to_json_dict(),
    }
    summary["artifacts"] = artifacts
    path = _finish(out_dir, summary, t0)
    print(f"J_m={pair.J_m:.6e}  J_star={pair.J_star:.6e}  sep={pair.sep:.6e}")
    print(f"summary written to {path}")
    return 0


def cmd_continuation(args) -> int:
    t0 = time.perf_counter()
    cfg, s, out_dir, summary = _start(args, "continuation")
    table = continuation_in_lambda(s, cfg.lambda_schedule, cfg.solver)
    csv_path = out_dir / "continuation.csv"
    csv_path.write_text(table.to_csv_text())
    converged = [r for r in table.rows if r.converged]
    summary["results"] = {
        "rows": len(table.rows),
        "converged_rows": len(converged),
        "largest_converged_lambda": table.largest_converged_lambda(),
        "table": [
            {"lambda": r.lam, "J_m": r.J_m, "J_star": r.J_star,
             "sep": r.sep, "converged": r.converged, "reason": r.reason,
             "method": r.method}
            for r in table.rows
        ],
    }
    summary["artifacts"] = [str(csv_path)]
    path = _finish(out_dir, summary, t0)
    for r in table.rows:
        if not r.converged:
            print(f"lambda={r.lam!r} failed: {r.reason}", file=sys.stderr)
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
    p_ver.set_defaults(func=cmd_verify)

    p_sol = sub.add_parser("solve", help="run a two-solution solve from a config file")
    p_sol.add_argument("--config", required=True)
    p_sol.add_argument("--lambda", dest="lam", type=float, default=None)
    p_sol.add_argument("--form", choices=("strong", "weak"), default=None)
    p_sol.add_argument("--seed", type=int, default=None)
    p_sol.add_argument("--out", dest="out_dir", default=None)
    p_sol.set_defaults(func=cmd_solve)

    p_con = sub.add_parser("continuation", help="sweep lambda per the config schedule")
    p_con.add_argument("--config", required=True)
    p_con.add_argument("--form", choices=("strong", "weak"), default=None)
    p_con.add_argument("--seed", type=int, default=None)
    p_con.add_argument("--out", dest="out_dir", default=None)
    p_con.set_defaults(func=cmd_continuation)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CapabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
