"""Config parsing, canonical round-trips, subcommands, artifacts, exit codes."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyhess import energy, solvers
from polyhess import (
    CapabilityError, ConfigError, GeometryError, dump_field, load_field, random_smooth_field,
    unit_box,
)
from polyhess.cli import (
    _SCHEMA,
    build_datum,
    build_domain,
    build_setting,
    config_to_ini,
    load_config,
    main,
    parse_config_text,
)

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL_INI = """\
[problem]
n = 2
k = 2
form = strong

[domain]
nodes = 32

[datum]
kind = constant
value = 1.0

[lambda]
value = 0.05
schedule = 0.0 0.05

[solver]
grad_tol = 1e-06
seed = 0

[output]
directory = {out}
dump_fields = true
"""


def write_cfg(tmp_path, text=None, **fmt):
    path = tmp_path / "run.cfg"
    body = SMALL_INI if text is None else text
    fmt.setdefault("out", str(tmp_path / "out"))
    path.write_text(body.format(**fmt))
    return path


def test_config_roundtrip_ini(tmp_path):
    text = SMALL_INI.replace("seed = 0\n", "seed = 0\npath_points = 21\ndeform_tol = 1e-05\n")
    cfg = load_config(write_cfg(tmp_path, text=text))
    assert (cfg.solver.path_points, cfg.solver.deform_tol) == (21, 1e-5)
    canon = config_to_ini(cfg)
    cfg2 = parse_config_text(canon)
    assert cfg2 == cfg
    assert config_to_ini(cfg2) == canon


def test_config_json_equivalent(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    as_json = json.dumps({
        "problem": {"n": 2, "k": 2, "form": "strong"},
        "domain": {"nodes": "32"},
        "datum": {"kind": "constant", "value": 1.0},
        "lambda": {"value": 0.05, "schedule": "0.0 0.05"},
        "solver": {"grad_tol": 1e-6, "seed": 0},
        "output": {"directory": str(tmp_path / "out"), "dump_fields": True},
    })
    cfg2 = parse_config_text(as_json)
    assert cfg2 == cfg
    # a JSON list is a space-separated value, and null keeps the key's default
    with_arrays = json.loads(as_json)
    with_arrays["problem"]["alpha"] = None
    with_arrays["domain"]["nodes"] = [32, 32]
    with_arrays["lambda"]["schedule"] = [0.0, 0.05]
    cfg3 = parse_config_text(json.dumps(with_arrays))
    assert cfg3 == replace(cfg, nodes=(32, 32))
    assert build_domain(cfg3) == build_domain(cfg)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config_text("[problem]\nn = 2\nk = 2\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("[mystery]\nn = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("[problem]\nn = 2\nk = two\n")
    with pytest.raises(ConfigError):
        parse_config_text("[output]\ndump_fields = maybe\n")
    with pytest.raises(ConfigError):
        parse_config_text("[problem]\nform = strange\n")


def test_build_domain_and_datum(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    dom = build_domain(cfg)
    assert dom.nodes == (32, 32)
    f = build_datum(cfg, dom)
    assert np.all(f.values == 1.0)

    gauss = parse_config_text(
        "[problem]\nn = 2\nk = 2\n[domain]\nnodes = 16\n"
        "[datum]\nkind = gaussian\nvalue = 2.0\nwidth = 0.2\n")
    dg = build_datum(gauss, build_domain(gauss))
    assert dg.values.max() <= 2.0
    # nearest node sits h/2 off the center on an even grid
    assert dg.values.max() == pytest.approx(2.0, rel=5e-2)

    checker = parse_config_text(
        "[problem]\nn = 2\nk = 2\n[domain]\nnodes = 16\n"
        "[datum]\nkind = checker\nblocks = 2\n")
    dc = build_datum(checker, build_domain(checker))
    assert set(np.unique(dc.values)) == {-1.0, 1.0}


def test_build_setting_alpha_provenance(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    s = build_setting(cfg)
    assert s.alpha == 2 and not s.alpha_overridden
    override = parse_config_text(
        "[problem]\nn = 2\nk = 2\nalpha = 4\n[domain]\nnodes = 16\n")
    s2 = build_setting(override)
    assert s2.alpha == 4 and s2.alpha_overridden


def test_weak_alpha_override_rejected(tmp_path):
    text = SMALL_INI.replace("form = strong\n", "form = weak\nalpha = 3\n")
    with pytest.raises(ConfigError):
        build_setting(parse_config_text(text.format(out=tmp_path / "out")))
    cfg_path = write_cfg(tmp_path, text=text)
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert main(["continuation", "--config", str(cfg_path)]) == 2


def test_cmd_exponents(capsys):
    assert main(["exponents", "--n", "5", "--k", "2"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["regime"] == "SUB"
    assert d["alpha_main"] == 3
    assert d["p_star"] == "15/14"
    assert main(["exponents", "--n", "2", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "SUPER"
    assert main(["exponents", "--n", "4", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "CRITICAL"
    assert main(["exponents", "--n", "5", "--k", "9"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cmd_verify_filter_and_determinism(capsys):
    assert main(["verify", "--suite", "algebra", "--seed", "7"]) == 0
    out1 = capsys.readouterr().out
    assert "algebra.eigen_oracle_equivalence" in out1
    assert "exponents." not in out1
    assert main(["verify", "--suite", "algebra", "--seed", "7"]) == 0
    assert capsys.readouterr().out == out1
    assert main(["verify", "--suite", "nosuch"]) == 2


def test_cmd_verify_failure_exit_code(capsys, monkeypatch):
    import polyhess.verify as verify_mod
    from polyhess.verify import CheckResult

    def broken_suite(seed=0):
        return [CheckResult("broken", "always_fails", False, "rigged")]

    monkeypatch.setitem(verify_mod.SUITES, "broken", broken_suite)
    assert main(["verify", "--suite", "broken"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_cmd_verify_reports_only_bad_arguments_as_config_errors(capsys, monkeypatch):
    import polyhess.verify as verify_mod

    assert main(["verify", "--suite", "algebra", "--seed", "-1"]) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert main(["verify", "--suite", "nosuch"]) == 2
    assert "unknown suite 'nosuch'" in capsys.readouterr().err

    def faulty_suite(seed=0):
        raise ValueError("shape bug inside a check")

    monkeypatch.setitem(verify_mod.SUITES, "faulty", faulty_suite)
    with pytest.raises(ValueError, match="shape bug"):
        main(["verify", "--suite", "faulty"])


def test_cmd_solve_artifacts(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "run.json").read_text())
    assert summary["command"] == "solve"
    assert summary["regime_report"]["regime"] == "SUPER"
    assert summary["alpha"] == {"value": 2, "source": "alpha_main formula"}
    res = summary["results"]
    assert res["J_m"] < 0.0 < res["J_star"]
    assert res["residual_m"] <= 1e-6 and res["residual_star"] <= 1e-6
    assert "minorant" in res and "radii" in res
    assert res["record_minimize"]["rows"] >= 1
    assert (out / "u_m.f64").exists() and (out / "u_star.meta.json").exists()
    u_m = load_field(out / "u_m")
    assert u_m.domain.nodes == (32, 32)
    assert summary["wall_clock_s"] > 0.0


def test_cmd_solve_lambda_zero_override(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "zero"
    assert main(["solve", "--config", str(cfg_path), "--lambda", "0",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "run.json").read_text())
    assert summary["results"]["J_m"] == 0.0
    u_m = load_field(out / "u_m")
    assert np.all(u_m.values == 0.0)


def test_cmd_solve_weak_form_override(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "weak"
    assert main(["solve", "--config", str(cfg_path), "--form", "weak",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "run.json").read_text())
    assert summary["config"]["form"] == "weak"
    assert summary["results"]["J_m"] < 0.0 < summary["results"]["J_star"]


def test_cmd_solve_nonconvergence_exit_code(tmp_path, capsys):
    text = SMALL_INI.replace("grad_tol = 1e-06", "grad_tol = 1e-06\nmax_iters = 1")
    cfg_path = write_cfg(tmp_path, text=text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path)]) == 3
    summary = json.loads((out / "run.json").read_text())
    assert "error" in summary
    assert summary["partial_record"]["total_iterations"] >= 1


@pytest.mark.parametrize("form", ["strong", "weak"])
def test_flagship_beyond_the_geometry_edge_exits_3(tmp_path, capsys, form):
    """The n = 32 flagship's two-level geometry ends at lambda = 239.67
    (strong) and 242.13 (weak), so a solve at 250 is refused with the reason."""
    reason = "fitted minorant maximum is nonpositive; the two-level geometry is absent"
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_cfg(tmp_path)), "--lambda", "250",
                 "--form", form]) == 3
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err
    assert reason in json.loads((out / "run.json").read_text())["error"]


@pytest.mark.parametrize("name, datum", [("hess3d.cfg", "constant"), ("ma2d.cfg", "checker")])
def test_seed_does_not_change_a_solve(tmp_path, name, datum):
    """A solve reads no random number: its results are byte-identical at
    every seed."""
    text = (_CONFIGS / name).read_text()
    cfg_path = tmp_path / name
    cfg_path.write_text(text.replace("kind = constant", f"kind = {datum}"))
    results = []
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}"
        assert main(["solve", "--config", str(cfg_path), "--seed", seed, "--out", str(out)]) == 0
        results.append(json.dumps(json.loads((out / "run.json").read_text())["results"]))
    assert results[0] == results[1]


def _poison_after(monkeypatch, phase):
    """Make the solve go non-finite once it reaches ``phase``: residual
    fields turn NaN from the start of the mountain pass, or the Newton
    iterates' energy turns NaN (u_m's first)."""
    calls = {"mountain": False}
    residual, mountain_pass = solvers.residual, solvers.mountain_pass

    def poisoned_residual(u, s):
        r = residual(u, s)
        return r * math.nan if phase == "minimax" and calls["mountain"] else r

    def flagged_mountain_pass(*args, **kwargs):
        calls["mountain"] = True
        return mountain_pass(*args, **kwargs)

    monkeypatch.setattr(solvers, "residual", poisoned_residual)
    monkeypatch.setattr(solvers, "mountain_pass", flagged_mountain_pass)
    if phase == "newton":
        report = solvers.energy_report
        monkeypatch.setattr(solvers, "energy_report",
                            lambda u, s: replace(report(u, s), J=math.nan))


@pytest.mark.parametrize("phase", ["minimax", "newton"])
def test_non_finite_iterate_exits_3_naming_its_phase(tmp_path, capsys, monkeypatch, phase):
    _poison_after(monkeypatch, phase)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_cfg(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert f"{phase} iterate has a non-finite energy" in err
    assert "Traceback" not in err
    summary = json.loads((out / "run.json").read_text())
    assert summary["error"].startswith(f"{phase} iterate has a non-finite")


def test_cmd_solve_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text, error in (("[problem]\nn = 2\nk = 9\n", ""),
                        ("[problem\nn = 2\n", "invalid config"),
                        ('{"problem": {"n": 2,}}', "invalid JSON config"),
                        ('{"problem": [2]}', "section 'problem' must be an object")):
        bad.write_text(text)
        assert main(["solve", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and error in err
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("edit", [
    ("[problem]\n", "[problem]\nalpha = -1\n"),
    ("value = 0.05\n", "value = nan\n"),
    ("schedule = 0.0 0.05\n", "schedule = 0.0 inf\n"),
    ("kind = constant\n", "kind = file\npath = {out}/no_such_dump\n"),
    ("seed = 0\n", "seed = 0\nfit_samples = 5\n"),
    ("seed = 0\n", "seed = 0\nkrylov_restart = 0\n"),
    ("seed = 0\n", "seed = 0\nkrylov_outer = 0\n"),
    ("seed = 0\n", "seed = 0\nkrylov_rtol = -1\n"),
    ("seed = 0\n", "seed = 0\nnewton_max = -1\n"),
    ("nodes = 32\n", "nodes = 32\nextent = nan\n"),
    ("nodes = 32\n", "nodes = 32\nextent = inf\n"),
    ("nodes = 32\n", "nodes = 32\nextent = 1e300\n"),
    ("nodes = 32\n", "nodes = 32\nextent = 1e100\n"),
    ("value = 1.0\n", "value = nan\n"),
    ("kind = constant\n", "kind = gaussian\nwidth = 0.0\n"),
    ("kind = constant\n", "kind = gaussian\nwidth = 5e-324\n"),
    ("kind = constant\n", "kind = gaussian\nwidth = 1e-10\n"),
    ("kind = constant\n", "kind = checker\nblocks = 0\n"),
    ("kind = constant\n", "kind = checker\nblocks = -1\n"),
    ("schedule = 0.0 0.05\n", "schedule = 0.01 0.05\n"),
    ("schedule = 0.0 0.05\n", "schedule = 0.0 0.05 0.05\n"),
    ("nodes = 32\n", "nodes = 32 32 32\n"),
    ("kind = constant\n", "kind = file\n"),
], ids=["negative-alpha", "nan-lambda", "inf-schedule", "missing-datum-file",
        "few-fit-samples", "zero-krylov-restart", "zero-krylov-outer", "negative-krylov-rtol",
        "negative-newton-max", "nan-extent", "inf-extent", "huge-extent-h2-overflows",
        "huge-extent-symbol-underflows", "nan-datum-value",
        "zero-gaussian-width", "subnormal-gaussian-width", "narrow-gaussian-width",
        "zero-checker-blocks", "negative-checker-blocks",
        "schedule-not-from-zero", "schedule-not-increasing", "node-counts-not-N",
        "file-datum-without-path"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_config_values_exit_2(tmp_path, capsys, edit):
    cfg_path = write_cfg(tmp_path, text=SMALL_INI.replace(*edit))
    for command in ("solve", "continuation"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_bad_command_line_override_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    for command in ("solve", "continuation"):
        assert main([command, "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err


def test_coarse_grid_solves_and_continues(tmp_path, capsys):
    # at n = 8 the first witness bump's support margin is one node, short of alpha = 2
    cfg_path = write_cfg(tmp_path, text=SMALL_INI.replace("nodes = 32", "nodes = 8"))
    for form in ("strong", "weak"):
        assert main(["solve", "--config", str(cfg_path), "--form", form]) == 0
    assert main(["continuation", "--config", str(cfg_path)]) == 0
    assert "config error" not in capsys.readouterr().err


def test_command_line_overrides_reach_run_json(tmp_path):
    cfg_path = write_cfg(tmp_path, text=SMALL_INI.replace("nodes = 32", "nodes = 8"))
    runs = {
        "solve": (["--lambda", "0"], 0.0),
        "continuation": ([], 0.05),  # continuation has no --lambda; the config value stays
    }
    for command, (extra, lam) in runs.items():
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), *extra, "--form", "weak",
                     "--seed", "3", "--out", str(out)]) == 0
        summary = json.loads((out / "run.json").read_text())
        assert summary["seed"] == summary["config"]["solver"]["seed"] == 3
        assert summary["config"]["form"] == "weak"
        assert summary["config"]["lam"] == lam
        assert summary["config"]["out_dir"] == str(out)


@pytest.mark.parametrize("command", ["solve", "continuation"])
def test_uncreatable_output_directory_exits_2_before_solving(tmp_path, capsys, monkeypatch,
                                                            command):
    import polyhess.cli as cli_mod

    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran before the output directory was checked")

    monkeypatch.setattr(cli_mod, "solve_run", no_solver)
    monkeypatch.setattr(cli_mod, "continuation_in_lambda", no_solver)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg_path = write_cfg(tmp_path)
    assert main([command, "--config", str(cfg_path), "--out", str(blocker / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_failed_continuation_rows_are_null_in_strict_run_json(tmp_path):
    text = SMALL_INI.replace("grad_tol = 1e-06", "grad_tol = 1e-06\nmax_iters = 1")
    cfg_path = write_cfg(tmp_path, text=text)
    out = tmp_path / "out"
    assert main(["continuation", "--config", str(cfg_path)]) == 3
    summary = json.loads((out / "run.json").read_text(), parse_constant=_reject_constant)
    res = summary["results"]
    assert res["converged_rows"] == 0
    assert res["largest_converged_lambda"] is None
    for row in res["table"]:
        assert not row["converged"]
        assert row["J_m"] is None and row["J_star"] is None and row["sep"] is None
    assert "nan" in (out / "continuation.csv").read_text()


def test_continuation_rows_record_how_u_star_was_found(tmp_path):
    """The first row runs the minimax, a warm row is a Newton correction of
    its prediction, and a failed row has no method; the CSV keeps its header."""
    out = tmp_path / "out"
    assert main(["continuation", "--config", str(write_cfg(tmp_path))]) == 0
    table = json.loads((out / "run.json").read_text())["results"]["table"]
    assert [row["method"] for row in table] == ["minimax", "newton"]
    assert (out / "continuation.csv").read_text().splitlines()[0] == "lambda,J_m,J_star,sep,converged"
    text = SMALL_INI.replace("grad_tol = 1e-06", "grad_tol = 1e-06\nmax_iters = 1")
    assert main(["continuation", "--config", str(write_cfg(tmp_path, text=text))]) == 3
    table = json.loads((out / "run.json").read_text())["results"]["table"]
    assert [row["method"] for row in table] == [None, None]


def test_continuation_rows_record_why_they_failed(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, text=SMALL_INI.replace("nodes = 32", "nodes = 8"))
    out = tmp_path / "out"
    assert main(["continuation", "--config", str(cfg_path)]) == 0
    table = json.loads((out / "run.json").read_text())["results"]["table"]
    assert [row["reason"] for row in table] == [None, None]
    assert "failed" not in capsys.readouterr().err

    text = SMALL_INI.replace("grad_tol = 1e-06", "grad_tol = 1e-06\nmax_iters = 1")
    cfg_path = write_cfg(tmp_path, text=text)
    assert main(["continuation", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    table = json.loads((out / "run.json").read_text())["results"]["table"]
    for row in table:
        assert not row["converged"]
        assert "exhausted" in row["reason"]
        assert f"lambda={row['lambda']!r} failed: {row['reason']}" in err
    header = (out / "continuation.csv").read_text().splitlines()[0]
    assert header == "lambda,J_m,J_star,sep,converged"


def test_failed_calibration_fails_every_row_and_exits_3(tmp_path, capsys, monkeypatch):
    reason = "minorant fit degenerate: fewer than 10 nonzero samples"

    def degenerate(*args, **kwargs):
        raise GeometryError(reason)

    monkeypatch.setattr(energy, "fit_minorant", degenerate)
    out = tmp_path / "out"
    assert main(["continuation", "--config", str(write_cfg(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    table = json.loads((out / "run.json").read_text())["results"]["table"]
    assert [row["lambda"] for row in table] == [0.0, 0.05]
    for row in table:
        assert not row["converged"] and row["reason"] == reason
        assert f"lambda={row['lambda']!r} failed: {reason}" in err


@pytest.mark.parametrize("value", ["5e-324", "1e-300"])
def test_datum_too_small_to_pair_with_lambda_exits_2(tmp_path, capsys, value):
    cfg_path = write_cfg(tmp_path, text=SMALL_INI.replace("value = 1.0\n", f"value = {value}\n"))
    for command in ("solve", "continuation"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert "config error: lambda * int f^2 underflows" in capsys.readouterr().err


def test_every_lambda_of_a_sweep_must_pair_with_the_datum(tmp_path):
    # int f^2 is about 0.24: lambda = 0.05 pairs with the datum, 5e-324 underflows
    text = (SMALL_INI.replace("schedule = 0.0 0.05", "schedule = 0.0 5e-324 0.05")
            .replace("value = 1.0", "value = 0.5"))
    cfg = parse_config_text(text.format(out=tmp_path))
    assert build_setting(cfg).lam == 0.05
    with pytest.raises(ConfigError, match="underflows"):
        build_setting(cfg, sweep=True)
    zero_datum = replace(cfg, datum_value=0.0)
    assert build_setting(zero_datum, sweep=True).lam == 0.0


def test_line_search_that_never_shrinks_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, text=SMALL_INI.replace("seed = 0\n", "seed = 0\nls_rho = 1.0\n"))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def _truncate(raw, meta):
    raw.write_bytes(raw.read_bytes()[:-8])


def _write_nan(raw, meta):
    vals = np.fromfile(raw, dtype="<f8")
    vals[17] = np.nan
    vals.tofile(raw)


def _edit_sidecar(key, value):
    def edit(raw, meta):
        header = json.loads(meta.read_text())
        header[key] = value
        meta.write_text(json.dumps(header))
    return edit


def _dump_on_another_domain(raw, meta):
    dump_field(random_smooth_field(unit_box(2, 24), np.random.default_rng(5)),
               raw.with_suffix(""))


@pytest.mark.parametrize("damage, error", [
    (_truncate, "bytes, expected"),
    (_write_nan, "non-finite values"),
    (_edit_sidecar("dtype", ">f8"), "unsupported layout"),
    (_edit_sidecar("order", "F"), "unsupported layout"),
    (_dump_on_another_domain, "does not match the configured domain"),
], ids=["truncated", "nan-value", "big-endian-dtype", "fortran-order", "other-domain"])
def test_damaged_datum_dump_exits_2(tmp_path, capsys, damage, error):
    """A dump that ``load_field`` refuses, or one on another domain, is a
    config error that carries the refusing check's message."""
    u = random_smooth_field(unit_box(2, 32), np.random.default_rng(5))
    raw, meta = dump_field(u, tmp_path / "datum")
    damage(raw, meta)
    text = SMALL_INI.replace("kind = constant\n", f"kind = file\npath = {raw}\n")
    cfg_path = write_cfg(tmp_path, text=text)
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and error in err

def test_file_datum_solves_like_the_datum_it_holds(tmp_path):
    """A ``kind = file`` datum, dumped under a base that ends in .f64, gives
    the run.json results of the constant datum it holds."""
    const_out, file_out = tmp_path / "const", tmp_path / "file"
    const_cfg = write_cfg(tmp_path, out=str(const_out))
    cfg = load_config(const_cfg)
    base = tmp_path / "datum.f64"
    dump_field(build_datum(cfg, build_domain(cfg)), base)
    assert main(["solve", "--config", str(const_cfg)]) == 0
    text = SMALL_INI.replace("kind = constant\n", f"kind = file\npath = {base}\n")
    assert main(["solve", "--config", str(write_cfg(tmp_path, text=text, out=str(file_out)))]) == 0
    const, file = (json.loads((d / "run.json").read_text())["results"] for d in (const_out, file_out))
    assert file == const


def test_cmd_continuation(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["continuation", "--config", str(cfg_path)]) == 0
    csv1 = (out / "continuation.csv").read_bytes()
    lines = csv1.decode().strip().split("\n")
    assert lines[0] == "lambda,J_m,J_star,sep,converged"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")
    summary = json.loads((out / "run.json").read_text())
    assert summary["results"]["converged_rows"] == 2
    assert summary["results"]["largest_converged_lambda"] == 0.05
    # identical bytes on rerun with the same seed
    assert main(["continuation", "--config", str(cfg_path)]) == 0
    assert (out / "continuation.csv").read_bytes() == csv1


def test_cmd_continuation_requires_schedule(tmp_path):
    text = SMALL_INI.replace("schedule = 0.0 0.05\n", "")
    cfg_path = write_cfg(tmp_path, text=text)
    assert main(["continuation", "--config", str(cfg_path)]) == 2


def test_bundled_configs_parse():
    for name in ("configs/ma2d.cfg", "configs/hess3d.cfg", "perfbench/configs/strong128.cfg"):
        cfg = load_config(name)
        s = build_setting(cfg)
        assert s.alpha == 2
    s = build_setting(load_config("configs/hess3d_k3.cfg"))
    assert (s.params.N, s.params.k, s.alpha) == (3, 3, 3)


_SCHEMA_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
_INI_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "0.0", "-1.0", "nan", "inf", "-inf", "2 3", "0.0 0.05"]),
    st.text(alphabet="abcdefgnorstuw.-_ ", max_size=8),  # no digits: no large node counts
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_SCHEMA_KEYS), _INI_VALUES, max_size=8))
@example({("domain", "extent"): "nan"})
# width**2 underflows to 0, so the node at the center of an odd grid gets 0/0
@example({("domain", "nodes"): "31", ("datum", "kind"): "gaussian", ("datum", "width"): "1e-200"})
def test_config_boundary_rejects_or_builds_finite_setting(entries):
    # every integer drawn is at most 64, so no grid exceeds 64 nodes per axis
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
    try:
        s = build_setting(parse_config_text(text))
    except (ConfigError, CapabilityError):
        return
    assert np.all(np.isfinite(s.f.values))
    assert all(math.isfinite(h) for h in s.f.domain.spacing)


_RUN_INI = """\
[problem]
n = {dim}
k = {k}
form = {form}

[domain]
nodes = {nodes}

[datum]
kind = constant
value = 1.0

[lambda]
value = {lam!r}
schedule = {schedule}

[solver]
max_iters = {max_iters}
seed = {seed}

[output]
directory = {out}
dump_fields = false
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(command=st.sampled_from(["solve", "continuation"]),
       dim_k=st.sampled_from([(2, 2), (3, 2), (3, 3)]),
       nodes=st.integers(min_value=8, max_value=12),
       form=st.sampled_from(["strong", "weak"]),
       lam=st.one_of(st.sampled_from([0.0, 0.05]),
                     st.floats(min_value=-0.5, max_value=1.0, allow_subnormal=False)),
       max_iters=st.integers(min_value=1, max_value=400),
       seed=st.integers(min_value=0, max_value=2**16))
def test_whole_small_runs_keep_the_exit_code_contract(command, dim_k, nodes, form, lam,
                                                      max_iters, seed):
    # exit 0 converged, 2 config or capability error, 3 solve failed, 4 verify
    # failed; anything else, or a traceback, breaks the command-line contract
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(_RUN_INI.format(
            dim=dim_k[0], k=dim_k[1], form=form, nodes=nodes, lam=lam,
            schedule="0.0" if lam <= 0 else f"0.0 {lam!r}",
            max_iters=max_iters, seed=seed, out=Path(tmp) / "out"))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(cfg_path)])
    assert code in (0, 2, 3, 4)
