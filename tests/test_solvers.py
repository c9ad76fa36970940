"""Two-solution solvers: the minimizer's Newton, minimax, probe, continuation,
determinism.

Regression values are frozen from the first successful runs at seed 0 and
asserted with loose relative tolerances (1e-3) so legitimate BLAS spread
cannot trip them while genuine regressions do.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polyhess import (
    BoxDomain,
    CapabilityError,
    Form,
    NonconvergenceError,
    ProblemParams,
    PSRecord,
    SolverConfig,
    ball_uniqueness_probe,
    calibrate,
    continuation_in_lambda,
    make_setting,
    minimize_local,
    minorant_geometry,
    mountain_pass,
    polyharmonic,
    residual_strong,
    residual_weak_field,
    residual_weak_pairing,
    inner,
    invert_polyharmonic,
    l2_norm,
    load_field,
    random_smooth_field,
    ScalarField,
    seminorm,
    solve_run,
    unit_box,
    with_lambda,
    zeros,
)
import polyhess.energy as energy
import polyhess.grid as grid
import polyhess.solvers as solvers
from polyhess.errors import GeometryError, PolyhessError

from conftest import constant_datum, flagship_setting
from polyhess.cli import build_setting, load_config, main

_REPO = Path(__file__).resolve().parents[1]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(path_points=8)


# The last three cases keep the ids they had when the list was longer.
@pytest.mark.parametrize("bad", [
    {"max_iters": 0}, {"max_iters": -1}, {"path_points": 15}, {"grad_tol": -1.0},
    pytest.param({"seed": -1}, id="bad9"),
    pytest.param({"grad_tol": float("nan")}, id="bad10"),
    pytest.param({"deform_tol": float("inf")}, id="bad11"),
])
def test_solver_config_rejects_values_a_solve_cannot_use(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_psrecord_contract(run64):
    rec = PSRecord()
    rec.append(1.0, 0.5, 2.0, "minimax")
    with pytest.raises(ValueError):
        rec.append(1.0, -0.5, 2.0, "minimax")
    for gone in ("sweep", "descent"):
        with pytest.raises(ValueError, match="phase"):
            rec.append(1.0, 0.5, 2.0, gone)
    for j, rn in ((math.nan, 0.5), (1.0, math.nan), (-math.inf, 0.5), (1.0, math.inf)):
        with pytest.raises(NonconvergenceError, match="^newton iterate has a non-finite") as err:
            rec.append(j, rn, 2.0, "newton")
        assert err.value.record is rec and len(rec) == 1
    for i in range(2500):
        rec.append(float(i), 1.0, 1.0, "minimax" if i < 2000 else "newton")
    d = rec.to_json_dict(max_rows=1000)
    assert d["rows"] <= 1000
    assert d["total_iterations"] == 2501
    assert d["J"][-1] == 2499.0  # final iterate always kept
    assert len(d["phase"]) == d["rows"]
    assert (d["phase"][0], d["phase"][-1]) == ("minimax", "newton")
    assert {rec.phase[i] for i in range(2001)} == {"minimax"}
    # every phase record is tagged: u_m is Newton's alone, and the mountain
    # pass ends in Newton rows
    assert set(run64.record_minimize.phase) == {"newton"}
    phases = run64.record_mountain.phase
    assert phases[0] == "minimax" and phases[-1] == "newton"
    assert set(phases) == {"minimax", "newton"}


@pytest.mark.parametrize("n", [999, 1000, 1001, 1999, 2000, 2500, 3000])
def test_psrecord_downsampling_keeps_at_most_max_rows(n):
    """A record longer than ``max_rows`` comes back as ``max_rows`` distinct
    rows in order, its first and last among them; a shorter one whole."""
    rec = PSRecord()
    for i in range(n):
        rec.append(float(i), 1.0, 1.0, "minimax")
    d = rec.to_json_dict(max_rows=1000)
    assert d["rows"] == min(n, 1000) == len(d["J"]) == len(d["phase"])
    assert d["total_iterations"] == n
    assert (d["J"][0], d["J"][-1]) == (0.0, float(n - 1))
    assert all(a < b for a, b in zip(d["J"], d["J"][1:]))


def test_minimize_local_trivial_at_lambda_zero():
    s = flagship_setting(32, lam=0.0)
    cfg = SolverConfig(seed=0)
    u, rec = minimize_local(s, zeros(s.f.domain), cfg, 1e-6)
    assert np.all(u.values == 0.0)
    assert len(rec) == 1
    assert rec.residual_norm[0] == 0.0


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_small_lambda_minimizer_leaves_the_zero_field(form):
    # at lambda = 9e-7 the zero field's residual, -lambda f, is already below
    # grad_tol; u_m still leaves it, from lambda G f, to J_m near
    # -lambda^2 <f, G f> / 2
    lam = 9e-7
    s = flagship_setting(64, lam=lam, form=form)
    cfg = SolverConfig(seed=0)
    run = solve_run(s, cfg)
    assert l2_norm(energy.residual(zeros(s.f.domain), s)) <= cfg.grad_tol
    assert np.any(run.pair.u_m.values) and run.record_minimize.phase == ["newton"]
    g = invert_polyharmonic(s.f, s.alpha)
    assert run.pair.J_m == pytest.approx(-0.5 * lam ** 2 * inner(s.f, g), rel=1e-6)
    assert run.pair.J_m < 0.0 < run.pair.J_star
    tab = continuation_in_lambda(with_lambda(s, 0.0), [0.0, 5e-7, 9e-7, 2e-6], cfg)
    assert [r.converged for r in tab.rows] == [True] * 4


def test_minimize_local_start_validation(run32):
    """A start outside the R0 ball is replaced by the zero start's lambda G f:
    both give the same u_m, byte for byte."""
    s = flagship_setting(32)
    cfg = SolverConfig(seed=0)
    r0 = run32.geometry.R0
    far = 100.0 * run32.psi
    assert seminorm(far, s.alpha) > r0
    u_far, rec_far = minimize_local(s, far, cfg, r0)
    u_zero, rec_zero = minimize_local(s, zeros(s.f.domain), cfg, r0)
    assert u_far.values.tobytes() == u_zero.values.tobytes()
    assert rec_far.residual_norm == rec_zero.residual_norm


def test_minimize_local_newton_rows_decrease_from_lambda_g_f(monkeypatch):
    """u_m is Newton's from lambda G f, byte for byte the first Newton step
    from the zero field, in both forms, and its record descends in |R|:
    every row is ``newton``, and each residual norm is strictly below the
    one before it, the start's stencil residual first (the line search
    promises this)."""
    handed = []
    refine = solvers._newton_refine

    def recorded(u, s, cfg, rec):
        handed.append((u, l2_norm(energy.residual(u, s))))
        return refine(u, s, cfg, rec)

    monkeypatch.setattr(solvers, "_newton_refine", recorded)
    cfg = SolverConfig(seed=0)
    for form in (Form.STRONG, Form.WEAK):
        s = flagship_setting(32, lam=200.0, form=form)
        geom = calibrate(s).geometry(s.lam)
        _, rec = minimize_local(s, zeros(s.f.domain), cfg, geom.R0)
        (u0, rn0), = handed
        handed.clear()
        assert u0.values.tobytes() == invert_polyharmonic(s.f * s.lam, s.alpha).values.tobytes()
        assert len(rec) >= 2 and set(rec.phase) == {"newton"}
        norms = [rn0] + rec.residual_norm
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= cfg.grad_tol < norms[-2]


def test_flagship_pair_regression(run32, run64):
    p32, p64 = run32.pair, run64.pair
    for p in (p32, p64):
        assert p.residual_m <= 1e-6 and p.residual_star <= 1e-6
        assert p.J_m < 0.0 < p.J_star
        assert p.sep > 0.0
    # frozen regression values (seed 0, first successful run)
    assert p32.J_m == pytest.approx(-2.1249273e-06, rel=1e-3)
    assert p32.J_star == pytest.approx(723.20216, rel=1e-3)
    assert seminorm(p32.u_m, 2) == pytest.approx(2.0615537e-03, rel=1e-3)
    assert p64.J_star == pytest.approx(727.82753, rel=1e-3)
    # mountain-pass level stable under refinement
    assert abs(p64.J_star - p32.J_star) <= 0.1 * abs(p64.J_star)
    # separation threshold frozen from the first successful run
    for p in (p32, p64):
        assert p.sep > 0.1 * max(seminorm(p.u_m, 2), seminorm(p.u_star, 2))


def test_pair_validates_against_energy_module(run64):
    """Each solution G w is accepted on the residual in w,
    R(w) = w - N(G w) - lambda f, the last row of its record, and its
    stencil residual is kept beside it."""
    s = flagship_setting(64)
    p = run64.pair
    assert p.J_m == energy.action(p.u_m, s) and p.J_star == energy.action(p.u_star, s)
    assert abs(l2_norm(residual_strong(p.u_m, s)) - p.residual_m_stencil) <= 1e-12
    assert p.residual_m == run64.record_minimize.residual_norm[-1] <= 1e-6
    assert abs(l2_norm(residual_strong(p.u_star, s)) - p.residual_star_stencil) <= 1e-12
    assert p.residual_star == run64.record_mountain.residual_norm[-1] <= 1e-6
    w = polyharmonic(p.u_star, 2)
    gw = invert_polyharmonic(w, 2)
    assert np.max(np.abs(gw.values - p.u_star.values)) <= 1e-12 * np.max(np.abs(p.u_star.values))
    r_w = w - ScalarField(s.f.domain, energy.nonlinear(gw, s) + s.lam * s.f.values)
    assert l2_norm(r_w) <= 1e-6
    # Newton's R(w) is the one Euler-Lagrange assembly, fed the source w
    _, r_el = energy.euler_lagrange(gw, s, w.values)
    assert r_el.values.tobytes() == (
        w.values - energy.nonlinear(gw, s) - s.lam * s.f.values).tobytes()


def test_weak_pair_validates_against_pairing(run64_weak):
    s = flagship_setting(64, form=Form.WEAK)
    p = run64_weak.pair
    assert p.residual_m <= 1e-6 and p.residual_star <= 1e-6
    assert p.J_m == energy.action(p.u_m, s) and p.J_star == energy.action(p.u_star, s)
    g = residual_weak_field(p.u_star, s)
    assert abs(l2_norm(g) - p.residual_star_stencil) <= 1e-12
    rng = np.random.default_rng(50)
    for _ in range(20):
        w = random_smooth_field(s.f.domain, rng)
        lhs = residual_weak_pairing(p.u_star, w, s)
        assert abs(lhs - inner(g, w)) <= 1e-12 * max(abs(lhs), 1.0)


def test_mountain_pass_ps_signature(run64):
    # Palais-Smale signature: the record's trailing stretch has J pinned
    # within 1e-3*|J_star| while the residual falls through the tolerance.
    # The spec's nominal window is 10 iterates, sized for a first-order
    # endgame; the quadratic Newton endgame stabilizes in ~5, so the window
    # is the maximal trailing stretch inside the band (>= 3 rows required).
    rec = run64.record_mountain
    j_star = run64.pair.J_star
    assert rec.residual_norm[-1] <= 1e-6
    band = 1e-3 * abs(j_star)
    stretch = 0
    for j in reversed(rec.J):
        if abs(j - rec.J[-1]) <= band:
            stretch += 1
        else:
            break
    assert stretch >= 3
    tail_rn = rec.residual_norm[-stretch:]
    assert min(tail_rn) == tail_rn[-1]
    assert max(rec.J[-stretch:]) - min(rec.J[-stretch:]) < band


def test_lambda_zero_pair(run64_lam0):
    p = run64_lam0.pair
    assert np.all(p.u_m.values == 0.0)
    assert p.J_m == 0.0
    assert p.J_star > 0.0
    assert p.residual_star <= 1e-6
    assert p.sep > 0.0


def test_sign_symmetry_of_energy_levels():
    # k even, f and the box symmetric: paired runs at +/- lambda reach the
    # same minimizer energy level (not the same field)
    cfg = SolverConfig(seed=0)
    jp = solve_run(flagship_setting(32, lam=0.05), cfg).pair.J_m
    jm = solve_run(flagship_setting(32, lam=-0.05), cfg).pair.J_m
    assert jm == pytest.approx(jp, rel=1e-2)


def test_energy_ordering_names_an_underflowing_minimizer_level():
    """J_m ~ -lambda^2 <f, G f> / 2: at lambda = 1e-150 it is still a
    negative float, at 1e-200 it underflows to 0 although u_star is found,
    and the ordering check says so."""
    cfg = SolverConfig(seed=0)
    assert solve_run(flagship_setting(32, lam=1e-150), cfg).pair.J_m < 0.0
    with pytest.raises(GeometryError, match="underflows to 0 at lambda = 1e-200"):
        solve_run(flagship_setting(32, lam=1e-200), cfg)


def test_mountain_pass_returns_at_a_minimax_row(run32):
    """On the ray from u_m through u_star, at a loose tolerance, the first
    peak's residual already passes, so the minimax hands that peak to
    Newton, which returns it at its start: one ``minimax`` row, then one
    ``newton`` row with the same residual, and the peak itself."""
    s = flagship_setting(32)
    u_m, u_star = run32.pair.u_m, run32.pair.u_star
    v = u_star - u_m
    w, rec = mountain_pass(s, u_m, v, SolverConfig(grad_tol=1e-4))
    assert rec.phase == ["minimax", "newton"]
    assert rec.residual_norm == [l2_norm(residual_strong(w, s))] * 2
    assert rec.residual_norm[0] <= 1e-4
    t_top, _ = solvers._ray_peak(energy.ray_polynomial(u_m, s)(v))
    assert w.values.tobytes() == (u_m + t_top * v).values.tobytes()


def test_newton_refine_records_each_accepted_iterate_once(run32):
    """The caller records the start point; the refinement appends one row
    per accepted iterate, never the start point again, with its residual in
    w = (-Delta_h)^alpha u, strictly decreasing."""
    s = flagship_setting(32)
    cfg = SolverConfig(seed=0)
    rng = np.random.default_rng(51)
    u = run32.pair.u_star + 1e-3 * random_smooth_field(s.f.domain, rng)
    rn = l2_norm(residual_strong(u, s))
    rec = PSRecord()
    u_ref, stop = solvers._newton_refine(u, s, cfg, rec)
    assert stop is None and rec.residual_norm[-1] <= cfg.grad_tol
    assert len(rec) >= 1 and set(rec.phase) == {"newton"}
    assert all(b < a for a, b in zip([rn] + rec.residual_norm, rec.residual_norm))
    assert rec.J[-1] == energy.action(u_ref, s)


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_newton_refine_accepts_a_source_residual_already_at_tolerance(run32, run32_weak, form):
    """A peak whose residual in w already meets grad_tol is accepted without
    a step on that residual: G w gets one row, and no GMRES solve runs.  The
    start row's |R| is the stencil residual's norm, bit for bit."""
    s = flagship_setting(32, form=form)
    u = (run32 if form is Form.STRONG else run32_weak).pair.u_star
    cfg = SolverConfig(seed=0)
    rec = PSRecord()
    u_ref, stop = solvers._newton_refine(u, s, cfg, rec)
    assert stop is None and rec.phase == ["newton"] and rec.residual_norm[0] <= cfg.grad_tol
    assert rec.residual_norm[0] == l2_norm(energy.residual(u, s))
    assert np.max(np.abs(u_ref.values - u.values)) <= 1e-9


def test_strong128_newton_iteration_is_one_gmres_solve(tmp_path, monkeypatch):
    """On the n = 128 flagship every Newton iteration (one Jacobian of the
    nonlinear term built at its iterate) runs exactly one GMRES solve."""
    cfg_path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "strong128.cfg"
    calls = {"jacobian": 0, "gmres": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(solvers, "nonlinear_jacobian",
                        counting("jacobian", solvers.nonlinear_jacobian))
    monkeypatch.setattr(solvers, "gmres", counting("gmres", solvers.gmres))
    assert main(["solve", "--config", str(cfg_path), "--seed", "0", "--out", str(tmp_path)]) == 0
    phases = json.loads((tmp_path / "run.json").read_text())["results"]["record_mountain"]["phase"]
    assert calls["gmres"] == calls["jacobian"] >= phases.count("newton") > 0


def test_gmres_applies_the_operator_once_per_arnoldi_step():
    # the Krylov space of I + a c^T from the right-hand side has dimension 2,
    # so the one cycle ends after 2 steps: 2 products, none of them of x
    a, c, b = np.random.default_rng(3).standard_normal((3, 30))
    applied = []

    def matvec(v):
        applied.append(v.copy())
        return v + a * (c @ v)

    x = solvers.gmres(matvec, b, 1e-7, solvers._KRYLOV_RESTART)
    assert len(applied) == 2
    assert not any(np.array_equal(v, x) for v in applied)
    assert np.allclose(x + a * (c @ x), b)


def test_strong_flagship_solve_needs_no_einsum(monkeypatch, cfg0):
    """The strong Jacobian reads Hessian entries, so the n = 32 flagship
    solve, Newton polish included, converges with ``np.einsum`` unavailable."""
    built = {"jacobian": 0}
    jacobian = solvers.nonlinear_jacobian

    def counted(*args):
        built["jacobian"] += 1
        return jacobian(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("np.einsum is not part of the solver")

    monkeypatch.setattr(solvers, "nonlinear_jacobian", counted)
    monkeypatch.setattr(np, "einsum", refuse)
    pair = solvers.solve_run(flagship_setting(32), cfg0).pair
    assert built["jacobian"] > 0
    assert pair.residual_m <= 1e-6 and pair.residual_star <= 1e-6


def test_mountain_record_has_no_repeated_rows(run32, run64, run32_weak):
    for run in (run32, run64, run32_weak):
        rn = run.record_mountain.residual_norm
        assert all(a != b for a, b in zip(rn, rn[1:]))


def test_three_dimensional_pair():
    dom = unit_box(3, 24)
    s = make_setting(ProblemParams(3, 2), 0.05, constant_datum(dom))
    p = solve_run(s, SolverConfig(seed=0)).pair
    assert p.residual_m <= 1e-6 and p.residual_star <= 1e-6
    assert p.J_m < 0.0 < p.J_star
    assert p.sep > 0.0


def test_three_dimensional_weak_pair():
    dom = unit_box(3, 16)
    s = make_setting(ProblemParams(3, 2), 0.05, constant_datum(dom), form=Form.WEAK)
    assert s.alpha == 2  # ceil(11/6)
    p = solve_run(s, SolverConfig(seed=0)).pair
    assert p.residual_m <= 1e-6 and p.residual_star <= 1e-6
    assert p.J_m < 0.0 < p.J_star


def test_odd_alpha_pair():
    # N = k = 3 selects alpha = 3
    dom = unit_box(3, 16)
    s = make_setting(ProblemParams(3, 3), 0.02, constant_datum(dom))
    assert s.alpha == 3
    p = solve_run(s, SolverConfig(seed=0)).pair
    assert p.residual_m <= 1e-6 and p.residual_star <= 1e-6
    assert p.J_m < 0.0 < p.J_star
    assert p.sep > 0.0


def _k3_setting(form, n=16):
    cfg = replace(load_config(_REPO / "configs" / "hess3d_k3.cfg"), form=form, nodes=(n,))
    return build_setting(cfg), cfg.solver


@pytest.mark.parametrize("case", ["hess3d_k3 strong", "hess3d_k3 weak", "flagship alpha = 3"])
def test_odd_alpha_minimizer_energy_is_the_quadratic_form(case):
    """For odd alpha J_m = -lambda^2 <f, G f> / 2 up to the nonlinear term:
    the action's quadratic part is the form of the operator G inverts."""
    if case == "flagship alpha = 3":
        base = flagship_setting(64)
        s, cfg = make_setting(base.params, base.lam, base.f, alpha=3), SolverConfig(seed=0)
    else:
        s, cfg = _k3_setting(case.split()[1])
    assert s.alpha == 3
    want = -s.lam ** 2 * inner(s.f, invert_polyharmonic(s.f, s.alpha)) / 2
    assert solve_run(s, cfg).pair.J_m == pytest.approx(want, rel=1e-6, abs=0.0)


def _three_point_order(values, hs):
    """p with (v0 - v1) / (v1 - v2) = (h0^p - h1^p) / (h1^p - h2^p), by bisection."""
    ratio = (values[0] - values[1]) / (values[1] - values[2])
    lo, hi = 0.5, 4.0
    for _ in range(60):
        p = 0.5 * (lo + hi)
        if (hs[0] ** p - hs[1] ** p) / (hs[1] ** p - hs[2] ** p) < ratio:
            lo = p
        else:
            hi = p
    return 0.5 * (lo + hi)


def test_odd_alpha_saddle_converges_at_second_order():
    """(N, k) = (3, 3), alpha = 3: J_star at n = 16, 24 and 32 converges at
    order 2 in both forms, and their Richardson limits (p = 2, the two
    finer grids) agree."""
    ns = (16, 24, 32)
    hs = [1.0 / (n + 1) for n in ns]
    limits = []
    for form in ("strong", "weak"):
        js = [solve_run(*_k3_setting(form, n)).pair.J_star for n in ns]
        assert 1.8 <= _three_point_order(js, hs) <= 2.2
        limits.append((hs[1] ** 2 * js[2] - hs[2] ** 2 * js[1]) / (hs[1] ** 2 - hs[2] ** 2))
    assert limits[0] == pytest.approx(limits[1], rel=1e-3)


def _newton_rows(tmp_path, config, *args):
    """Newton rows of a CLI solve of ``config`` (the text of a config file)
    with the command-line ``args``; the solve must exit 0 with its u_star
    accepted at the default grad_tol."""
    cfg = tmp_path / f"run{len(list(tmp_path.glob('*.cfg')))}.cfg"
    cfg.write_text(config)
    out = cfg.with_suffix("")
    assert main(["solve", "--config", str(cfg), "--out", str(out)] + list(args)) == 0
    results = json.loads((out / "run.json").read_text())["results"]
    assert results["residual_star"] <= 1e-6
    return results["record_mountain"]["phase"].count("newton")


@pytest.mark.parametrize("name, coarse, fine, form", [
    ("ma2d.cfg", "nodes = 64", "nodes = 191", "strong"),
    ("ma2d.cfg", "nodes = 64", "nodes = 128", "weak"),
    ("hess3d_k3.cfg", "nodes = 16", "nodes = 20", "strong"),
    ("hess3d_k3.cfg", "nodes = 16", "nodes = 20", "weak"),
    ("hess3d.cfg", "nodes = 24", "nodes = 47", "strong"),
    ("hess3d.cfg", "nodes = 24", "nodes = 32", "weak"),
], ids=["strong-191", "weak-128", "k3-strong-20", "k3-weak-20", "3d-strong-47", "3d-weak-32"])
def test_fine_grids_converge_in_at_most_twice_the_coarse_newton_steps(tmp_path, name, coarse,
                                                                      fine, form):
    """Newton in w = (-Delta_h)^alpha u has no stencil roundoff floor, so the
    bundled configs refined (the (3, 3) box at lambda = 0.05) converge at
    grad_tol = 1e-6 in at most twice the Newton steps of the bundled grid."""
    text = (_REPO / "configs" / name).read_text()
    assert coarse in text
    assert "grad_tol = 1e-06" in text or "grad_tol" not in text
    args = ["--form", form, "--lambda", "0.05"]
    steps = _newton_rows(tmp_path, text, *args)
    assert 0 < _newton_rows(tmp_path, text.replace(coarse, fine), *args) <= 2 * steps


_COUNTED_SOLVE = """
import json, sys
from polyhess import cli, solvers
iterations = []
gmres = solvers.gmres
def counted(matvec, b, *args):
    iterations.append(0)
    def applied(v):
        iterations[-1] += 1
        return matvec(v)
    return gmres(applied, b, *args)
solvers.gmres = counted
code = cli.main(["solve", "--config", sys.argv[1], "--out", sys.argv[2]])
phase = json.load(open(sys.argv[2] + "/run.json"))["results"]["record_mountain"]["phase"]
print(json.dumps({"code": code, "rows": len(phase), "newton": phase.count("newton"),
                  "gmres_iterations": iterations}))
"""


def test_strong128_counts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """strong128 solved at one and at two BLAS threads takes the same mountain
    rows, Newton steps and GMRES iterations (its bits may differ)."""
    counts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(Path(solvers.__file__).resolve().parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTED_SOLVE,
             str(_REPO / "perfbench" / "configs" / "strong128.cfg"), str(tmp_path / threads)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert counts[0]["code"] == 0 and counts[0]["newton"] > 0
    assert counts[0] == counts[1]


def test_ball_uniqueness_probe(run64):
    s = flagship_setting(64)
    rep = ball_uniqueness_probe(s, SolverConfig(seed=0), 8)
    assert rep.converged == 8
    assert not rep.failures
    assert rep.max_pairwise <= 10 * 1e-6
    assert rep.success
    with pytest.raises(ValueError):
        ball_uniqueness_probe(s, SolverConfig(seed=0), 3)


def test_probe_lambda_zero_converges_to_origin():
    s = flagship_setting(32, lam=0.0)
    rep = ball_uniqueness_probe(s, SolverConfig(seed=0), 5)
    assert rep.converged == 5
    assert rep.max_pairwise <= 1e-10
    assert all(abs(e) <= 1e-20 for e in rep.energies)


@pytest.mark.parametrize("lam", [50.0, 200.0])
def test_probe_converges_at_large_lambda(lam):
    """At lambda = 50 and 200 every random start in the R0 ball reaches one
    minimizer by the Newton solve in w."""
    rep = ball_uniqueness_probe(flagship_setting(32, lam=lam), SolverConfig(seed=0), 5)
    assert rep.converged == 5 and not rep.failures
    assert rep.max_pairwise <= 10 * 1e-6
    assert rep.success


@pytest.mark.parametrize("lam, reason", [(250.0, "nonpositive"), (350.0, "no positive hump")],
                         ids=["lambda250", "lambda350"])
def test_probe_refuses_a_lambda_without_the_two_level_geometry(lam, reason):
    """The minorant ends the n = 32 flagship's geometry at lambda = 239.67
    (strong): at 250 its maximum is nonpositive, and at 350 it has no hump
    at all."""
    with pytest.raises(GeometryError, match=reason):
        ball_uniqueness_probe(flagship_setting(32, lam=lam), SolverConfig(seed=0), 5)


def test_continuation_table():
    s = flagship_setting(32, lam=0.0)
    cfg = SolverConfig(seed=0)
    tab = continuation_in_lambda(s, [0.0, 0.0125, 0.025, 0.05], cfg)
    assert [r.converged for r in tab.rows] == [True] * 4
    assert tab.rows[0].J_m == 0.0
    # J_m nonincreasing in lambda along converged rows (regression vs stored table)
    jms = [r.J_m for r in tab.rows]
    assert all(b <= a for a, b in zip(jms, jms[1:]))
    assert jms == pytest.approx([0.0, -1.3280621e-07, -5.3122718e-07, -2.1249273e-06],
                                rel=1e-3, abs=1e-12)
    assert tab.largest_converged_lambda() == 0.05
    csv = tab.to_csv_text()
    assert csv.splitlines()[0] == "lambda,J_m,J_star,sep,converged"
    # bit-for-bit reproducibility under the same seed
    tab2 = continuation_in_lambda(s, [0.0, 0.0125, 0.025, 0.05], SolverConfig(seed=0))
    assert tab2.to_csv_text() == csv


@pytest.mark.parametrize("nodes, lam", [(32, 10.0), (32, 50.0), (32, 200.0),
                                         (64, 10.0), (64, 50.0), (64, 200.0)])
def test_weak_flagship_converges_at_moderate_lambda(tmp_path, nodes, lam):
    """The weak residual is not the exact gradient of the weak action; u_m
    is found by Newton in w all the same: every row of its record is
    ``newton`` and ``residual_m`` is the last one's residual in w."""
    text = (_REPO / "configs" / "ma2d.cfg").read_text()
    assert "nodes = 64" in text
    cfg = tmp_path / "ma2d.cfg"
    cfg.write_text(text.replace("nodes = 64", f"nodes = {nodes}"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--form", "weak", "--lambda", repr(lam),
                 "--out", str(out)]) == 0
    results = json.loads((out / "run.json").read_text())["results"]
    assert results["residual_m"] <= 1e-6 and results["residual_star"] <= 1e-6
    assert set(results["record_minimize"]["phase"]) == {"newton"}
    assert results["residual_m"] == results["record_minimize"]["residual_norm"][-1]


def test_weak_continuation_converges_on_every_row_to_lambda_50():
    s = flagship_setting(32, lam=0.0, form=Form.WEAK)
    tab = continuation_in_lambda(s, [0.0, 5.0, 10.0, 25.0, 50.0], SolverConfig(seed=0))
    assert [r.converged for r in tab.rows] == [True] * 5, [r.reason for r in tab.rows]


def _force_minimax(monkeypatch):
    """Fail every Newton correction of a predicted u_star: the corrector is
    the one call of ``_newton_refine`` that starts at the predicted u_star."""
    refine, predict = solvers._newton_refine, solvers._predict
    predicted = []

    def recorded(done, lam):
        warm = predict(done, lam)
        if warm is not None:
            predicted.append(warm.u_star)
        return warm

    def failing(u, s, cfg, rec):
        if any(u is p for p in predicted):
            return u, "stalled above grad_tol"
        return refine(u, s, cfg, rec)

    monkeypatch.setattr(solvers, "_predict", recorded)
    monkeypatch.setattr(solvers, "_newton_refine", failing)


def _assert_same_table(tab, ref, rel):
    assert [r.converged for r in tab.rows] == [True] * len(ref.rows), [r.reason for r in tab.rows]
    for row, ref_row in zip(tab.rows, ref.rows):
        assert row.lam == ref_row.lam
        for key in ("J_m", "J_star", "sep"):
            assert getattr(row, key) == pytest.approx(getattr(ref_row, key), rel=rel)


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_failed_correction_falls_back_to_the_cold_minimax(monkeypatch, form):
    """A row whose Newton correction fails runs what a cold solve at its
    lambda runs: the minimax in the same first direction, to the same pair."""
    s = flagship_setting(32, lam=0.0, form=form)
    lams = [0.0, 0.0125, 0.025, 0.05]
    cfg = SolverConfig(seed=0)
    directions = {}
    minimax = solvers.mountain_pass

    def recorded(s, u_m, direction, cfg):
        directions.setdefault(s.lam, []).append(direction)
        return minimax(s, u_m, direction, cfg)

    monkeypatch.setattr(solvers, "mountain_pass", recorded)
    cold = [solve_run(with_lambda(s, lam), cfg).pair for lam in lams]
    _force_minimax(monkeypatch)
    tab = continuation_in_lambda(s, lams, cfg)
    assert [r.method for r in tab.rows] == ["minimax"] * len(lams), [r.reason for r in tab.rows]
    for row, pair in zip(tab.rows, cold):
        for key in ("J_m", "J_star", "sep"):
            assert getattr(row, key) == pytest.approx(getattr(pair, key), rel=1e-10, abs=0.0)
    for lam in lams:
        cold, warm = directions[lam]
        assert warm.values.tobytes() == cold.values.tobytes()


def test_prediction_is_the_secant_through_the_last_two_converged_rows():
    dom = unit_box(2, 8)
    rng = np.random.default_rng(3)
    rows = [(lam, SimpleNamespace(u_m=random_smooth_field(dom, rng),
                                  u_star=random_smooth_field(dom, rng)))
            for lam in (0.5, 1.0)]
    assert solvers._predict([], 0.0) is None
    one = solvers._predict(rows[:1], 1.0)
    assert one.u_m is rows[0][1].u_m and one.u_star is rows[0][1].u_star
    two = solvers._predict(rows, 2.0)  # c = (2 - 1) / (1 - 0.5) = 2
    (_, p0), (_, p1) = rows
    assert np.allclose(two.u_m.values, 3.0 * p1.u_m.values - 2.0 * p0.u_m.values, rtol=0, atol=1e-14)
    assert np.allclose(two.u_star.values, 3.0 * p1.u_star.values - 2.0 * p0.u_star.values,
                       rtol=0, atol=1e-14)


def test_prediction_outside_the_r0_ball_starts_newton_at_lambda_g_f(run32, monkeypatch):
    s = flagship_setting(32)
    cfg = SolverConfig(seed=0)
    starts = []
    refine = solvers._newton_refine

    def recorded(u, s, cfg, rec):
        starts.append(u)
        return refine(u, s, cfg, rec)

    monkeypatch.setattr(solvers, "_newton_refine", recorded)
    pair = run32.pair
    far_u_m = pair.u_m + run32.psi
    run = solve_run(s, cfg, warm=solvers.WarmStart(far_u_m, pair.u_star))
    assert seminorm(far_u_m, s.alpha) > run.geometry.R0
    # u_m's Newton comes first and is handed lambda G f, byte for byte
    lam_gf = invert_polyharmonic(s.f * s.lam, s.alpha)
    assert starts[0].values.tobytes() == lam_gf.values.tobytes()
    assert run.pair.J_m == pytest.approx(pair.J_m, rel=1e-8)
    assert run.pair.J_star == pytest.approx(pair.J_star, rel=1e-8)


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
@pytest.mark.parametrize("lams", [[0.0, 5.0, 10.0, 25.0, 50.0],
                                  [0.0, 50.0, 100.0, 150.0, 200.0, 210.0]],
                         ids=["to50", "to210"])
def test_predictor_corrector_rows_equal_the_minimax_rows(monkeypatch, form, lams):
    s = flagship_setting(32, lam=0.0, form=form)
    cfg = SolverConfig(seed=0)
    tab = continuation_in_lambda(s, lams, cfg)
    assert [r.method for r in tab.rows] == ["minimax"] + ["newton"] * (len(lams) - 1)
    _force_minimax(monkeypatch)
    _assert_same_table(tab, continuation_in_lambda(s, lams, cfg), 1e-8)


@pytest.mark.parametrize("name, form", [("hess3d.cfg", "strong"), ("ma2d.cfg", "strong"),
                                        ("ma2d.cfg", "weak"), ("hess3d_k3.cfg", "strong"),
                                        ("hess3d_k3.cfg", "weak")])
def test_minimax_starts_on_the_ray_through_psi(monkeypatch, name, form):
    """The minimax is handed the calibration's psi, byte for byte, and the
    action along u_m + t psi has the top coefficient -N(psi) < 0, so it
    falls without bound on the first ray, for even k (hess3d, ma2d) and odd
    k (hess3d_k3) alike."""
    cfg = replace(load_config(_REPO / "configs" / name), form=form)
    s = build_setting(cfg)
    handed = []
    minimax = solvers.mountain_pass

    def recorded(s, u_m, direction, *args, **kwargs):
        handed.append(direction)
        return minimax(s, u_m, direction, *args, **kwargs)

    monkeypatch.setattr(solvers, "mountain_pass", recorded)
    run = solve_run(s, cfg.solver)
    psi = calibrate(s).psi
    assert len(handed) == 1 and handed[0].values.tobytes() == psi.values.tobytes()
    k = s.params.k
    top = energy.ray_polynomial(run.pair.u_m, s)(psi)[k + 1]
    assert top < 0.0
    assert top == pytest.approx(-energy.energy_report(psi, s).nonlinear_term, rel=1e-9)


@pytest.mark.parametrize("name, extent, form", [
    ("ma2d.cfg", (1.0, 1.0), "strong"), ("ma2d.cfg", (1.0, 2.0), "strong"),
    ("ma2d.cfg", (1.0, 4.0), "strong"), ("ma2d.cfg", (1.0, 4.0), "weak"),
    ("hess3d.cfg", (1.0, 1.0, 1.0), "strong"), ("hess3d.cfg", (1.0, 2.0, 3.0), "strong")],
    ids=["64x64-1x1", "64x64-1x2", "64x64-1x4", "64x64-1x4-weak", "24^3-1x1x1", "24^3-1x2x3"])
def test_minorant_holds_along_the_saddles_own_ray(name, extent, form):
    """J(R u) >= h(R) = R^2/2 - C1 R - C2 R^(k+1) for every R > 0 along
    u = +-u_star / |u_star|_alpha, the computed saddle's own ray, checked
    coefficient by coefficient on J's polynomial along it: the R term is
    -lambda int f u >= -C1, the R^2 term is 1/2, and the R^(k+1) term is
    -N(u) >= -C2.  A C2 fitted on fixed fields fell below N(u) on the
    elongated boxes."""
    cfg = replace(load_config(_REPO / "configs" / name), form=form, extent=extent)
    s = build_setting(cfg)
    run = solve_run(s, cfg.solver)
    geom, u_star = run.geometry, run.pair.u_star
    k = s.params.k
    coefs = energy.ray_polynomial(zeros(s.f.domain), s)
    for sign in (1.0, -1.0):
        c = coefs(u_star * (sign / seminorm(u_star, s.alpha)))
        assert c[1] >= -geom.C1
        assert c[2] == pytest.approx(0.5, rel=0.0, abs=1e-12)
        assert c[k + 1] >= -geom.C2


@pytest.mark.parametrize("n", [10, 12, 16])
def test_coarse_3d_strong_minimax_takes_few_rows(n):
    """The power iteration's psi starts the minimax near the saddle: hess3d
    strong at n = 10, 12 and 16 takes at most 5 minimax rows (13, 12 and 13
    from the center bump)."""
    cfg = replace(load_config(_REPO / "configs" / "hess3d.cfg"), form="strong", nodes=(n,))
    run = solve_run(build_setting(cfg), cfg.solver)
    assert run.record_mountain.phase.count("minimax") <= 5


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_psi_is_checked_without_the_pointwise_sigma_k_field(monkeypatch, form):
    """psi is verified by its nonlinear term in the setting's own form, read
    from the action's stencil images: the calibration needs no sigma_k
    field from ``grid``."""

    def refused(*args, **kwargs):
        raise AssertionError("grid.sk_fields called")

    monkeypatch.setattr(grid, "sk_fields", refused)
    s = flagship_setting(64, form=form)
    cal = calibrate(s)
    assert cal.psi is not None
    assert energy.energy_report(cal.psi, s).nonlinear_term > 0.0
    cal.geometry(s.lam)


def test_stencil_residual_of_a_polished_minimizer(tmp_path, run32):
    """Newton finishes u_m: ``residual_m`` is its residual in w and
    ``residual_m_stencil`` the stencil residual of u_m, both in run.json."""
    s32 = flagship_setting(32)
    assert run32.pair.residual_m == run32.record_minimize.residual_norm[-1]
    assert run32.pair.residual_m_stencil == l2_norm(energy.residual(run32.pair.u_m, s32))
    cfg = replace(load_config(_REPO / "configs" / "ma2d.cfg"), form="weak")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(_REPO / "configs" / "ma2d.cfg"), "--form", "weak",
                 "--lambda", "50", "--out", str(out)]) == 0
    results = json.loads((out / "run.json").read_text())["results"]
    assert results["record_minimize"]["phase"][-1] == "newton"
    u_m = load_field(out / "u_m")
    stencil = l2_norm(energy.residual(u_m, build_setting(cfg, lam=50.0)))
    assert results["residual_m_stencil"] == stencil != results["residual_m"]


# The calibration as each setting would compute it on its own, from the
# public functions: the nonlinear power iteration v <- G N(v) / max|G N(v)|
# from the center bump, psi the iterate of largest q = N(v) / |v|^(k+1)
# over the iterates and, for even k, their negatives, C2 = 1.25 q(psi), and
# C1 = |lambda| |G f|_alpha, the Cauchy-Schwarz bound: the oracles of the
# bit-identity tests below.
_NO_PSI = ("no iterate of the nonlinear power iteration from the center bump has a "
           "positive nonlinear term")


def _fit_as_first_written(s):
    k = s.params.k
    dom = s.f.domain
    v = energy.bump_field(dom, tuple(0.5 * e for e in dom.extent), 0.3 * min(dom.extent), 1.0, k)
    best, psi = 0.0, None
    for _ in range(energy._POWER_STEPS + 1):
        r = seminorm(v, s.alpha)
        if r == 0.0:
            break
        q = energy.energy_report(v, s).nonlinear_term / r ** (k + 1)
        for cand, q_cand in [(v, q), (-v, -q)][:2 if k % 2 == 0 else 1]:
            if q_cand > best:
                best, psi = q_cand, cand
        gn = invert_polyharmonic(ScalarField(dom, energy.nonlinear(v, s)), s.alpha)
        v = gn * (1.0 / float(np.max(np.abs(gn.values))))
    root = math.sqrt(inner(s.f, invert_polyharmonic(s.f, s.alpha)))
    c1 = max(abs(s.lam) * root, energy._C_FLOOR * (1.0 + abs(s.lam)))
    return (c1, max(energy._FIT_MARGIN * best, energy._C_FLOOR), k), psi


def _first_failure_as_first_written(s):
    """The reason a solve of ``s`` fails in its calibration, or None."""
    want, psi = _fit_as_first_written(s)
    try:
        minorant_geometry(*want)
    except PolyhessError as exc:
        return str(exc)
    return None if psi is not None else _NO_PSI


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK])
def test_calibration_equals_per_lambda_fit_bitwise(form):
    base = flagship_setting(32, lam=0.05, form=form)
    cal = solvers.calibrate(base)
    for lam in (0.0, 0.0125, 0.05, -0.05):
        s = with_lambda(base, lam)
        want, psi = _fit_as_first_written(s)
        got = cal.geometry(lam)
        assert (got.C1, got.C2, got.k) == want
        assert got == minorant_geometry(*want)
        assert np.array_equal(cal.psi.values, psi.values)


def test_calibration_without_a_center_bump_fails_on_psi():
    """On nodes (8, 8) with extent (1, 100) no node lies within 0.3 of the
    center (the y spacing is 100/9), so the center bump, the power
    iteration's start, is zero at every node: there is no iterate, C2 is
    the floor, psi is None, and a solve fails on psi."""
    dom = BoxDomain((8, 8), (1.0, 100.0))
    s = make_setting(ProblemParams(2, 2), 0.05, constant_datum(dom))
    assert energy.geometry_witnesses(s) == (0.0, None)
    cal = calibrate(s)
    assert cal.C2 == energy._C_FLOOR and cal.psi is None
    with pytest.raises(GeometryError, match=_NO_PSI):
        solve_run(s, SolverConfig())


def test_continuation_calibrates_once(monkeypatch):
    calls = {"iteration": 0, "G": 0}
    iteration = energy.geometry_witnesses
    invert = energy.invert_polyharmonic

    def counted_iteration(*args, **kwargs):
        calls["iteration"] += 1
        return iteration(*args, **kwargs)

    def counted_invert(*args, **kwargs):
        calls["G"] += 1
        return invert(*args, **kwargs)

    monkeypatch.setattr(energy, "geometry_witnesses", counted_iteration)
    s = flagship_setting(32, lam=0.0)
    cfg = SolverConfig(seed=0)
    monkeypatch.setattr(energy, "invert_polyharmonic", counted_invert)
    solvers.calibrate(s)
    # one G per power step, and one G f for <f, G f>
    assert calls == {"iteration": 1, "G": energy._POWER_STEPS + 1}
    calls["iteration"] = 0
    tab = continuation_in_lambda(s, [0.0, 0.0125, 0.025, 0.05], cfg)
    assert [r.converged for r in tab.rows] == [True] * 4
    assert calls["iteration"] == 1


def test_failed_fit_fails_every_continuation_row(monkeypatch):
    def degenerate(*args, **kwargs):
        raise GeometryError("minorant fit degenerate: fewer than 10 nonzero samples")

    monkeypatch.setattr(energy, "fit_minorant", degenerate)
    lams = [0.0, 0.0125, 0.025, 0.05]
    tab = continuation_in_lambda(flagship_setting(32, lam=0.0), lams, SolverConfig(seed=0))
    assert [r.lam for r in tab.rows] == lams
    for row in tab.rows:
        assert not row.converged
        assert row.reason == "minorant fit degenerate: fewer than 10 nonzero samples"
        assert all(math.isnan(x) for x in (row.J_m, row.J_star, row.sep))


def test_witness_failure_keeps_each_rows_reason():
    """On nodes (8, 8) with extent (1, 100) the center bump is zero at every
    node, so the calibration has no psi.  At lambda = 0 the psi check's
    reason is the row's; at 1e12 the minorant geometry fails first, as it
    does when each row calibrates on its own."""
    dom = BoxDomain((8, 8), (1.0, 100.0))
    s = make_setting(ProblemParams(2, 2), 0.0, constant_datum(dom))
    cfg = SolverConfig(seed=0)
    lams = [0.0, 1e12]
    tab = continuation_in_lambda(s, lams, cfg)
    reasons = [_first_failure_as_first_written(with_lambda(s, lam)) for lam in lams]
    assert [r.reason for r in tab.rows] == reasons
    assert reasons[0] == _NO_PSI and "no positive hump" in reasons[1]
    assert not any(r.converged for r in tab.rows)


def test_continuation_schedule_validation():
    s = flagship_setting(32, lam=0.0)
    cfg = SolverConfig(seed=0)
    with pytest.raises(ValueError):
        continuation_in_lambda(s, [0.01, 0.02], cfg)
    with pytest.raises(ValueError):
        continuation_in_lambda(s, [0.0, 0.02, 0.01], cfg)


def test_solver_determinism_bitwise():
    s = flagship_setting(32)
    p1 = solve_run(s, SolverConfig(seed=7)).pair
    p2 = solve_run(s, SolverConfig(seed=7)).pair
    assert np.array_equal(p1.u_m.values, p2.u_m.values)
    assert np.array_equal(p1.u_star.values, p2.u_star.values)
    assert p1.J_star == p2.J_star and p1.J_m == p2.J_m


def test_weak_two_solutions_guards():
    with pytest.raises(ValueError):  # the setting itself refuses a weak alpha override
        make_setting(ProblemParams(2, 2), 0.05, constant_datum(unit_box(2, 32)),
                     form=Form.WEAK, alpha=3)


def test_capability_rejection_high_dimension():
    # N = 5 problem on a 2-D surrogate grid is refused outright, by the
    # setting itself, in both forms (the weak one with its alpha = 3)
    dom = unit_box(2, 32)
    assert Form.WEAK.alpha_formula(ProblemParams(5, 2)) == 3
    with pytest.raises(CapabilityError, match="N=5 has no grid support"):
        make_setting(ProblemParams(5, 2), 0.05, constant_datum(dom), form=Form.WEAK)
    with pytest.raises(CapabilityError, match="N=5 has no grid support"):
        make_setting(ProblemParams(5, 2), 0.05, constant_datum(dom))


def test_weak_lambda_zero_pair():
    s = flagship_setting(32, lam=0.0, form=Form.WEAK)
    p = solve_run(s, SolverConfig(seed=0)).pair
    assert np.all(p.u_m.values == 0.0)
    assert p.J_m == 0.0
    assert p.J_star > 0.0
    assert p.residual_star <= 1e-6


def test_weak_strong_minimizer_agreement(run32, run64, run32_weak, run64_weak):
    import math
    d32 = seminorm(run32.pair.u_m - run32_weak.pair.u_m, 2)
    d64 = seminorm(run64.pair.u_m - run64_weak.pair.u_m, 2)
    assert d64 < d32
    order = math.log(d32 / d64) / math.log(65.0 / 33.0)
    assert order >= 1.0


def test_nonconvergence_carries_record():
    # at lambda = 200 u_m takes three Newton rows; a budget of one misses grad_tol
    s = flagship_setting(32, lam=200.0)
    cfg = SolverConfig(seed=0, max_iters=1)
    geom = calibrate(s).geometry(s.lam)
    with pytest.raises(NonconvergenceError, match="exhausted") as err:
        minimize_local(s, zeros(s.f.domain), cfg, geom.R0)
    assert str(err.value) == "minimizer: Newton exhausted max_iters"
    assert err.value.record is not None
    assert len(err.value.record) == 1 and err.value.record.residual_norm[0] > cfg.grad_tol
    # a grad_tol below the roundoff floor stalls the line search inside the budget
    cfg = SolverConfig(seed=0, grad_tol=1e-300)
    with pytest.raises(NonconvergenceError, match="Newton stalled") as err:
        minimize_local(s, zeros(s.f.domain), cfg, geom.R0)
    assert str(err.value) == "minimizer: Newton stalled above grad_tol"
    assert 1 <= len(err.value.record) < cfg.max_iters
