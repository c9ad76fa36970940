"""Ray minimax: the exact polynomial of the action along rays, the peak
search on it, and the mountain pass built on them.  The ray polynomial's
buffers and base images are checked in test_ray_polynomial.py."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from polyhess import (
    Form,
    GeometryError,
    NonconvergenceError,
    ProblemParams,
    SolverConfig,
    make_setting,
    mountain_pass,
    random_smooth_field,
    unit_box,
)
from polyhess.cli import build_setting, load_config, main
from polyhess.energy import action, ray_polynomial, residual
from polyhess.grid import invert_polyharmonic
import polyhess.solvers as solvers
from polyhess.solvers import _ray_peak

from conftest import constant_datum, flagship_setting

_REPO = Path(__file__).resolve().parents[1]

CASES = [
    (2, 32, 2, Form.STRONG),
    (2, 32, 2, Form.WEAK),
    (3, 16, 2, Form.STRONG),
    (3, 16, 2, Form.WEAK),
    (3, 16, 3, Form.STRONG),
    (3, 16, 3, Form.WEAK),
]
CASE_IDS = [f"{d}d-n{n}-k{k}-{form.value}" for d, n, k, form in CASES]


def case_ray(dim, n, k, form):
    """A setting, a small base field and a ray direction, both random smooth."""
    dom = unit_box(dim, n)
    s = make_setting(ProblemParams(dim, k), 0.05, constant_datum(dom), form=form)
    rng = np.random.default_rng(100 * dim + 10 * k + (form is Form.WEAK))
    base = random_smooth_field(dom, rng, amplitude=0.2)
    v = random_smooth_field(dom, rng, amplitude=rng.uniform(1.0, 4.0))
    return s, base, v


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_ray_polynomial_matches_action(case):
    """J(base + t v) is the polynomial of degree k + 1 through k + 2 values,
    also at t between and beyond them."""
    s, base, v = case_ray(*case)
    coefs = ray_polynomial(base, s)(v)
    assert coefs.shape == (s.params.k + 2,)
    for t in (0.3, 1.7, 2.6):
        assert npoly.polyval(t, coefs) == pytest.approx(action(base + t * v, s), rel=1e-12)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_ray_peak_beats_dense_scan(case):
    """No local maximum of a dense scan of ``action`` along the ray at t > 0
    rises above the peak, and the scan comes close to it."""
    s, base, v = case_ray(*case)
    along = ray_polynomial(base, s)
    found = 0
    for direction in (v, -v):
        peak = _ray_peak(along(direction))
        if peak is None:
            continue
        found += 1
        t_top, j_top = peak
        assert t_top > 0.0
        ts = np.linspace(0.0, 2.0 * t_top, 401)
        scan = np.array([action(base + t * direction, s) for t in ts])
        interior = (scan[1:-1] > scan[:-2]) & (scan[1:-1] > scan[2:])
        assert interior.any()
        scale = 1e-12 * np.max(np.abs(scan))
        assert np.max(scan[1:-1][interior]) <= j_top + scale
        assert np.max(scan) >= j_top - 1e-4 * abs(j_top)
    assert found >= 1


def test_ray_peak_of_polynomials_with_known_critical_points():
    # t^3: no local maximum anywhere
    assert _ray_peak(np.array([0.0, 0.0, 0.0, 1.0])) is None
    # -1 + t^2 - t^3: local minimum at 0, peak at t = 2/3
    t_top, j_top = _ray_peak(np.array([-1.0, 0.0, 1.0, -1.0]))
    assert t_top == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert j_top == pytest.approx(-1.0 + 4.0 / 27.0, rel=1e-14)
    # local maxima at t = 1/2 and t = 2: the higher one wins
    quartic = -npoly.polyint(npoly.polyfromroots([0.5, 1.0, 2.0]))
    values = npoly.polyval([0.5, 2.0], quartic)
    assert _ray_peak(quartic)[0] == pytest.approx([0.5, 2.0][int(np.argmax(values))], rel=1e-12)


def test_first_ray_without_a_positive_peak_raises_geometry_error(run32, monkeypatch):
    s = flagship_setting(32)
    monkeypatch.setattr(solvers, "_ray_peak", lambda coefs: None)
    with pytest.raises(GeometryError, match="no positive peak"):
        mountain_pass(s, run32.pair.u_m, run32.psi, SolverConfig(seed=0))


def test_stalled_search_then_newton_without_a_step_raises(run32, monkeypatch):
    """A trial step that fails its Armijo test and a refinement that accepts
    no step would leave the next ray at the same point, so the search stops
    with a reason."""
    s = flagship_setting(32)
    monkeypatch.setattr(solvers, "inner", lambda a, b: 1e30)  # no Armijo test passes
    monkeypatch.setattr(solvers, "_newton_refine",
                        lambda u, s, cfg, rec: (u, "stalled above grad_tol"))
    with pytest.raises(NonconvergenceError, match="stalled") as info:
        mountain_pass(s, run32.pair.u_m, run32.psi, SolverConfig(seed=0))
    assert str(info.value) == "mountain pass: Newton stalled above grad_tol"
    assert info.value.record.phase == ["minimax"]


def test_one_newton_refinement_per_mountain_pass(run32, monkeypatch):
    """The minimax hands off to Newton once: a refinement that moves (one
    accepted step here) but stops above grad_tol ends the search with its
    reason, and no second minimax runs from the refined point."""
    s = flagship_setting(32)
    calls = []
    refine = solvers._newton_refine

    def one_step(u, s, cfg, rec):
        calls.append(len(rec))
        u_ref, _ = refine(u, s, replace(cfg, max_iters=len(rec) + 1), rec)
        return u_ref, "stalled above grad_tol"

    monkeypatch.setattr(solvers, "_newton_refine", one_step)
    with pytest.raises(NonconvergenceError, match="stalled") as info:
        mountain_pass(s, run32.pair.u_m, run32.psi, SolverConfig(seed=0))
    phase = info.value.record.phase
    assert len(calls) == 1
    assert phase == ["minimax"] * calls[0] + ["newton"]


def recording_rays(directions):
    """``ray_polynomial`` that appends every ray direction it is given to
    ``directions``."""
    def rays(base, s):
        coefs = ray_polynomial(base, s)

        def recorded(v):
            directions.append(v)
            return coefs(v)
        return recorded
    return rays


def test_one_ray_polynomial_per_minimax_row_and_hand_off(tmp_path, monkeypatch):
    """The minimax tries one step per row, with no line search: the hess3d
    solve evaluates at most one ray polynomial per minimax row, plus the
    first ray's."""
    calls = []
    monkeypatch.setattr(solvers, "ray_polynomial", recording_rays(calls))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(_REPO / "configs" / "hess3d.cfg"),
                 "--out", str(out)]) == 0
    phases = json.loads((out / "run.json").read_text())["results"]["record_mountain"]["phase"]
    hand_offs = sum(a == "minimax" and b == "newton" for a, b in zip(phases, phases[1:]))
    assert hand_offs == 1
    assert 1 <= len(calls) <= phases.count("minimax") + 1


def test_minimax_tries_the_full_preconditioned_step(run32, monkeypatch):
    """From the first ray's peak w0 the minimax tries the ray through
    w0 - G r(w0), with no cap on the step: its second ray direction is
    w0 - G r(w0) - u_m bit for bit."""
    s = flagship_setting(32)
    u_m, psi = run32.pair.u_m, run32.psi
    directions = []
    monkeypatch.setattr(solvers, "ray_polynomial", recording_rays(directions))
    mountain_pass(s, u_m, psi, SolverConfig(seed=0))
    t0 = _ray_peak(ray_polynomial(u_m, s)(psi))[0]
    w0 = u_m + t0 * psi
    expected = w0 - invert_polyharmonic(residual(w0, s), s.alpha) - u_m
    assert len(directions) >= 2
    assert directions[1].values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("form", ["strong", "weak"])
def test_warm_rows_are_newton_corrections(monkeypatch, form):
    """Every warm row of the bundled continuation finds u_star by the Newton
    correction of its predicted u_star alone: only the first row runs the
    minimax, and each warm row's mountain record is ``newton`` rows only."""
    cfg = load_config(_REPO / "configs" / "ma2d.cfg")
    s = build_setting(replace(cfg, form=form), sweep=True)
    minimax_calls, records = [], []
    minimax, solve = solvers.mountain_pass, solvers.solve_run

    def counted(*args, **kwargs):
        minimax_calls.append(args[2])
        return minimax(*args, **kwargs)

    def recorded(*args, **kwargs):
        run = solve(*args, **kwargs)
        records.append((kwargs.get("warm") is not None, run.record_mountain.phase))
        return run

    monkeypatch.setattr(solvers, "mountain_pass", counted)
    monkeypatch.setattr(solvers, "solve_run", recorded)
    table = solvers.continuation_in_lambda(s, cfg.lambda_schedule, cfg.solver)
    assert [r.converged for r in table.rows] == [True] * len(cfg.lambda_schedule)
    assert [r.method for r in table.rows] == ["minimax"] + ["newton"] * (len(table.rows) - 1)
    assert len(minimax_calls) == 1
    assert [warm for warm, _ in records] == [False] + [True] * (len(records) - 1)
    for _, phase in records[1:]:
        assert phase and set(phase) == {"newton"}


@pytest.mark.parametrize("max_iters", [1, 5, 10])
def test_max_iters_bounds_the_mountain_record(run32, max_iters):
    s = flagship_setting(32)
    try:
        _, rec = mountain_pass(s, run32.pair.u_m, run32.psi,
                               SolverConfig(seed=0, max_iters=max_iters))
    except NonconvergenceError as exc:
        rec = exc.record
    assert 1 <= len(rec) <= max_iters
