"""Two-solution solvers: descent to the isolated local minimizer and a
path-deformation search for the mountain-pass critical point.

Descent metric.  The raw L^2 residual of the order-2*alpha operator is
hopelessly ill-conditioned as a descent direction (condition ~ h^(-2 alpha)),
so every step is preconditioned with the exact inverse of the discrete
(-Delta)^alpha, applied via the sine transform in which the operator is
diagonal.  Residual norms reported and tested are still the plain discrete
L^2 norms of the residual field; the preconditioner only shapes directions.

Mountain pass.  The connecting path is discretized into ``path_points``
fields; each sweep locates the highest of the nodes and three interior
samples per segment (evaluated by ``energy.segment_actions`` from stencil
images computed once per node), moves it downhill along
the preconditioned residual orthogonalized against the path tangent (in the
seminorm inner product, which keeps the step a descent direction), and
re-equidistributes the path by seminorm arc length.  Once the max-point
energy stabilizes (relative change below ``deform_tol`` on three consecutive
sweeps) the point is handed to a damped Newton-Krylov refinement that
drives the residual to ``grad_tol``; acceptance requires a strict
residual-norm decrease, so the refinement cannot run away.

Action, path values, residual and the Newton Jacobian action of the
setting's form come from ``energy`` (``action``, ``segment_actions``,
``residual``, ``residual_jacobian``).

Determinism: all randomness flows from ``SolverConfig.seed`` through a
single generator per call; identical configs and inputs reproduce outputs
bit for bit.  A single solve is sequential; independent solves (probe
trials, continuation rows run without warm starts) own their fields and
generators and may run concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .energy import (
    CutoffSpec,
    EnergySetting,
    Form,
    GeometryWitnesses,
    MinorantCoefficients,
    MinorantGeometry,
    action,
    evaluate_H,
    fit_minorant,
    geometry_witnesses,
    minorant_geometry,
    residual,
    residual_jacobian,
    segment_actions,
    with_lambda,
)
from .errors import GeometryError, NonconvergenceError, PolyhessError
from .grid import (
    ScalarField,
    invert_polyharmonic,
    inner,
    l2_norm,
    random_smooth_field,
    seminorm,
    seminorm_inner,
    zeros,
)


@dataclass
class SolverConfig:
    grad_tol: float = 1e-6
    max_iters: int = 400
    ls_c: float = 1e-4
    ls_rho: float = 0.5
    step0: float = 1.0
    path_points: int = 17
    deform_tol: float = 3e-5
    seed: int = 0
    fit_samples: int = 48
    newton_max: int = 60
    krylov_rtol: float = 1e-3
    krylov_restart: int = 40
    krylov_outer: int = 5

    def __post_init__(self):
        if not (0.0 < self.grad_tol < math.inf and 0.0 < self.deform_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.path_points < 16:
            raise ValueError("need at least 16 path points")
        if self.fit_samples < 10:
            raise ValueError("need at least 10 samples for the minorant fit")
        for name in ("max_iters", "newton_max", "krylov_restart", "krylov_outer"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.krylov_rtol < 1.0:
            raise ValueError(f"krylov_rtol must lie in (0, 1), got {self.krylov_rtol}")
        # backtracking needs a shrinking, finite trial step (with ls_rho >= 1
        # the loops in minimize_local and mountain_pass never end) and an
        # Armijo factor in (0, 1)
        if not 0.0 < self.ls_rho < 1.0:
            raise ValueError(f"ls_rho must lie in (0, 1), got {self.ls_rho}")
        if not 0.0 < self.ls_c < 1.0:
            raise ValueError(f"ls_c must lie in (0, 1), got {self.ls_c}")
        if not 0.0 < self.step0 < math.inf:
            raise ValueError(f"step0 must be positive and finite, got {self.step0}")


@dataclass
class PSRecord:
    """Per-iterate (energy value, residual L2 norm, seminorm) triples."""

    J: list = dc_field(default_factory=list)
    residual_norm: list = dc_field(default_factory=list)
    seminorm: list = dc_field(default_factory=list)

    def append(self, j: float, rn: float, sn: float):
        if rn < 0:
            raise ValueError("residual norm cannot be negative")
        self.J.append(float(j))
        self.residual_norm.append(float(rn))
        self.seminorm.append(float(sn))

    def __len__(self) -> int:
        return len(self.J)

    def to_json_dict(self, max_rows: int = 1000) -> dict:
        n = len(self.J)
        if n <= max_rows:
            idx = list(range(n))
        else:
            stride = -(-n // max_rows)
            idx = list(range(0, n, stride))
            if idx[-1] != n - 1:
                idx.append(n - 1)
        return {
            "rows": len(idx),
            "total_iterations": n,
            "J": [self.J[i] for i in idx],
            "residual_norm": [self.residual_norm[i] for i in idx],
            "seminorm": [self.seminorm[i] for i in idx],
        }


@dataclass
class SolutionPair:
    u_m: ScalarField
    u_star: ScalarField
    J_m: float
    J_star: float
    sep: float
    residual_m: float
    residual_star: float


@dataclass
class SolveRun:
    """Full two-solution orchestration record (the pair plus diagnostics)."""

    pair: SolutionPair
    fit: MinorantCoefficients
    geometry: MinorantGeometry
    witnesses: GeometryWitnesses
    far_scale: float
    record_minimize: PSRecord
    record_mountain: PSRecord


def minimize_local(s: EnergySetting, u0: ScalarField, cfg: SolverConfig,
                   c: CutoffSpec) -> tuple[ScalarField, PSRecord]:
    """Backtracking descent on the truncated functional from inside the small ball.

    Returns the iterate whose residual L2 norm is at or below ``grad_tol``;
    verifies afterwards that the minimizer stayed inside the R0 ball where
    the truncated functional and the action coincide.
    """
    s.check_field(u0)
    alpha = s.alpha
    sn0 = seminorm(u0, alpha)
    if sn0 > c.R0 and float(np.max(np.abs(u0.values))) != 0.0:
        raise ValueError("start point must be the zero field or lie inside the R0 ball")
    rec = PSRecord()
    u = u0
    h_val = evaluate_H(u, s, c)
    converged = False
    for _ in range(cfg.max_iters):
        r = residual(u, s)
        rn = l2_norm(r)
        rec.append(h_val, rn, seminorm(u, alpha))
        if rn <= cfg.grad_tol:
            converged = True
            break
        d = invert_polyharmonic(r, alpha)
        slope = inner(r, d)  # squared preconditioned norm, positive
        t = cfg.step0
        accepted = False
        while t >= 1e-14 * cfg.step0:
            cand = u - t * d
            h_cand = evaluate_H(cand, s, c)
            if h_cand <= h_val - cfg.ls_c * t * slope:
                accepted = True
                break
            t *= cfg.ls_rho
        if not accepted:
            raise NonconvergenceError(
                "backtracking stalled before the residual tolerance", rec)
        if not h_cand <= h_val + 1e-12 * (1.0 + abs(h_val)):
            raise NonconvergenceError(
                f"descent not monotone: H rose from {h_val!r} to {h_cand!r}", rec)
        u, h_val = cand, h_cand
        if seminorm(u, alpha) >= c.R1:
            raise GeometryError(
                "descent iterate escaped the cutoff ball; lambda is too large")
    if not converged:
        raise NonconvergenceError("minimize_local exhausted max_iters", rec)
    if seminorm(u, alpha) >= c.R0:
        raise GeometryError(
            "converged minimizer sits outside the R0 ball where H equals J; "
            "lambda is too large")
    return u, rec


def _interp_rows(a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    ts = np.linspace(0.0, 1.0, count)
    return np.stack([(1.0 - t) * a + t * b for t in ts])


def _redistribute(path: np.ndarray, wrap, alpha: int,
                  out_points: int | None = None) -> np.ndarray:
    """Reparametrize the discrete path to equal seminorm arc length."""
    m = path.shape[0]
    P = m if out_points is None else out_points
    lengths = np.empty(m - 1)
    for i in range(m - 1):
        seg = wrap(path[i + 1] - path[i])
        lengths[i] = seminorm(seg, alpha)
    total = float(lengths.sum())
    if total <= 0.0:
        return np.repeat(path[:1], P, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    targets = np.linspace(0.0, total, P)
    out = np.empty((P,) + path.shape[1:])
    out[0] = path[0]
    out[-1] = path[-1]
    j = 0
    for i in range(1, P - 1):
        t = targets[i]
        while j < m - 2 and cum[j + 1] < t:
            j += 1
        span = cum[j + 1] - cum[j]
        theta = 0.0 if span <= 0.0 else (t - cum[j]) / span
        out[i] = (1.0 - theta) * path[j] + theta * path[j + 1]
    return out


_SEGMENT_SAMPLES = (0.25, 0.5, 0.75)


def _locate_path_max(path: np.ndarray, ghost_width: int, s: EnergySetting):
    """Highest sampled energy along the piecewise-linear path.

    A heuristic over the nodes and the ``_SEGMENT_SAMPLES`` interior points
    of each segment, all evaluated by ``energy.segment_actions`` from
    per-node stencil images; a ridge between samples can be missed.  The
    highest node is the start and a segment sample replaces it only when
    strictly higher, scanning segments and samples in order.  Returns
    (segment index, parameter in [0, 1] along that segment, max energy);
    parameter 0 marks a node.
    """
    at_nodes, in_segments = segment_actions(path, ghost_width, s, _SEGMENT_SAMPLES)
    top = int(np.argmax(at_nodes))
    best = (top, 0.0, float(at_nodes[top]))
    for i, row in enumerate(in_segments):
        for t, e in zip(_SEGMENT_SAMPLES, row):
            if e > best[2]:
                best = (i, t, float(e))
    return best


def _newton_step(u: ScalarField, r: ScalarField, s: EnergySetting,
                 cfg: SolverConfig, rtol: float) -> ScalarField:
    """Inexact Newton step, preconditioned by the sine-basis polyharmonic inverse.

    The Jacobian action of the setting's residual comes from
    ``energy.residual_jacobian``; this step only preconditions it and runs
    restarted GMRES.
    """
    dom = u.domain
    shape = dom.nodes
    m = int(np.prod(shape))
    alpha = s.alpha
    jac = residual_jacobian(u, s)

    def matvec(vflat: np.ndarray) -> np.ndarray:
        jv = jac(vflat.reshape(shape))
        pre = invert_polyharmonic(ScalarField(dom, jv, 0), alpha)
        return pre.values.reshape(m)

    op = LinearOperator((m, m), matvec=matvec, dtype=float)
    rhs = -invert_polyharmonic(r, s.alpha).values.reshape(m)
    x, info = gmres(op, rhs, rtol=rtol, atol=0.0,
                    restart=cfg.krylov_restart,
                    maxiter=cfg.krylov_outer)
    if info < 0:
        raise NonconvergenceError("Krylov solve broke down inside Newton")
    return ScalarField(dom, x.reshape(shape), u.ghost_width)


def _newton_refine(u: ScalarField, s: EnergySetting, cfg: SolverConfig,
                   rec: PSRecord) -> tuple[ScalarField, float, bool]:
    """Damped Newton iterations on the residual from a path point.

    Returns (last iterate, its residual norm, reached_tolerance).  Acceptance
    demands a strict residual-norm decrease, so the refinement never runs
    away from the starting basin.
    """
    alpha = s.alpha
    for _ in range(cfg.newton_max):
        r = residual(u, s)
        rn = l2_norm(r)
        rec.append(action(u, s), rn, seminorm(u, alpha))
        if rn <= cfg.grad_tol:
            return u, rn, True
        stepped = False
        # a failed step is retried with a sharper Krylov solve before giving up
        for rtol in (cfg.krylov_rtol, 1e-2 * cfg.krylov_rtol, 1e-4 * cfg.krylov_rtol):
            delta = _newton_step(u, r, s, cfg, rtol)
            t = 1.0
            for _ in range(10):
                cand = u + t * delta
                if l2_norm(residual(cand, s)) < rn:
                    stepped = True
                    break
                t *= 0.5
            if stepped:
                break
        if not stepped:
            return u, rn, False
        u = cand
    return u, rn, rn <= cfg.grad_tol


def mountain_pass(s: EnergySetting, u_m: ScalarField, v_far: ScalarField,
                  cfg: SolverConfig,
                  through: Optional[ScalarField] = None) -> tuple[ScalarField, PSRecord]:
    """Path-deformation minimax search between the minimizer and the far endpoint.

    ``through`` optionally threads the initial path via a warm-start interior
    point (used by the continuation driver).
    """
    s.check_field(u_m)
    s.check_field(v_far)
    alpha = s.alpha
    j_m = action(u_m, s)
    j_far = action(v_far, s)
    if not j_far < j_m:
        raise ValueError("far endpoint must have energy below the minimizer")
    P = cfg.path_points
    gw = min(u_m.ghost_width, v_far.ghost_width)
    if gw < alpha:
        raise ValueError("endpoints must encode boundary conditions to order alpha")
    dom = u_m.domain

    def wrap(row: np.ndarray) -> ScalarField:
        return ScalarField(dom, row, gw)

    if through is None:
        path = _interp_rows(u_m.values, v_far.values, P)
    else:
        s.check_field(through)
        half = P // 2 + 1
        first = _interp_rows(u_m.values, through.values, half)
        second = _interp_rows(through.values, v_far.values, P - half + 1)
        path = np.concatenate([first, second[1:]])
        path = _redistribute(path, wrap, alpha)

    rec = PSRecord()
    sweeps_left = cfg.max_iters
    since_refine = 0
    j_prev = None
    stable = 0
    while sweeps_left > 0:
        sweeps_left -= 1
        since_refine += 1
        i_seg, tpar, j_max = _locate_path_max(path, gw, s)
        if tpar == 0.0 and i_seg in (0, P - 1):
            raise GeometryError("path maximum collapsed onto an endpoint")
        if tpar == 0.0:
            u_vals = path[i_seg]
            tan = wrap(path[i_seg + 1] - path[i_seg - 1])
            seg_len = min(seminorm(wrap(path[i_seg + 1] - path[i_seg]), alpha),
                          seminorm(wrap(path[i_seg] - path[i_seg - 1]), alpha))
        else:
            u_vals = (1.0 - tpar) * path[i_seg] + tpar * path[i_seg + 1]
            tan = wrap(path[i_seg + 1] - path[i_seg])
            seg_len = seminorm(tan, alpha)
        u = wrap(u_vals.copy())
        r = residual(u, s)
        rn = l2_norm(r)
        rec.append(j_max, rn, seminorm(u, alpha))
        if rn <= cfg.grad_tol:
            return u, rec

        if j_prev is not None and abs(j_max - j_prev) <= \
                cfg.deform_tol * (1.0 + abs(j_max)):
            stable += 1
        else:
            stable = 0
        j_prev = j_max

        refine = stable >= 3 or since_refine >= 50
        moved = False
        if not refine:
            d = invert_polyharmonic(r, alpha)
            tau_sq = seminorm_inner(tan, tan, alpha)
            if tau_sq > 0.0:
                d = d - (seminorm_inner(d, tan, alpha) / tau_sq) * tan
            # cap the move by the local path resolution so deformation stays local
            dn = seminorm(d, alpha)
            t = cfg.step0
            if dn > 0.0 and seg_len > 0.0:
                t = min(t, 0.5 * seg_len / dn)
            while t >= 1e-10 * cfg.step0:
                cand = u - t * d
                if action(cand, s) < j_max:
                    moved = True
                    break
                t *= cfg.ls_rho
            if moved:
                if tpar == 0.0:
                    path[i_seg] = cand.values
                    poly = path
                else:
                    poly = np.insert(path, i_seg + 1, cand.values, axis=0)
                path = _redistribute(poly, wrap, alpha, out_points=P)

        if refine or not moved:
            since_refine = 0
            stable = 0
            j_prev = None
            u_ref, rn_ref, ok = _newton_refine(u, s, cfg, rec)
            separated = seminorm(u_ref - u_m, alpha) > 100.0 * cfg.grad_tol
            if ok and separated:
                return u_ref, rec
            if not ok and separated:
                # improved but unconverged: fold back into the path and resume
                poly = np.insert(path, i_seg + 1, u_ref.values, axis=0)
                path = _redistribute(poly, wrap, alpha, out_points=P)
            # Newton fell back to the minimizer basin: plain deformation resumes
    raise NonconvergenceError("mountain pass exhausted its iteration budget", rec)


def solve_run(s: EnergySetting, cfg: SolverConfig,
              warm: Optional[SolutionPair] = None) -> SolveRun:
    """Full orchestration: minorant fit, witnesses, descent, far scan, minimax."""
    s.validate_grid()
    rng = np.random.default_rng(cfg.seed)
    fit = fit_minorant(s, cfg.fit_samples, rng)
    geom = minorant_geometry(fit)
    cutoff = CutoffSpec(geom.R0, geom.R1)
    wit = geometry_witnesses(s)
    alpha = s.alpha
    dom = s.f.domain

    u0 = zeros(dom, alpha)
    if warm is not None and seminorm(warm.u_m, alpha) <= geom.R0:
        u0 = warm.u_m
    u_m, rec_min = minimize_local(s, u0, cfg, cutoff)
    j_m = action(u_m, s)

    far = None
    t = 1.0
    for _ in range(64):
        cand = t * wit.psi
        if action(cand, s) < j_m and seminorm(cand, alpha) > geom.R_M:
            far = cand
            break
        t *= 2.0
    if far is None:
        raise GeometryError("doubling scan failed to reach the downhill region")

    through = warm.u_star if warm is not None else None
    u_star, rec_mp = mountain_pass(s, u_m, far, cfg, through=through)

    j_star = action(u_star, s)
    rn_m = l2_norm(residual(u_m, s))
    rn_star = l2_norm(residual(u_star, s))
    sep = seminorm(u_m - u_star, alpha)
    if rn_m > cfg.grad_tol or rn_star > cfg.grad_tol:
        raise NonconvergenceError("accepted iterates exceed the residual tolerance")
    if not sep > 0.0:
        raise GeometryError("the two solutions coincide")
    if not j_m < j_star:
        raise GeometryError("energy ordering J_m < J_star failed")
    if s.lam != 0.0:
        if not (j_m < 0.0 < j_star):
            raise GeometryError(
                f"expected J_m < 0 < J_star, got J_m={j_m}, J_star={j_star}")
    else:
        if not (j_m == 0.0 and j_star > 0.0):
            raise GeometryError(
                f"lambda = 0 run must pair the trivial minimizer with a positive "
                f"level, got J_m={j_m}, J_star={j_star}")
    pair = SolutionPair(u_m=u_m, u_star=u_star, J_m=j_m, J_star=j_star,
                        sep=sep, residual_m=rn_m, residual_star=rn_star)
    return SolveRun(pair=pair, fit=fit, geometry=geom, witnesses=wit,
                    far_scale=t, record_minimize=rec_min, record_mountain=rec_mp)


def two_solutions(s: EnergySetting, cfg: SolverConfig) -> SolutionPair:
    """The pair promised by the existence theory: a negative-level local
    minimizer and a positive-level minimax point, distinct in seminorm."""
    return solve_run(s, cfg).pair


def weak_two_solutions(s: EnergySetting, cfg: SolverConfig) -> SolutionPair:
    """Two-solution run for the divergence-form problem."""
    s.validate_grid()
    if s.form is not Form.WEAK:
        raise ValueError("weak_two_solutions requires a WEAK-form setting")
    return solve_run(s, cfg).pair


@dataclass
class ProbeReport:
    """Outcome of repeated descents from random starts in the small ball."""

    trials: int
    converged: int
    failures: list
    max_pairwise: float
    energies: list
    success: bool


def ball_uniqueness_probe(s: EnergySetting, cfg: SolverConfig,
                          trials: int) -> ProbeReport:
    """Restart descent from random points inside the R0 ball and measure the
    spread of the limits; success means all runs land within 10*grad_tol of
    one another in seminorm."""
    if trials < 5:
        raise ValueError("need at least 5 trials")
    s.validate_grid()
    rng = np.random.default_rng(cfg.seed)
    fit = fit_minorant(s, cfg.fit_samples, rng)
    geom = minorant_geometry(fit)
    cutoff = CutoffSpec(geom.R0, geom.R1)
    alpha = s.alpha
    dom = s.f.domain
    minimizers = []
    energies = []
    failures = []
    for trial in range(trials):
        w = random_smooth_field(dom, rng, modes=3, amplitude=1.0, ghost_width=alpha)
        sn = seminorm(w, alpha)
        rho = rng.uniform(0.1, 0.8)
        u0 = w * (rho * geom.R0 / sn) if sn > 0 else zeros(dom, alpha)
        try:
            u, _ = minimize_local(s, u0, cfg, cutoff)
            minimizers.append(u)
            energies.append(action(u, s))
        except PolyhessError as exc:
            failures.append(f"trial {trial}: {exc}")
    max_pair = 0.0
    for a, b in itertools.combinations(minimizers, 2):
        max_pair = max(max_pair, seminorm(a - b, alpha))
    success = not failures and max_pair <= 10.0 * cfg.grad_tol
    return ProbeReport(trials=trials, converged=len(minimizers), failures=failures,
                       max_pairwise=max_pair, energies=energies, success=success)


@dataclass
class ContinuationRow:
    lam: float
    J_m: float
    J_star: float
    sep: float
    converged: bool


@dataclass
class ContinuationTable:
    rows: list

    def to_csv_text(self) -> str:
        lines = ["lambda,J_m,J_star,sep,converged"]
        for r in self.rows:
            flag = "true" if r.converged else "false"
            lines.append(f"{r.lam!r},{r.J_m!r},{r.J_star!r},{r.sep!r},{flag}")
        return "\n".join(lines) + "\n"

    def largest_converged_lambda(self) -> float:
        best = float("nan")
        for r in self.rows:
            if r.converged:
                best = r.lam
        return best


def check_lambda_schedule(lambdas) -> list:
    """The schedule as floats; ValueError unless it starts at 0 and increases strictly."""
    lams = [float(x) for x in lambdas]
    if not lams or lams[0] != 0.0:
        raise ValueError("lambda schedule must start at 0")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda schedule must be strictly increasing")
    return lams


def continuation_in_lambda(s: EnergySetting, lambdas, cfg: SolverConfig) -> ContinuationTable:
    """Run the two-solution orchestration along an increasing lambda schedule,
    warm-starting each row from the previous pair; failures are recorded per
    row, never raised."""
    lams = check_lambda_schedule(lambdas)
    rows = []
    warm = None
    for lam in lams:
        s_i = with_lambda(s, lam)
        try:
            run = solve_run(s_i, cfg, warm=warm)
            p = run.pair
            rows.append(ContinuationRow(lam, p.J_m, p.J_star, p.sep, True))
            warm = p
        except PolyhessError:
            rows.append(ContinuationRow(lam, float("nan"), float("nan"),
                                        float("nan"), False))
    return ContinuationTable(rows)
