"""Two-solution solvers: descent to the isolated local minimizer and a
local minimax search for the mountain-pass critical point.

Descent metric.  The raw L^2 residual of the order-2*alpha operator is
hopelessly ill-conditioned as a descent direction (condition ~ h^(-2 alpha)),
so every step is preconditioned with the exact inverse of the discrete
(-Delta)^alpha, applied via the sine transform in which the operator is
diagonal.  Residual norms reported and tested are still the plain discrete
L^2 norms of the residual field; the preconditioner only shapes directions.

Mountain pass.  A local minimax on rays from the minimizer u_m (Li and
Zhou, SIAM J. Sci. Comput. 23:840, 2001): one direction field v replaces a
discrete path, and each iterate is the peak of J on the ray u_m + t v.
Every stencil image is linear in t, so J(u_m + t v) is a polynomial of
degree k + 1 in t in both forms, fixed exactly by its values at k + 2
points (``energy.ray_actions``, from the images of u_m computed once per
call and those of v); the peak is the highest local maximum at t > 0 among
the roots of its derivative, so no ridge between samples can be missed.  A
ray with no such peak is a rejected step.  From the peak w the search tries
w - s d, with d the preconditioned residual, and takes the new ray through
it, v = w - s d - u_m: the first s is min(1, 1/2 |w - u_m| / |d|) in the
seminorm, and Armijo backtracking on the new ray's peak value shrinks it
down to 1e-10.  When the line search stalls, or once the peak value is
stable (relative change below ``deform_tol`` on three consecutive steps),
the peak and its residual are handed to a damped Newton-Krylov refinement
that drives the residual to ``grad_tol``; acceptance requires a strict
residual-norm decrease, so the refinement cannot run away.  An unconverged
refinement that stays separated from u_m restarts the minimax on the ray
through its last iterate.  The mountain record gets one row per minimax
step (phase ``minimax``) and one per accepted Newton iterate (``newton``),
the descent record one per iterate (``descent``); ``max_iters`` bounds the
rows of each.  A violated precondition of a solver raises
``ContractError``.

Action, ray values, residual and the Newton Jacobian action of the
setting's form come from ``energy`` (``action``, ``ray_actions``,
``residual``, ``residual_jacobian``).

Krylov solver.  Each Newton step solves the preconditioned Jacobian system
with ``gmres``, restarted GMRES (Saad and Schultz, SIAM J. Sci. Stat.
Comput. 7:856, 1986) written here on numpy: modified Gram-Schmidt Arnoldi
and Givens rotations from ``_lartg``, LAPACK's safe-scaling ``dlartg``.  It
performs scipy's ``sparse.linalg.gmres`` operations in scipy's order, so
the iterates, and every solver output, are those of the scipy path bit for
bit.

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
import numpy.polynomial.polynomial as npoly

from .energy import (
    CutoffSpec,
    EnergySetting,
    GeometryWitnesses,
    MinorantCoefficients,
    MinorantGeometry,
    action,
    energy_report,
    evaluate_H,
    fit_minorant,
    geometry_witnesses,
    minorant_geometry,
    polynomial_peak as _ray_peak,
    ray_actions,
    residual,
    residual_jacobian,
    with_lambda,
)
from .errors import ContractError, GeometryError, NonconvergenceError, PolyhessError
from .grid import (
    ScalarField,
    invert_polyharmonic,
    inner,
    l2_norm,
    random_smooth_field,
    seminorm,
    zeros,
)


@dataclass
class SolverConfig:
    """What a run sets.  ``path_points`` is validated but no longer read: the
    mountain pass has no discrete path.  ``max_iters`` bounds the rows of
    each phase record."""

    grad_tol: float = 1e-6
    max_iters: int = 400
    path_points: int = 17
    deform_tol: float = 3e-5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.grad_tol < math.inf and 0.0 < self.deform_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.path_points < 16:
            raise ValueError("need at least 16 path points")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


PHASES = ("descent", "minimax", "newton")


@dataclass
class PSRecord:
    """Per-iterate (energy value, residual L2 norm, seminorm, phase) rows;
    the phase is one of ``PHASES``.  Every iterate of the descent, the
    minimax and the Newton refinement is appended here, so a non-finite
    energy value or residual norm ends the solve with a
    ``NonconvergenceError`` that names its phase."""

    J: list = dc_field(default_factory=list)
    residual_norm: list = dc_field(default_factory=list)
    seminorm: list = dc_field(default_factory=list)
    phase: list = dc_field(default_factory=list)

    def append(self, j: float, rn: float, sn: float, phase: str):
        if rn < 0:
            raise ValueError("residual norm cannot be negative")
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if not (math.isfinite(j) and math.isfinite(rn)):
            raise NonconvergenceError(
                f"{phase} iterate has a non-finite energy ({j!r}) or residual norm ({rn!r})",
                self)
        self.J.append(float(j))
        self.residual_norm.append(float(rn))
        self.seminorm.append(float(sn))
        self.phase.append(phase)

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
            "phase": [self.phase[i] for i in idx],
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


# Backtracking line search of the descent and the minimax: first
# trial step, shrink factor and Armijo factor.
_STEP0 = 1.0
_LS_RHO = 0.5
_LS_C = 1e-4
_FIT_SAMPLES = 48  # fields in the minorant fit's sample family


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
        raise ContractError("start point must be the zero field or lie inside the R0 ball")
    rec = PSRecord()
    u = u0
    h_val = evaluate_H(u, s, c)
    converged = False
    for _ in range(cfg.max_iters):
        r = residual(u, s)
        rn = l2_norm(r)
        rec.append(h_val, rn, seminorm(u, alpha), "descent")
        if rn <= cfg.grad_tol:
            converged = True
            break
        d = invert_polyharmonic(r, alpha)
        slope = inner(r, d)  # squared preconditioned norm, positive
        t = _STEP0
        accepted = False
        while t >= 1e-14 * _STEP0:
            cand = u - t * d
            h_cand = evaluate_H(cand, s, c)
            if h_cand <= h_val - _LS_C * t * slope:
                accepted = True
                break
            t *= _LS_RHO
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


def _ray_polynomial(ray, v: ScalarField, k: int) -> np.ndarray:
    """Coefficients, lowest degree first, of t -> J(u_m + t v), the
    polynomial of degree k + 1 through its values at ``linspace(0, 2, k + 2)``
    (``ray`` from ``energy.ray_actions(u_m, s)``)."""
    ts = np.linspace(0.0, 2.0, k + 2)
    return npoly.polyfit(ts, ray(v, ts), k + 1)


_KRYLOV_RESTART = 40
_KRYLOV_OUTER = 5

_SAFMIN = float(np.finfo(float).tiny)
_SAFMAX = 1.0 / _SAFMIN
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(_SAFMAX / 2)


def _lartg(f: float, g: float) -> tuple[float, float, float]:
    """Plane rotation (c, s, r) with c f + s g = r and -s f + c g = 0.

    LAPACK's ``dlartg`` as of 3.10 (safe scaling, Anderson, ACM TOMS
    44:12, 2017): returns what it returns, bit for bit.
    """
    f1, g1 = abs(f), abs(g)
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), g1
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def gmres(matvec, b: np.ndarray, rtol: float, restart: int, maxiter: int) -> np.ndarray:
    """Restarted GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7:856,
    1986) for A x = b from x0 = 0, with ``matvec(v)`` returning A v as a new
    array; stops once |b - A x| <= rtol |b|.

    Modified Gram-Schmidt Arnoldi, Givens rotations, at most ``restart``
    inner steps per cycle and ``maxiter`` cycles.  The inner tolerance ptol
    adapts between cycles to the ratio of the true residual to the
    rotated-system estimate.  An exact solution of the Krylov problem (a
    breakdown) ends the solve.  This is scipy's ``sparse.linalg.gmres``
    (1.12 and later) step for step for that case (no preconditioner,
    atol = 0), so its iterates match scipy's bit for bit; the tests compare
    the two.
    """
    n = len(b)
    x = np.zeros(n)
    bnrm2 = np.linalg.norm(b)
    atol = rtol * float(bnrm2)
    if bnrm2 == 0:
        return b.copy()
    eps = np.finfo(float).eps
    restart = min(restart, n)
    if bnrm2 < atol:
        return x
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    r = b
    for _ in range(maxiter):
        v[0] = r
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1)
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = matvec(v[col])
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = np.dot(v[k], w)
                h[col, k] = tmp
                w -= tmp * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            if h1 <= eps * h0:
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, [k, k + 1]]
                h[col, [k, k + 1]] = [c * n0 + s * n1, -s * n0 + c * n1]
            c, s, mag = _lartg(h[col, col], h[col, col + 1])
            givens[col] = c, s
            h[col, [col, col + 1]] = mag, 0
            tmp = -s * S[col]
            S[[col, col + 1]] = [c * S[col], tmp]
            presid = abs(tmp)
            if presid <= ptol or breakdown:
                break
        # Back substitution on the triangular h, with a zero pivot read as
        # a zero component (a pseudo-solve of the singular case).
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1]
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x


def _newton_steps(u: ScalarField, r: ScalarField, s: EnergySetting):
    """Inexact Newton steps at ``u``, one per ``_KRYLOV_RTOLS`` entry, each
    sharper than the last; preconditioned by the sine-basis polyharmonic inverse.

    The Jacobian action of the setting's residual comes from
    ``energy.residual_jacobian``.  The preconditioned system is built once,
    on the first step; each step runs restarted GMRES on it from x0 = 0.  A
    sharper solve of the same system repeats the first Arnoldi cycle of the
    one before it, bit for bit, until the looser tolerance would have
    stopped it, so the operator's images are kept (keyed by the exact bytes
    of the Krylov vector, at most one restart cycle's worth) and reused.
    """
    dom = u.domain
    shape = dom.nodes
    m = int(np.prod(shape))
    alpha = s.alpha
    jac = residual_jacobian(u, s)
    images = {}

    def matvec(vflat: np.ndarray) -> np.ndarray:
        key = vflat.tobytes()
        if key in images:
            return images[key].copy()  # gmres updates its image in place
        jv = jac(vflat.reshape(shape))
        image = invert_polyharmonic(ScalarField(dom, jv), alpha).values.reshape(m)
        if len(images) <= _KRYLOV_RESTART:
            images[key] = image.copy()
        return image

    rhs = -invert_polyharmonic(r, s.alpha).values.reshape(m)
    for rtol in _KRYLOV_RTOLS:
        x = gmres(matvec, rhs, rtol, _KRYLOV_RESTART, _KRYLOV_OUTER)
        yield ScalarField(dom, x.reshape(shape))


_NEWTON_MAX = 60
# GMRES rtols, in order: a failed step is retried with a sharper Krylov solve
# before giving up.  The products are kept as written: 1e-4 * 1e-3 is
# 1.0000000000000001e-07, not 1e-07, and strong solves at the residual
# roundoff floor are sensitive to that last bit.
_KRYLOV_RTOLS = (1e-3, 1e-2 * 1e-3, 1e-4 * 1e-3)


def _newton_refine(u: ScalarField, r: ScalarField, rn: float, s: EnergySetting,
                   cfg: SolverConfig, rec: PSRecord) -> tuple[ScalarField, float, bool]:
    """Damped Newton iterations on the residual from a minimax peak ``u``,
    with residual ``r`` of norm ``rn``; the caller has recorded ``u``, and
    each accepted iterate appends its own row to ``rec``, at most until it
    holds ``max_iters`` rows.

    Returns (last iterate, its residual norm, reached_tolerance).  Acceptance
    demands a strict residual-norm decrease, so the refinement never runs
    away from the starting basin; the accepted candidate's residual, already
    computed by the line search, starts the next iteration.
    """
    for _ in range(min(_NEWTON_MAX, cfg.max_iters - len(rec))):
        if rn <= cfg.grad_tol:
            return u, rn, True
        stepped = False
        for delta in _newton_steps(u, r, s):
            t = 1.0
            for _ in range(10):
                cand = u + t * delta
                r_cand = residual(cand, s)
                rn_cand = l2_norm(r_cand)
                if rn_cand < rn:
                    stepped = True
                    break
                t *= 0.5
            if stepped:
                break
        if not stepped:
            return u, rn, False
        u, r, rn = cand, r_cand, rn_cand
        report = energy_report(u, s)
        rec.append(report.J, rn, report.seminorm, "newton")
    return u, rn, rn <= cfg.grad_tol


def mountain_pass(s: EnergySetting, u_m: ScalarField, v_far: ScalarField,
                  cfg: SolverConfig,
                  through: Optional[ScalarField] = None) -> tuple[ScalarField, PSRecord]:
    """Local minimax on rays from the minimizer ``u_m``, starting on the ray
    through ``through`` (a warm-start point, used by the continuation driver)
    or else through the far point ``v_far``, which must lie below ``u_m``.
    """
    s.check_field(u_m)
    s.check_field(v_far)
    alpha = s.alpha
    k = s.params.k
    if not action(v_far, s) < action(u_m, s):
        raise ContractError("far endpoint must have energy below the minimizer")
    if through is not None:
        s.check_field(through)
    ray = ray_actions(u_m, s)
    v = (v_far if through is None else through) - u_m
    peak = _ray_peak(_ray_polynomial(ray, v, k))
    rec = PSRecord()
    j_prev = None
    stable = 0
    while len(rec) < cfg.max_iters:
        if peak is None:
            raise GeometryError("the ray from the minimizer has no positive peak")
        t_top, j_top = peak
        w = u_m + t_top * v
        r = residual(w, s)
        rn = l2_norm(r)
        rec.append(j_top, rn, seminorm(w, alpha), "minimax")
        if rn <= cfg.grad_tol:
            return w, rec
        if j_prev is not None and abs(j_top - j_prev) <= cfg.deform_tol * (1.0 + abs(j_top)):
            stable += 1
        else:
            stable = 0
        j_prev = j_top
        stalled = False
        if stable < 3:
            d = invert_polyharmonic(r, alpha)
            slope = inner(r, d)  # squared preconditioned norm, positive
            dn = seminorm(d, alpha)
            step = _STEP0
            if dn > 0.0:  # half the distance from u_m caps the first step
                step = min(step, 0.5 * t_top * seminorm(v, alpha) / dn)
            while step >= 1e-10 * _STEP0:
                v_cand = w - step * d - u_m
                cand = _ray_peak(_ray_polynomial(ray, v_cand, k))
                if cand is not None and cand[1] <= j_top - _LS_C * step * slope:
                    break
                step *= _LS_RHO
            else:
                stalled = True
            if not stalled:
                v, peak = v_cand, cand
                continue
        stable = 0
        j_prev = None
        u_ref, rn_ref, ok = _newton_refine(w, r, rn, s, cfg, rec)
        if not seminorm(u_ref - u_m, alpha) > 100.0 * cfg.grad_tol:
            raise NonconvergenceError("Newton refinement fell back to the minimizer", rec)
        if ok:
            return u_ref, rec
        if stalled and u_ref is w:
            raise NonconvergenceError(
                "minimax line search stalled and Newton accepted no step", rec)
        v = u_ref - u_m
        peak = _ray_peak(_ray_polynomial(ray, v, k))
    raise NonconvergenceError("mountain pass exhausted its iteration budget", rec)


def solve_run(s: EnergySetting, cfg: SolverConfig,
              warm: Optional[SolutionPair] = None) -> SolveRun:
    """Full orchestration: minorant fit, witnesses, descent, far scan, minimax."""
    s.validate_grid()
    rng = np.random.default_rng(cfg.seed)
    fit = fit_minorant(s, _FIT_SAMPLES, rng)
    geom = minorant_geometry(fit)
    cutoff = CutoffSpec(geom.R0, geom.R1)
    wit = geometry_witnesses(s)
    alpha = s.alpha
    dom = s.f.domain

    u0 = zeros(dom)
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
    fit = fit_minorant(s, _FIT_SAMPLES, rng)
    geom = minorant_geometry(fit)
    cutoff = CutoffSpec(geom.R0, geom.R1)
    alpha = s.alpha
    dom = s.f.domain
    minimizers = []
    energies = []
    failures = []
    for trial in range(trials):
        w = random_smooth_field(dom, rng, modes=3, amplitude=1.0)
        sn = seminorm(w, alpha)
        rho = rng.uniform(0.1, 0.8)
        u0 = w * (rho * geom.R0 / sn) if sn > 0 else zeros(dom)
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
    reason: Optional[str] = None  # why the row failed; None when it converged


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
        except PolyhessError as exc:
            rows.append(ContinuationRow(lam, float("nan"), float("nan"),
                                        float("nan"), False, str(exc)))
    return ContinuationTable(rows)
