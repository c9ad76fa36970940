"""Two-solution solvers: Newton to the isolated local minimizer and a local
minimax search for the mountain-pass critical point.

Minimizer.  u_m is the Newton solve below (``minimize_local``), from a
start inside the R0 ball; from the zero field or a start outside that ball
it starts at lambda G f, which is Newton's first step from zero, since
N'(0) = 0 for k >= 2.

Mountain pass.  A local minimax on rays from the minimizer u_m (Li and
Zhou, SIAM J. Sci. Comput. 23:840, 2001): one direction field v replaces a
discrete path, and each iterate is the peak of J on the ray u_m + t v.
The first ray is u_m + t psi (``Calibration.psi``, the power iterate
nearest the lambda = 0 saddle), on which J falls without bound: its
t^(k+1) coefficient is -N(psi) < 0.
Every stencil image is linear in t, so J(u_m + t v) is a polynomial of
degree k + 1 in t in both forms, fixed exactly by its values at k + 2
points (``energy.ray_polynomial``, from the images of u_m computed once per
call and those of v); the peak is the highest local maximum at t > 0 among
the roots of its derivative, so no ridge between samples can be missed.  A
ray with no such peak is a rejected step.  From the peak w the search tries
the full step w - d and takes the ray through it, v = w - d - u_m, when
the new ray's peak value passes the Armijo test.  Here d = G r is the
residual preconditioned by G, the exact inverse of the discrete
(-Delta)^alpha, applied in the sine basis where it is diagonal: the raw
residual of the order-2 alpha operator is conditioned like h^(-2 alpha).

One trial step per row.  The minimax does not backtrack: at the first row
whose residual meets ``grad_tol`` or whose peak value moved by at most
``deform_tol`` (relative) from the previous row's, or when its trial step
fails the Armijo test, it hands its peak to the Newton solve, once.  It
returns the Newton iterate when that met ``grad_tol`` and stays separated
from u_m; otherwise it ends with a ``NonconvergenceError`` that says why.
The minimizer's record gets one row per accepted Newton iterate (phase
``newton``), the mountain record one per minimax step (``minimax``) and
then its ``newton`` rows, so each ends at its solution, with its J;
``max_iters`` bounds the rows of each.

Newton on the source.  The Newton solve (``_newton_refine``) iterates on
w = (-Delta_h)^alpha u, u = G w (Knoll and Keyes, J. Comput. Phys.
193:357, 2004), free of the float64 floor of u's stencil residual, which
grows like h^(-2 alpha); its residual in w is ``energy.euler_lagrange``
fed w, and it returns why it stopped.  Each solution is accepted on the
residual in w of the last row of its record, at Newton's start the stencil
residual bit for bit; ``SolutionPair`` keeps the stencil residual beside it.

Krylov solver.  Each Newton step is one ``gmres`` solve, with no retry,
that stops once its linear residual is below a tenth of ``grad_tol``: at
relative tolerance max(``_KRYLOV_RTOL``, grad_tol / (10 |R|)).  The
iterate is accepted on |R| <= grad_tol, so a linear residual far below
that buys nothing (an inexact Newton step).  ``gmres`` is one GMRES cycle,
never restarted, on numpy, bit for bit scipy's ``sparse.linalg.gmres``
with ``maxiter=1``.

Continuation.  A predictor-corrector in lambda (Keller, 1977).  Each row
after the first predicts both solutions from the last two converged rows
by the secant u_i = u_(i-1) + c (u_(i-1) - u_(i-2)),
c = (lambda_i - lambda_(i-1)) / (lambda_(i-1) - lambda_(i-2)), or takes the
one converged row's pair.  u_m's Newton starts at the predicted u_m when
it lies in the R0 ball, else at lambda G f; u_star is the Newton solve from
the predicted u_star, with no minimax; one that misses ``grad_tol`` or
falls back to u_m hands the row to the minimax of a cold solve.

Determinism: a solve and a continuation read no random number (the
calibration's power iteration starts from the fixed center bump), so identical
inputs reproduce outputs bit for bit, whatever ``SolverConfig.seed``, at a
fixed OpenBLAS thread count (the reductions and the sine inverse's products
go through BLAS).  Only the probe draws random numbers, its trial starts,
from ``default_rng(cfg.seed)``.  Continuation rows share one read-only
``energy.Calibration``, built once by ``energy.calibrate``: the calibration
a solve of each row would build.  A solve, each row and the probe take their
geometry from one ``Calibration.geometry`` call at their lambda.  Each row
starts from the rows before it, so the rows of one continuation run in
order.  A single solve is sequential; independent solves (probe trials)
own their fields, only read a shared calibration, and may run
concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .energy import (
    Calibration,
    EnergySetting,
    MinorantGeometry,
    calibrate,
    energy_report,
    euler_lagrange,
    polynomial_peak as _ray_peak,
    ray_polynomial,
    nonlinear_jacobian,
    residual,
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
    zeros,
)


@dataclass
class SolverConfig:
    """What a run sets.  ``grad_tol`` is the residual at which Newton and
    the minimax stop; ``max_iters`` bounds the rows of each record (u_m's
    Newton rows, and the minimax's rows with their Newton rows);
    ``deform_tol`` is the relative change of the minimax's peak value below
    which it hands off to Newton; ``seed`` reaches only the probe's trial
    starts.  ``path_points`` is validated but no longer read: the mountain
    pass has no discrete path."""

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


PHASES = ("minimax", "newton")


@dataclass
class PSRecord:
    """Per-iterate (energy value, residual L2 norm, seminorm, phase) rows;
    the phase is one of ``PHASES``.  Every iterate of the minimax and of
    each Newton solve is appended here, so a non-finite
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
            idx = range(n)
        else:  # max_rows rows evenly spread, the first and the last among them
            idx = [i * (n - 1) // (max_rows - 1) for i in range(max_rows)]
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
    residual_m_stencil: float
    residual_star: float
    residual_star_stencil: float


@dataclass
class SolveRun:
    """Full two-solution orchestration record (the pair plus diagnostics)."""

    pair: SolutionPair
    geometry: MinorantGeometry
    psi: ScalarField
    record_minimize: PSRecord
    record_mountain: PSRecord


_LS_C = 1e-4  # Armijo factor of the minimax's one trial step


def minimize_local(s: EnergySetting, u0: ScalarField, cfg: SolverConfig,
                   R0: float) -> tuple[ScalarField, PSRecord]:
    """The isolated minimizer u_m inside the R0 ball: ``_newton_refine`` from
    ``u0``, or from lambda G f when ``u0`` is the zero field or lies outside
    the R0 ball.  That start is Newton's first step from zero, where N'(0) = 0
    for k >= 2; at lambda = 0 it is zero itself, whose residual is 0.

    Returns u_m and its record of ``newton`` rows, the last of which holds
    J(u_m) and |u_m|.  Raises a ``NonconvergenceError`` with Newton's stop
    value when it misses ``grad_tol``, and a ``GeometryError`` when u_m sits
    outside the R0 ball, where the truncated functional and the action differ.
    """
    s.check_field(u0)
    if not (np.any(u0.values) and seminorm(u0, s.alpha) <= R0):
        u0 = invert_polyharmonic(s.f * s.lam, s.alpha)
    rec = PSRecord()
    u, stop = _newton_refine(u0, s, cfg, rec)
    if stop:
        raise NonconvergenceError(f"minimizer: Newton {stop}", rec)
    if rec.seminorm[-1] >= R0:
        raise GeometryError(
            "converged minimizer sits outside the R0 ball where H equals J; "
            "lambda is too large")
    return u, rec


_KRYLOV_RESTART = 40

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


def gmres(matvec, b: np.ndarray, rtol: float, restart: int) -> np.ndarray:
    """One GMRES cycle (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7:856,
    1986) for A x = b from x0 = 0, with ``matvec(v)`` returning A v as a new
    array.

    Modified Gram-Schmidt Arnoldi and Givens rotations take at most
    ``restart`` steps; the cycle stops once the rotated residual estimate
    reaches rtol |b| or on a breakdown (an exact solution of the Krylov
    problem), and back substitution gives x.  The operator is applied once
    per step and never to x: no true residual is formed.  No restart either:
    every Newton system of the bundled, benchmark and CI runs ends within 9
    steps.  This is scipy's ``sparse.linalg.gmres`` (1.12 and
    later) with ``maxiter=1`` step for step (no preconditioner, atol = 0),
    so x matches scipy's bit for bit; the tests compare the two.
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
    ptol = bnrm2 * min(1.0, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    v[0] = b
    tmp = np.linalg.norm(v[0])
    v[0] *= 1 / tmp
    S = np.zeros(restart + 1)
    S[0] = tmp
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
        breakdown = h1 <= eps * h0
        if breakdown:
            h[col, col + 1] = 0
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
        if abs(tmp) <= ptol or breakdown:
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
    return x


_NEWTON_MAX = 60
_KRYLOV_RTOL = 1e-7  # the smallest forcing term: GMRES stops by |b - A x| <= _KRYLOV_RTOL |b|


def _newton_refine(u: ScalarField, s: EnergySetting, cfg: SolverConfig,
                   rec: PSRecord) -> tuple[ScalarField, Optional[str]]:
    """Damped inexact Newton iterations (Dembo, Eisenstat and Steihaug, SIAM
    J. Numer. Anal. 19:400, 1982) on R(w) = w - N(G w) - lambda f from the
    source w = (-Delta_h)^alpha u of ``u``: the start of u_m's solve, a
    minimax peak or a continuation row's predicted u_star; returns (last
    iterate G w, stop), with ``u`` itself when no step was accepted; stop is
    None at |R| <= ``grad_tol``, else "exhausted max_iters" (a full record)
    or "stalled above grad_tol" (no decrease, or ``_NEWTON_MAX`` steps).

    R(w) is ``energy.euler_lagrange(G w, s, w)``.  The start needs no sine
    inverse: G w is ``u``, and ``euler_lagrange(u, s)`` gives w and R(w),
    the stencil residual bit for bit.  Each iteration is one
    unpreconditioned GMRES solve of (I - N'(G w) G) delta = -R(w) and a line
    search on t = 1, 1/2, ... (at most 10 trials, each one evaluated) for a
    strict decrease of |R|, so the refinement never runs away from the
    starting basin; a step without one ends it, with no retry.  GMRES stops
    at the relative tolerance max(``_KRYLOV_RTOL``, grad_tol / (10 |R(w)|)),
    a linear residual a tenth of ``grad_tol``.  Each accepted iterate, and
    G w when R(w) meets ``grad_tol`` at once, appends a row with its |R| to
    ``rec``, at most until it holds ``max_iters`` rows.
    """
    dom = u.domain
    alpha = s.alpha

    def at(w: Optional[np.ndarray], gw: Optional[ScalarField] = None) -> tuple:  # (w, G w, R, |R|)
        if gw is None:
            gw = invert_polyharmonic(ScalarField(dom, w), alpha)
        w, r = euler_lagrange(gw, s, w)
        return w, gw, r, l2_norm(r)

    w, gw, r, rn = at(None, u)
    budget = cfg.max_iters - len(rec)
    for _ in range(min(_NEWTON_MAX, budget)):
        if rn > cfg.grad_tol:
            jac = nonlinear_jacobian(gw, s)

            def matvec(v: np.ndarray) -> np.ndarray:
                gv = invert_polyharmonic(ScalarField(dom, v.reshape(dom.nodes)), alpha)
                return v - jac(gv.values).reshape(v.shape)

            rtol = max(_KRYLOV_RTOL, cfg.grad_tol / (10.0 * rn))
            delta = gmres(matvec, -r.values.ravel(), rtol, _KRYLOV_RESTART)
            t = 1.0
            for _ in range(10):
                cand = at(w + t * delta.reshape(w.shape))
                if cand[3] < rn:
                    break
                t *= 0.5
            else:
                return u, "stalled above grad_tol"
            w, gw, r, rn = cand
        u = gw
        report = energy_report(u, s)
        rec.append(report.J, rn, report.seminorm, "newton")
        if rn <= cfg.grad_tol:
            return u, None
    return u, "exhausted max_iters" if budget <= _NEWTON_MAX else "stalled above grad_tol"


def _separated(u: ScalarField, u_m: ScalarField, s: EnergySetting, cfg: SolverConfig) -> bool:
    """False when a refinement ``u`` fell back to the minimizer ``u_m``."""
    return seminorm(u - u_m, s.alpha) > 100.0 * cfg.grad_tol


def mountain_pass(s: EnergySetting, u_m: ScalarField, direction: ScalarField,
                  cfg: SolverConfig) -> tuple[ScalarField, PSRecord]:
    """Local minimax on rays from the minimizer ``u_m``, starting on the ray
    u_m + t ``direction``.  Each row tries the full preconditioned step
    w - G r from its peak w.  Returns the one Newton refinement of the row
    that hands off when it met ``grad_tol`` away from ``u_m``; a first ray
    without a peak raises a ``GeometryError``, anything else a
    ``NonconvergenceError`` with its reason: the minimax's budget, a fall
    back to ``u_m``, or Newton's stop value."""
    alpha = s.alpha
    ray = ray_polynomial(u_m, s)
    v = direction
    peak = _ray_peak(ray(v))
    if peak is None:
        raise GeometryError("the ray from the minimizer has no positive peak")
    rec = PSRecord()
    j_prev = None
    while len(rec) < cfg.max_iters:
        t_top, j_top = peak
        w = u_m + t_top * v
        r = residual(w, s)
        rn = l2_norm(r)
        rec.append(j_top, rn, seminorm(w, alpha), "minimax")
        if rn <= cfg.grad_tol or (
                j_prev is not None and abs(j_top - j_prev) <= cfg.deform_tol * (1.0 + abs(j_top))):
            break
        j_prev = j_top
        d = invert_polyharmonic(r, alpha)
        v_cand = w - d - u_m
        cand = _ray_peak(ray(v_cand))
        if cand is None or not cand[1] <= j_top - _LS_C * inner(r, d):
            break
        v, peak = v_cand, cand
    else:
        raise NonconvergenceError("mountain pass exhausted its iteration budget", rec)
    u_star, stop = _newton_refine(w, s, cfg, rec)
    if not _separated(u_star, u_m, s, cfg):
        raise NonconvergenceError("Newton refinement fell back to the minimizer", rec)
    if stop:
        raise NonconvergenceError(f"mountain pass: Newton {stop}", rec)
    return u_star, rec


@dataclass(frozen=True)
class WarmStart:
    """Where a continuation row starts: the predicted pair."""

    u_m: ScalarField
    u_star: ScalarField


def solve_run(s: EnergySetting, cfg: SolverConfig,
              warm: Optional[WarmStart] = None,
              calibration: Optional[Calibration] = None) -> SolveRun:
    """Full orchestration: geometry, u_m by Newton, minimax from u_m along
    psi.

    ``calibration`` is ``calibrate(s)`` (computed here when omitted)
    or that of a setting differing from ``s`` only in lambda.  With
    ``warm``, u_m's Newton starts at ``warm.u_m`` when it lies in the R0
    ball (else at lambda G f, ``minimize_local``'s rule), and u_star is the Newton solve from
    ``warm.u_star``; one that returns a stop value, or
    that lands within 100 grad_tol of u_m in the seminorm, falls back to
    the minimax from u_m along psi, as a cold solve does.  The mountain
    record then holds that solve's ``newton`` rows alone, or else the
    minimax's record.  J_m and J_star are the J of the records' last rows,
    and one ``GeometryError`` reports J_m < 0 < J_star failing (J_m = 0 at
    lambda = 0), naming J_m's underflow to 0 at a tiny nonzero lambda.
    """
    if calibration is None:
        calibration = calibrate(s)
    geom = calibration.geometry(s.lam)
    psi = calibration.psi

    u0 = zeros(s.f.domain) if warm is None else warm.u_m
    u_m, rec_min = minimize_local(s, u0, cfg, geom.R0)

    ok = False
    if warm is not None:
        rec_mp = PSRecord()
        u_star, stop = _newton_refine(warm.u_star, s, cfg, rec_mp)
        ok = not stop and _separated(u_star, u_m, s, cfg)
    if not ok:
        u_star, rec_mp = mountain_pass(s, u_m, psi, cfg)

    j_m, j_star = rec_min.J[-1], rec_mp.J[-1]
    sep = seminorm(u_m - u_star, s.alpha)
    if not (j_star > 0.0 and (j_m < 0.0 if s.lam != 0.0 else j_m == 0.0)):
        want = ("lambda = 0 run must pair the trivial minimizer with a positive level"
                if s.lam == 0.0 else "expected J_m < 0 < J_star")
        why = (f": J_m ~ -lambda^2 <f, G f> / 2 underflows to 0 at lambda = {s.lam!r}"
               if s.lam != 0.0 and j_m == 0.0 else "")
        raise GeometryError(f"{want}, got J_m={j_m}, J_star={j_star}{why}")
    pair = SolutionPair(u_m=u_m, u_star=u_star, J_m=j_m, J_star=j_star, sep=sep,
                        residual_m=rec_min.residual_norm[-1],
                        residual_m_stencil=l2_norm(residual(u_m, s)),
                        residual_star=rec_mp.residual_norm[-1],
                        residual_star_stencil=l2_norm(residual(u_star, s)))
    return SolveRun(pair=pair, geometry=geom, psi=psi,
                    record_minimize=rec_min, record_mountain=rec_mp)


@dataclass
class ProbeReport:
    """Outcome of repeated minimizer solves from random starts in the small ball."""

    trials: int
    converged: int
    failures: list
    max_pairwise: float
    energies: list
    success: bool


def ball_uniqueness_probe(s: EnergySetting, cfg: SolverConfig,
                          trials: int) -> ProbeReport:
    """Run ``minimize_local`` from random points inside the R0 ball and
    measure the spread of the limits; success means all runs land within
    10*grad_tol of one another in seminorm."""
    if trials < 5:
        raise ValueError("need at least 5 trials")
    rng = np.random.default_rng(cfg.seed)
    geom = calibrate(s).geometry(s.lam)
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
            u, rec = minimize_local(s, u0, cfg, geom.R0)
            minimizers.append(u)
            energies.append(rec.J[-1])
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
    method: Optional[str] = None  # "minimax" or "newton": how u_star was found; None when failed


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


def _failed_row(lam: float, exc: PolyhessError) -> ContinuationRow:
    return ContinuationRow(lam, float("nan"), float("nan"), float("nan"), False, str(exc))


def check_lambda_schedule(lambdas) -> list:
    """The schedule as floats; ValueError unless it starts at 0 and increases strictly."""
    lams = [float(x) for x in lambdas]
    if not lams or lams[0] != 0.0:
        raise ValueError("lambda schedule must start at 0")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda schedule must be strictly increasing")
    return lams


def continuation_in_lambda(s: EnergySetting, lambdas, cfg: SolverConfig) -> ContinuationTable:
    """Run the two-solution orchestration along an increasing lambda schedule;
    every row shares one calibration.  Each row after the first starts from
    the prediction of ``_predict`` (``solve_run``'s ``warm``), and its
    ``method`` says how u_star was found: ``"newton"`` by the Newton
    correction alone, ``"minimax"`` by the cold path's ray minimax (the
    first row, and a row whose correction failed).  Failures are
    recorded per row, never raised, and predict nothing; a failed
    calibration fails every row with its reason."""
    lams = check_lambda_schedule(lambdas)
    try:
        cal = calibrate(s)
    except PolyhessError as exc:
        return ContinuationTable([_failed_row(lam, exc) for lam in lams])
    rows = []
    done = []  # (lambda, pair) of the last two converged rows
    for lam in lams:
        s_i = with_lambda(s, lam)
        try:
            run = solve_run(s_i, cfg, warm=_predict(done, lam), calibration=cal)
            p = run.pair
            method = "minimax" if "minimax" in run.record_mountain.phase else "newton"
            rows.append(ContinuationRow(lam, p.J_m, p.J_star, p.sep, True, method=method))
            done = done[-1:] + [(lam, p)]
        except PolyhessError as exc:
            rows.append(_failed_row(lam, exc))
    return ContinuationTable(rows)


def _predict(done: list, lam: float) -> Optional[WarmStart]:
    """The secant predictor of the pair at ``lam`` from the last two
    converged rows ``done``; with one, that row's pair; with none, None."""
    if not done:
        return None
    lam1, p1 = done[-1]
    if len(done) == 1:
        return WarmStart(p1.u_m, p1.u_star)
    lam0, p0 = done[0]
    c = (lam - lam1) / (lam1 - lam0)
    return WarmStart(p1.u_m + c * (p1.u_m - p0.u_m), p1.u_star + c * (p1.u_star - p0.u_star))
