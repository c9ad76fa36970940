"""Invariant suites shared by the CLI ``verify`` subcommand and the test suite.

Each suite returns a list of CheckResult rows; a run passes when every row
does.  All randomness is drawn from the seed passed in, so repeated runs are
identical.  The algebra checks are public functions of ``(rng, count)`` that
return the worst error, and the acceptance tests call them (and
``suite_exponents``) with their own seeds instead of repeating the loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exponents as xp
from .energy import (
    Form,
    evaluate_J,
    evaluate_J_weak,
    make_setting,
    residual_strong,
    residual_weak_field,
    residual_weak_pairing,
)
from .grid import (
    bump_field,
    from_function,
    inner,
    integrate,
    invert_polyharmonic,
    laplacian,
    polyharmonic,
    random_smooth_field,
    sk_field,
    unit_box,
)
from .hessian_algebra import (
    shifted_trace_identity,
    sigma_k,
    sk_of_matrix,
    sk_partials,
)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite, name, passed, detail):
    return CheckResult(suite, name, bool(passed), detail)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def symmetric_fd_partials(a: np.ndarray, k: int, step: float = 1e-6) -> np.ndarray:
    """Finite-difference oracle for sk_partials.

    Perturbs a_ij and a_ji together and halves the off-diagonal quotient, per
    the symmetric-perturbation convention of the algebra module.
    """
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            plus = sk_of_matrix(a + step * e, k)
            minus = sk_of_matrix(a - step * e, k)
            d = (plus - minus) / (2.0 * step)
            if i != j:
                d *= 0.5
            out[i, j] = d
            out[j, i] = d
    return out


def eigen_oracle_error(rng: np.random.Generator, count: int) -> float:
    """Worst relative gap of sk_of_matrix to sigma_k of the eigenvalues (sides 2..6, every k)."""
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        eig = np.linalg.eigvalsh(a)
        for k in range(0, n + 1):
            ref = sigma_k(eig, k)
            worst = max(worst, abs(sk_of_matrix(a, k) - ref) / max(abs(ref), 1.0))
    return worst


def shifted_trace_error(rng: np.random.Generator, count: int) -> float:
    """Worst scaled gap between the sides of the shifted-trace identity (sides 2..6)."""
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        mu = float(rng.uniform(-2.0, 2.0))
        k = int(rng.integers(1, n + 1))
        lhs, rhs = shifted_trace_identity(a, mu, k)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def fd_partials_error(rng: np.random.Generator, count: int) -> float:
    """Worst absolute gap of sk_partials to its finite-difference oracle (sides 2..4)."""
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 5))
        a = _random_symmetric(rng, n)
        k = int(rng.integers(1, n + 1))
        fd = symmetric_fd_partials(a, k)
        worst = max(worst, float(np.max(np.abs(sk_partials(a, k) - fd))))
    return worst


def homogeneity_error(rng: np.random.Generator, count: int) -> float:
    """Worst relative defect of Euler's sum_ij A_ij S_k^ij = k sigma_k(A) (sides 2..6)."""
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = _random_symmetric(rng, n)
        k = int(rng.integers(1, n + 1))
        lhs = float(np.sum(a * sk_partials(a, k)))
        rhs = k * sk_of_matrix(a, k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst


def suite_algebra(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    rows = []
    for name, check, count, tol, what in (
        ("eigen_oracle_equivalence", eigen_oracle_error, 1000, "1e-10", "rel err"),
        ("shifted_trace_identity", shifted_trace_error, 1000, "1e-9", "scaled err"),
        ("cofactor_derivative_fd", fd_partials_error, 200, "1e-7", "abs err"),
        ("degree_k_homogeneity", homogeneity_error, 200, "1e-10", "rel err"),
    ):
        worst = check(rng, count)  # in this order, on the one generator
        rows.append(_result("algebra", name, worst < float(tol),
                            f"worst {what} {worst:.3e} (tol {tol})"))
    return rows


def suite_exponents(seed: int = 0) -> list[CheckResult]:
    rows = []
    alpha_ok = True
    closed_ok = True
    pstar_ok = True
    duality_ok = True
    endpoint_ok = True
    order_ok = True
    for n in range(2, 31):
        for k in range(2, n + 1):
            params = xp.ProblemParams(n, k)
            am = xp.alpha_main(params)
            aw = xp.alpha_weak(params)
            if am < 2 or aw < 2:
                alpha_ok = False
            if aw > am:
                order_ok = False
            regime = xp.classify_regime(params)
            if regime is xp.Regime.SUPER:
                if n % 2 == 0:
                    closed = (n + 2) // 2
                elif k <= (2 * n) // 3:
                    closed = (n + 1) // 2
                else:
                    closed = (n + 3) // 2
                if am != closed:
                    closed_ok = False
            ex = xp.lebesgue_exponents(params)
            if regime is xp.Regime.SUB and not (1 < ex.p_star < 1.5):
                pstar_ok = False
            if ex.q_star is not None and (1 / ex.p_star + 1 / ex.q_star) != 1:
                duality_ok = False
        if n % 2 == 0 and n >= 4:
            params = xp.ProblemParams(n, n // 2)
            if xp.alpha_weak(params) != xp.alpha_main(params):
                endpoint_ok = False
    rows.append(_result("exponents", "alpha_lower_bound", alpha_ok, "alpha >= 2 on N <= 30"))
    rows.append(_result("exponents", "super_closed_forms", closed_ok,
                        "even/odd closed forms reproduce alpha_main"))
    rows.append(_result("exponents", "p_star_window", pstar_ok, "1 < p* < 3/2 in SUB"))
    rows.append(_result("exponents", "holder_duality", duality_ok, "1/p* + 1/q* == 1 exactly"))
    rows.append(_result("exponents", "critical_endpoint", endpoint_ok,
                        "alpha_weak(N, N/2) == alpha_main(N, N/2), even N"))
    rows.append(_result("exponents", "weak_below_main", order_ok, "alpha_weak <= alpha_main"))
    return rows


def divergence_values(dim: int, k: int, node_counts,
                      radius: float = 0.45) -> tuple[list[float], list[float]]:
    """|integrate(S_k[bump])| across a refinement ladder, with the spacings.

    The standard bump for this check fills the box (radius 0.45 on the unit
    box): the profile's steep shoulder is the resolution bottleneck, and the
    larger radius puts the most grid points across it.
    """
    values = []
    spacings = []
    for n in node_counts:
        dom = unit_box(dim, n)
        psi = bump_field(dom, (0.5,) * dim, radius, 1.0, k)
        values.append(abs(integrate(sk_field(psi, k))))
        spacings.append(1.0 / (n + 1))
    return values, spacings


def observed_order(values, spacings) -> float:
    """Least-squares slope of log(value) against log(h) over the ladder."""
    logs_v = np.log(np.asarray(values, dtype=float))
    logs_h = np.log(np.asarray(spacings, dtype=float))
    slope = np.polyfit(logs_h, logs_v, 1)[0]
    return float(slope)


def suite_grid(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    rows = []
    dom = unit_box(2, 32)

    u = random_smooth_field(dom, rng, amplitude=1.0, ghost_width=2)
    w = random_smooth_field(dom, rng, amplitude=1.0, ghost_width=2)
    lhs = inner(w, laplacian(u))
    rhs = inner(u, laplacian(w))
    scale = max(abs(lhs), abs(rhs), 1.0)
    err = abs(lhs - rhs) / scale
    rows.append(_result("grid", "laplacian_self_adjoint", err < 1e-12,
                        f"scaled defect {err:.3e} (tol 1e-12)"))

    a, b = 0.7, -1.3
    combo = laplacian(a * u + b * w)
    split = a * laplacian(u) + b * laplacian(w)
    err = float(np.max(np.abs(combo.values - split.values)))
    err /= max(float(np.max(np.abs(split.values))), 1.0)
    rows.append(_result("grid", "stencil_linearity", err < 1e-13,
                        f"scaled defect {err:.3e}"))

    quad = inner(u, polyharmonic(u, 2))
    rows.append(_result("grid", "biharmonic_form_psd", quad >= 0.0,
                        f"quadratic form value {quad:.3e}"))

    v = random_smooth_field(dom, rng, amplitude=1.0, ghost_width=4)
    forward = polyharmonic(invert_polyharmonic(v, 2), 2)  # (-1)^2 Delta^2 = (-Delta)^2
    err = float(np.max(np.abs(forward.values - v.values)))
    err /= max(float(np.max(np.abs(v.values))), 1.0)
    rows.append(_result("grid", "sine_inverse_roundtrip", err < 1e-10,
                        f"scaled defect {err:.3e}"))

    vals2, hs2 = divergence_values(2, 2, (32, 64, 128))
    order2 = observed_order(vals2, hs2)
    rows.append(_result("grid", "divergence_structure_2d", order2 >= 1.5,
                        f"observed order {order2:.2f} over n=32..128 (need >= 1.5)"))
    # the profile's shoulder is unresolved below ~50 nodes/axis in 3-D, so the
    # asymptotic ladder starts at n=48 (see the acceptance notes)
    ok3 = True
    det3 = []
    for k in (2, 3):
        vals3, hs3 = divergence_values(3, k, (48, 64, 96))
        order3 = observed_order(vals3, hs3)
        det3.append(f"k={k}: {order3:.2f}")
        ok3 = ok3 and order3 >= 1.5
    rows.append(_result("grid", "divergence_structure_3d", ok3,
                        "observed orders over n=48..96: " + "; ".join(det3)
                        + " (need >= 1.5)"))
    return rows


def consistency_worst_errors(seed: int = 0, pairs: int = 50,
                             n: int = 64, lam: float = 0.05,
                             eps: float = 1e-5) -> tuple[float, float]:
    """Worst relative mismatch of the strong/weak pairings against central
    finite differences of the respective actions over a seeded pair family.

    Test fields are smooth two-mode combinations of moderate amplitude; the
    mismatch being measured is the O(h^2) discrete-divergence defect, which
    grows steeply with amplitude and mode content.  Pairs are over-drawn and
    those whose directional derivative falls below a fifth of the family
    median are dropped: a relative comparison is ill-conditioned at a zero of
    the denominator, not evidence about the pairing.
    """
    rng = np.random.default_rng(seed)
    dom = unit_box(2, n)
    f = from_function(dom, lambda x, y: np.ones_like(x), ghost_width=2)
    params = xp.ProblemParams(2, 2)
    s = make_setting(params, lam, f)
    s_weak = make_setting(params, lam, f, form=Form.WEAK)
    cands = []
    for _ in range(2 * pairs):
        u = random_smooth_field(dom, rng, modes=2, amplitude=0.025, ghost_width=2)
        w = random_smooth_field(dom, rng, modes=2, amplitude=0.025, ghost_width=2)
        pairing = inner(residual_strong(u, s), w)
        fd = (evaluate_J(u + eps * w, s) - evaluate_J(u - eps * w, s)) / (2 * eps)
        pairing_w = residual_weak_pairing(u, w, s_weak)
        fd_w = (evaluate_J_weak(u + eps * w, s_weak)
                - evaluate_J_weak(u - eps * w, s_weak)) / (2 * eps)
        cands.append((pairing, fd, pairing_w, fd_w))
    med = float(np.median([abs(c[1]) for c in cands]))
    kept = [c for c in cands if abs(c[1]) >= 0.2 * med][:pairs]
    worst_strong = max(abs(p - fd) / abs(fd) for p, fd, _, _ in kept)
    worst_weak = max(abs(pw - fdw) / abs(fdw) for _, _, pw, fdw in kept)
    return worst_strong, worst_weak


def suite_energy(seed: int = 0, pairs: int = 50) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    rows = []
    dom = unit_box(2, 64)
    f = from_function(dom, lambda x, y: np.ones_like(x), ghost_width=2)
    params = xp.ProblemParams(2, 2)
    s_weak = make_setting(params, 0.05, f, form=Form.WEAK)

    worst_strong, worst_weak = consistency_worst_errors(seed=seed, pairs=pairs)
    rows.append(_result("energy", "gradient_consistency_strong", worst_strong < 1e-4,
                        f"worst rel err {worst_strong:.3e} (tol 1e-4)"))
    rows.append(_result("energy", "gradient_consistency_weak", worst_weak < 1e-4,
                        f"worst rel err {worst_weak:.3e} (tol 1e-4)"))

    u = random_smooth_field(dom, rng, amplitude=0.5, ghost_width=2)
    worst = 0.0
    for _ in range(10):
        w = random_smooth_field(dom, rng, amplitude=0.5, ghost_width=2)
        lhs = residual_weak_pairing(u, w, s_weak)
        rhs = inner(residual_weak_field(u, s_weak), w)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    rows.append(_result("energy", "weak_riesz_identity", worst < 1e-12,
                        f"worst scaled defect {worst:.3e} (tol 1e-12)"))
    return rows


SUITES = {
    "algebra": suite_algebra,
    "exponents": suite_exponents,
    "grid": suite_grid,
    "energy": suite_energy,
}


def run_suites(names=None, seed: int = 0) -> list[CheckResult]:
    chosen = list(SUITES) if not names else list(names)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return [row for name in chosen for row in SUITES[name](seed)]
