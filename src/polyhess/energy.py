"""Energy functional, residuals, truncation, radial minorant, and geometry witnesses.

Sign conventions.  With k the Hessian order and alpha the polyharmonic order,
the action evaluated here is

    J[u] = quadratic - datum - nonlinear,

    quadratic = 1/2 * int |half_order(u, alpha)|^2
    datum     = lambda * int f u
    nonlinear = (-1)^k/(k+1) * int u S_k[u]                  (pointwise form)
              = -(-1)^k/((k+1)k) * sum_ij int u_i u_j S_k^ij  (divergence form)

so the ``nonlinear_term`` reported for either form always enters J with a
minus sign.  In the continuum the two nonlinear terms agree after
integration by parts; discretely they differ by O(h^2), tracked by
refinement tests rather than eliminated.

The strong residual is the pointwise Euler-Lagrange field

    (-1)^alpha Delta^alpha u - (-1)^k S_k[u] - lambda f,

whose zeros are discrete solutions of the clamped boundary value problem.
The weak residual is the Riesz representative (w.r.t. the plain grid inner
product) of the divergence-form first-variation pairing; pairing and
representative agree to roundoff by construction.

Neither residual is the exact gradient of the corresponding discrete energy:
the discrete divergence structure of S_k holds only to O(h^2).  Directional-
derivative consistency is therefore asserted at a 1e-4 relative tolerance on
smooth moderate-amplitude fields, not to roundoff.

One evaluation path.  ``_images`` computes a field's linear stencil images
(node values, half-order components, Hessian, and in the divergence form
the centered gradient), and ``_terms`` turns images into the quadratic,
datum and nonlinear terms.  ``evaluate_J``, ``evaluate_J_weak``,
``energy_report``, ``evaluate_H``, ``fit_minorant`` and every sample of
``segment_actions`` go through these two, and the seminorm they report or
cut off is taken from the same half-order components, so equal inputs give
bit-identical values in all of them.  Both residuals share one
Euler-Lagrange assembly, (-1)^alpha Delta^alpha u - nonlinear - lambda f.

The weak form has one flux definition, ``_flux_of``: F_a = sum_b
S_k^{ab}[u] u_b from the Hessian and gradient components (for k = 2,
sigma_1 g_a - sum_b A_ab g_b, with no sigma_k gradient matrix).  The weak
action's density sum_a F_a u_a, the weak residual's divergence and the
weak pairing all use it.

The truncation ``CutoffSpec`` is the quintic smoothstep between R0 and R1;
it is exactly 1 inside the R0 ball, where ``evaluate_H`` equals the action.

Form dispatch.  This module makes every strong-versus-weak choice:
``Form.alpha_formula`` gives each form's regime alpha, and ``action``,
``segment_actions``, ``residual`` and ``residual_jacobian`` select the
form's action, its values along a discrete path, residual and Jacobian
action for the solvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import CapabilityError, FitError, GeometryError
from .exponents import ProblemParams, alpha_main, alpha_weak
from .grid import (
    ScalarField,
    bump_field,
    divergence_centered,
    gradient_centered,
    hessian,
    half_order,
    inner,
    invert_polyharmonic,
    polyharmonic,
    random_smooth_field,
    seminorm_of,
    sk_field,
    zeros,
)
from .hessian_algebra import sk_of_stack, sk_partials_stack


class Form(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"

    @property
    def alpha_formula(self):
        """The regime formula giving this form's alpha (``alpha_weak`` or ``alpha_main``)."""
        return alpha_weak if self is Form.WEAK else alpha_main


@dataclass(frozen=True)
class EnergySetting:
    """Everything needed to evaluate the action and its residuals.

    ``alpha`` must match the regime formula for the chosen form unless
    ``alpha_overridden`` is set; the flag is recorded so runs stay auditable.
    The weak form admits no override.
    """

    params: ProblemParams
    alpha: int
    lam: float
    f: ScalarField
    form: Form = Form.STRONG
    alpha_overridden: bool = False

    def __post_init__(self):
        if self.alpha < 2:
            raise ValueError(f"alpha={self.alpha} violates the sharp bound alpha >= 2")
        expected = self.form.alpha_formula(self.params)
        if self.form is Form.WEAK and self.alpha != expected:
            raise ValueError(
                f"weak runs use alpha={expected} for "
                f"(N, k)=({self.params.N}, {self.params.k}); drop the alpha override")
        if not self.alpha_overridden and self.alpha != expected:
            raise ValueError(
                f"alpha={self.alpha} differs from the regime formula value {expected}; "
                "pass alpha_overridden=True to keep it"
            )

    def validate_grid(self):
        if self.params.N != self.f.domain.dim:
            raise CapabilityError(
                f"problem dimension N={self.params.N} has no grid support "
                f"(datum lives on a {self.f.domain.dim}-D box; boxes exist for dim 2 and 3 only)"
            )

    def check_field(self, u: ScalarField):
        self.validate_grid()
        if u.domain != self.f.domain:
            raise ValueError("field and datum live on different domains")


@dataclass(frozen=True)
class EnergyReport:
    J: float
    quadratic_term: float
    datum_term: float
    nonlinear_term: float
    seminorm: float
    form: str

    def to_json_dict(self) -> dict:
        return {
            "J": self.J,
            "quadratic_term": self.quadratic_term,
            "datum_term": self.datum_term,
            "nonlinear_term": self.nonlinear_term,
            "seminorm": self.seminorm,
            "form": self.form,
        }


def _sign(n: int) -> float:
    """(-1)^n."""
    return -1.0 if n % 2 else 1.0


# Every value of J goes through these two: the linear stencil images of a
# field, and the terms of J read from images (of a field, or interpolated
# between the images of two fields along a path segment).

def _images(u: ScalarField, s: EnergySetting, form: Form | None = None) -> tuple:
    """(node values, half-order components, Hessian, centered gradient) of
    ``u``; the gradient is None unless ``form`` (default: the setting's) is weak."""
    s.check_field(u)
    weak = (form or s.form) is Form.WEAK
    return u.values, half_order(u, s.alpha), hessian(u), gradient_centered(u) if weak else None


def _terms(images: tuple, s: EnergySetting) -> tuple[float, float, float]:
    """(quadratic, datum, nonlinear) terms of J from ``_images`` output: the
    pointwise nonlinear term without a gradient, the divergence form with one."""
    u_vals, comps, hess, grads = images
    k = s.params.k
    vol = s.f.domain.cell_volume
    quad = 0.5 * vol * float(np.vdot(comps, comps))
    datum = s.lam * float(vol * np.vdot(s.f.values, u_vals))
    if grads is None:
        nl = _sign(k) / (k + 1) * float(vol * np.vdot(u_vals, sk_of_stack(hess, k)))
    else:
        # density sum_a F_a g_a, summed over the nodes
        nl = -_sign(k) / ((k + 1) * k) * (vol * float(np.vdot(_flux_of(grads, hess, k), grads)))
    return quad, datum, nl


def _J_of(images: tuple, s: EnergySetting) -> float:
    quad, datum, nl = _terms(images, s)
    return quad - datum - nl


def _flux_of(grads: np.ndarray, hess: np.ndarray, k: int) -> np.ndarray:
    """F_a = sum_b S_k^{ab} g_b, shape (dim,) + nodes, from the gradient
    components ``grads`` ((dim,) + nodes) and the Hessian ``hess`` (nodes + (dim, dim))."""
    if k != 2:
        return np.einsum("...ab,b...->a...", sk_partials_stack(hess, k), grads)
    # S_2 = sigma_1 I - A
    flux = sk_of_stack(hess, 1) * grads
    for a in range(grads.shape[0]):
        for b in range(grads.shape[0]):
            flux[a] -= hess[..., a, b] * grads[b]
    return flux


def evaluate_J(u: ScalarField, s: EnergySetting) -> float:
    """Pointwise-form action value."""
    return _J_of(_images(u, s, Form.STRONG), s)


def evaluate_J_weak(u: ScalarField, s: EnergySetting) -> float:
    """Divergence-form action value (agrees with evaluate_J up to O(h^2))."""
    return _J_of(_images(u, s, Form.WEAK), s)


def energy_report(u: ScalarField, s: EnergySetting) -> EnergyReport:
    images = _images(u, s)
    quad, datum, nl = _terms(images, s)
    return EnergyReport(
        J=quad - datum - nl,
        quadratic_term=quad,
        datum_term=datum,
        nonlinear_term=nl,
        seminorm=seminorm_of(images[1], u.domain),
        form=s.form.value,
    )


def _euler_lagrange(u: ScalarField, s: EnergySetting, nonlinear: np.ndarray) -> ScalarField:
    """(-1)^alpha Delta^alpha u - ``nonlinear`` - lambda f."""
    vals = _sign(s.alpha) * polyharmonic(u, s.alpha).values - nonlinear - s.lam * s.f.values
    return ScalarField(u.domain, vals, 0)


def residual_strong(u: ScalarField, s: EnergySetting) -> ScalarField:
    """(-1)^alpha Delta^alpha u - (-1)^k S_k[u] - lambda f."""
    s.check_field(u)
    k = s.params.k
    return _euler_lagrange(u, s, _sign(k) * sk_field(u, k).values)


def _weak_flux(u: ScalarField, s: EnergySetting) -> np.ndarray:
    """Components F_i = sum_j u_{x_j} S_k^{ij}[u], shape (dim,) + nodes."""
    return _flux_of(gradient_centered(u), hessian(u), s.params.k)


def residual_weak_pairing(u: ScalarField, w: ScalarField, s: EnergySetting) -> float:
    """First-variation pairing of the divergence-form action against a test field."""
    s.check_field(u)
    s.check_field(w)
    k = s.params.k
    linear = _sign(s.alpha) * polyharmonic(u, s.alpha).values - s.lam * s.f.values
    flux = _weak_flux(u, s)
    grads_w = gradient_centered(w)
    vol = u.domain.cell_volume
    return float(
        vol * (np.vdot(linear, w.values) + _sign(k) / k * np.vdot(flux, grads_w))
    )


def residual_weak_field(u: ScalarField, s: EnergySetting) -> ScalarField:
    """Riesz representative g of the weak pairing: integrate(g*w) == pairing(u, w).

    Uses the exact skew-adjointness of the centered first difference under
    zero extension, so the identity with the pairing holds to roundoff.
    """
    s.check_field(u)
    k = s.params.k
    return _euler_lagrange(
        u, s, _sign(k) / k * divergence_centered(_weak_flux(u, s), u.domain))


def action(u: ScalarField, s: EnergySetting) -> float:
    """Action value of the setting's form."""
    if s.form is Form.WEAK:
        return evaluate_J_weak(u, s)
    return evaluate_J(u, s)


def segment_actions(path: np.ndarray, ghost_width: int, s: EnergySetting,
                    ts) -> tuple[np.ndarray, np.ndarray]:
    """Action of the setting's form along a piecewise-linear path of node arrays.

    Returns ``(at_nodes, in_segments)``: ``at_nodes[i]`` is the action of
    ``path[i]`` and ``in_segments[i, j]`` that of
    ``(1 - ts[j]) * path[i] + ts[j] * path[i + 1]`` (fields declared with
    ``ghost_width``).  The half-order operator, the Hessian and the centered
    gradient are linear, so each node's images are computed once and a
    sample interpolates the images of its segment's end nodes; only sigma_k
    (or its gradient contraction) and the reductions run per sample.  Node
    values equal ``action`` bit for bit, samples agree with it to roundoff.
    The images of two nodes are alive at a time.
    """
    at_nodes = np.empty(path.shape[0])
    in_segments = np.empty((path.shape[0] - 1, len(ts)))
    prev = None
    for i, row in enumerate(path):
        cur = _images(ScalarField(s.f.domain, row, ghost_width), s)
        at_nodes[i] = _J_of(cur, s)
        if prev is not None:
            for j, t in enumerate(ts):
                in_segments[i - 1, j] = _J_of(tuple(
                    None if a is None else (1.0 - t) * a + t * b
                    for a, b in zip(prev, cur)), s)
        prev = cur
    return at_nodes, in_segments


def residual(u: ScalarField, s: EnergySetting) -> ScalarField:
    """Residual field of the setting's form."""
    if s.form is Form.WEAK:
        return residual_weak_field(u, s)
    return residual_strong(u, s)


def residual_jacobian(u: ScalarField, s: EnergySetting):
    """Jacobian action v -> R'(u) v of the setting's residual, on node arrays.

    The pointwise-form Jacobian acts through the sigma_k gradient matrices.
    The divergence form linearizes the flux F(g, H) = ``_flux_of``, linear in
    the gradient g and of degree k - 1 <= 2 in the Hessian H:
    F(grad v, Hu) + (F(grad u, Hu + Hv) - F(grad u, Hu - Hv)) / 2, where the
    half difference is the exact H-derivative of a quadratic.
    """
    dom = u.domain
    alpha = s.alpha
    k = s.params.k
    sign_a = _sign(alpha)
    sign_k = _sign(k)
    hess_u = hessian(u)

    if s.form is Form.STRONG:
        partials = sk_partials_stack(hess_u, k)

        def apply(v_vals: np.ndarray) -> np.ndarray:
            v = ScalarField(dom, v_vals, u.ghost_width)
            dsk = np.einsum("...ab,...ab->...", partials, hessian(v))
            return sign_a * polyharmonic(v, alpha).values - sign_k * dsk
        return apply

    grads_u = gradient_centered(u)

    def apply(v_vals: np.ndarray) -> np.ndarray:
        v = ScalarField(dom, v_vals, u.ghost_width)
        hess_v = hessian(v)
        dflux = _flux_of(gradient_centered(v), hess_u, k) + 0.5 * (
            _flux_of(grads_u, hess_u + hess_v, k) - _flux_of(grads_u, hess_u - hess_v, k))
        return (sign_a * polyharmonic(v, alpha).values
                - sign_k / k * divergence_centered(dflux, dom))
    return apply


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff: 1 on [0, R0], 0 on [R1, inf), and between them the
    quintic smoothstep (C^2, monotone) rescaled to [R0, R1]."""

    R0: float
    R1: float

    def __post_init__(self):
        if not 0.0 < self.R0 < self.R1:
            raise ValueError(f"need 0 < R0 < R1, got R0={self.R0}, R1={self.R1}")

    def profile(self, r: float) -> float:
        """Exactly 1.0 for r <= R0 and exactly 0.0 for r >= R1."""
        x = min(max((r - self.R0) / (self.R1 - self.R0), 0.0), 1.0)
        return 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def evaluate_H(u: ScalarField, s: EnergySetting, c: CutoffSpec) -> float:
    """Truncated action: quadratic and datum terms kept, nonlinear term scaled
    by the cutoff of the seminorm.  Coincides with the action inside the R0 ball."""
    images = _images(u, s)
    quad, datum, nl = _terms(images, s)
    return quad - datum - c.profile(seminorm_of(images[1], u.domain)) * nl


@dataclass(frozen=True)
class MinorantCoefficients:
    """Constants of the radial lower bound h(R) = R^2/2 - C1 R - C2 R^(k+1)."""

    C1: float
    C2: float
    k: int

    def __post_init__(self):
        if self.C1 <= 0 or self.C2 <= 0:
            raise ValueError("minorant constants must be positive")
        if self.k < 2:
            raise ValueError("k must be >= 2")


def radial_minorant(R: float, m: MinorantCoefficients) -> float:
    if R < 0:
        raise ValueError("R must be nonnegative")
    return 0.5 * R * R - m.C1 * R - m.C2 * R ** (m.k + 1)


@dataclass(frozen=True)
class MinorantGeometry:
    """Radii extracted from the minorant: lower zero R0, cutoff edge R1,
    maximizer R_M, and the positive maximum value."""

    R0: float
    R1: float
    R_M: float
    h_max: float


def _bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def minorant_geometry(m: MinorantCoefficients) -> MinorantGeometry:
    """Roots and maximizer of the fitted minorant; raises when the positive
    hump does not exist (the smallness condition on lambda fails)."""
    k = m.k
    c = (k + 1) * m.C2

    def h(r):
        return radial_minorant(r, m)

    def dh(r):
        return r - m.C1 - c * r**k

    r_peak = (1.0 / (c * k)) ** (1.0 / (k - 1))  # argmax of dh
    if dh(r_peak) <= 0.0:
        raise GeometryError(
            "fitted minorant has no positive hump (h' <= 0 everywhere); reduce lambda"
        )
    r1 = _bisect(dh, 0.0, r_peak)
    hi = r_peak
    while dh(hi) > 0.0:
        hi *= 2.0
    r_m = _bisect(dh, r_peak, hi)
    h_max = h(r_m)
    if h_max <= 0.0:
        raise GeometryError(
            "fitted minorant maximum is nonpositive; the two-level geometry "
            "is absent at this lambda — reduce lambda"
        )
    r0 = _bisect(h, r1, r_m)
    return MinorantGeometry(R0=r0, R1=0.5 * (r0 + r_m), R_M=r_m, h_max=h_max)


# safety factor applied to the fitted constants so fresh samples from the
# same family stay above the minorant
_FIT_MARGIN = 1.25
_C_FLOOR = 1e-12


def minorant_sample_family(s: EnergySetting, samples: int,
                           rng: np.random.Generator) -> list[ScalarField]:
    """Field family used to calibrate the minorant.

    Deterministic anchors (center bump of either sign, the polyharmonic
    inverse of the datum) are always included so the constants that control
    the inner ball are reproduced by every draw; the remainder are random
    bumps, smooth fields, and pairwise combinations.
    """
    dom = s.f.domain
    minext = min(dom.extent)
    center = tuple(0.5 * e for e in dom.extent)
    fam: list[ScalarField] = []
    for sign_exp in (s.params.k, s.params.k + 1):
        fam.append(bump_field(dom, center, 0.3 * minext, 1.0, sign_exp))
    pf = invert_polyharmonic(s.f, s.alpha)
    top = float(np.max(np.abs(pf.values)))
    if top > 0:
        fam.append(pf * (1.0 / top))
        fam.append(pf * (-1.0 / top))
    while len(fam) < samples:
        kind = rng.integers(0, 3)
        if kind == 0:
            c = tuple(e * rng.uniform(0.42, 0.58) for e in dom.extent)
            r = minext * rng.uniform(0.15, 0.25)
            fam.append(bump_field(dom, c, r, rng.uniform(0.5, 2.0),
                                  int(rng.integers(0, 2))))
        elif kind == 1:
            fam.append(random_smooth_field(dom, rng, modes=3,
                                           amplitude=rng.uniform(0.2, 1.5),
                                           ghost_width=s.alpha))
        else:
            if len(fam) >= 2:
                i, j = rng.integers(0, len(fam), size=2)
                fam.append(fam[int(i)] + fam[int(j)])
            else:
                fam.append(random_smooth_field(dom, rng, ghost_width=s.alpha))
    return fam[:samples]


def fit_minorant(s: EnergySetting, samples: int,
                 rng: np.random.Generator) -> MinorantCoefficients:
    """Empirical minorant constants for the sampled family and all its scalings.

    Because the datum and nonlinear terms are homogeneous of degree 1 and
    k+1 in the field, requiring the bound along every ray through a sample
    splits exactly into the two termwise ratios maximized here; a fixed
    margin then covers fresh draws from the same family.
    """
    if samples < 10:
        raise ValueError("need at least 10 samples for the minorant fit")
    s.validate_grid()
    k = s.params.k
    c1 = 0.0
    c2 = 0.0
    usable = 0
    for u in minorant_sample_family(s, samples, rng):
        images = _images(u, s)
        r = seminorm_of(images[1], u.domain)
        if r <= 0.0:
            continue
        usable += 1
        _, datum, nl = _terms(images, s)
        c1 = max(c1, datum / r)
        c2 = max(c2, nl / r ** (k + 1))
    if usable < 10:
        raise FitError("minorant fit degenerate: fewer than 10 nonzero samples")
    c1 = max(_FIT_MARGIN * c1, _C_FLOOR * (1.0 + abs(s.lam)))
    c2 = max(_FIT_MARGIN * c2, _C_FLOOR)
    return MinorantCoefficients(C1=c1, C2=c2, k=k)


@dataclass(frozen=True)
class GeometryWitnesses:
    """Fields certifying the two sign conditions of the mountain-pass geometry."""

    phi: ScalarField
    psi: ScalarField
    datum_pairing: float      # lambda * int f phi  (0 when lambda == 0)
    nonlinear_pairing: float  # (-1)^k * int psi S_k[psi]
    phi_trivial: bool


def geometry_witnesses(s: EnergySetting) -> GeometryWitnesses:
    """Construct and verify the witness fields.

    psi is the compact radial bump with the sign flip that makes
    (-1)^k int psi S_k[psi] positive; phi is a mollification of the datum,
    signed by lambda, widened until lambda int f phi is positive.
    """
    s.validate_grid()
    dom = s.f.domain
    k = s.params.k
    minext = min(dom.extent)
    center = tuple(0.5 * e for e in dom.extent)
    # Both bump orientations are tried and the quadrature decides: for odd k
    # the pairing is sign-invariant, while for even k only the positive bump
    # verifies (sigma_k of the negative-definite Hessian at the peak is then
    # positive, so the radial computation gives int psi S_k[psi] > 0 there).
    # A bump with a support margin under alpha nodes cannot be a mountain-pass
    # endpoint, which encodes boundary conditions to order alpha.
    psi = None
    psi_pairing = 0.0
    for frac in (0.3, 0.25, 0.35, 0.2, 0.4):
        for sign_exp in (k, k + 1):
            cand = bump_field(dom, center, frac * minext, 1.0, sign_exp)
            if cand.ghost_width < s.alpha:
                continue
            val = _sign(k) * inner(cand, sk_field(cand, k))
            if val > 0.0:
                psi, psi_pairing = cand, val
                break
        if psi is not None:
            break
    if psi is None:
        raise GeometryError("no bump orientation/radius produced a positive nonlinear pairing")

    if s.lam == 0.0:
        return GeometryWitnesses(zeros(dom, s.alpha), psi, 0.0, psi_pairing, True)
    sgn = 1.0 if s.lam > 0 else -1.0
    for sigma in (3.0, 6.0, 12.0, 24.0):
        smoothed = gaussian_filter(s.f.values, sigma=sigma, mode="constant")
        phi = ScalarField(dom, sgn * smoothed, s.alpha)
        val = s.lam * inner(s.f, phi)
        if val > 0.0:
            return GeometryWitnesses(phi, psi, val, psi_pairing, False)
    raise GeometryError("mollification sweep failed to produce a positive datum pairing")


def make_setting(params: ProblemParams, lam: float, f: ScalarField,
                 form: Form = Form.STRONG, alpha: int | None = None) -> EnergySetting:
    """Convenience constructor applying the regime formula when alpha is omitted."""
    expected = form.alpha_formula(params)
    if alpha is None:
        alpha = expected
    return EnergySetting(
        params=params,
        alpha=alpha,
        lam=lam,
        f=f,
        form=form,
        alpha_overridden=(alpha != expected),
    )


def with_lambda(s: EnergySetting, lam: float) -> EnergySetting:
    return replace(s, lam=lam)
