"""Energy functional, residuals, truncation, radial minorant, and geometry witnesses.

Sign conventions.  With k the Hessian order and alpha the polyharmonic order,
the action evaluated here is

    J[u] = quadratic - datum - nonlinear,

    quadratic = 1/2 * int |half_order(u, alpha)|^2 = 1/2 <u, (-Delta_h)^alpha u>
    datum     = lambda * int f u
    nonlinear = (-1)^k/(k+1) * int u S_k[u]                  (pointwise form)
              = -(-1)^k/((k+1)k) * sum_ij int u_i u_j S_k^ij  (divergence form)

so the ``nonlinear_term`` reported for either form always enters J with a
minus sign.  For every alpha the quadratic term is, to roundoff, the form
of the residual's linear operator (``grid.half_order``), so |u|_alpha^2 =
<u, (-Delta_h)^alpha u> and int f u = <G f, u>_alpha.  In the continuum the
two nonlinear terms agree after integration by parts; discretely they
differ by O(h^2), tracked by refinement tests rather than eliminated.

The strong residual is the pointwise Euler-Lagrange field

    (-1)^alpha Delta^alpha u - (-1)^k S_k[u] - lambda f,

whose zeros are discrete solutions of the boundary value problem.
The weak residual is the Riesz representative (w.r.t. the plain grid inner
product) of the divergence-form first-variation pairing; pairing and
representative agree to roundoff by construction.

Neither residual is the exact gradient of the corresponding discrete energy:
the discrete divergence structure of S_k holds only to O(h^2).  Directional-
derivative consistency is therefore asserted at a 1e-4 relative tolerance on
smooth moderate-amplitude fields, not to roundoff.

One evaluation path.  ``_images`` computes a field's linear stencil images
(node values, half-order components, the Hessian's unique entries
component-first, and in the divergence form the centered gradient), and
``_terms`` turns images into the quadratic, datum and nonlinear terms.
``evaluate_J``, ``evaluate_J_weak``, ``energy_report``, ``evaluate_H``,
``fit_minorant``, ``geometry_witnesses`` and ``ray_polynomial`` go through
these two, and the seminorm they report or cut off is taken from the same
half-order components, so equal inputs give bit-identical values in all.
Every image is linear in the field, so J(base + t v) is a polynomial of
degree k + 1 in t in both forms: ``ray_polynomial`` fixes it from its
values at k + 2 points, read from the images of base and v as a + t b, and
``polynomial_peak`` finds its highest local maximum.
Both residuals and Newton's residual in the source w = (-1)^alpha
Delta^alpha u share one assembly, ``euler_lagrange``: w - N(u) - lambda f.
Wherever the Hessian entries are computed (``_images``, ``euler_lagrange``,
the weak pairing), the first Laplacian is their diagonal, through
``grid.laplacian_power``, bit for bit equal to the stencil's.

The Newton tensor T_{k-1}(Hu), the derivative of sigma_k at Hu, comes from
one kernel, ``hessian_algebra.newton_flux``: F_a = sum_b S_k^{ab}[u] g_b
from the Hessian entries (for k = 2, sigma_1 g_a - sum_b A_ab g_b).  The
weak action's density sum_a F_a u_a, residual, pairing and Jacobian apply
it to gradients; the strong Jacobian applies it once to the identity,
whose flux is T itself.

Hessian layout.  Everything above reads the entries (``hessian_entries``):
sigma_k and the flux read whole contiguous planes, and a value on a ray
combines d(d+1)/2 planes instead of d^2 strided ones; no node-major stack
is built.

The truncation is ``cutoff``, the quintic smoothstep between R0 and R1; it
is exactly 1 inside the R0 ball, where ``evaluate_H`` equals the action.

Mountain-pass geometry from exact forms: the minorant h is a polynomial, so
its radii come from ``polynomial_peak`` and the roots of h(R)/R, and the
datum witness is phi = sign(lambda) G f, G the sine-basis inverse of
(-Delta)^alpha.  C2 and psi, the minimax's first direction, come from one
nonlinear power iteration v <- G N(v) / max|G N(v)| from the center bump,
whose fixed points up to scale are the critical points of q = N(v) /
|v|_alpha^(k+1) on the sphere, the lambda = 0 mountain-pass solution among
them; it draws no random number, so a solve reads none.  The images of -v
are those of v negated, bit for bit, so |-v| = |v| and N(-v) = (-1)^(k+1)
N(v): each iterate's images are built once and read for both signs.

Lambda enters the action only through the datum term lambda int f u, so the
stencil work of the geometry is lambda-free and done once, by ``calibrate``,
into a ``Calibration``: ``geometry_witnesses`` runs the iteration and
picks psi, ``fit_minorant`` reads C2 off q(psi), and <f, G f> is the
datum term's pairing.  The lambda step, ``Calibration.geometry``, reads no
field: C1 = |lambda| sqrt(<f, G f>), the Cauchy-Schwarz supremum of
lambda int f u / |u|_alpha, the radii of ``minorant_geometry``, and the
datum check lambda int f phi = |lambda| <f, G f> > 0, bit for bit, with no
phi built.  An iteration that found no psi is kept as psi = None and raised
after the minorant's own checks, as when each lambda calibrated on its own.

Form dispatch.  This module makes every strong-versus-weak choice:
``Form.alpha_formula`` gives each form's regime alpha, and ``action``,
``ray_polynomial``, ``residual``, ``euler_lagrange``, ``nonlinear`` and
``nonlinear_jacobian`` select the form's action, its polynomial along a ray,
residual, Euler-Lagrange assembly, nonlinear term N and the Jacobian action
of N for the solvers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import CapabilityError, GeometryError
from .exponents import ProblemParams, alpha_main, alpha_weak
from .grid import (
    ScalarField,
    bump_field,
    divergence_centered,
    gradient_centered,
    hessian_entries,
    half_order,
    invert_polyharmonic,
    laplacian_power,
    seminorm_of,
)
from .hessian_algebra import entry_table, newton_flux, sk_of_entries


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

    An ``alpha`` other than the regime formula's value for the chosen form
    is an override, reported by ``alpha_overridden`` so runs stay auditable.
    The weak form admits no override.  A problem dimension N other than the
    datum's box dimension raises a ``CapabilityError``: no grid exists for it.
    """

    params: ProblemParams
    alpha: int
    lam: float
    f: ScalarField
    form: Form = Form.STRONG

    def __post_init__(self):
        if self.params.N != self.f.domain.dim:
            raise CapabilityError(
                f"problem dimension N={self.params.N} has no grid support "
                f"(datum lives on a {self.f.domain.dim}-D box; boxes exist for dim 2 and 3 only)"
            )
        if self.alpha < 2:
            raise ValueError(f"alpha={self.alpha} violates the sharp bound alpha >= 2")
        if self.form is Form.WEAK and self.alpha_overridden:
            raise ValueError(
                f"weak runs use alpha={self.form.alpha_formula(self.params)} for "
                f"(N, k)=({self.params.N}, {self.params.k}); drop the alpha override")
        sym = self.f.domain.sine_symbol  # its alpha-th power divides the sine inverse
        with np.errstate(over="ignore", under="ignore"):
            if not 0.0 < sym.min() ** self.alpha <= sym.max() ** self.alpha < np.inf:
                raise ValueError(f"the box's sine symbol to the power {self.alpha} is 0 or inf")

    @property
    def alpha_overridden(self) -> bool:
        return self.alpha != self.form.alpha_formula(self.params)

    def check_field(self, u: ScalarField):
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


def _sign(n: int) -> float:
    """(-1)^n."""
    return -1.0 if n % 2 else 1.0


# Every value of J goes through these two: the linear stencil images of a
# field, and the terms of J read from images (of a field, or combined from
# the images of two fields along a ray).

def _images(u: ScalarField, s: EnergySetting, form: Form | None = None) -> tuple:
    """(node values, half-order components, Hessian entries, centered
    gradient) of ``u``; the gradient is None unless ``form`` (default: the
    setting's) is weak.  The half-order components equal ``half_order(u,
    alpha)`` bit for bit, their first Laplacian read off the entries."""
    s.check_field(u)
    weak = (form or s.form) is Form.WEAK
    ents = hessian_entries(u)
    lap = laplacian_power(u, ents, s.alpha // 2)
    # odd alpha: the forward differences of Delta^((alpha-1)/2) u on the edges
    comps = lap.values[None] if s.alpha % 2 == 0 else half_order(lap, 1)
    return (u.values, comps, ents, gradient_centered(u) if weak else None)


def _terms(images: tuple, s: EnergySetting) -> tuple[float, float, float]:
    """(quadratic, datum, nonlinear) terms of J from ``_images`` output."""
    u_vals, comps, _, _ = images
    vol = s.f.domain.cell_volume
    quad = 0.5 * vol * float(np.vdot(comps, comps))
    return quad, s.lam * _datum_pairing(u_vals, s), _nonlinear(images, s)


def _datum_pairing(u_vals: np.ndarray, s: EnergySetting) -> float:
    """int f u, the datum term without its lambda."""
    return float(s.f.domain.cell_volume * np.vdot(s.f.values, u_vals))


def _nonlinear(images: tuple, s: EnergySetting) -> float:
    """The nonlinear term of J from ``_images`` output: the pointwise form
    without a gradient, the divergence form with one."""
    u_vals, _, ents, grads = images
    k = s.params.k
    vol = s.f.domain.cell_volume
    if grads is None:
        return _sign(k) / (k + 1) * float(vol * np.vdot(u_vals, sk_of_entries(ents, k)))
    # density sum_a F_a g_a, summed over the nodes
    density = np.vdot(newton_flux(grads, ents, k), grads)
    return -_sign(k) / ((k + 1) * k) * (vol * float(density))


def _J_of(images: tuple, s: EnergySetting) -> float:
    quad, datum, nl = _terms(images, s)
    return quad - datum - nl


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


def _nonlinear_field(u: ScalarField, ents: np.ndarray, s: EnergySetting,
                     form: Form) -> np.ndarray:
    """N(u) in ``form`` from the Hessian entries ``ents`` of ``u``."""
    k = s.params.k
    if form is Form.WEAK:
        flux = newton_flux(gradient_centered(u), ents, k)
        return _sign(k) / k * divergence_centered(flux, u.domain)
    return _sign(k) * sk_of_entries(ents, k)


def euler_lagrange(u: ScalarField, s: EnergySetting, w: np.ndarray | None = None,
                   form: Form | None = None) -> tuple[np.ndarray, ScalarField]:
    """(w, R = w - N(u) - lambda f) in ``form`` (default: the setting's);
    w is (-1)^alpha Delta_h^alpha u unless passed in, as Newton on the
    source does with ``u`` = G w."""
    s.check_field(u)
    ents = hessian_entries(u)
    if w is None:
        w = _sign(s.alpha) * laplacian_power(u, ents, s.alpha).values
    r = w - _nonlinear_field(u, ents, s, form or s.form) - s.lam * s.f.values
    return w, ScalarField(u.domain, r)


def residual_strong(u: ScalarField, s: EnergySetting) -> ScalarField:
    """(-1)^alpha Delta^alpha u - (-1)^k S_k[u] - lambda f."""
    return euler_lagrange(u, s, form=Form.STRONG)[1]


def residual_weak_pairing(u: ScalarField, w: ScalarField, s: EnergySetting) -> float:
    """First-variation pairing of the divergence-form action against a test field."""
    s.check_field(u)
    s.check_field(w)
    k = s.params.k
    ents = hessian_entries(u)
    linear = _sign(s.alpha) * laplacian_power(u, ents, s.alpha).values - s.lam * s.f.values
    flux = newton_flux(gradient_centered(u), ents, k)
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
    return euler_lagrange(u, s, form=Form.WEAK)[1]


def action(u: ScalarField, s: EnergySetting) -> float:
    """Action value of the setting's form."""
    return _J_of(_images(u, s), s)


def ray_polynomial(base: ScalarField, s: EnergySetting):
    """The action of the setting's form along rays from ``base``, as a polynomial.

    Returns ``coefs(v)``, the coefficients, lowest degree first, of
    t -> J(base + t v): every stencil image is linear, so this is the
    polynomial of degree k + 1 through its values at ``linspace(0, 2, k + 2)``.
    The images a of ``base`` and J(base) = ``action(base)`` are computed here
    once, those of ``v`` once per call, and each value at t > 0 through
    ``_J_of`` from a + t b in buffers that every call reuses; only sigma_k (or
    the flux) and the reductions run per t.
    """
    k = s.params.k
    ts = np.linspace(0.0, 2.0, k + 2)
    a = _images(base, s)
    j_base = _J_of(a, s)
    x = tuple(None if p is None else np.empty_like(p) for p in a)

    def coefs(v: ScalarField) -> np.ndarray:
        b = _images(v, s)
        values = np.full(len(ts), j_base)
        for j in range(1, len(ts)):
            for p, q, y in zip(a, b, x):
                if p is not None:  # y = a + t b
                    np.multiply(q, ts[j], out=y)
                    np.add(p, y, out=y)
            values[j] = _J_of(x, s)
        return npoly.polyfit(ts, values, k + 1)
    return coefs


def polynomial_peak(coefs: np.ndarray) -> tuple[float, float] | None:
    """(t, value) of the highest local maximum at t > 0 of the polynomial
    with coefficients ``coefs`` (lowest degree first), or None when it has
    none: the peak of J along a ray, and the radial minorant's maximum."""
    slope = npoly.polyder(coefs)
    roots = npoly.polyroots(slope)
    ts = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
    ts = ts[npoly.polyval(ts, npoly.polyder(slope)) < 0.0]
    if ts.size == 0:
        return None
    values = npoly.polyval(ts, coefs)
    top = int(np.argmax(values))
    return float(ts[top]), float(values[top])


def residual(u: ScalarField, s: EnergySetting) -> ScalarField:
    """Residual field of the setting's form."""
    if s.form is Form.WEAK:
        return residual_weak_field(u, s)
    return residual_strong(u, s)


def nonlinear(u: ScalarField, s: EnergySetting) -> np.ndarray:
    """N(u) = (-1)^k S_k[u], or (-1)^k/k div F in the divergence form, with
    (-Delta_h)^alpha u = N(u) + lambda f: evaluated directly, since the
    stencil minus the residual cancels."""
    s.check_field(u)
    return _nonlinear_field(u, hessian_entries(u), s, s.form)


def nonlinear_jacobian(u: ScalarField, s: EnergySetting):
    """Jacobian action v -> N'(u) v of the setting's ``nonlinear``, on node arrays.

    The pointwise form reads d sigma_k(Hu)[Hv] = sum_ab T_ab (Hv)_ab off the
    Newton tensor T = T_{k-1}(Hu), built once as ``newton_flux`` of the
    identity.  The divergence form linearizes the flux F(g, H) =
    ``newton_flux``, linear in the gradient g and of degree k - 1 <= 2 in H:
    F(grad v, Hu) + (F(grad u, Hu + Hv) - F(grad u, Hu - Hv)) / 2, where the
    half difference is the exact H-derivative of a quadratic.
    """
    dom = u.domain
    k = s.params.k
    sign_k = _sign(k)
    ents_u = hessian_entries(u)
    if s.form is Form.STRONG:
        dim = dom.dim
        table = entry_table(dim)
        eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
        tensor = newton_flux(eye, ents_u, k)  # [a, b] = T_ab

        def apply(v_vals: np.ndarray) -> np.ndarray:
            ents_v = hessian_entries(ScalarField(dom, v_vals))
            # sum_a (sum_b T_ab (Hv)_ab), both sums in index order: for 2 x 2
            # blocks einsum's (p00 + p01) + (p10 + p11), bit for bit
            dsk = None
            for a in range(dim):
                row = tensor[a, 0] * ents_v[table[a, 0]]
                for b in range(1, dim):
                    row += tensor[a, b] * ents_v[table[a, b]]
                dsk = row if dsk is None else np.add(dsk, row, out=dsk)
            return sign_k * dsk
        return apply

    grads_u = gradient_centered(u)

    def apply(v_vals: np.ndarray) -> np.ndarray:
        v = ScalarField(dom, v_vals)
        ents_v = hessian_entries(v)
        dflux = newton_flux(gradient_centered(v), ents_u, k) + 0.5 * (
            newton_flux(grads_u, ents_u + ents_v, k) - newton_flux(grads_u, ents_u - ents_v, k))
        return sign_k / k * divergence_centered(dflux, dom)
    return apply


def cutoff(r: float, R0: float, R1: float) -> float:
    """Radial cutoff: exactly 1.0 on [0, R0], exactly 0.0 on [R1, inf), and
    between them the quintic smoothstep (C^2, monotone) rescaled to [R0, R1]."""
    x = min(max((r - R0) / (R1 - R0), 0.0), 1.0)
    return 1.0 - x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def evaluate_H(u: ScalarField, s: EnergySetting, R0: float, R1: float) -> float:
    """Truncated action: quadratic and datum terms kept, nonlinear term scaled
    by the cutoff of the seminorm.  Coincides with the action inside the R0 ball."""
    images = _images(u, s)
    quad, datum, nl = _terms(images, s)
    return quad - datum - cutoff(seminorm_of(images[1], u.domain), R0, R1) * nl


@dataclass(frozen=True)
class MinorantGeometry:
    """The radial lower bound h(R) = R^2/2 - C1 R - C2 R^(k+1) and its radii:
    lower zero R0, cutoff edge R1, maximizer R_M, and the positive maximum
    value."""

    C1: float
    C2: float
    k: int
    R0: float
    R1: float
    R_M: float
    h_max: float


def minorant_geometry(C1: float, C2: float, k: int) -> MinorantGeometry:
    """(R_M, h_max) from ``polynomial_peak``; R0, the smaller root of the
    concave g(R) = h(R)/R, g(0) = -C1 < 0 < g(R_M), by Newton from R = 0 to
    the first iterate that does not climb, exact to roundoff even at the C1
    floor.  A ``GeometryError`` when the positive hump does not exist (the
    smallness condition on lambda fails) or is too flat to resolve."""
    coefs = np.r_[0.0, -C1, 0.5, np.zeros(k - 2), -C2]
    peak = polynomial_peak(coefs)
    if peak is None:
        raise GeometryError("fitted minorant has no positive hump (h' <= 0 everywhere); "
                            "reduce lambda")
    r_m, h_max = peak
    if h_max <= 0.0:
        raise GeometryError("fitted minorant maximum is nonpositive; the two-level "
                            "geometry is absent at this lambda — reduce lambda")
    r0, nxt = -1.0, 0.0
    while nxt > r0:  # past g's top (slope <= 0) there is no zero to climb to
        r0, slope = nxt, 0.5 - k * C2 * nxt ** (k - 1)
        nxt = r0 - (0.5 * r0 - C1 - C2 * r0 ** k) / slope if slope > 0.0 else np.inf
    r1 = 0.5 * (r0 + r_m)
    if not r0 < r1 < r_m:
        raise GeometryError("fitted minorant has no real zero below its maximizer R_M "
                            "(the hump is flat to roundoff); reduce lambda")
    return MinorantGeometry(C1=C1, C2=C2, k=k, R0=r0, R1=r1, R_M=r_m, h_max=h_max)


# safety factor on C2: the power iteration's largest q is a lower estimate
# of sup q, read at a computed critical point, not a bound
_FIT_MARGIN = 1.25
_C_FLOOR = 1e-12
_POWER_STEPS = 10


def geometry_witnesses(s: EnergySetting) -> tuple[float, ScalarField | None]:
    """(q, psi): over the iterates v of the nonlinear power iteration
    v <- G N(v) / max|G N(v)| in the setting's form, from the center bump
    of radius 0.3 min(extent), over ``_POWER_STEPS`` steps, psi is the v,
    or for even k the -v, with the largest q = N(v) / |v|_alpha^(k+1) > 0;
    (0.0, None) when no iterate has N(v) > 0, or the bump is zero at every
    node (on a long, coarse box).

    The lambda = 0 mountain-pass solution is, up to scale, a fixed point:
    a critical point of q on the sphere.  N(-v) = (-1)^(k+1) N(v) bit for
    bit, so for odd k the sign cannot help.  Each step reads N from the
    Hessian entries its image bundle already built."""
    dom = s.f.domain
    k = s.params.k
    v = bump_field(dom, tuple(0.5 * e for e in dom.extent), 0.3 * min(dom.extent), 1.0, k)
    best = (0.0, None)
    for step in range(_POWER_STEPS + 1):
        images = _images(v, s)
        r = seminorm_of(images[1], dom)
        if r == 0.0:
            break
        q = _nonlinear(images, s) / r ** (k + 1)
        if k % 2 == 0 and -q > best[0]:
            best = (-q, -v)
        elif q > best[0]:
            best = (q, v)
        if step == _POWER_STEPS:
            break
        gn = invert_polyharmonic(ScalarField(dom, _nonlinear_field(v, images[2], s, s.form)),
                                 s.alpha)
        top = float(np.max(np.abs(gn.values)))
        if top == 0.0:
            break
        v = gn * (1.0 / top)
    return best


def fit_minorant(s: EnergySetting) -> tuple[float, ScalarField | None]:
    """(C2, psi), psi from ``geometry_witnesses``.

    The datum and nonlinear terms are homogeneous of degree 1 and k+1 in the
    field, so the bound along every ray splits into two termwise ratios:
    C1 is exact at each lambda (``Calibration.geometry``), and C2 is the
    margin times q(psi), the largest ratio N(v) / |v|^(k+1) the power
    iteration reached (the floor when psi is None).  -N(psi) is the t^(k+1)
    coefficient of J along the minimax's first ray u_m + t psi.  The
    setting's lambda is not read.
    """
    q, psi = geometry_witnesses(s)
    return max(_FIT_MARGIN * q, _C_FLOOR), psi


@dataclass(frozen=True)
class Calibration:
    """The lambda-free part of the mountain-pass geometry, shared by every
    setting that differs only in lambda (built by ``calibrate``): C2 and
    psi, the minimax's first ray direction (``fit_minorant``; psi is None
    when no iterate has a positive nonlinear term), and <f, G f>."""

    k: int
    C2: float
    datum_pairing: float
    psi: ScalarField | None

    def geometry(self, lam: float) -> MinorantGeometry:
        """The geometry at ``lam``, or a ``GeometryError`` from the first of
        its checks that fails: the minorant's hump, psi, then the datum
        witness phi = sign(lambda) G f, whose lambda int f phi is
        |lambda| <f, G f>.  C1 is |lambda| sqrt(<f, G f>), with no margin:
        int f u = <G f, u>_alpha, so by Cauchy-Schwarz |G f|_alpha =
        sqrt(<f, G f>) is the supremum of int f u / |u|_alpha over every
        field, reached at G f."""
        c1 = max(abs(lam) * math.sqrt(max(self.datum_pairing, 0.0)),
                 _C_FLOOR * (1.0 + abs(lam)))
        geom = minorant_geometry(c1, self.C2, self.k)
        if self.psi is None:
            raise GeometryError("no iterate of the nonlinear power iteration from the "
                                "center bump has a positive nonlinear term")
        if lam != 0.0 and not abs(lam) * self.datum_pairing > 0.0:
            raise GeometryError("lambda * int f phi is not positive: the datum is zero "
                                "(or too small to pair with lambda), so no datum witness exists")
        return geom


def calibrate(s: EnergySetting) -> Calibration:
    """The calibration of ``s`` (its lambda is not read)."""
    c2, psi = fit_minorant(s)
    gf = invert_polyharmonic(s.f, s.alpha)
    return Calibration(s.params.k, c2, _datum_pairing(gf.values, s), psi)


def make_setting(params: ProblemParams, lam: float, f: ScalarField,
                 form: Form = Form.STRONG, alpha: int | None = None) -> EnergySetting:
    """Convenience constructor applying the regime formula when alpha is omitted."""
    if alpha is None:
        alpha = form.alpha_formula(params)
    return EnergySetting(params=params, alpha=alpha, lam=lam, f=f, form=form)


def with_lambda(s: EnergySetting, lam: float) -> EnergySetting:
    return replace(s, lam=lam)
