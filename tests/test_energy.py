"""Action evaluation, residual pairings, truncation, minorant, and witnesses."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polyhess import (
    EnergySetting,
    Form,
    GeometryError,
    ProblemParams,
    bump_field,
    calibrate,
    cutoff,
    energy_report,
    evaluate_H,
    evaluate_J,
    evaluate_J_weak,
    fit_minorant,
    from_function,
    geometry_witnesses,
    inner,
    invert_polyharmonic,
    make_setting,
    minorant_geometry,
    random_smooth_field,
    residual_strong,
    residual_weak_field,
    residual_weak_pairing,
    seminorm,
    sk_field,
    unit_box,
    zeros,
)
from polyhess.cli import build_setting, load_config
import polyhess.energy as energy
from polyhess.energy import _sign
from polyhess.energy import action, euler_lagrange, nonlinear, nonlinear_jacobian, residual
from polyhess.grid import (
    BoxDomain, ScalarField, divergence_centered, gradient_centered, hessian, hessian_entries,
    laplacian_power, polyharmonic, seminorm_of,
)
from polyhess.hessian_algebra import entry_table, newton_flux, sk_of_entries, stack_of_entries
from polyhess.verify import consistency_worst_errors

from conftest import (
    constant_datum, flagship_setting, minorant_h, partials_polynomial_loop,
    sampled_minorant_family,
)

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def s64():
    return flagship_setting(64)


@pytest.fixture(scope="module")
def s64w():
    return flagship_setting(64, form=Form.WEAK)


def test_setting_validation():
    dom = unit_box(2, 16)
    f = constant_datum(dom)
    params = ProblemParams(2, 2)
    # an alpha off the formula value (2 here) is an override, read off alpha
    s = EnergySetting(params, alpha=3, lam=0.1, f=f)
    assert s.alpha == 3 and s.alpha_overridden
    assert not EnergySetting(params, alpha=2, lam=0.1, f=f).alpha_overridden
    with pytest.raises(TypeError):  # no flag can claim an override at the formula value
        EnergySetting(params, alpha=2, lam=0.1, f=f, alpha_overridden=True)
    with pytest.raises(ValueError):
        EnergySetting(params, alpha=1, lam=0.1, f=f)
    assert make_setting(params, 0.1, f).alpha_overridden is False
    assert make_setting(params, 0.1, f, alpha=4).alpha_overridden is True


def test_trivial_energies(s64):
    dom = s64.f.domain
    assert evaluate_J(zeros(dom), s64) == 0.0
    assert evaluate_J_weak(zeros(dom), s64) == 0.0
    rep = energy_report(zeros(dom), s64)
    assert rep.J == rep.quadratic_term == rep.datum_term == rep.nonlinear_term == 0.0


def test_energy_report_term_orientation(s64):
    rng = np.random.default_rng(31)
    u = random_smooth_field(s64.f.domain, rng, amplitude=0.3)
    rep = energy_report(u, s64)
    assert rep.J == pytest.approx(
        rep.quadratic_term - rep.datum_term - rep.nonlinear_term, rel=1e-12)
    assert rep.J == pytest.approx(evaluate_J(u, s64), rel=1e-12)
    assert rep.seminorm == pytest.approx(seminorm(u, s64.alpha))
    assert rep.form == "strong"


@pytest.mark.parametrize("dim, n", [(2, 24), (3, 12)], ids=["2d", "3d"])
@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_action_entry_points_agree_exactly(dim, n, form):
    # every entry point evaluates J through the same stencil images and terms
    dom = unit_box(dim, n)
    s = make_setting(ProblemParams(dim, 2), 0.05, constant_datum(dom), form=form)
    rng = np.random.default_rng(35)
    fields = [random_smooth_field(dom, rng, amplitude=a)
              for a in (0.3, 1.0, 2.5)]
    for u in fields:
        j = action(u, s)
        r = seminorm(u, s.alpha)
        assert energy_report(u, s).J == j
        assert energy_report(u, s).seminorm == r
        assert evaluate_H(u, s, 2.0 * r, 3.0 * r) == j


def test_residual_strong_trivials(s64):
    dom = s64.f.domain
    s0 = flagship_setting(64, lam=0.0)
    assert np.all(residual_strong(zeros(dom), s0).values == 0.0)
    r = residual_strong(zeros(dom), s64)
    assert np.allclose(r.values, -s64.lam * s64.f.values)


def test_residual_weak_trivials(s64w):
    dom = s64w.f.domain
    rng = np.random.default_rng(32)
    w = random_smooth_field(dom, rng)
    s0 = flagship_setting(64, lam=0.0, form=Form.WEAK)
    assert residual_weak_pairing(zeros(dom), w, s0) == 0.0
    val = residual_weak_pairing(zeros(dom), w, s64w)
    assert val == pytest.approx(-s64w.lam * inner(s64w.f, w), rel=1e-12)


def test_weak_riesz_representative_exact(s64w):
    rng = np.random.default_rng(33)
    dom = s64w.f.domain
    u = random_smooth_field(dom, rng, amplitude=0.5)
    g = residual_weak_field(u, s64w)
    for _ in range(20):
        w = random_smooth_field(dom, rng, amplitude=0.5)
        lhs = residual_weak_pairing(u, w, s64w)
        assert abs(lhs - inner(g, w)) <= 1e-12 * max(abs(lhs), 1.0)


def test_gradient_consistency_small():
    worst_strong, worst_weak = consistency_worst_errors(seed=5, pairs=10)
    assert worst_strong < 1e-4
    assert worst_weak < 1e-4


def test_weak_matches_strong_under_refinement():
    params = ProblemParams(2, 2)
    diffs = []
    hs = []
    for n in (32, 64, 128):
        dom = unit_box(2, n)
        s = make_setting(params, 0.05, constant_datum(dom))
        psi = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 1)
        diffs.append(abs(evaluate_J_weak(psi, s) - evaluate_J(psi, s)))
        hs.append(1.0 / (n + 1))
    order = math.log(diffs[0] / diffs[2]) / math.log(hs[0] / hs[2])
    assert order >= 1.5



@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (3, 3)])
def test_weak_flux_and_density_match_einsum_contraction(n, k):
    nodes, extent = ((40, 33), (1.0, 1.5)) if n == 2 else ((15, 12, 13), (1.0, 0.7, 1.2))
    dom = BoxDomain(nodes=nodes, extent=extent)
    u = random_smooth_field(dom, np.random.default_rng(31), modes=4, amplitude=2.0)
    s = make_setting(ProblemParams(n, k), 0.05, constant_datum(dom), form=Form.WEAK)
    grads, hess = gradient_centered(u), hessian(u)
    g = np.moveaxis(grads, 0, -1)
    partials = partials_polynomial_loop(hess, k)
    flux_ref = np.moveaxis(np.einsum("...ij,...j->...i", partials, g), -1, 0)
    density_ref = np.einsum("...ab,...a,...b->...", partials, g, g)
    nl_ref = -(-1.0) ** k / ((k + 1) * k) * dom.cell_volume * float(density_ref.sum())
    flux = newton_flux(grads, hessian_entries(u), k)
    assert np.max(np.abs(flux - flux_ref)) <= 1e-13 * np.max(np.abs(flux_ref))
    assert energy_report(u, s).nonlinear_term == pytest.approx(nl_ref, rel=1e-13)


def _flux_k2_closed_form(grads, ents):
    """The k = 2 flux as first written: S_2 = sigma_1 I - A on the entries."""
    flux = sk_of_entries(ents, 1) * grads
    table = entry_table(grads.shape[0])
    for a in range(grads.shape[0]):
        for b in range(grads.shape[0]):
            flux[a] -= ents[table[a, b]] * grads[b]
    return flux


@pytest.mark.parametrize("n", [2, 3])
def test_flux_recursion_is_the_k2_closed_form_bitwise(n):
    """For k = 2 the Newton-tensor recursion performs the closed form's
    operations in its order, and it leaves the caller's gradient alone."""
    nodes, extent = ((40, 33), (1.0, 1.5)) if n == 2 else ((15, 12, 13), (1.0, 0.7, 1.2))
    dom = BoxDomain(nodes=nodes, extent=extent)
    rng = np.random.default_rng(33)
    for _ in range(3):
        u = random_smooth_field(dom, rng, modes=4, amplitude=2.0)
        grads, ents = gradient_centered(u), hessian_entries(u)
        before = grads.copy()
        assert np.array_equal(newton_flux(grads, ents, 2), _flux_k2_closed_form(grads, ents))
        assert np.array_equal(grads, before)


def _divergence_per_component_gradient(flux, dom):
    """The weak divergence as first written: a full centered gradient of each
    flux component, of which one axis is kept."""
    div = np.zeros(dom.nodes)
    for a in range(dom.dim):
        div += gradient_centered(ScalarField(dom, flux[a]))[a]
    return div


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (3, 3)])
def test_divergence_centered_equals_per_component_gradient(n, k):
    nodes, extent = ((40, 33), (1.0, 1.5)) if n == 2 else ((15, 12, 13), (1.0, 0.7, 1.2))
    dom = BoxDomain(nodes=nodes, extent=extent)
    u = random_smooth_field(dom, np.random.default_rng(32), modes=4, amplitude=2.0)
    flux = newton_flux(gradient_centered(u), hessian_entries(u), k)
    assert np.array_equal(divergence_centered(flux, dom),
                          _divergence_per_component_gradient(flux, dom))


def test_nonlinear_term_homogeneity(s64, s64w):
    dom = s64.f.domain
    u = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 1)
    def nl(v, s):
        return energy_report(v, s).nonlinear_term

    base_s = nl(u, s64)
    base_w = nl(u, s64w)
    for t in (0.5, 2.0, 7.0):
        assert nl(t * u, s64) == pytest.approx(t**3 * base_s, rel=1e-12)
        assert nl(t * u, s64w) == pytest.approx(t**3 * base_w, rel=1e-12)


def test_J_scan_in_t_lambda_zero():
    s0 = flagship_setting(64, lam=0.0)
    psi = calibrate(s0).psi
    # sign flip under doubling (frozen from the first run of the power
    # iteration's psi, whose maximum is 1)
    t = 1.0
    while evaluate_J(t * psi, s0) >= 0.0:
        t *= 2.0
        assert t <= 2**40
    assert t == 16.0
    # small-t quadratic domination: log-log slope 2
    ts = np.logspace(-3, -1, 9)
    js = [evaluate_J(t * psi, s0) for t in ts]
    assert all(j > 0 for j in js)
    slope = np.polyfit(np.log(ts), np.log(js), 1)[0]
    assert abs(slope - 2.0) < 0.02


def test_J_axis_permutation_invariance_even_k(s64):
    rng = np.random.default_rng(34)
    u = random_smooth_field(s64.f.domain, rng, amplitude=0.4)
    ut = ScalarField(u.domain, u.values.T.copy())
    assert evaluate_J(ut, s64) == pytest.approx(evaluate_J(u, s64), rel=1e-13)


def test_evaluate_H_truncation(s64):
    dom = s64.f.domain
    psi = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 2)
    small = psi * (0.005 / seminorm(psi, 2))
    assert evaluate_H(small, s64, 0.01, 0.02) == evaluate_J(small, s64)
    big = psi  # seminorm far above R1
    report = energy_report(big, s64)
    expected = report.quadratic_term - report.datum_term
    assert evaluate_H(big, s64, 0.01, 0.02) == pytest.approx(expected, rel=1e-14)
    assert evaluate_H(zeros(dom), s64, 0.01, 0.02) == 0.0


def test_cutoff_profile():
    assert cutoff(0.5, 1.0, 2.0) == 1.0
    assert cutoff(1.0, 1.0, 2.0) == 1.0
    assert cutoff(2.0, 1.0, 2.0) == 0.0
    assert cutoff(2.5, 1.0, 2.0) == 0.0
    assert 0.0 < cutoff(1.5, 1.0, 2.0) < 1.0


def test_radial_minorant_formula():
    """R0 is a zero of h(R) = R^2/2 - C1 R - C2 R^(k+1) to roundoff (the
    bisection oracle below checks R_M and h_max)."""
    m = minorant_geometry(0.01, 0.1, 2)
    assert (m.C1, m.C2, m.k) == (0.01, 0.1, 2)
    assert minorant_h(m.R0, m) == pytest.approx(0.0, abs=1e-15)


def _lambda_zero_coefficients(name):
    if name == "unit_box(2, 8), alpha = 4":
        s = make_setting(ProblemParams(2, 2), 0.0, constant_datum(unit_box(2, 8)), alpha=4)
    elif name == "flagship n = 32":
        s = flagship_setting(32, lam=0.0)
    else:
        s = make_setting(ProblemParams(3, 3), 0.0, constant_datum(unit_box(3, 16)))
    return calibrate(s).geometry(0.0)


@pytest.mark.parametrize("name", ["unit_box(2, 8), alpha = 4", "flagship n = 32"])
def test_r0_at_lambda_zero_is_the_closed_form_root(name):
    """At lambda = 0 C1 sits at its 1e-12 floor, far below C2, where the
    companion-matrix roots of h(R)/R lose R0's relative accuracy (57x too
    large on the 8 x 8 box); for k = 2 R0 is 4 C1 / (1 + sqrt(1 - 16 C1 C2))."""
    m = _lambda_zero_coefficients(name)
    assert m.k == 2 and m.C1 == 1e-12
    closed = 4.0 * m.C1 / (1.0 + math.sqrt(1.0 - 16.0 * m.C1 * m.C2))
    assert m.R0 == pytest.approx(closed, rel=1e-15, abs=0.0)


def test_r0_at_lambda_zero_is_a_root_to_roundoff_for_k3():
    """On the 16^3 (3, 3) setting at lambda = 0, g(R) = R/2 - C1 - C2 R^3
    vanishes at R0 to roundoff in C1."""
    m = _lambda_zero_coefficients("16^3 (3, 3)")
    assert m.k == 3
    r0 = m.R0
    assert abs(0.5 * r0 - m.C1 - m.C2 * r0 ** 3) <= 4.0 * np.finfo(float).eps * m.C1


@pytest.mark.parametrize("k", [2, 3])
def test_minorant_geometry_against_bisection_oracle(k):
    geom = minorant_geometry(0.01, 0.1, k)

    def h(r):
        return 0.5 * r * r - 0.01 * r - 0.1 * r**(k + 1)

    # independent oracle: sign-change scan then bisection to 1e-10
    rs = np.linspace(0.0, 10.0, 20001)
    hs = [h(r) for r in rs]
    brackets = [(rs[i], rs[i + 1]) for i in range(len(rs) - 1)
                if hs[i] * hs[i + 1] < 0]
    roots = []
    for lo, hi in brackets:
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if h(lo) * h(mid) <= 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-10:
                break
        roots.append(0.5 * (lo + hi))
    assert len(roots) == 2
    assert geom.R0 == pytest.approx(roots[0], abs=1e-8)
    assert roots[0] < geom.R1 < geom.R_M < roots[1]
    assert geom.h_max > 0
    assert h(geom.R_M) == pytest.approx(geom.h_max, rel=1e-10)
    # R_M is where h' vanishes
    assert geom.R_M - 0.01 - 0.1 * (k + 1) * geom.R_M**k == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k, c2", [(2, 0.1), (3, 0.1), (3, 1e-4)])
@pytest.mark.parametrize("rel", [-1e-8, -1e-15, -4e-16, 0.0, 1e-12])
def test_minorant_geometry_flat_hump(k, c2, rel):
    """C1 at the edge where h's hump is flat (h_max at roundoff): ordered
    radii with h_max > 0, or a GeometryError, and nothing else.  At k = 3,
    C2 = 1e-4 and rel = -4e-16 the roots of h(R)/R near R_M come back as a
    complex pair although h_max > 0."""
    r_star = (1.0 / (2 * k * c2)) ** (1.0 / (k - 1))  # argmax of h(R)/R
    c1 = 0.5 * r_star * (1.0 - 1.0 / k) * (1.0 + rel)  # h(R)/R peaks at 0 there
    try:
        geom = minorant_geometry(c1, c2, k)
    except GeometryError as exc:
        assert str(exc)
        return
    assert 0.0 < geom.R0 < geom.R1 < geom.R_M
    assert geom.h_max > 0.0


def test_minorant_geometry_infeasible_when_c1_large():
    with pytest.raises(GeometryError):
        minorant_geometry(10.0, 0.1, 2)


def test_fit_minorant_properties(s64):
    fit = calibrate(s64).geometry(s64.lam)
    assert fit.C1 > 0 and fit.C2 > 0
    # lambda = 0 family: no datum term, C1 collapses to the positivity floor
    s0 = flagship_setting(64, lam=0.0)
    fit0 = calibrate(s0).geometry(s0.lam)
    assert fit0.C1 <= 1e-11
    # doubling lambda doubles C1 (same fixed family)
    s2 = flagship_setting(64, lam=0.1)
    fit2 = calibrate(s2).geometry(s2.lam)
    assert fit2.C1 == pytest.approx(2.0 * fit.C1, rel=1e-12)
    assert fit2.C2 == pytest.approx(fit.C2, rel=1e-12)


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("dom", [unit_box(2, 32), unit_box(3, 16),
                                 BoxDomain(nodes=(16, 64), extent=(1.0, 4.0))],
                         ids=["2d", "3d", "elongated"])
def test_c1_is_the_cauchy_schwarz_bound(monkeypatch, dom, alpha):
    """int f u = <G f, u>_alpha for every alpha, so C1 / |lambda| is
    int f G f / |G f|_alpha, the largest int f u / |u|_alpha, with no
    margin; a zero datum gives the floor."""
    rng = np.random.default_rng(26)
    lam = 0.05
    s = make_setting(ProblemParams(dom.dim, 2), lam, random_smooth_field(dom, rng), alpha=alpha)
    c1 = calibrate(s).geometry(lam).C1
    gf = invert_polyharmonic(s.f, alpha)
    bound = inner(s.f, gf) / seminorm(gf, alpha)
    assert c1 / lam == pytest.approx(bound, rel=1e-12, abs=0.0)
    for _ in range(4):
        u = random_smooth_field(dom, rng, modes=5)
        assert abs(inner(s.f, u)) / seminorm(u, alpha) <= bound * (1.0 + 1e-12)
    seen = []
    geometry = energy.minorant_geometry
    monkeypatch.setattr(energy, "minorant_geometry",
                        lambda c1, *args: seen.append(c1) or geometry(c1, *args))
    with pytest.raises(GeometryError, match="datum"):
        calibrate(replace(s, f=zeros(dom))).geometry(lam)
    assert seen == [energy._C_FLOOR * (1.0 + lam)]


@pytest.mark.parametrize("form", ["strong", "weak"])
@pytest.mark.parametrize("name, datum", [("ma2d.cfg", "constant"), ("ma2d.cfg", "gaussian"),
                                         ("ma2d.cfg", "checker"), ("hess3d.cfg", "constant"),
                                         ("hess3d_k3.cfg", "constant")])
def test_fit_minorant_bounds_phi1_and_the_sampled_family(name, datum, form):
    """N(u) <= C2 |u|^(k+1), and so J(u) >= h(|u|), for +-G f / max|G f|,
    the center bump and +-phi_1, phi_1 the lowest sine mode (the fixed
    fields C2 was once fitted on), and for every field the random sample
    family drew at seeds 0-9 (48 each): the power iteration's C2 bounds
    what the fixed fields and the draws found."""
    cfg = replace(load_config(_CONFIGS / name), form=form, datum_kind=datum, datum_width=0.15)
    s = build_setting(cfg)
    k = s.params.k
    m = calibrate(s).geometry(s.lam)
    c2 = m.C2
    dom = s.f.domain
    phi1 = from_function(dom, lambda *x: math.prod(
        np.sin(np.pi * xa / ext) for xa, ext in zip(x, dom.extent)))
    gf = invert_polyharmonic(s.f, s.alpha)
    gf = gf * (1.0 / float(np.max(np.abs(gf.values))))
    bump = bump_field(dom, tuple(0.5 * e for e in dom.extent), 0.3 * min(dom.extent), 1.0, k)
    fields = [gf, -gf, bump, -bump, phi1, -phi1] + [u for seed in range(10)
                       for u in sampled_minorant_family(s, np.random.default_rng(seed))]
    for u in fields:
        rep = energy_report(u, s)
        assert rep.nonlinear_term <= c2 * rep.seminorm ** (k + 1)
        assert rep.J >= minorant_h(rep.seminorm, m) - 1e-12 * max(abs(rep.J), 1.0)


def _calibration_case(name, form):
    if name == "flagship32":
        return flagship_setting(32, form=Form(form))
    return build_setting(replace(load_config(_CONFIGS / name), form=form))


@pytest.mark.parametrize("form", ["strong", "weak"])
@pytest.mark.parametrize("name", ["flagship32", "hess3d.cfg", "hess3d_k3.cfg"])
def test_negated_fields_give_negated_images_bit_for_bit(name, form):
    """For the power iteration's start, the center bump, and for psi,
    N(-u) = (-1)^(k+1) N(u) and |-u| = |u| with ``==``: one image bundle
    serves both signs, and psi, for even k an iterate negated when its
    q < 0, has C2 = 1.25 q(psi) bit for bit."""
    s = _calibration_case(name, form)
    k = s.params.k
    dom = s.f.domain
    bump = bump_field(dom, tuple(0.5 * e for e in dom.extent), 0.3 * min(dom.extent), 1.0, k)
    c2, psi = fit_minorant(s)
    for u in (bump, psi):
        a, b = energy._images(u, s), energy._images(-u, s)
        assert energy._nonlinear(b, s) == _sign(k + 1) * energy._nonlinear(a, s)
        assert seminorm_of(b[1], dom) == seminorm_of(a[1], dom)
    images = energy._images(psi, s)
    q = energy._nonlinear(images, s) / seminorm_of(images[1], dom) ** (k + 1)
    assert c2 == energy._FIT_MARGIN * q > 0.0


@pytest.mark.parametrize("form", ["strong", "weak"])
@pytest.mark.parametrize("name", ["flagship32", "hess3d_k3.cfg"])
def test_calibration_builds_one_image_bundle_per_field(monkeypatch, name, form):
    """The center bump and its ``_POWER_STEPS`` power steps: one image
    bundle, so one Hessian pass, per iterate, each step reading N from the
    entries its bundle built, and none more for psi, one of the iterates."""
    s = _calibration_case(name, form)
    built, entries = [], []
    images, hessian = energy._images, energy.hessian_entries

    def counted(u, *args, **kwargs):
        built.append(u)
        return images(u, *args, **kwargs)

    monkeypatch.setattr(energy, "_images", counted)
    monkeypatch.setattr(energy, "hessian_entries", lambda u: entries.append(u) or hessian(u))
    psi = calibrate(s).psi
    assert len(built) == len(entries) == energy._POWER_STEPS + 1
    assert any(psi.values.tobytes() in (u.values.tobytes(), (-u).values.tobytes())
               for u in built)


def test_truncation_confines_negative_levels(s64):
    # discrete restatement of the confinement property: whenever the fitted
    # minorant certifies h >= 0 on [R0, R1], a negative truncated level
    # forces the seminorm inside the R0 ball
    geom = calibrate(s64).geometry(s64.lam)
    assert minorant_h(geom.R0, geom) == pytest.approx(0.0, abs=1e-9)
    assert minorant_h(geom.R1, geom) > 0.0
    for u in sampled_minorant_family(s64, np.random.default_rng(43), 24):
        for t in (1e-3, 0.3, 1.0, 3.0):
            v = t * u
            if evaluate_H(v, s64, geom.R0, geom.R1) < 0.0:
                assert seminorm(v, s64.alpha) < geom.R0


def test_small_ball_nonnegative_at_lambda_zero():
    s0 = flagship_setting(64, lam=0.0)
    for u in sampled_minorant_family(s0, np.random.default_rng(44), 16):
        sn = seminorm(u, s0.alpha)
        if sn == 0.0:
            continue
        for t in (1e-4, 1e-3, 1e-2):
            assert evaluate_J((t / sn) * u, s0) >= 0.0


def test_geometry_witnesses_all_cases():
    # flagship 2-D even k
    s = flagship_setting(64)
    cal = calibrate(s)
    psi = cal.psi
    assert np.array_equal(psi.values, geometry_witnesses(s)[1].values)
    # re-verify the certificates independently: psi, and the datum witness
    # phi = sign(lambda) G f, whose lambda int f phi the check reads as
    # |lambda| <f, G f>, bit for bit
    assert inner(psi, sk_field(psi, 2)) > 0.0  # (-1)^2 = +1
    for lam in (0.05, -0.05):
        phi = invert_polyharmonic(s.f, s.alpha) * (1.0 if lam > 0 else -1.0)
        assert lam * inner(s.f, phi) == abs(lam) * cal.datum_pairing > 0.0
        # negative lambda flips phi's sign but keeps the pairing positive
        cal.geometry(lam)
    # lambda = 0 needs no datum witness
    cal.geometry(0.0)
    # a zero datum at nonzero lambda has no datum witness
    sz = make_setting(ProblemParams(2, 2), 0.05, zeros(s.f.domain))
    calz = calibrate(sz)
    calz.geometry(0.0)
    with pytest.raises(GeometryError, match="datum"):
        calz.geometry(sz.lam)
    # odd k in 3-D
    dom3 = unit_box(3, 16)
    s3 = make_setting(ProblemParams(3, 3), 0.05, constant_datum(dom3))
    psi3 = calibrate(s3).psi
    assert -inner(psi3, sk_field(psi3, 3)) > 0.0  # (-1)^3 = -1


def test_domain_mismatch_errors(s64):
    other = zeros(unit_box(2, 32))
    with pytest.raises(ValueError):
        evaluate_J(other, s64)


@pytest.mark.parametrize("form, dim, k", [
    (Form.STRONG, 2, 2), (Form.WEAK, 2, 2),
    (Form.STRONG, 3, 2), (Form.WEAK, 3, 2), (Form.STRONG, 3, 3), (Form.WEAK, 3, 3),
], ids=["strong", "weak", "strong-3d-k2", "weak-3d-k2", "strong-3d-k3", "weak-3d-k3"])
def test_residual_jacobian_matches_central_difference(form, dim, k):
    # The Newton Jacobian I - N'(G w) G of the residual in w reads the
    # nonlinear term's derivative N'.  N is a polynomial of degree k in u.
    # For k = 2 the central difference D(eps) equals the Jacobian action up
    # to roundoff; for k = 3 its error is c eps^2, which
    # (4 D(eps/2) - D(eps)) / 3 cancels exactly.  Its start, the
    # Euler-Lagrange assembly with w = (-1)^alpha Delta_h^alpha u, is the
    # stencil residual bit for bit (alpha = 3 on the (3, 3) settings).
    if dim == 2:
        s = flagship_setting(32, form=form)
    else:
        dom = unit_box(3, 12)
        s = make_setting(ProblemParams(3, k), 0.05, constant_datum(dom), form=form)
    dom = s.f.domain
    rng = np.random.default_rng(3)
    eps = 1e-3

    def central(u, v, e):
        return (nonlinear(u + e * v, s) - nonlinear(u - e * v, s)) / (2.0 * e)

    for _ in range(3):
        u = random_smooth_field(dom, rng, amplitude=0.5)
        v = random_smooth_field(dom, rng, amplitude=0.5)
        w, r = euler_lagrange(u, s)
        assert w.tobytes() == ((-1) ** s.alpha * polyharmonic(u, s.alpha).values).tobytes()
        assert r.values.tobytes() == residual(u, s).values.tobytes()
        jv = nonlinear_jacobian(u, s)(v.values)
        fd = central(u, v, eps)
        if k == 3:
            fd = (4.0 * central(u, v, 0.5 * eps) - fd) / 3.0
        assert np.max(np.abs(jv - fd)) <= 1e-7 * np.max(np.abs(fd))


def _strong_action_by_einsum(u, s, v_vals):
    """The strong nonlinear term's Jacobian action as first written: the
    node-major gradient matrices of sigma_k (by the power series) contracted
    with the Hessian of v by ``np.einsum``."""
    k = s.params.k
    ents_v = hessian_entries(ScalarField(u.domain, v_vals))
    partials = partials_polynomial_loop(hessian(u), k)
    return _sign(k) * np.einsum("...ab,...ab->...", partials, stack_of_entries(ents_v))


@pytest.mark.parametrize("nodes, k", [
    ((128, 128), 2), ((64, 64), 2), ((40, 33), 2), ((24, 24, 24), 2), ((15, 12, 13), 3),
])
def test_strong_jacobian_action_equals_einsum_contraction(nodes, k):
    """The action read through the Newton tensor equals the einsum
    contraction of the power-series gradient: bit for bit on 2-D grids, where
    its two-level sum is einsum's order, and to 1e-14 relative in 3-D."""
    dom = BoxDomain(nodes=nodes)
    s = make_setting(ProblemParams(len(nodes), k), 0.05, constant_datum(dom))
    rng = np.random.default_rng(len(nodes) + k)
    for _ in range(3):
        u = random_smooth_field(dom, rng, modes=4, amplitude=2.0)
        v = rng.standard_normal(nodes)
        got = nonlinear_jacobian(u, s)(v)
        want = _strong_action_by_einsum(u, s, v)
        if len(nodes) == 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
