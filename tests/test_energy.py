"""Action evaluation, residual pairings, truncation, minorant, and witnesses."""

import math

import numpy as np
import pytest

from polyhess import (
    CutoffSpec,
    EnergySetting,
    Form,
    GeometryError,
    MinorantCoefficients,
    ProblemParams,
    bump_field,
    energy_report,
    evaluate_H,
    evaluate_J,
    evaluate_J_weak,
    fit_minorant,
    geometry_witnesses,
    inner,
    make_setting,
    minorant_geometry,
    radial_minorant,
    random_smooth_field,
    residual_strong,
    residual_weak_field,
    residual_weak_pairing,
    seminorm,
    unit_box,
    zeros,
)
from polyhess.energy import _flux_of, minorant_sample_family
from polyhess.energy import action, residual, residual_jacobian, segment_actions
from polyhess.grid import BoxDomain, ScalarField, divergence_centered, gradient_centered, hessian
from polyhess.hessian_algebra import sk_partials_stack
from polyhess.verify import consistency_worst_errors

from conftest import constant_datum, flagship_setting


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
    with pytest.raises(ValueError):
        EnergySetting(params, alpha=3, lam=0.1, f=f)  # formula value is 2
    s = EnergySetting(params, alpha=3, lam=0.1, f=f, alpha_overridden=True)
    assert s.alpha == 3
    with pytest.raises(ValueError):
        EnergySetting(params, alpha=1, lam=0.1, f=f, alpha_overridden=True)
    # make_setting records the override flag automatically
    assert make_setting(params, 0.1, f).alpha_overridden is False
    assert make_setting(params, 0.1, f, alpha=4).alpha_overridden is True


def test_trivial_energies(s64):
    dom = s64.f.domain
    assert evaluate_J(zeros(dom, 2), s64) == 0.0
    assert evaluate_J_weak(zeros(dom, 2), s64) == 0.0
    rep = energy_report(zeros(dom, 2), s64)
    assert rep.J == rep.quadratic_term == rep.datum_term == rep.nonlinear_term == 0.0


def test_energy_report_term_orientation(s64):
    rng = np.random.default_rng(31)
    u = random_smooth_field(s64.f.domain, rng, amplitude=0.3, ghost_width=2)
    rep = energy_report(u, s64)
    assert rep.J == pytest.approx(
        rep.quadratic_term - rep.datum_term - rep.nonlinear_term, rel=1e-12)
    assert rep.J == pytest.approx(evaluate_J(u, s64), rel=1e-12)
    assert rep.seminorm == pytest.approx(seminorm(u, s64.alpha))
    assert rep.form == "strong"
    d = rep.to_json_dict()
    assert set(d) == {"J", "quadratic_term", "datum_term", "nonlinear_term",
                      "seminorm", "form"}


@pytest.mark.parametrize("dim, n", [(2, 24), (3, 12)], ids=["2d", "3d"])
@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_action_entry_points_agree_exactly(dim, n, form):
    # every entry point evaluates J through the same stencil images and terms
    dom = unit_box(dim, n)
    s = make_setting(ProblemParams(dim, 2), 0.05, constant_datum(dom), form=form)
    rng = np.random.default_rng(35)
    fields = [random_smooth_field(dom, rng, amplitude=a, ghost_width=s.alpha)
              for a in (0.3, 1.0, 2.5)]
    at_nodes, _ = segment_actions(np.stack([u.values for u in fields]), s.alpha, s,
                                  (0.5,))
    for u, at_node in zip(fields, at_nodes):
        j = action(u, s)
        r = seminorm(u, s.alpha)
        assert energy_report(u, s).J == j
        assert energy_report(u, s).seminorm == r
        assert evaluate_H(u, s, CutoffSpec(2.0 * r, 3.0 * r)) == j
        assert at_node == j


def test_residual_strong_trivials(s64):
    dom = s64.f.domain
    s0 = flagship_setting(64, lam=0.0)
    assert np.all(residual_strong(zeros(dom, 2), s0).values == 0.0)
    r = residual_strong(zeros(dom, 2), s64)
    assert np.allclose(r.values, -s64.lam * s64.f.values)


def test_residual_weak_trivials(s64w):
    dom = s64w.f.domain
    rng = np.random.default_rng(32)
    w = random_smooth_field(dom, rng, ghost_width=2)
    s0 = flagship_setting(64, lam=0.0, form=Form.WEAK)
    assert residual_weak_pairing(zeros(dom, 2), w, s0) == 0.0
    val = residual_weak_pairing(zeros(dom, 2), w, s64w)
    assert val == pytest.approx(-s64w.lam * inner(s64w.f, w), rel=1e-12)


def test_weak_riesz_representative_exact(s64w):
    rng = np.random.default_rng(33)
    dom = s64w.f.domain
    u = random_smooth_field(dom, rng, amplitude=0.5, ghost_width=2)
    g = residual_weak_field(u, s64w)
    for _ in range(20):
        w = random_smooth_field(dom, rng, amplitude=0.5, ghost_width=2)
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
    partials = sk_partials_stack(hess, k)
    flux_ref = np.moveaxis(np.einsum("...ij,...j->...i", partials, g), -1, 0)
    density_ref = np.einsum("...ab,...a,...b->...", partials, g, g)
    nl_ref = -(-1.0) ** k / ((k + 1) * k) * dom.cell_volume * float(density_ref.sum())
    flux = _flux_of(grads, hess, k)
    assert np.max(np.abs(flux - flux_ref)) <= 1e-13 * np.max(np.abs(flux_ref))
    assert energy_report(u, s).nonlinear_term == pytest.approx(nl_ref, rel=1e-13)


def _divergence_per_component_gradient(flux, dom):
    """The weak divergence as first written: a full centered gradient of each
    flux component, of which one axis is kept."""
    div = np.zeros(dom.nodes)
    for a in range(dom.dim):
        div += gradient_centered(ScalarField(dom, flux[a], 1))[a]
    return div


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (3, 3)])
def test_divergence_centered_equals_per_component_gradient(n, k):
    nodes, extent = ((40, 33), (1.0, 1.5)) if n == 2 else ((15, 12, 13), (1.0, 0.7, 1.2))
    dom = BoxDomain(nodes=nodes, extent=extent)
    u = random_smooth_field(dom, np.random.default_rng(32), modes=4, amplitude=2.0)
    flux = _flux_of(gradient_centered(u), hessian(u), k)
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
    wit = geometry_witnesses(s0)
    psi = wit.psi
    # sign flip under doubling (frozen from the first successful run)
    t = 1.0
    while evaluate_J(t * psi, s0) >= 0.0:
        t *= 2.0
        assert t <= 2**40
    assert t == 128.0
    # small-t quadratic domination: log-log slope 2
    ts = np.logspace(-3, -1, 9)
    js = [evaluate_J(t * psi, s0) for t in ts]
    assert all(j > 0 for j in js)
    slope = np.polyfit(np.log(ts), np.log(js), 1)[0]
    assert abs(slope - 2.0) < 0.02


def test_J_axis_permutation_invariance_even_k(s64):
    rng = np.random.default_rng(34)
    u = random_smooth_field(s64.f.domain, rng, amplitude=0.4, ghost_width=2)
    ut = u.with_values(u.values.T.copy())
    assert evaluate_J(ut, s64) == pytest.approx(evaluate_J(u, s64), rel=1e-13)


def test_evaluate_H_truncation(s64):
    dom = s64.f.domain
    c = CutoffSpec(0.01, 0.02)
    psi = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 2)
    small = psi * (0.005 / seminorm(psi, 2))
    assert evaluate_H(small, s64, c) == evaluate_J(small, s64)
    big = psi  # seminorm far above R1
    report = energy_report(big, s64)
    expected = report.quadratic_term - report.datum_term
    assert evaluate_H(big, s64, c) == pytest.approx(expected, rel=1e-14)
    assert evaluate_H(zeros(dom, 2), s64, c) == 0.0


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        CutoffSpec(0.5, 0.2)
    c = CutoffSpec(1.0, 2.0)
    assert c.profile(0.5) == 1.0
    assert c.profile(2.5) == 0.0
    assert 0.0 < c.profile(1.5) < 1.0


def test_radial_minorant_formula():
    m = MinorantCoefficients(C1=0.01, C2=0.1, k=2)
    assert radial_minorant(0.0, m) == 0.0
    assert radial_minorant(2.0, m) == pytest.approx(0.5 * 4 - 0.01 * 2 - 0.1 * 8)
    # vanishing constants leave the pure quadratic (floored to stay positive)
    tiny = MinorantCoefficients(C1=1e-300, C2=1e-300, k=2)
    assert radial_minorant(2.0, tiny) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        radial_minorant(-1.0, m)
    with pytest.raises(ValueError):
        MinorantCoefficients(C1=0.0, C2=0.1, k=2)


def test_minorant_geometry_against_bisection_oracle():
    m = MinorantCoefficients(C1=0.01, C2=0.1, k=2)
    geom = minorant_geometry(m)

    def h(r):
        return 0.5 * r * r - 0.01 * r - 0.1 * r**3

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


def test_minorant_geometry_infeasible_when_c1_large():
    with pytest.raises(GeometryError):
        minorant_geometry(MinorantCoefficients(C1=10.0, C2=0.1, k=2))


def test_fit_minorant_properties(s64):
    rng = np.random.default_rng(40)
    with pytest.raises(ValueError):
        fit_minorant(s64, 5, rng)
    fit = fit_minorant(s64, 24, np.random.default_rng(40))
    assert fit.C1 > 0 and fit.C2 > 0
    # lambda = 0 family: no datum term, C1 collapses to the positivity floor
    s0 = flagship_setting(64, lam=0.0)
    fit0 = fit_minorant(s0, 24, np.random.default_rng(40))
    assert fit0.C1 <= 1e-11
    # doubling lambda doubles C1 (same seeded family)
    s2 = flagship_setting(64, lam=0.1)
    fit2 = fit_minorant(s2, 24, np.random.default_rng(40))
    assert fit2.C1 == pytest.approx(2.0 * fit.C1, rel=1e-12)
    assert fit2.C2 == pytest.approx(fit.C2, rel=1e-12)


def test_fit_minorant_verification_on_fresh_samples(s64):
    fit = fit_minorant(s64, 32, np.random.default_rng(41))
    m = fit
    fresh = minorant_sample_family(s64, 32, np.random.default_rng(97))
    for u in fresh:
        r = seminorm(u, s64.alpha)
        if r == 0.0:
            continue
        gap = evaluate_J(u, s64) - radial_minorant(r, m)
        scale = max(abs(evaluate_J(u, s64)), 1.0)
        assert gap >= -1e-12 * scale


def test_truncation_confines_negative_levels(s64):
    # discrete restatement of the confinement property: whenever the fitted
    # minorant certifies h >= 0 on [R0, R1], a negative truncated level
    # forces the seminorm inside the R0 ball
    fit = fit_minorant(s64, 24, np.random.default_rng(42))
    geom = minorant_geometry(fit)
    c = CutoffSpec(geom.R0, geom.R1)
    assert radial_minorant(geom.R0, fit) == pytest.approx(0.0, abs=1e-9)
    assert radial_minorant(geom.R1, fit) > 0.0
    for u in minorant_sample_family(s64, 24, np.random.default_rng(43)):
        for t in (1e-3, 0.3, 1.0, 3.0):
            v = t * u
            if evaluate_H(v, s64, c) < 0.0:
                assert seminorm(v, s64.alpha) < geom.R0


def test_small_ball_nonnegative_at_lambda_zero():
    s0 = flagship_setting(64, lam=0.0)
    for u in minorant_sample_family(s0, 16, np.random.default_rng(44)):
        sn = seminorm(u, s0.alpha)
        if sn == 0.0:
            continue
        for t in (1e-4, 1e-3, 1e-2):
            assert evaluate_J((t / sn) * u, s0) >= 0.0


def test_geometry_witnesses_all_cases():
    # flagship 2-D even k
    s = flagship_setting(64)
    wit = geometry_witnesses(s)
    assert wit.datum_pairing > 0.0
    assert wit.nonlinear_pairing > 0.0
    assert not wit.phi_trivial
    # re-verify the certificates independently
    from polyhess import sk_field
    assert s.lam * inner(s.f, wit.phi) > 0.0
    assert inner(wit.psi, sk_field(wit.psi, 2)) > 0.0  # (-1)^2 = +1
    # negative lambda flips phi's sign but keeps the pairing positive
    sm = flagship_setting(64, lam=-0.05)
    witm = geometry_witnesses(sm)
    assert witm.datum_pairing > 0.0
    # lambda = 0 returns the flagged trivial phi
    s0 = flagship_setting(64, lam=0.0)
    wit0 = geometry_witnesses(s0)
    assert wit0.phi_trivial
    assert np.all(wit0.phi.values == 0.0)
    assert wit0.nonlinear_pairing > 0.0
    # odd k in 3-D
    dom3 = unit_box(3, 16)
    s3 = make_setting(ProblemParams(3, 3), 0.05, constant_datum(dom3, ghost_width=3))
    wit3 = geometry_witnesses(s3)
    assert wit3.nonlinear_pairing > 0.0


def test_domain_mismatch_errors(s64):
    other = zeros(unit_box(2, 32), 2)
    with pytest.raises(ValueError):
        evaluate_J(other, s64)


@pytest.mark.parametrize("form", [Form.STRONG, Form.WEAK], ids=["strong", "weak"])
def test_residual_jacobian_matches_central_difference(form):
    # For k = 2 both residuals are quadratic in u, so the central
    # difference equals the Jacobian action up to roundoff.
    s = flagship_setting(32, form=form)
    dom = s.f.domain
    rng = np.random.default_rng(3)
    eps = 1e-3
    for _ in range(3):
        u = random_smooth_field(dom, rng, amplitude=0.5, ghost_width=2)
        v = random_smooth_field(dom, rng, amplitude=0.5, ghost_width=2)
        jv = residual_jacobian(u, s)(v.values)
        fd = (residual(u + eps * v, s).values - residual(u - eps * v, s).values) / (2.0 * eps)
        assert np.max(np.abs(jv - fd)) <= 1e-7 * np.max(np.abs(fd))
