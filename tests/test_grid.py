"""Stencils, quadrature, bump construction, transforms, and field I/O."""

import math

import numpy as np
import pytest

from polyhess import (
    BoxDomain,
    ContractError,
    bump_field,
    dump_field,
    export_csv,
    from_function,
    gradient_centered,
    half_order,
    hessian,
    inner,
    integrate,
    invert_polyharmonic,
    l2_norm,
    laplacian,
    load_field,
    polyharmonic,
    random_smooth_field,
    seminorm,
    sk_field,
    unit_box,
    zeros,
)
from polyhess.verify import divergence_values, observed_order


def sinsin(dom, ghost_width=2):
    return from_function(dom, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
                         ghost_width=ghost_width)


def test_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain(nodes=(64,))           # dim 1 unsupported
    with pytest.raises(ValueError):
        BoxDomain(nodes=(64, 64, 64, 64))
    with pytest.raises(ValueError):
        BoxDomain(nodes=(4, 64))         # fewer than 8 nodes on an axis
    dom = BoxDomain(nodes=(10, 20), extent=(1.0, 2.0))
    assert dom.spacing == (1.0 / 11, 2.0 / 21)



def test_domain_geometry_cache_keeps_equality_and_hash():
    a = BoxDomain(nodes=(10, 20), extent=(1.0, 2.0))
    b = BoxDomain(nodes=(10, 20), extent=(1.0, 2.0))
    assert a.cell_volume == pytest.approx(1.0 / 11 * 2.0 / 21, rel=1e-15)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != BoxDomain(nodes=(10, 20), extent=(1.0, 3.0))

def test_laplacian_exact_on_quadratics():
    dom = unit_box(2, 32)
    u = from_function(dom, lambda x, y: x**2 + y**2)
    lap = laplacian(u)
    interior = lap.values[5:-5, 5:-5]
    assert np.allclose(interior, 4.0, atol=1e-10)
    assert np.all(laplacian(zeros(dom)).values == 0.0)


def test_laplacian_refinement_second_order():
    errs = []
    for n in (32, 64, 128):
        dom = unit_box(2, n)
        u = sinsin(dom)
        err = laplacian(u).values + 2 * np.pi**2 * u.values
        errs.append(np.max(np.abs(err)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_polyharmonic_contract_and_values():
    dom = unit_box(2, 32)
    u = from_function(dom, lambda x, y: x * x - 2 * y * y, ghost_width=2)
    assert np.allclose(polyharmonic(u, 2).values[8:-8, 8:-8], 0.0, atol=1e-8)
    with pytest.raises(ContractError):
        polyharmonic(from_function(dom, lambda x, y: x, ghost_width=1), 2)
    errs = []
    for n in (32, 64):
        d = unit_box(2, n)
        u = sinsin(d)
        err = polyharmonic(u, 2).values - 4 * np.pi**4 * u.values
        errs.append(np.max(np.abs(err[4:-4, 4:-4])))
    assert errs[0] / errs[1] > 3.0


def test_hessian_exactness():
    dom = unit_box(2, 32)
    u = from_function(dom, lambda x, y: x * y)
    h = hessian(u)
    inner_h = h[5:-5, 5:-5]
    assert np.allclose(inner_h[..., 0, 1], 1.0, atol=1e-10)
    assert np.allclose(inner_h[..., 0, 0], 0.0, atol=1e-10)
    u2 = from_function(dom, lambda x, y: x**2)
    h2 = hessian(u2)[5:-5, 5:-5]
    assert np.allclose(h2[..., 0, 0], 2.0, atol=1e-10)
    assert np.allclose(h2[..., 1, 1], 0.0, atol=1e-10)


def test_hessian_layout_is_node_major():
    """grid.hessian stores one C-contiguous (d, d) block per node.

    The sigma_k kernels, the path-sweep interpolation and the reductions of
    the action read this layout; their summation order follows it.  Storing
    the Hessian component-first instead left every value equal to roundoff
    but changed the seed-0 n=128 strong-form solve, whose Newton iteration
    sits at the residual roundoff floor: its mountain-pass record went from
    361 to 207 rows and its final residual came out at 9.9955e-7 against the
    1e-6 tolerance.  A layout change has to be judged on that solve.
    """
    for dim, n in ((2, 12), (3, 9)):
        dom = unit_box(dim, n)
        u = random_smooth_field(dom, np.random.default_rng(dim))
        h = hessian(u)
        assert h.shape == dom.nodes + (dim, dim)
        assert h.flags["C_CONTIGUOUS"]



# The stencils as first written, reading the zero extension from np.pad.

def _padded_laplacian(vals, h):
    p = np.pad(vals, 1)
    core = tuple(slice(1, -1) for _ in range(vals.ndim))
    out = np.zeros_like(vals)
    for a in range(vals.ndim):
        up, dn = list(core), list(core)
        up[a], dn[a] = slice(2, None), slice(0, -2)
        out += (p[tuple(up)] - 2.0 * vals + p[tuple(dn)]) / h[a] ** 2
    return out


def _padded_gradient(vals, h):
    p = np.pad(vals, 1)
    core = tuple(slice(1, -1) for _ in range(vals.ndim))
    comps = np.empty((vals.ndim,) + vals.shape)
    for a in range(vals.ndim):
        up, dn = list(core), list(core)
        up[a], dn[a] = slice(2, None), slice(0, -2)
        comps[a] = (p[tuple(up)] - p[tuple(dn)]) / (2.0 * h[a])
    return comps


def _padded_hessian(vals, h):
    d = vals.ndim
    p = np.pad(vals, 1)
    core = tuple(slice(1, -1) for _ in range(d))
    out = np.zeros(vals.shape + (d, d))
    for a in range(d):
        up, dn = list(core), list(core)
        up[a], dn[a] = slice(2, None), slice(0, -2)
        out[..., a, a] = (p[tuple(up)] - 2.0 * vals + p[tuple(dn)]) / h[a] ** 2
    for a in range(d):
        for b in range(a + 1, d):
            pp, pm, mp, mm = list(core), list(core), list(core), list(core)
            pp[a], pp[b] = slice(2, None), slice(2, None)
            pm[a], pm[b] = slice(2, None), slice(0, -2)
            mp[a], mp[b] = slice(0, -2), slice(2, None)
            mm[a], mm[b] = slice(0, -2), slice(0, -2)
            cross = (p[tuple(pp)] - p[tuple(pm)] - p[tuple(mp)] + p[tuple(mm)]) / (4.0 * h[a] * h[b])
            out[..., a, b] = cross
            out[..., b, a] = cross
    return out


@pytest.mark.parametrize("nodes, extent", [
    ((16, 17), (1.0, 2.5)),
    ((13, 10, 9), (0.5, 1.0, 3.0)),
    ((12, 12, 12), (1.0, 1.0, 1.0)),
], ids=["2d", "3d-odd", "3d-even"])
def test_pad_free_stencils_equal_padded(nodes, extent):
    dom = BoxDomain(nodes=nodes, extent=extent)
    u = random_smooth_field(dom, np.random.default_rng(26), modes=4)
    h = dom.spacing
    assert np.array_equal(laplacian(u).values, _padded_laplacian(u.values, h))
    assert np.array_equal(gradient_centered(u), _padded_gradient(u.values, h))
    assert np.array_equal(hessian(u), _padded_hessian(u.values, h))

def test_hessian_refinement():
    errs = []
    for n in (32, 64):
        dom = unit_box(2, n)
        u = sinsin(dom)
        h = hessian(u)
        pi2 = np.pi**2
        mesh = dom.meshgrid()
        exact = np.empty_like(h)
        sx, sy = np.sin(np.pi * mesh[0]), np.sin(np.pi * mesh[1])
        cx, cy = np.cos(np.pi * mesh[0]), np.cos(np.pi * mesh[1])
        exact[..., 0, 0] = -pi2 * sx * sy
        exact[..., 1, 1] = -pi2 * sx * sy
        exact[..., 0, 1] = pi2 * cx * cy
        exact[..., 1, 0] = pi2 * cx * cy
        errs.append(np.max(np.abs(h - exact)))
    assert errs[0] / errs[1] > 3.0


def test_sk_field_quadratic_exact():
    dom = unit_box(2, 32)
    u = from_function(dom, lambda x, y: (x**2 + y**2) / 2)
    s2 = sk_field(u, 2).values
    assert np.allclose(s2[5:-5, 5:-5], 1.0, atol=1e-9)
    assert np.all(sk_field(zeros(dom), 2).values == 0.0)
    with pytest.raises(ValueError):
        sk_field(u, 3)


def test_half_order_variants():
    dom = unit_box(2, 32)
    u = from_function(dom, lambda x, y: 3 * x**2 + 5 * y**2, ghost_width=4)
    h2 = half_order(u, 2)
    assert h2.shape == (1,) + dom.nodes
    assert np.allclose(h2[0], laplacian(u).values)
    assert np.allclose(h2[0][5:-5, 5:-5], 16.0, atol=1e-9)
    h3 = half_order(u, 3)
    assert h3.shape == (2,) + dom.nodes
    assert np.all(half_order(zeros(dom, 4), 3) == 0.0)
    with pytest.raises(ContractError):
        half_order(from_function(dom, lambda x, y: x, ghost_width=0), 2)


def test_integrate_values():
    for n in (16, 64):
        dom = unit_box(2, n)
        ones = from_function(dom, lambda x, y: np.ones_like(x))
        assert integrate(ones) == pytest.approx((n / (n + 1)) ** 2)
    assert integrate(zeros(unit_box(2, 16))) == 0.0
    vals = []
    for n in (32, 64, 128):
        vals.append(integrate(sinsin(unit_box(2, n))))
    exact = 4 / np.pi**2
    assert abs(vals[2] - exact) < abs(vals[0] - exact)
    assert abs(vals[2] - exact) < 1e-4


def test_bump_field_values_and_errors():
    dom = unit_box(2, 15)  # odd node count puts a node at the center
    psi = bump_field(dom, (0.5, 0.5), 0.3, 2.0, 2)
    center_value = psi.values[7, 7]
    assert center_value == pytest.approx(2.0 * (-1.0) ** 3 * math.exp(-1.0))
    mesh = dom.meshgrid()
    outside = (mesh[0] - 0.5) ** 2 + (mesh[1] - 0.5) ** 2 >= 0.3**2
    assert np.all(psi.values[outside] == 0.0)
    with pytest.raises(ValueError):
        bump_field(dom, (0.9, 0.5), 0.3, 1.0, 2)  # support exits the box


def test_bump_nonlinear_pairing_sign():
    # positive bump orientation: (-1)^k int psi S_k[psi] > 0
    dom = unit_box(2, 128)
    psi = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 1)
    assert inner(psi, sk_field(psi, 2)) > 0.0
    dom3 = unit_box(3, 32)
    psi3 = bump_field(dom3, (0.5, 0.5, 0.5), 0.3, 1.0, 1)
    assert inner(psi3, sk_field(psi3, 2)) > 0.0
    assert -inner(psi3, sk_field(psi3, 3)) > 0.0


def test_discrete_integration_by_parts_exact():
    rng = np.random.default_rng(21)
    dom = unit_box(2, 48)
    u = random_smooth_field(dom, rng)
    w = random_smooth_field(dom, rng)
    lhs = inner(w, laplacian(u))
    rhs = inner(u, laplacian(w))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_even_alpha_quadratic_form_identities():
    rng = np.random.default_rng(22)
    dom = unit_box(2, 32)
    u = random_smooth_field(dom, rng, ghost_width=2)
    quad = inner(u, polyharmonic(u, 2))
    assert quad >= 0.0
    # for even alpha the half-order identity is exact
    assert quad == pytest.approx(seminorm(u, 2) ** 2, rel=1e-13)


def test_odd_alpha_half_order_mismatch_first_order():
    # order-3-clamped polynomial; the normal derivative of its Laplacian is
    # nonzero on the wall, so the node-centered seminorm quadrature differs
    # from the operator pairing at first order in h
    mismatches = []
    for n in (32, 64, 128):
        dom = unit_box(2, n)
        u = from_function(dom, lambda x, y: 4096 * (x * (1 - x) * y * (1 - y)) ** 3,
                          ghost_width=4)
        pair = -inner(u, polyharmonic(u, 3))
        mismatches.append(abs(pair - seminorm(u, 3) ** 2))
    assert mismatches[0] / mismatches[1] > 1.6
    assert mismatches[1] / mismatches[2] > 1.6


def test_stencil_linearity_random():
    rng = np.random.default_rng(23)
    dom = unit_box(2, 32)
    u = random_smooth_field(dom, rng)
    w = random_smooth_field(dom, rng)
    a, b = 1.7, -0.4
    combo = laplacian(a * u + b * w).values
    split = a * laplacian(u).values + b * laplacian(w).values
    assert np.allclose(combo, split, atol=1e-12 * max(np.max(np.abs(split)), 1.0))


def test_divergence_structure_refinement_2d():
    vals, hs = divergence_values(2, 2, (32, 64, 128))
    assert observed_order(vals, hs) >= 1.5


def test_trace_of_hessian_telescopes_exactly():
    # k = 1 is the Laplacian: its integral telescopes to the (zero) boundary
    dom = unit_box(2, 64)
    psi = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 1)
    scale = np.max(np.abs(psi.values)) / dom.spacing[0] ** 2
    assert abs(integrate(sk_field(psi, 1))) < 1e-12 * scale
    assert np.all(polyharmonic(zeros(dom, 4), 2).values == 0.0)


def test_invert_polyharmonic_roundtrip():
    rng = np.random.default_rng(24)
    dom = unit_box(2, 32)
    for alpha in (2, 3):
        u = random_smooth_field(dom, rng, ghost_width=4)
        back = polyharmonic(invert_polyharmonic(u, alpha), alpha)
        sign = (-1.0) ** alpha
        err = np.max(np.abs(sign * back.values - u.values))
        # alpha applications of the h^-2 stencil amplify roundoff
        assert err < 1e-8 * max(np.max(np.abs(u.values)), 1.0)


def test_field_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(25)
    dom = BoxDomain(nodes=(12, 20), extent=(1.0, 2.0))
    u = random_smooth_field(dom, rng, ghost_width=3)
    dump_field(u, tmp_path / "field")
    v = load_field(tmp_path / "field")
    assert v.domain == dom
    assert v.ghost_width == 3
    assert np.array_equal(v.values, u.values)


def test_csv_export(tmp_path):
    dom = unit_box(2, 8)
    u = from_function(dom, lambda x, y: x + 10 * y)
    path = tmp_path / "field.csv"
    export_csv(u, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 64
    x, y, val = (float(tok) for tok in lines[1].split(","))
    assert val == pytest.approx(x + 10 * y)
    with pytest.raises(ValueError):
        export_csv(from_function(unit_box(3, 8), lambda x, y, z: x), tmp_path / "bad.csv")


def test_field_arithmetic_and_ghost_combination():
    dom = unit_box(2, 16)
    a = zeros(dom, 4)
    b = from_function(dom, lambda x, y: x, ghost_width=2)
    assert (a + b).ghost_width == 2
    assert (2.0 * b).ghost_width == 2
    assert np.allclose((b - b).values, 0.0)
    with pytest.raises(ValueError):
        _ = a + zeros(unit_box(2, 24), 4)


def test_l2_norm_and_seminorm_basics():
    dom = unit_box(2, 16)
    assert l2_norm(zeros(dom)) == 0.0
    assert seminorm(zeros(dom, 2), 2) == 0.0
