"""Stencils, quadrature, bump construction, transforms, and field I/O."""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyhess import (
    BoxDomain,
    ScalarField,
    bump_field,
    dump_field,
    from_function,
    gradient_centered,
    half_order,
    hessian,
    hessian_entries,
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
    sk_fields,
    unit_box,
    zeros,
)
from polyhess import grid
from polyhess.grid import _dst1, divergence_centered, laplacian_power
from polyhess.hessian_algebra import entry_pairs, sk_of_entries, stack_of_entries
from polyhess.verify import divergence_values, observed_order

from conftest import (
    divergence_expr,
    gradient_expr,
    hessian_entries_expr,
    laplacian_expr,
    smooth_field_loop,
)


def sinsin(dom):
    return from_function(dom, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


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
    u = from_function(dom, lambda x, y: x * x - 2 * y * y)
    assert np.allclose(polyharmonic(u, 2).values[8:-8, 8:-8], 0.0, atol=1e-8)
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

    No solver path reads this layout any more.  The strong-form Jacobian
    once contracted it with ``np.einsum``; it now reads ``hessian_entries``
    through the Newton tensor, summing T_ab (Hv)_ab over b in each row and
    then over the rows, in index order, which is einsum's order for 2 x 2
    blocks.  The seed-0 n=128 strong-form solve, whose Newton iteration sits
    at the residual roundoff floor, depends on that order: other entrywise
    sums, each equal to roundoff, moved its mountain-pass record from 24 rows
    to 206 or 222 or past its row budget (and an earlier change of this
    layout moved it from 361 to 207).  A change of summation order has to be
    judged on that solve.  The stack stays for ``sk_partials`` and for the
    tests' einsum oracles.
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


_STENCIL_GRIDS = pytest.mark.parametrize("nodes, extent", [
    ((16, 17), (1.0, 2.5)),
    ((13, 10, 9), (0.5, 1.0, 3.0)),
    ((12, 12, 12), (1.0, 1.0, 1.0)),
], ids=["2d", "3d-odd", "3d-even"])


@_STENCIL_GRIDS
def test_hessian_entries_equal_padded(nodes, extent):
    """The unique entries, component-first, are the padded stencils' values
    bit for bit, and their expansion is the padded node-major Hessian."""
    dom = BoxDomain(nodes=nodes, extent=extent)
    u = random_smooth_field(dom, np.random.default_rng(27), modes=4)
    ref = _padded_hessian(u.values, dom.spacing)
    ents = hessian_entries(u)
    d = dom.dim
    assert ents.shape == (d * (d + 1) // 2,) + dom.nodes
    assert ents.flags["C_CONTIGUOUS"]
    for e, (a, b) in enumerate(entry_pairs(d)):
        assert np.array_equal(ents[e], ref[..., a, b])
    assert np.array_equal(stack_of_entries(ents), ref)


@_STENCIL_GRIDS
def test_chained_differences_equal_their_expressions(nodes, extent, monkeypatch):
    """Each stencil runs its operations as contiguous passes over flat runs
    of the zero extension and copies the interior out; the Hessian entries,
    Laplacian, centered gradient and divergence, and sigma_k from sk_fields
    slabs of 1 and 3 rows and of the default budget, equal their
    one-expression forms over shifted views byte for byte, signs of zeros
    included (mixed scales, signed zeros, a negated bump)."""
    rng = np.random.default_rng(28)
    dom = BoxDomain(nodes=nodes, extent=extent)
    h = dom.spacing
    vals = rng.standard_normal(nodes) * 10.0 ** rng.uniform(-4, 4, nodes)
    vals[rng.random(nodes) < 0.2] = 0.0
    vals[rng.random(nodes) < 0.2] = -0.0
    bump = -bump_field(dom, tuple(0.5 * e for e in extent), 0.3 * min(extent), 1.0, 1).values
    d = dom.dim
    orders = tuple(range(1, d + 1))
    default = grid._SLAB_BYTES
    for v in (vals, bump):
        u = ScalarField(dom, v)
        ents = hessian_entries_expr(v, h)
        assert hessian_entries(u).tobytes() == ents.tobytes()
        assert laplacian(u).values.tobytes() == laplacian_expr(v, h).tobytes()
        grads = gradient_expr(v, h)
        assert gradient_centered(u).tobytes() == grads.tobytes()
        assert divergence_centered(grads, dom).tobytes() == divergence_expr(grads, h).tobytes()
        refs = [sk_of_entries(ents, k).tobytes() for k in orders]
        for rows in (1, 3, None):
            budget = rows * (d * (d + 1) // 2) * 8 * math.prod(nodes[1:]) if rows else default
            monkeypatch.setattr(grid, "_SLAB_BYTES", budget)
            assert [f.values.tobytes() for f in sk_fields(u, orders)] == refs


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the loop oracle sums in long double, here no wider than float64")
@pytest.mark.parametrize("nodes, extent", [
    ((32, 32), (1.0, 1.0)),
    ((40, 33), (1.3, 0.6)),
    ((24, 24, 24), (1.0, 1.0, 1.0)),
    ((12, 9, 10), (1.0, 2.0, 0.7)),
], ids=["2d", "2d-aniso", "3d", "3d-aniso"])
def test_random_smooth_field_equals_the_mode_loop(nodes, extent):
    """The contraction with per-axis sine tables is the per-mode sum to
    4 eps max|u| (the loop summed in long double), draws what the loop
    draws, and leaves the generator where the loop leaves it."""
    dom = BoxDomain(nodes=nodes, extent=extent)
    eps = np.finfo(float).eps
    for seed in range(4):
        for modes, amplitude in ((2, 0.3), (3, 1.0), (4, 1.7)):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_smooth_field(dom, rng, modes=modes, amplitude=amplitude).values
            ref = smooth_field_loop(dom, rng_ref, modes=modes, amplitude=amplitude)
            assert np.max(np.abs(got - ref)) <= 4 * eps * np.max(np.abs(ref))
            assert rng.random() == rng_ref.random()


@_STENCIL_GRIDS
def test_laplacian_power_equals_polyharmonic(nodes, extent):
    """The first Laplacian read off the Hessian diagonal gives polyharmonic
    byte for byte, signs of zeros included (a negated bump is -0.0 off its
    support)."""
    dom = BoxDomain(nodes=nodes, extent=extent)
    smooth = random_smooth_field(dom, np.random.default_rng(29), modes=4)
    center = tuple(0.5 * e for e in dom.extent)
    bump = bump_field(dom, center, 0.3 * min(dom.extent), 1.0, 1)
    bump = ScalarField(dom, -bump.values)
    assert np.any(np.signbit(bump.values) & (bump.values == 0.0))
    for u in (smooth, bump):
        ents = hessian_entries(u)
        for alpha in (1, 2, 3):
            got = laplacian_power(u, ents, alpha)
            ref = polyharmonic(u, alpha)
            assert got.values.tobytes() == ref.values.tobytes()


def test_sine_symbol_is_kept_per_domain():
    dom = BoxDomain(nodes=(10, 13), extent=(1.0, 2.0))
    sym = dom.sine_symbol
    assert dom.sine_symbol is sym
    assert not sym.flags.writeable
    # the symbol as computed on every inverse before it was kept
    parts = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h**2
             for n, h in zip(dom.nodes, dom.spacing)]
    assert np.array_equal(sym, np.add.outer(*parts))
    assert dom == BoxDomain(nodes=(10, 13), extent=(1.0, 2.0))
    assert hash(dom) == hash(BoxDomain(nodes=(10, 13), extent=(1.0, 2.0)))

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


@pytest.mark.parametrize("rows", [1, 3, 5, None], ids=lambda r: f"rows{r}")
@pytest.mark.parametrize("nodes, extent", [
    ((16, 17), (1.0, 2.5)),
    ((9, 30), (1.0, 1.0)),
    ((13, 10, 9), (0.5, 1.0, 3.0)),
    ((12, 12, 12), (1.0, 1.0, 1.0)),
    ((8, 11, 14), (1.0, 2.0, 1.5)),
], ids=["2d", "2d-flat", "3d-odd", "3d-even", "3d-rising"])
def test_slab_sk_fields_equal_whole_array_bitwise(nodes, extent, rows, monkeypatch):
    """sigma_k from the slab-wise pass is sk_of_entries of the whole-array
    Hessian entries byte for byte, signs of zeros included, for every order
    and slab height: one row, heights that do not divide the first axis,
    and the default budget, under which each of these grids is one slab."""
    dom = BoxDomain(nodes=nodes, extent=extent)
    d = dom.dim
    if rows is not None:
        monkeypatch.setattr(grid, "_SLAB_BYTES", rows * (d * (d + 1) // 2) * 8
                            * math.prod(nodes[1:]))
    center = tuple(0.5 * e for e in extent)
    fields = [random_smooth_field(dom, np.random.default_rng(sum(nodes)), modes=4)]
    fields += [bump_field(dom, center, 0.3 * min(extent), 1.0, sign) for sign in (1, 2)]
    orders = tuple(range(1, d + 1))
    for u in fields:
        ents = hessian_entries(u)
        for k, got in zip(orders, sk_fields(u, orders)):
            ref = sk_of_entries(ents, k)
            assert got.values.tobytes() == ref.tobytes()
            assert sk_field(u, k).values.tobytes() == ref.tobytes()
    for k in (0, d + 1):
        with pytest.raises(ValueError):
            sk_fields(fields[0], (1, k))


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
    u = from_function(dom, lambda x, y: 3 * x**2 + 5 * y**2)
    h2 = half_order(u, 2)
    assert h2.shape == (1,) + dom.nodes
    assert np.allclose(h2[0], laplacian(u).values)
    assert np.allclose(h2[0][5:-5, 5:-5], 16.0, atol=1e-9)
    # odd order: forward differences of Delta u on the n + 1 edges per axis,
    # the last slot of the other axis zero
    h3 = half_order(u, 3)
    assert h3.shape == (2, 33, 33)
    lap = np.pad(laplacian(u).values, ((1, 1), (1, 1)))
    h = dom.spacing[0]
    assert np.allclose(h3[0, :, :-1], np.diff(lap[:, 1:-1], axis=0) / h)
    assert np.allclose(h3[1, :-1, :], np.diff(lap[1:-1, :], axis=1) / h)
    assert np.all(h3[0, :, -1] == 0.0) and np.all(h3[1, -1, :] == 0.0)
    assert np.all(half_order(zeros(dom), 3) == 0.0)


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


def _bump_values_from_meshgrid(domain, center, radius, amplitude, sign_exponent):
    """bump_field's values as first written, from full-grid coordinate arrays."""
    s2 = np.zeros(domain.nodes)
    for x, c in zip(domain.meshgrid(), center):
        s2 += ((x - c) / radius) ** 2
    vals = np.zeros(domain.nodes)
    inside = s2 < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    vals *= amplitude * (-1.0) ** (sign_exponent + 1)
    return vals


@pytest.mark.parametrize("dom, center, radius", [
    (unit_box(2, 17), (0.5, 0.5), 0.3),
    (unit_box(2, 128), (0.45, 0.55), 0.4),
    (unit_box(3, 24), (0.5, 0.5, 0.5), 0.45),
    (BoxDomain(nodes=(20, 13, 31), extent=(2.0, 1.0, 3.5)), (1.1, 0.5, 1.7), 0.45),
])
def test_bump_field_bitwise_equals_meshgrid_form(dom, center, radius):
    for sign_exponent in (1, 2):
        psi = bump_field(dom, center, radius, 1.5, sign_exponent)
        ref = _bump_values_from_meshgrid(dom, center, radius, 1.5, sign_exponent)
        assert psi.values.tobytes() == ref.tobytes()


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
    u = random_smooth_field(dom, rng)
    quad = inner(u, polyharmonic(u, 2))
    assert quad >= 0.0
    # for even alpha the half-order identity is exact
    assert quad == pytest.approx(seminorm(u, 2) ** 2, rel=1e-13)


def test_seminorm_is_the_operator_form_for_every_alpha():
    """seminorm(u, alpha)^2 == h^N <u, (-1)^alpha Delta_h^alpha u> to
    roundoff, odd alpha included: its forward differences on the wall edges
    are summation by parts of the Dirichlet Laplacian."""
    rng = np.random.default_rng(25)
    for dom in (unit_box(2, 32), unit_box(3, 16), BoxDomain(nodes=(24, 40), extent=(1.0, 2.0))):
        for alpha in (1, 2, 3):
            u = random_smooth_field(dom, rng)
            pair = (-1.0) ** alpha * inner(u, polyharmonic(u, alpha))
            assert seminorm(u, alpha) ** 2 == pytest.approx(pair, rel=1e-12, abs=0.0)


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
    vals, hs = divergence_values(2, (2,), (32, 64, 128))
    assert observed_order(vals[2], hs) >= 1.5


def test_trace_of_hessian_telescopes_exactly():
    # k = 1 is the Laplacian: its integral telescopes to the (zero) boundary
    dom = unit_box(2, 64)
    psi = bump_field(dom, (0.5, 0.5), 0.3, 1.0, 1)
    scale = np.max(np.abs(psi.values)) / dom.spacing[0] ** 2
    assert abs(integrate(sk_field(psi, 1))) < 1e-12 * scale
    assert np.all(polyharmonic(zeros(dom), 2).values == 0.0)


def test_invert_polyharmonic_roundtrip():
    rng = np.random.default_rng(24)
    dom = unit_box(2, 32)
    for alpha in (2, 3):
        u = random_smooth_field(dom, rng)
        back = polyharmonic(invert_polyharmonic(u, alpha), alpha)
        sign = (-1.0) ** alpha
        err = np.max(np.abs(sign * back.values - u.values))
        # alpha applications of the h^-2 stencil amplify roundoff
        assert err < 1e-8 * max(np.max(np.abs(u.values)), 1.0)


@pytest.mark.parametrize("nodes", [(32, 32), (30, 17), (9, 8, 11), (12, 12, 12)])
def test_invert_polyharmonic_is_two_dsts_bitwise(nodes):
    """The inverse is the pair of transforms around the symbol division, byte for byte."""
    dom = BoxDomain(nodes=nodes)
    x = np.random.default_rng(sum(nodes)).standard_normal(nodes)
    for alpha in (1, 2, 3):
        ref = _dst1(_dst1(x) / dom.sine_symbol ** alpha)
        assert invert_polyharmonic(ScalarField(dom, x), alpha).values.tobytes() == ref.tobytes()


_INVERSE_BYTES = """
import hashlib, sys
import numpy as np
from polyhess import BoxDomain, ScalarField, invert_polyharmonic
for nodes in [(191, 191), (47, 47, 47)]:
    x = np.random.default_rng(sum(nodes)).standard_normal(nodes)
    out = invert_polyharmonic(ScalarField(BoxDomain(nodes=nodes), x), 2).values
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_invert_polyharmonic_bytes_repeat_in_fresh_processes():
    """Same input, same bits: two fresh processes at two BLAS threads give
    byte-identical inverses on the shapes whose bytes change with the
    thread count (191^2 and 47^3)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [str(Path(grid.__file__).resolve().parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    digests = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _INVERSE_BYTES],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


def test_field_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(25)
    dom = BoxDomain(nodes=(12, 20), extent=(1.0, 2.0))
    # each case dumps distinct fields under its bases, in its own directory,
    # then loads every base back: a dot in a base is kept, not a suffix, and
    # a base ending in .f64 names its own dump, also beside the dump it extends
    cases = (("field",), ("u_star.v2",), ("field.f64",), ("field", "field.f64"))
    for i, bases in enumerate(cases):
        fields = [random_smooth_field(dom, rng) for _ in bases]
        for base, u in zip(bases, fields):
            dump_field(u, tmp_path / str(i) / base)
        for base, u in zip(bases, fields):
            v = load_field(tmp_path / str(i) / base)
            assert v.domain == dom
            assert np.array_equal(v.values, u.values)


_SIDECAR_KEYS = {"dim", "nodes", "extent", "spacing", "order", "dtype"}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda dim: st.tuples(
           st.lists(st.integers(8, 20), min_size=dim, max_size=dim),
           st.lists(st.floats(0.5, 3.0, exclude_min=True, exclude_max=True),
                    min_size=dim, max_size=dim))),
       st.integers(0, 2**32 - 1))
def test_field_dump_roundtrip_property(box, seed):
    """dump_field then load_field gives the same domain and the same bits."""
    nodes, extent = box
    dom = BoxDomain(nodes=nodes, extent=extent)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(dom.nodes) * 10.0 ** rng.integers(-300, 300, size=dom.nodes)
    vals.flat[0] = -0.0
    u = ScalarField(dom, vals)
    with tempfile.TemporaryDirectory() as tmp:
        raw, meta = dump_field(u, Path(tmp) / "field")
        assert set(json.loads(meta.read_text())) == _SIDECAR_KEYS
        v = load_field(raw)
    assert v.domain == dom
    assert v.values.tobytes() == u.values.tobytes()


def test_field_dump_with_legacy_ghost_width_key_loads(tmp_path):
    """Sidecars once carried a ghost_width key; it is ignored on load."""
    u = random_smooth_field(BoxDomain(nodes=(12, 9, 10), extent=(1.0, 2.0, 0.7)),
                            np.random.default_rng(26))
    raw, meta = dump_field(u, tmp_path / "field")
    header = json.loads(meta.read_text())
    header["ghost_width"] = 2
    meta.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    v = load_field(raw)
    assert v.domain == u.domain
    assert v.values.tobytes() == u.values.tobytes()


@pytest.mark.xfail(strict=True, reason="operator carries Navier, not clamped, conditions")
def test_biharmonic_lowest_eigenvalue_is_the_clamped_plates():
    """The clamped plate's lowest eigenvalue on the unit square is about
    1294.93; the hinged (Navier) plate's is (2 pi^2)^2 = 389.64.  The
    assembled alpha = 2 operator gives about 388 at n = 24; a first-order
    clamped scheme would give about 1100."""
    dom = unit_box(2, 24)
    m = math.prod(dom.nodes)
    mat = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        mat[:, j] = polyharmonic(ScalarField(dom, e.reshape(dom.nodes)), 2).values.ravel()
    assert np.linalg.eigvalsh(mat)[0] > 0.75 * 1294.93


def test_field_arithmetic():
    dom = unit_box(2, 16)
    a = zeros(dom)
    b = from_function(dom, lambda x, y: x)
    assert np.allclose((b - b).values, 0.0)
    with pytest.raises(ValueError):
        _ = a + zeros(unit_box(2, 24))


def test_l2_norm_and_seminorm_basics():
    dom = unit_box(2, 16)
    assert l2_norm(zeros(dom)) == 0.0
    assert seminorm(zeros(dom), 2) == 0.0
