"""Shared fixtures: flagship problem settings and cached solver runs.

The solver runs are session-scoped so the expensive pairs are computed once
and shared between the unit tests and the acceptance suite.
"""

import itertools

import numpy as np
import pytest

from polyhess import (
    Form,
    ProblemParams,
    SolverConfig,
    bump_field,
    from_function,
    invert_polyharmonic,
    make_setting,
    random_smooth_field,
    sk_of_stack,
    solve_run,
    unit_box,
)
from polyhess.hessian_algebra import entry_pairs


def constant_datum(dom, value=1.0):
    return from_function(dom, lambda *mesh: value * np.ones_like(mesh[0]))


def flagship_setting(n, lam=0.05, form=Form.STRONG):
    dom = unit_box(2, n)
    f = constant_datum(dom)
    return make_setting(ProblemParams(2, 2), lam, f, form=form)


def partials_polynomial_loop(mats, k):
    """Gradient matrices of sigma_k on a (..., N, N) stack by the power series
    sum_{j<k} (-1)^j sigma_{k-1-j}(A) A^j, summed from an identity stack: an
    oracle independent of the Newton-tensor recursion."""
    m = np.asarray(mats, dtype=float)
    n = m.shape[-1]
    batch = m.shape[:-2]
    eye = np.broadcast_to(np.eye(n), batch + (n, n))
    out = np.zeros(batch + (n, n))
    power = eye.copy()
    for j in range(k):
        coeff = (np.trace(m, axis1=-2, axis2=-1) if k - 1 - j == 1
                 else sk_of_stack(m, k - 1 - j))
        out += (-1.0) ** j * coeff[..., None, None] * power
        if j + 1 < k:
            power = power @ m
    return out


# The stencils as one expression each over shifted views of np.pad(vals, 1):
# oracles for grid's flat-run stencils, which must give their bytes.

def shifted(p, moves):
    """View of zero-extended values ``p`` moved ``moves[a]`` (+1 or -1) nodes
    along each axis a named in ``moves``: the neighbour of every interior node."""
    index = [slice(1, -1)] * p.ndim
    for a, m in moves.items():
        index[a] = slice(1 + m, p.shape[a] - 1 + m)
    return p[tuple(index)]


def hessian_entries_expr(vals, h):
    """Unique Hessian entries in ``entry_pairs`` order: (p[+1] - 2 vals +
    p[-1]) / h^2 on the diagonal, the 4-point cross difference off it."""
    p = np.pad(vals, 1)
    out = []
    for a, b in entry_pairs(vals.ndim):
        if a == b:
            out.append((shifted(p, {a: 1}) - 2.0 * vals + shifted(p, {a: -1})) / h[a] ** 2)
        else:
            out.append((shifted(p, {a: 1, b: 1}) - shifted(p, {a: 1, b: -1})
                        - shifted(p, {a: -1, b: 1}) + shifted(p, {a: -1, b: -1}))
                       / (4.0 * h[a] * h[b]))
    return np.stack(out)


def laplacian_expr(vals, h):
    """The second differences summed in axis order."""
    ents = hessian_entries_expr(vals, h)
    total = ents[0]
    for a in range(1, vals.ndim):
        total = total + ents[a]
    return total


def gradient_expr(vals, h):
    p = np.pad(vals, 1)
    return np.stack([(shifted(p, {a: 1}) - shifted(p, {a: -1})) / (2.0 * h[a])
                     for a in range(vals.ndim)])


def divergence_expr(flux, h):
    """Zeros plus the centered difference of each flux[a] along axis a, in axis order."""
    total = np.zeros(flux.shape[1:])
    for a in range(len(flux)):
        total = total + gradient_expr(flux[a], h)[a]
    return total


def smooth_field_loop(domain, rng, modes=3, amplitude=1.0):
    """``random_smooth_field`` as a loop over the modes in ``itertools.product``
    order, one full-grid product per mode, with the products, the sum and the
    normalization in long double from the float64 coefficients and sines."""
    vals = np.zeros(domain.nodes, dtype=np.longdouble)
    axes = [domain.axis_coords(a) / domain.extent[a] for a in range(domain.dim)]
    for multi in itertools.product(range(1, modes + 1), repeat=domain.dim):
        term = np.longdouble(rng.standard_normal() / float(np.prod(multi)))
        for m, t in zip(multi, np.ix_(*axes)):
            term = term * np.sin(np.pi * m * t).astype(np.longdouble)
        vals = vals + term
    return vals * (np.longdouble(amplitude) / np.max(np.abs(vals)))


def minorant_h(R, m):
    """The radial minorant h(R) = R^2/2 - C1 R - C2 R^(k+1) of the
    constants of ``m`` (a ``MinorantGeometry``): the oracle of the radii
    ``minorant_geometry`` reads."""
    return 0.5 * R * R - m.C1 * R - m.C2 * R ** (m.k + 1)


def sampled_minorant_family(s, rng, samples=48):
    """The minorant's sample family as it was drawn before the fit moved to
    fixed fields: the center bumps and +-G f / max|G f|, then random bumps,
    random smooth fields and pairwise sums from ``rng`` up to ``samples``
    fields.  An oracle of fields the fixed-family minorant must bound."""
    dom = s.f.domain
    minext = min(dom.extent)
    center = tuple(0.5 * e for e in dom.extent)
    fam = [bump_field(dom, center, 0.3 * minext, 1.0, sign_exp)
           for sign_exp in (s.params.k, s.params.k + 1)]
    pf = invert_polyharmonic(s.f, s.alpha)
    top = float(np.max(np.abs(pf.values)))
    if top > 0:
        fam += [pf * (1.0 / top), pf * (-1.0 / top)]
    while len(fam) < samples:
        kind = rng.integers(0, 3)
        if kind == 0:
            c = tuple(e * rng.uniform(0.42, 0.58) for e in dom.extent)
            r = minext * rng.uniform(0.15, 0.25)
            fam.append(bump_field(dom, c, r, rng.uniform(0.5, 2.0), int(rng.integers(0, 2))))
        elif kind == 1:
            fam.append(random_smooth_field(dom, rng, modes=3, amplitude=rng.uniform(0.2, 1.5)))
        else:
            i, j = rng.integers(0, len(fam), size=2)
            fam.append(fam[int(i)] + fam[int(j)])
    return fam[:samples]


@pytest.fixture(scope="session")
def cfg0():
    return SolverConfig(seed=0)


@pytest.fixture(scope="session")
def run32(cfg0):
    return solve_run(flagship_setting(32), cfg0)


@pytest.fixture(scope="session")
def run64(cfg0):
    return solve_run(flagship_setting(64), cfg0)


@pytest.fixture(scope="session")
def run64_weak(cfg0):
    return solve_run(flagship_setting(64, form=Form.WEAK), cfg0)


@pytest.fixture(scope="session")
def run32_weak(cfg0):
    return solve_run(flagship_setting(32, form=Form.WEAK), cfg0)


@pytest.fixture(scope="session")
def run64_lam0(cfg0):
    return solve_run(flagship_setting(64, lam=0.0), cfg0)
