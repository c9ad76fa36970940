"""Ray polynomials: the action along rays between random rows, as the
coefficients ``energy.ray_polynomial`` fixes from per-field stencil images,
and the peak that ``solvers._ray_peak`` finds on them.

The ray from row a toward row b has direction b - a and reaches b at
t = 1; the mountain pass reads rays from u_m the same way."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from polyhess import (
    Form,
    ProblemParams,
    ScalarField,
    make_setting,
    random_smooth_field,
    unit_box,
)
from polyhess.energy import _images, _J_of, action, ray_polynomial
from polyhess.solvers import _ray_peak

from conftest import constant_datum

CASES = [
    (2, 32, 2, Form.STRONG),
    (2, 32, 2, Form.WEAK),
    (3, 16, 2, Form.STRONG),
    (3, 16, 2, Form.WEAK),
    (3, 16, 3, Form.STRONG),
    (3, 16, 3, Form.WEAK),
]
CASE_IDS = [f"{d}d-n{n}-k{k}-{form.value}" for d, n, k, form in CASES]

SAMPLES = (0.0, 0.25, 0.5, 2.0 / 3.0, 0.75, 1.0)


def case_path(dim, n, k, form, points=6):
    """A setting and a sequence of random smooth rows of mixed amplitude."""
    dom = unit_box(dim, n)
    s = make_setting(ProblemParams(dim, k), 0.05, constant_datum(dom), form=form)
    rng = np.random.default_rng(100 * dim + 10 * k + (form is Form.WEAK))
    rows = [random_smooth_field(dom, rng, amplitude=rng.uniform(0.2, 4.0)).values
            for _ in range(points)]
    return s, np.stack(rows)


def wrap(s, row):
    return ScalarField(s.f.domain, row)


def segments(s, path):
    """(start field, direction field, start row, end row) of each ray between rows."""
    for a, b in zip(path[:-1], path[1:]):
        yield wrap(s, a), wrap(s, b - a), a, b


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_ray_values_match_action_between_rows(case):
    s, path = case_path(*case)
    for start, direction, a, b in segments(s, path):
        coefs = ray_polynomial(start, s)(direction)
        assert coefs.shape == (s.params.k + 2,)
        for t in SAMPLES:
            direct = action(wrap(s, (1.0 - t) * a + t * b), s)
            assert npoly.polyval(t, coefs) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_reused_buffers_match_fresh_images_bitwise(case):
    """The reused buffers give the coefficients that ``polyfit`` reads off
    values of images built by one expression, a + t * b, into fresh arrays,
    bit for bit."""
    s, path = case_path(*case)
    k = s.params.k
    ts = np.linspace(0.0, 2.0, k + 2)
    for start, direction, _, _ in segments(s, path):
        a, b = _images(start, s), _images(direction, s)
        values = [_J_of(tuple(None if p is None else p + t * q for p, q in zip(a, b)), s)
                  for t in ts]
        ref = npoly.polyfit(ts, values, k + 1)
        assert ray_polynomial(start, s)(direction).tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_ray_peak_matches_a_dense_scan(case):
    """On every ray from a row toward the next, the peak lies within one
    step of the highest local maximum of a dense scan of ``action``, no scan
    value rises above it, and its value is the action at its t up to
    roundoff; a ray without a peak shows no local maximum in the scan."""
    s, path = case_path(*case)
    k = s.params.k
    found = 0
    for start, direction, _, _ in segments(s, path):
        coefs = ray_polynomial(start, s)(direction)
        peak = _ray_peak(coefs)
        t_end = 4.0 if peak is None else 2.0 * peak[0]
        ts = np.linspace(0.0, t_end, 201)
        scan = np.array([action(wrap(s, start.values + t * direction.values), s)
                         for t in ts])
        interior = np.flatnonzero((scan[1:-1] > scan[:-2]) & (scan[1:-1] > scan[2:])) + 1
        if peak is None:
            assert interior.size == 0
            continue
        found += 1
        t_top, j_top = peak
        best = interior[np.argmax(scan[interior])]
        assert abs(ts[best] - t_top) <= ts[1]
        assert scan[best] <= j_top + 1e-12 * np.max(np.abs(scan))
        # a far peak is extrapolated from the samples at t in [0, 2], so the
        # roundoff grows with their size times (1 + t) ** (k + 1)
        sampled = npoly.polyval(np.linspace(0.0, 2.0, k + 2), coefs)
        growth = np.max(np.abs(sampled)) * (1.0 + t_top) ** (k + 1)
        direct = action(wrap(s, start.values + t_top * direction.values), s)
        assert j_top == pytest.approx(direct, abs=1e-14 * growth)
    assert found >= 1


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_base_images_serve_every_ray_unchanged(case):
    """The images of the fixed base row, computed once, serve every ray from
    it: evaluating other rays leaves them untouched, so one closure gives a
    fresh one's coefficients bit for bit."""
    s, path = case_path(*case)
    base = wrap(s, path[0])
    coefs = ray_polynomial(base, s)
    for row in path[1:]:
        direction = wrap(s, row - path[0])
        fresh = ray_polynomial(base, s)(direction)
        assert np.array_equal(coefs(direction), fresh)
        coefs(wrap(s, -0.5 * row))
        assert np.array_equal(coefs(direction), fresh)
