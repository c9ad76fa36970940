"""Ray actions: the action along rays between random rows, read from
per-field stencil images through ``energy.ray_actions``, and the peak that
``solvers._ray_peak`` finds on the polynomial ``solvers._ray_polynomial``
fits through those values.

The ray from row a toward row b has direction b - a and reaches b at
t = 1; the mountain pass reads rays from u_m the same way.  The test names
keep the words of the discrete path (segments, path maximum) they were
first written for; each one checks rays."""

import numpy as np
import pytest

from polyhess import (
    Form,
    ProblemParams,
    ScalarField,
    make_setting,
    random_smooth_field,
    unit_box,
)
from polyhess.energy import _images, _J_of, action, ray_actions
from polyhess.solvers import _ray_peak, _ray_polynomial

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
    """A setting and a path of random smooth rows of mixed amplitude."""
    dom = unit_box(dim, n)
    s = make_setting(ProblemParams(dim, k), 0.05, constant_datum(dom), form=form)
    rng = np.random.default_rng(100 * dim + 10 * k + (form is Form.WEAK))
    rows = [random_smooth_field(dom, rng, amplitude=rng.uniform(0.2, 4.0)).values
            for _ in range(points)]
    return s, np.stack(rows)


def wrap(s, row):
    return ScalarField(s.f.domain, row)


def segments(s, path):
    """(start field, direction field, start row, end row) of each segment."""
    for a, b in zip(path[:-1], path[1:]):
        yield wrap(s, a), wrap(s, b - a), a, b


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_segment_actions_match_action(case):
    s, path = case_path(*case)
    for start, direction, a, b in segments(s, path):
        got = ray_actions(start, s)(direction, SAMPLES)
        assert got.shape == (len(SAMPLES),)
        assert got[0] == action(start, s)  # bit for bit
        for t, value in zip(SAMPLES, got):
            direct = action(wrap(s, (1.0 - t) * a + t * b), s)
            assert value == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_buffered_segment_actions_equal_unbuffered(case):
    """The reused buffers give the values of images built by one expression,
    a + t * b, into fresh arrays, bit for bit, also at t outside [0, 1]; at
    every t = 0 (first, inside ts, or -0.0) the J(base) computed once per
    ``ray_actions`` is J(a + 0 b) bit for bit."""
    s, path = case_path(*case)
    ts = SAMPLES + (0.1, 0.0, 0.9, -0.0, 2.6)
    for start, direction, _, _ in segments(s, path):
        a, b = _images(start, s), _images(direction, s)
        ref = np.array([_J_of(tuple(None if p is None else p + t * q for p, q in zip(a, b)), s)
                        for t in ts])
        assert ray_actions(start, s)(direction, ts).tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_locate_path_max_matches_brute_force(case):
    """On every ray from a path row toward the next, the peak lies within one
    step of the highest local maximum of a dense scan of ``action``, no scan
    value rises above it, and its value is the action at its t up to
    roundoff; a ray without a peak shows no local maximum in the scan."""
    s, path = case_path(*case)
    found = 0
    for start, direction, _, _ in segments(s, path):
        along = ray_actions(start, s)
        peak = _ray_peak(_ray_polynomial(along, direction, s.params.k))
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
        sampled = along(direction, np.linspace(0.0, 2.0, s.params.k + 2))
        growth = np.max(np.abs(sampled)) * (1.0 + t_top) ** (s.params.k + 1)
        direct = action(wrap(s, start.values + t_top * direction.values), s)
        assert j_top == pytest.approx(direct, abs=1e-14 * growth)
    assert found >= 1


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_end_images_stand_in_for_the_end_rows(case):
    """The images of the fixed end row, computed once, serve every ray from
    it: evaluating other rays leaves them untouched, so one evaluator gives a
    fresh one's values bit for bit, and at t = 0 the action of that row."""
    s, path = case_path(*case)
    end = wrap(s, path[0])
    ts = np.linspace(0.0, 2.0, s.params.k + 2)
    along = ray_actions(end, s)
    for row in path[1:]:
        direction = wrap(s, row - path[0])
        fresh = ray_actions(end, s)(direction, ts)
        assert np.array_equal(along(direction, ts), fresh)
        along(wrap(s, -0.5 * row), (0.7,))
        assert np.array_equal(along(direction, ts), fresh)
        assert fresh[0] == action(end, s)
