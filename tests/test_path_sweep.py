"""Path-sweep evaluation: segment actions from per-node stencil images,
the path-maximum search built on them, and arc-length redistribution."""

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
from polyhess.energy import _images, _J_of, action, end_images, segment_actions
from polyhess.solvers import (
    _CUBIC_SAMPLES,
    _SEGMENT_SAMPLES,
    _locate_path_max,
    _redistribute,
    _segment_cubic,
)

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


def case_path(dim, n, k, form, points=6):
    """A setting and a path of random smooth rows of mixed amplitude."""
    dom = unit_box(dim, n)
    s = make_setting(ProblemParams(dim, k), 0.05, constant_datum(dom), form=form)
    rng = np.random.default_rng(100 * dim + 10 * k + (form is Form.WEAK))
    rows = [random_smooth_field(dom, rng, amplitude=rng.uniform(0.2, 4.0),
                                ghost_width=s.alpha).values for _ in range(points)]
    return s, np.stack(rows)


def wrap(s, row):
    return ScalarField(s.f.domain, row, s.alpha)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_segment_actions_match_action(case):
    s, path = case_path(*case)
    at_nodes, in_segments = segment_actions(path, s.alpha, s, _SEGMENT_SAMPLES)
    assert at_nodes.shape == (path.shape[0],)
    assert in_segments.shape == (path.shape[0] - 1, len(_SEGMENT_SAMPLES))
    for i, row in enumerate(path):
        assert at_nodes[i] == action(wrap(s, row), s)  # bit for bit
    for i in range(path.shape[0] - 1):
        for j, t in enumerate(_SEGMENT_SAMPLES):
            direct = action(wrap(s, (1.0 - t) * path[i] + t * path[i + 1]), s)
            assert in_segments[i, j] == pytest.approx(direct, rel=1e-12)


def _segment_actions_unbuffered(path, ghost_width, s, ts):
    """segment_actions as first written: each sample's images built by one
    expression, (1 - t) * a + t * b, into fresh arrays."""
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


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_buffered_segment_actions_equal_unbuffered(case):
    s, path = case_path(*case)
    ts = _SEGMENT_SAMPLES + (0.1, 0.9)
    got = segment_actions(path, s.alpha, s, ts)
    ref = _segment_actions_unbuffered(path, s.alpha, s, ts)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_locate_path_max_matches_brute_force(case):
    s, path = case_path(*case)
    node_vals = [action(wrap(s, row), s) for row in path]
    best = (int(np.argmax(node_vals)), 0.0, max(node_vals))
    for i in range(path.shape[0] - 1):
        for t in _SEGMENT_SAMPLES:
            e = action(wrap(s, (1.0 - t) * path[i] + t * path[i + 1]), s)
            if e > best[2]:
                best = (i, t, e)
    i_seg, tpar, j_max = _locate_path_max(path, s.alpha, s)
    assert (i_seg, tpar) == best[:2]
    assert j_max == pytest.approx(best[2], rel=1e-12)


K2_CASES = [case for case in CASES if case[2] == 2]


@pytest.mark.parametrize("case", K2_CASES, ids=[f"{d}d-{form.value}" for d, _, _, form in K2_CASES])
def test_segment_cubic_from_evaluated_samples_matches_action(case):
    """For k = 2, J along a segment is the cubic through the node values and
    the samples the sweep evaluates, so it gives J anywhere on the segment."""
    s, path = case_path(*case)
    at_nodes, quarters = segment_actions(path, s.alpha, s, _CUBIC_SAMPLES)
    for i in range(path.shape[0] - 1):
        for t in (0.1, 0.5, 0.9):
            direct = action(wrap(s, (1.0 - t) * path[i] + t * path[i + 1]), s)
            got = _segment_cubic(at_nodes[i], at_nodes[i + 1],
                                 quarters[i, 0], quarters[i, 1], t)
            assert got == pytest.approx(direct, rel=1e-12)


def test_segment_cubic_passes_through_its_knots():
    for j0, j1, jq, j3q in ((1.0, -2.0, 0.5, 3.0), (0.0, 0.0, 1e-3, -4e5)):
        scale = max(abs(j0), abs(j1), abs(jq), abs(j3q))
        for t, value in ((0.0, j0), (0.25, jq), (0.75, j3q), (1.0, j1)):
            assert _segment_cubic(j0, j1, jq, j3q, t) == pytest.approx(value, abs=1e-14 * scale)
        assert _segment_cubic(j0, j1, jq, j3q, 0.5) == 2.0 / 3.0 * (jq + j3q) - (j0 + j1) / 6.0


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_end_images_stand_in_for_the_end_rows(case):
    """Images kept from an earlier path with the same end rows give the
    sweep values bit for bit."""
    s, path = case_path(*case)
    ends = end_images(path, s.alpha, s)
    moved = path.copy()
    moved[1:-1] = 0.5 * path[1:-1] + 0.5 * path[2:][::-1]
    for p in (path, moved):
        got = segment_actions(p, s.alpha, s, _SEGMENT_SAMPLES, ends)
        ref = segment_actions(p, s.alpha, s, _SEGMENT_SAMPLES)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])
        assert _locate_path_max(p, s.alpha, s, ends) == _locate_path_max(p, s.alpha, s)


def test_redistribute_zero_length_path_keeps_point_count():
    dom = unit_box(2, 8)

    def wrap0(row):
        return ScalarField(dom, row, 2)

    for m, out_points in ((3, 17), (5, 5), (20, 17)):
        out = _redistribute(np.zeros((m, 8, 8)), wrap0, 2, out_points=out_points)
        assert out.shape == (out_points, 8, 8)
        assert np.all(out == 0.0)
    row = np.full((8, 8), 0.5)
    out = _redistribute(np.stack([row] * 3), wrap0, 2, out_points=17)
    assert out.shape == (17, 8, 8)
    assert np.all(out == row)
