"""scipy as the oracle of the numpy-only kernels, compared bit for bit.

polyhess runs on numpy alone; its type-I DST and its GMRES perform scipy's
operations in scipy's order, so their outputs must equal scipy's exactly,
not to a tolerance.  scipy is a test dependency only: without it these
tests are skipped.
"""

import numpy as np
import pytest

from polyhess import Form, ProblemParams, PolyhessError, make_setting, solve_run, unit_box
from polyhess import solvers
from polyhess.grid import _dst1

from conftest import constant_datum, flagship_setting

scipy_fft = pytest.importorskip("scipy.fft")
scipy_lapack = pytest.importorskip("scipy.linalg.lapack")
scipy_sparse_linalg = pytest.importorskip("scipy.sparse.linalg")


@pytest.mark.parametrize("shape", [
    (8, 8), (12, 12), (16, 16), (32, 32), (64, 64), (128, 128),
    (40, 32), (7, 30), (5, 6, 7), (16, 16, 16), (20, 20, 20), (24, 24, 24),
    (191, 191),  # n + 1 = 192 = 2^6 * 3, 5-smooth
    (192, 192),  # n + 1 = 193, prime
])
def test_dst1_equals_scipy_dstn_and_idstn(shape):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    ours = _dst1(x)
    assert np.array_equal(ours, scipy_fft.dstn(x, type=1, norm="ortho"))
    assert np.array_equal(ours, scipy_fft.idstn(x, type=1, norm="ortho"))


def _scipy_gmres(matvec, b, rtol, restart, maxiter):
    m = b.size
    op = scipy_sparse_linalg.LinearOperator((m, m), matvec=matvec, dtype=float)
    x, _ = scipy_sparse_linalg.gmres(op, b, rtol=rtol, atol=0.0,
                                     restart=restart, maxiter=maxiter)
    return x


def _first_newton_system(s, monkeypatch):
    """The preconditioned Jacobian action and right-hand side of the first
    Newton step of a solve of ``s``."""
    systems = []
    gmres = solvers.gmres

    def recording_gmres(matvec, b, *args):
        systems.append((matvec, b.copy()))
        return gmres(matvec, b, *args)

    monkeypatch.setattr(solvers, "gmres", recording_gmres)
    try:
        solve_run(s, solvers.SolverConfig(seed=0))
    except PolyhessError:
        pass
    monkeypatch.undo()
    assert systems, "the solve never reached Newton"
    return systems[0]


def _cube_setting(n, k, lam):
    dom = unit_box(3, n)
    return make_setting(ProblemParams(3, k), lam, constant_datum(dom))


@pytest.mark.parametrize("make", [
    lambda: flagship_setting(24),
    lambda: flagship_setting(24, form=Form.WEAK),
    lambda: _cube_setting(10, 2, 0.05),
    lambda: _cube_setting(10, 3, 0.02),
], ids=["strong-2d", "weak-2d", "strong-3d", "strong-3d-k3"])
def test_gmres_equals_scipy_on_newton_systems(make, monkeypatch):
    matvec, b = _first_newton_system(make(), monkeypatch)
    for rtol in solvers._KRYLOV_RTOLS:
        ours = solvers.gmres(matvec, b, rtol, solvers._KRYLOV_RESTART, solvers._KRYLOV_OUTER)
        theirs = _scipy_gmres(matvec, b, rtol, solvers._KRYLOV_RESTART, solvers._KRYLOV_OUTER)
        assert np.array_equal(ours, theirs)


def _ill_conditioned(rng, n):
    """A nonsymmetric matrix of condition about 1e8 and up."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, 8, n)) @ q.T + rng.standard_normal((n, n))


def test_gmres_equals_scipy_across_restarts():
    # Several restart cycles: the restart residual is recomputed and the
    # inner tolerance adapts both ways (on the ill-conditioned matrix the
    # rotated residual estimate passes where the true residual does not).
    rng = np.random.default_rng(5)
    well = np.eye(60) + 0.4 * rng.standard_normal((60, 60)) / np.sqrt(60)
    ill = _ill_conditioned(np.random.default_rng(6), 40)
    cases = [(well, 1e-3, 40, 5), (well, 1e-10, 5, 3), (well, 1e-12, 3, 50),
             (well, 1e-16, 4, 6), (ill, 1e-14, 40, 5), (ill, 1e-10, 10, 20)]
    for a, rtol, restart, maxiter in cases:
        b = rng.standard_normal(a.shape[0])
        ours = solvers.gmres(lambda v: a @ v, b, rtol, restart, maxiter)
        assert np.array_equal(ours, _scipy_gmres(lambda v: a @ v, b, rtol, restart, maxiter))


def test_gmres_equals_scipy_on_zero_rhs_and_breakdown():
    b = np.random.default_rng(6).standard_normal(50)
    zero = np.zeros(50)
    assert np.array_equal(solvers.gmres(np.copy, zero, 1e-3, 40, 5),
                          _scipy_gmres(np.copy, zero, 1e-3, 40, 5))
    # the identity's Krylov space is spanned by b: the second Arnoldi vector
    # vanishes, which is the breakdown (exact solution) exit
    ours = solvers.gmres(np.copy, b, 1e-7, 40, 5)
    assert np.array_equal(ours, _scipy_gmres(np.copy, b, 1e-7, 40, 5))
    assert np.allclose(ours, b)


def test_lartg_equals_lapack_dlartg():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, 1.0, -1.0, 3.0, -4.0, 1e-300, -1e-300, 1e300, -1e300,
              5e-324, -5e-324, tiny, 2.0 ** -511, 2.0 ** 510.5, 2.0 ** 511, 1e154, -1.5e-154]
    pairs = [(f, g) for f in values for g in values]
    rng = np.random.default_rng(7)
    pairs += list(zip(rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000),
                      rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000)))
    ours = np.array([solvers._lartg(f, g) for f, g in pairs], dtype=float)
    theirs = np.array([scipy_lapack.dlartg(f, g) for f, g in pairs], dtype=float)
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
