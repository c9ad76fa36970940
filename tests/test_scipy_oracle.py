"""scipy as the oracle of the numpy-only kernels.

polyhess runs on numpy alone.  Its GMRES and its Givens rotation perform
scipy's (and LAPACK's ``dlartg``) operations in their order, so their
outputs must equal scipy's exactly, not to a tolerance.  Its type-I DST is
a product with a dense sine matrix, not pocketfft's FFT of the odd
extension, so it matches scipy's ``dstn`` and ``idstn`` to 1e-14 of the
largest input value; its sine matrix is checked symmetric bit for bit and
the transform its own inverse to the same tolerance.  scipy is a test
dependency only: without it these tests are skipped.
"""

import numpy as np
import pytest

from polyhess import Form, ProblemParams, PolyhessError, make_setting, solve_run, unit_box
from polyhess import solvers
from polyhess.grid import _dst1, _sine_matrix

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
    tol = 1e-14 * np.max(np.abs(x))
    ours = _dst1(x)
    assert np.max(np.abs(ours - scipy_fft.dstn(x, type=1, norm="ortho"))) <= tol
    assert np.max(np.abs(ours - scipy_fft.idstn(x, type=1, norm="ortho"))) <= tol
    assert np.max(np.abs(_dst1(ours) - x)) <= tol
    for n in shape:
        table = _sine_matrix(n)
        assert table.tobytes() == np.ascontiguousarray(table.T).tobytes()


def _scipy_gmres(matvec, b, rtol, restart, maxiter):
    m = b.size
    op = scipy_sparse_linalg.LinearOperator((m, m), matvec=matvec, dtype=float)
    x, _ = scipy_sparse_linalg.gmres(op, b, rtol=rtol, atol=0.0,
                                     restart=restart, maxiter=maxiter)
    return x


def _first_newton_system(s, monkeypatch):
    """The Jacobian action I - N'(G w) G and right-hand side of the first
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
    # scipy with maxiter=5 restarts when its first cycle misses the
    # tolerance; equal bits there too show that these systems need no restart
    matvec, b = _first_newton_system(make(), monkeypatch)
    for rtol in (1e-3, solvers._KRYLOV_RTOL):
        ours = solvers.gmres(matvec, b, rtol, solvers._KRYLOV_RESTART)
        for maxiter in (1, 5):
            theirs = _scipy_gmres(matvec, b, rtol, solvers._KRYLOV_RESTART, maxiter)
            assert ours.tobytes() == theirs.tobytes()


def _ill_conditioned(rng, n):
    """A nonsymmetric matrix of condition about 1e8 and up."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.logspace(0, 8, n)) @ q.T + rng.standard_normal((n, n))


def test_gmres_equals_scipy_in_one_cycle():
    # Cycles of 3 to 40 steps on well- and ill-conditioned matrices, ending
    # at the tolerance or at the end of the cycle short of it.
    rng = np.random.default_rng(5)
    well = np.eye(60) + 0.4 * rng.standard_normal((60, 60)) / np.sqrt(60)
    ill = _ill_conditioned(np.random.default_rng(6), 40)
    cases = [(well, 1e-3, 40), (well, 1e-10, 5), (well, 1e-12, 3),
             (well, 1e-16, 4), (ill, 1e-14, 40), (ill, 1e-10, 10)]
    for a, rtol, restart in cases:
        b = rng.standard_normal(a.shape[0])
        ours = solvers.gmres(lambda v: a @ v, b, rtol, restart)
        assert ours.tobytes() == _scipy_gmres(lambda v: a @ v, b, rtol, restart, 1).tobytes()


def test_gmres_equals_scipy_on_zero_rhs_and_breakdown():
    b = np.random.default_rng(6).standard_normal(50)
    zero = np.zeros(50)
    assert (solvers.gmres(np.copy, zero, 1e-3, 40).tobytes()
            == _scipy_gmres(np.copy, zero, 1e-3, 40, 1).tobytes())
    # the identity's Krylov space is spanned by b: the second Arnoldi vector
    # vanishes, which is the breakdown (exact solution) exit
    ours = solvers.gmres(np.copy, b, 1e-7, 40)
    assert ours.tobytes() == _scipy_gmres(np.copy, b, 1e-7, 40, 1).tobytes()
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
