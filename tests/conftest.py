"""Shared fixtures: flagship problem settings and cached solver runs.

The solver runs are session-scoped so the expensive pairs are computed once
and shared between the unit tests and the acceptance suite.
"""

import numpy as np
import pytest

from polyhess import (
    Form,
    ProblemParams,
    SolverConfig,
    from_function,
    make_setting,
    sk_of_stack,
    solve_run,
    unit_box,
)


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
