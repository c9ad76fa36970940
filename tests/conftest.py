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
    solve_run,
    unit_box,
)


def constant_datum(dom, value=1.0):
    return from_function(dom, lambda *mesh: value * np.ones_like(mesh[0]))


def flagship_setting(n, lam=0.05, form=Form.STRONG):
    dom = unit_box(2, n)
    f = constant_datum(dom)
    return make_setting(ProblemParams(2, 2), lam, f, form=form)


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
