"""Pointwise algebra of the k-Hessian nonlinearity.

Everything here acts on small dense symmetric matrices (the pointwise Hessian
of a scalar field), with the dimension capped at ``MAX_DIM = 8``: the matrix
side is the spatial dimension, never the grid size, so combinatorial
principal-minor enumeration is cheap and we avoid dragging an eigensolver
into the hot path.

Derivative convention for ``sk_partials``: the (i, j) entry is the derivative
of sigma_k with respect to entry a_ij treating entries as independent, which
for a symmetric matrix equals HALF the derivative along the joint symmetric
perturbation of (a_ij, a_ji).  A finite-difference oracle that perturbs a_ij
and a_ji together therefore has to halve its off-diagonal quotients to match.
Under this convention the divergence-form identities used by the energy
module hold (e.g. sum_ij A_ij * sk_partials(A, k)_ij == k * sk_of_matrix(A, k)).

``sk_of_stack`` / ``sk_partials_stack`` are vectorized variants over a
leading batch of matrices; they exist for the grid hot path and are
cross-checked against the scalar versions in the test suite.  For k = 1,
``sk_of_stack`` sums the diagonal entries left to right (the order
``np.trace`` uses); for k = 2 it sums the entrywise minors
m_ii m_jj - m_ij m_ji over the pairs i < j, in the same order and with the
same operations as ``sk_of_matrix``, so on exactly symmetric input the two
agree bit for bit.

``sk_partials_stack`` evaluates the closed form
sum_{j<k} (-1)^j sigma_{k-1-j}(A) A^j directly: I for k = 1, sigma_1 I - A
for k = 2 and sigma_2 I - sigma_1 A + A A for k = 3 (every order a grid of
dimension <= 3 reaches), with no identity stack, no multiplication by
sigma_0 = 1 and no product with I.  The terms are added in increasing
powers of A; tests pin the result bit for bit to the series accumulated
from an identity stack, which the strong-form Jacobian relies on.

Every operation is a pure function of its arguments; there is no shared
mutable state, so concurrent callers need no coordination.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

MAX_DIM = 8


def as_symmetric(a, *, tol: float = 0.0) -> np.ndarray:
    """Validate a square symmetric matrix and return its symmetrized float copy.

    Asymmetry beyond ``tol`` (absolute, relative to the largest entry) is an
    error; the returned copy is exactly symmetric.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported cap {MAX_DIM}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if float(np.max(np.abs(m - m.T))) > tol * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + m.T)


def sigma_k(values, k: int) -> float:
    """k-th elementary symmetric polynomial of a sequence of eigenvalues.

    Computed by multiplying out prod_i (1 + lambda_i t) one factor at a time
    and reading off the t^k coefficient: O(N k), stable, no sorting or subset
    enumeration.  k = 0 returns 1 by convention.
    """
    lam = np.sort(np.asarray(values, dtype=float).ravel())  # canonical order:
    # permutations of the input then give bit-identical results
    n = lam.size
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for {n} eigenvalues")
    e = np.zeros(k + 1)
    e[0] = 1.0
    for x in lam:
        upto = min(k, n)
        e[1 : upto + 1] = e[1 : upto + 1] + x * e[0:upto]
    return float(e[k])


def _det_cofactor(m: np.ndarray) -> float:
    """Determinant by cofactor expansion; intended for sides <= 4."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    if n == 2:
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if n == 3:
        return float(
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    rest = np.arange(1, n)
    acc = 0.0
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        acc += (-1.0) ** j * m[0, j] * _det_cofactor(m[np.ix_(rest, cols)])
    return float(acc)


def _principal_det(m: np.ndarray) -> float:
    if m.shape[0] <= 4:
        return _det_cofactor(m)
    return float(np.linalg.det(m))  # LU with partial pivoting


def sk_of_matrix(a, k: int) -> float:
    """Sum of all k x k principal minors of a symmetric matrix.

    Agrees with sigma_k of the eigenvalues; k = 0 returns 1.
    """
    m = as_symmetric(a)
    n = m.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    if k == 0:
        return 1.0
    idx = np.arange(n)
    total = 0.0
    for subset in itertools.combinations(idx, k):
        sub = m[np.ix_(subset, subset)]
        total += _principal_det(sub)
    return float(total)


def sk_partials(a, k: int) -> np.ndarray:
    """Matrix of partial derivatives of sigma_k with respect to matrix entries.

    Entry (i, j) sums, over every k-subset containing both i and j, the signed
    (k-1)-minor complementary to position (i, j) inside that principal block.
    See the module docstring for the symmetric-perturbation convention.
    """
    m = as_symmetric(a)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    out = np.zeros((n, n))
    idx = np.arange(n)
    for subset in itertools.combinations(idx, k):
        sub = m[np.ix_(subset, subset)]
        for p, i in enumerate(subset):
            rows = [r for r in range(k) if r != p]
            for q, j in enumerate(subset):
                cols = [c for c in range(k) if c != q]
                if k == 1:
                    minor = 1.0
                else:
                    minor = _principal_det(sub[np.ix_(rows, cols)])
                out[i, j] += (-1.0) ** (p + q) * minor
    return 0.5 * (out + out.T)


def shifted_trace_identity(a, mu: float, k: int) -> tuple[float, float]:
    """Both sides of the shifted principal-minor identity.

    lhs = sk_of_matrix(A - mu*I, k);
    rhs = sum_{i=0}^{k} C(N-i, k-i) * sk_of_matrix(A, i) * (-mu)^{k-i}.
    The two agree identically; the caller asserts |lhs - rhs| is small.
    """
    m = as_symmetric(a)
    n = m.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    lhs = sk_of_matrix(m - mu * np.eye(n), k)
    rhs = 0.0
    for i in range(k + 1):
        rhs += math.comb(n - i, k - i) * sk_of_matrix(m, i) * (-mu) ** (k - i)
    return lhs, float(rhs)


def sk_of_stack(mats: np.ndarray, k: int) -> np.ndarray:
    """sigma_k of every matrix in a (..., N, N) stack of symmetric matrices.

    Principal-minor enumeration vectorized over the batch axes.  For k = 2
    each 2 x 2 minor is read entrywise from the stack (no sub-block copies);
    larger blocks go through LAPACK's batched determinant.  Matches
    sk_of_matrix elementwise.
    """
    m = np.asarray(mats, dtype=float)
    n = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != n:
        raise ValueError(f"expected a (..., N, N) stack, got shape {m.shape}")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported cap {MAX_DIM}")
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    batch = m.shape[:-2]
    if k == 0:
        return np.ones(batch)
    if k == 1:
        total = m[..., 0, 0].copy()
        for i in range(1, n):
            total += m[..., i, i]
        return total
    total = np.zeros(batch)
    for subset in itertools.combinations(range(n), k):
        if k == 2:
            i, j = subset
            total += m[..., i, i] * m[..., j, j] - m[..., i, j] * m[..., j, i]
        else:
            sub = m[(Ellipsis,) + np.ix_(subset, subset)]
            # exactly singular blocks (zero Hessians) trip a spurious numpy warning
            with np.errstate(divide="ignore", invalid="ignore"):
                total += np.linalg.det(sub)
    return total


def sk_partials_stack(mats: np.ndarray, k: int) -> np.ndarray:
    """Gradient matrices of sigma_k for a (..., N, N) stack of symmetric matrices.

    Evaluates sum_{j<k} (-1)^j sigma_{k-1-j}(A) A^j term by term (see the
    module docstring), which for symmetric A gives the same matrix as
    per-entry minor differentiation; the equivalence is pinned down by tests
    against sk_partials.
    """
    m = np.asarray(mats, dtype=float)
    n = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != n:
        raise ValueError(f"expected a (..., N, N) stack, got shape {m.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    out = np.zeros(m.shape)
    lead = sk_of_stack(m, k - 1)
    for i in range(n):
        out[..., i, i] += lead
    power = m
    for j in range(1, k):
        if j > 1:
            power = power @ m
        # sigma_0 = 1: the last term is the bare power
        term = power if j == k - 1 else sk_of_stack(m, k - 1 - j)[..., None, None] * power
        if j % 2:
            out -= term
        else:
            out += term
    return out
