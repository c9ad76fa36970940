"""Pointwise algebra of the k-Hessian nonlinearity.

Everything here acts on small dense symmetric matrices (the pointwise Hessian
of a scalar field), with the matrix side capped at ``MAX_DIM = 8``: the side
is the spatial dimension, never the grid size.

There is one sigma_k kernel, ``sk_of_stack``, and one gradient kernel,
``sk_partials_stack``, both batched over the leading axes of a (..., N, N)
stack; ``sk_of_matrix`` and ``sk_partials`` are their single-matrix front
ends, which validate and symmetrize the input first.  ``sigma_k`` of the
eigenvalues is the independent oracle the checks compare against.

Derivative convention for ``sk_partials``: the (i, j) entry is the derivative
of sigma_k with respect to entry a_ij treating entries as independent, which
for a symmetric matrix equals HALF the derivative along the joint symmetric
perturbation of (a_ij, a_ji).  A finite-difference oracle that perturbs a_ij
and a_ji together therefore has to halve its off-diagonal quotients to match.
Under this convention the divergence-form identities used by the energy
module hold (e.g. sum_ij A_ij * sk_partials(A, k)_ij == k * sk_of_matrix(A, k)).

``sk_of_stack`` sums the k x k principal minors.  For k = 1 it sums the
diagonal entries left to right (the order ``np.trace`` uses); for k = 2 it
sums the entrywise minors m_ii m_jj - m_ij m_ji over the pairs i < j; for
k >= 3 it gathers every principal block with one fancy index and makes one
batched LAPACK determinant call.

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
    and reading off the t^k coefficient: O(N k), stable, no subset
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
        e[1 : k + 1] = e[1 : k + 1] + x * e[0:k]
    return float(e[k])


def sk_of_matrix(a, k: int) -> float:
    """Sum of all k x k principal minors of a symmetric matrix.

    Agrees with sigma_k of the eigenvalues; k = 0 returns 1.
    """
    return float(sk_of_stack(as_symmetric(a), k))


def sk_partials(a, k: int) -> np.ndarray:
    """Matrix of partial derivatives of sigma_k with respect to matrix entries.

    See the module docstring for the symmetric-perturbation convention.
    """
    return sk_partials_stack(as_symmetric(a), k)


def shifted_trace_identity(a, mu: float, k: int) -> tuple[float, float]:
    """Both sides of the shifted principal-minor identity.

    lhs = sk_of_matrix(A - mu*I, k);
    rhs = sum_{i=0}^{k} C(N-i, k-i) * sk_of_matrix(A, i) * (-mu)^{k-i}.
    The two agree identically; the caller asserts |lhs - rhs| is small.
    """
    m = as_symmetric(a)
    n = m.shape[0]
    lhs = sk_of_matrix(m - mu * np.eye(n), k)  # rejects k outside 0..N
    rhs = 0.0
    for i in range(k + 1):
        rhs += math.comb(n - i, k - i) * sk_of_matrix(m, i) * (-mu) ** (k - i)
    return lhs, float(rhs)


def sk_of_stack(mats: np.ndarray, k: int) -> np.ndarray:
    """sigma_k of every matrix in a (..., N, N) stack of symmetric matrices.

    Sums the k x k principal minors over the batch axes: for k = 2 each
    2 x 2 minor is read entrywise from the stack (no sub-block copies);
    larger blocks go through one batched LAPACK determinant call.
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
    if k == 2:
        total = np.zeros(batch)
        for i, j in itertools.combinations(range(n), 2):
            total += m[..., i, i] * m[..., j, j] - m[..., i, j] * m[..., j, i]
        return total
    idx = np.array(list(itertools.combinations(range(n), k)))
    blocks = m[..., idx[:, :, None], idx[:, None, :]]  # batch + (subsets, k, k)
    # exactly singular blocks (zero Hessians) trip a spurious numpy warning
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(blocks).sum(axis=-1)


def sk_partials_stack(mats: np.ndarray, k: int) -> np.ndarray:
    """Gradient matrices of sigma_k for a (..., N, N) stack of symmetric matrices.

    Evaluates sum_{j<k} (-1)^j sigma_{k-1-j}(A) A^j term by term (see the
    module docstring), which for symmetric A is the matrix of per-entry
    minor derivatives; tests check it against central differences of
    sigma_k.
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
